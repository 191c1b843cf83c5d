// Shared plumbing of the end-to-end benchmark driver: run arguments, the
// result record printed as the last stdout line, order statistics, the
// machine-drift reference kernel and set-up timing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"  // the repository's Table I harness helpers
#include "rrplace.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one invocation reports: the correctness verdict, the operation
/// counts, and the named metrics (end-to-end or per-layer, by --trace).
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Record a failed output check; any failure makes the run incorrect.
  void fail(const std::string& what) {
    ++failed_;
    if (failures_shown_++ < 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }

  /// The single JSON result line (last line of stdout).
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  int failures_shown_ = 0;
};

/// Nearest-rank quantile q in [0, 1] of `v` (sorted in place). 0 when empty.
double quantile(std::vector<double>& v, double q);
inline double median(std::vector<double> v) { return quantile(v, 0.5); }
double mean(const std::vector<double>& v);

/// A fixed, rrplace-independent integer workload (about a millisecond).
/// Timed next to the measured work, it shows how fast the machine runs
/// right now; traced runs report it as machine.ref_ms.
double reference_kernel_ms();

/// Runs the reference kernel on `threads` threads at once, three times
/// each after one warm-up call, and returns every sample.
std::vector<double> reference_samples(int threads);

/// The reference kernel's time on a quiet host of the kind the benchmark
/// was tuned on; rescaled timings read as if the kernel had taken this long.
inline constexpr double kReferenceNominalMs = 1.4;

/// Factor that rescales a wall time measured while the reference kernel
/// took `ref_ms` (samples taken around it) to the nominal machine speed.
/// Times are multiplied by it and rates divided, which removes the host's
/// speed drift between runs; see NOTES.md for where it is used and why.
inline double drift_scale(const std::vector<double>& ref_ms) {
  const double m = median(ref_ms);
  return m > 0.0 ? kReferenceNominalMs / m : 1.0;
}

/// Runs `work` `repeats` times and returns the median of its wall times,
/// each rescaled by drift_scale over kernel samples taken just before and
/// just after it.
template <typename Work>
double median_setup_s(int repeats, Work&& work) {
  std::vector<double> seconds;
  double before = reference_kernel_ms();
  for (int r = 0; r < repeats; ++r) {
    rr::Stopwatch watch;
    work();
    const double s = watch.seconds();
    const double after = reference_kernel_ms();
    seconds.push_back(s * drift_scale({(before + after) / 2}));
    before = after;
  }
  return median(seconds);
}

/// Seed of the parts of a workload that stay fixed across runs: the fabric
/// and the module pool or library, as in a deployed system with one device
/// and one set of modules. The run seed drives what varies between runs
/// (which modules meet in an instance, the request stream).
inline constexpr std::uint64_t kSystemSeed = 2011;

/// Deterministic 64-bit mix of the run seed with a stream tag.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Per-layer metric values of a traced run, by name. Every workload reports
/// the same list (layers a workload does not exercise read 0), so
/// add_layer_metrics emits each declared name exactly once, with its unit.
using LayerValues = std::vector<std::pair<std::string, double>>;
void add_layer_metrics(Report& report, const LayerValues& values);

int run_table1(const Args& args, Report& report);
int run_service(const Args& args, Report& report);

}  // namespace perfbench
