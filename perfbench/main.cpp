// Benchmark driver: one process runs one workload for a fixed wall-clock
// budget and prints its metrics as a JSON object on the last stdout line.
//
//   rrbench --workload <table1_offline|service_churn|fault_storm>
//           --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the separate
// traced run over the same inputs and reports the per-layer metrics.
// Normally launched through run.py, which builds this binary first.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "util/log.hpp"

namespace perfbench {

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double reference_kernel_ms() {
  // Insertion-sorts blocks of xorshift values: integer ALU work plus
  // L1-resident memory traffic, no allocation, no library code. The block
  // is per call, so threads may run the kernel concurrently. Every call
  // sorts fresh values: with the same values each time, the branch
  // predictor learned the sort when calls came close together, and the
  // kernel ran 1.5x faster then than after a pause.
  static thread_local std::uint64_t calls = 0;
  std::uint32_t block[512];
  std::uint64_t state = 0x243F6A8885A308D3ULL + ++calls * 0x9E3779B97F4A7C15ULL;
  std::uint64_t checksum = 0;
  rr::Stopwatch watch;
  for (int round = 0; round < 24; ++round) {
    for (std::uint32_t& x : block) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      x = static_cast<std::uint32_t>(state);
    }
    for (std::size_t i = 1; i < std::size(block); ++i) {
      const std::uint32_t key = block[i];
      std::size_t j = i;
      for (; j > 0 && block[j - 1] > key; --j) block[j] = block[j - 1];
      block[j] = key;
    }
    checksum += block[round];
  }
  const double ms = watch.seconds() * 1e3;
  // Keep the result observable so the work cannot be optimized away.
  if (checksum == 42) std::fprintf(stderr, "#\n");
  return ms;
}

std::vector<double> reference_samples(int threads) {
  // Sized up front, so the threads only assign (nothing in them throws).
  std::vector<std::vector<double>> samples(static_cast<std::size_t>(threads),
                                           std::vector<double>(3));
  std::vector<std::thread> pool;
  for (auto& mine : samples)
    pool.emplace_back([&mine] {
      reference_kernel_ms();  // warm-up: the core may have been idle
      for (double& ms : mine) ms = reference_kernel_ms();
    });
  for (std::thread& t : pool) t.join();
  std::vector<double> all;
  for (const auto& mine : samples) all.insert(all.end(), mine.begin(), mine.end());
  return all;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL + stream;
  return rr::splitmix64(state);
}

namespace {

struct LayerMetric {
  std::string name;
  const char* unit;
};

std::vector<LayerMetric> layer_schema() {
  std::vector<LayerMetric> schema = {
      {"placer.tables_s", "s"},
      {"placer.model_build_s", "s"},
      {"cp.search_s", "s"},
      {"cp.nodes", "count"},
      {"cp.fails", "count"},
      {"cp.propagations", "count"},
      {"cp.nodes_per_s", "1/s"},
      {"cp.proven_frac", "fraction"},
  };
  for (int k = 0; k < rr::cp::kNumPropKinds; ++k) {
    const std::string kind =
        rr::cp::prop_kind_name(static_cast<rr::cp::PropKind>(k));
    schema.push_back({"cp.prop_runs." + kind, "count"});
    schema.push_back({"cp.prop_s." + kind, "s"});
    schema.push_back({"cp.prop_fail_frac." + kind, "fraction"});
  }
  const std::vector<LayerMetric> rest = {
      {"latency.p99_us", "us"},
      {"quality.util_base", "fraction"},
      {"quality.util_gain_pts", "pts"},
      {"tenant.place_us.p50", "us"},
      {"tenant.place_us.p99", "us"},
      {"tenant.remove_us.p50", "us"},
      {"tenant.defrag_us.p50", "us"},
      {"tenant.defrag_us.p99", "us"},
      {"tenant.fault_us.p50", "us"},
      {"tenant.fault_us.p99", "us"},
      {"free_space.rects_mean", "count"},
      {"service.apply_us", "us"},
      {"service.dispatch_us", "us"},
      {"service.batch_mean", "count"},
      {"defrag.attempts", "count"},
      {"defrag.success_frac", "fraction"},
      {"defrag.relocated_tiles", "count"},
      {"defrag.deadline_expiries", "count"},
      {"cache.hit_frac", "fraction"},
      {"cache.misses", "count"},
      {"fault.displaced", "count"},
      {"fault.recovered", "count"},
      {"fault.recovered_frac", "fraction"},
      {"ops", "count"},
      {"failed_ops", "count"},
      {"noop_removes", "count"},
      {"mismatches", "count"},
      {"machine.ref_ms", "ms"},
      {"trace.overhead_frac", "fraction"},
  };
  schema.insert(schema.end(), rest.begin(), rest.end());
  return schema;
}

}  // namespace

void add_layer_metrics(Report& report, const LayerValues& values) {
  const std::vector<LayerMetric> schema = layer_schema();
  for (const auto& [name, value] : values) {
    const bool known =
        std::any_of(schema.begin(), schema.end(),
                    [&](const LayerMetric& m) { return m.name == name; });
    if (!known) throw std::logic_error("undeclared layer metric " + name);
  }
  for (const LayerMetric& m : schema) {
    double value = 0.0;
    for (const auto& [name, v] : values)
      if (name == m.name) value = v;
    report.add(m.name, value, m.unit);
  }
}

void Report::print() const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed_ == 0 && attempted_ > 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: rrbench --workload <table1_offline|service_churn|"
               "fault_storm> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !(args.seconds > 0.0)) return usage();

  // Library warnings (e.g. a module with no anchor on a faulted defrag
  // sub-region) are expected under the fault workload; keep stderr quiet.
  rr::set_log_level(rr::LogLevel::kError);
  perfbench::Report report;
  int status = 0;
  try {
    if (args.workload == "table1_offline") {
      status = perfbench::run_table1(args, report);
    } else if (args.workload == "service_churn" ||
               args.workload == "fault_storm") {
      status = perfbench::run_service(args, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rrbench: %s\n", e.what());
    return 1;
  }
  if (status != 0) return status;
  report.print();
  return 0;
}
