// Shared helpers for the table/figure bench harnesses.
#pragma once

#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "rrplace.hpp"
#include "util/env.hpp"
#include "util/simd/simd.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace rr::bench {

/// Evaluation-scale knobs. Defaults are CI-sized; set RRPLACE_FULL=1 to run
/// the paper's full configuration (50 runs x 30 modules), or override the
/// individual RRPLACE_* variables.
struct EvalConfig {
  int runs;
  int modules;
  double time_limit;  // seconds per solve
  std::uint64_t seed;

  static EvalConfig from_env() {
    EvalConfig config{};
    const bool full = env_int("RRPLACE_FULL", 0) != 0;
    config.runs = env_int("RRPLACE_RUNS", full ? 50 : 6);
    config.modules = env_int("RRPLACE_MODULES", full ? 30 : 12);
    config.time_limit =
        env_double("RRPLACE_TIME_LIMIT", full ? 10.0 : 1.0);
    config.seed = static_cast<std::uint64_t>(env_int("RRPLACE_SEED", 2011));
    return config;
  }

  void print(std::ostream& os) const {
    os << "# config: runs=" << runs << " modules=" << modules
       << " time_limit=" << time_limit << "s seed=" << seed
       << "  (set RRPLACE_FULL=1 for the paper-scale run)\n";
  }

  [[nodiscard]] json::Value to_json() const {
    json::Value doc = json::Value::object();
    doc.set("runs", json::Value(runs));
    doc.set("modules", json::Value(modules));
    doc.set("time_limit", json::Value(time_limit));
    doc.set("seed", json::Value(seed));
    // A record is only comparable with one taken at the same dispatch
    // level (RRPLACE_SIMD=off gives "scalar").
    doc.set("simd", json::Value(simd::level_name(simd::active_level())));
    return doc;
  }
};

/// Which direction of a pinned metric counts as better.
enum class Better { kHigher, kLower };

/// Observability hook for bench harnesses. Construct it first thing in
/// main(): when $RRPLACE_BENCH_JSON is set (1 for the default location,
/// anything else as a directory), it enables metrics collection and, on
/// destruction, writes an `rrplace-bench-v1` record
///
///   {"schema", "bench", "config", "gate", "results", "metrics"}
///
/// to BENCH_<name>.json — the trajectory file CI archives and
/// tools/check_stats_json validates. Add result rows via add_result().
///
/// The record's gate is what CI holds against the committed baseline in
/// bench/baselines/: tools/bench_diff fails when a pin() metric moves the
/// wrong way by more than `max_regression_pct` percent. Pin ratios and
/// counts (speedups, mismatch counts), not wall-clock times: both arms of a
/// ratio share the machine, so it survives runner speed differences.
class StatsJsonWriter {
 public:
  StatsJsonWriter(std::string bench_name, const EvalConfig& config,
                  double max_regression_pct = 25.0)
      : name_(std::move(bench_name)), max_regression_pct_(max_regression_pct) {
    const std::string mode = env_string("RRPLACE_BENCH_JSON", "");
    if (mode.empty() || mode == "0") return;
    enabled_ = true;
    directory_ = mode == "1" ? std::string(".") : mode;
    metrics::set_enabled(true);
    config_ = config.to_json();
  }

  StatsJsonWriter(const StatsJsonWriter&) = delete;
  StatsJsonWriter& operator=(const StatsJsonWriter&) = delete;

  /// Record one named result (means, ratios, ... — harness-defined).
  void add_result(std::string_view key, json::Value value) {
    results_.set(key, std::move(value));
  }

  /// Summaries get the standard {count, mean, min, max} shape.
  void add_result(std::string_view key, const RunningStats& stats) {
    json::Value entry = json::Value::object();
    entry.set("count", json::Value(stats.count()));
    entry.set("mean", json::Value(stats.mean()));
    entry.set("min", json::Value(stats.count() ? stats.min() : 0.0));
    entry.set("max", json::Value(stats.count() ? stats.max() : 0.0));
    results_.set(key, std::move(entry));
  }

  /// Gate result `key` (a summary gates on its mean). A baseline of 0
  /// turns the check absolute: a kLower metric must stay 0, a kHigher one
  /// always passes.
  void pin(std::string_view key, Better better) {
    pins_.set(key, json::Value(better == Better::kHigher ? "higher" : "lower"));
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  ~StatsJsonWriter() {
    if (!enabled_) return;
    json::Value doc = json::Value::object();
    doc.set("schema", json::Value("rrplace-bench-v1"));
    doc.set("bench", json::Value(name_));
    doc.set("config", config_.is_object() ? std::move(config_)
                                          : json::Value::object());
    json::Value gate = json::Value::object();
    gate.set("max_regression_pct", json::Value(max_regression_pct_));
    gate.set("pins", std::move(pins_));
    doc.set("gate", std::move(gate));
    doc.set("results", results_.is_object() ? std::move(results_)
                                            : json::Value::object());
    doc.set("metrics", metrics::global().to_json());
    const std::string path = directory_ + "/BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (out) {
      out << doc.dump(2) << '\n';
      std::cout << "# bench record written to " << path << '\n';
    } else {
      std::cerr << "# cannot write bench record to " << path << '\n';
    }
  }

 private:
  std::string name_;
  double max_regression_pct_;
  bool enabled_ = false;
  std::string directory_;
  json::Value config_;
  json::Value results_ = json::Value::object();
  json::Value pins_ = json::Value::object();
};

/// The paper's evaluation workload generator (§V.A): 20-100 CLBs, 0-4
/// embedded memory blocks, four design alternatives.
inline model::GeneratorParams paper_workload_params() {
  model::GeneratorParams params;
  params.clb_min = 20;
  params.clb_max = 100;
  params.bram_blocks_min = 0;
  params.bram_blocks_max = 4;
  params.bram_block_height = 2;
  params.alternatives = 4;
  params.max_height = 14;
  // Modules stay narrower than the BRAM column period of the evaluation
  // device (12), so every layout has fabric-compatible anchors.
  params.max_width = 11;
  return params;
}

/// The evaluation region: the reconfigurable part of the evaluation device
/// (its static right flank is excluded by availability masks). Sized so the
/// workload spans well under the region width even without alternatives.
inline std::shared_ptr<fpga::PartialRegion> make_eval_region(
    std::uint64_t seed, int modules) {
  // Scale the region width with the workload so spanned-area utilization
  // (not feasibility) is what the experiment measures.
  // The minimum of 48 columns keeps at least four BRAM columns available:
  // narrower regions can be genuinely unplaceable for base layouts (wide
  // memory modules competing for too few columns), which would conflate
  // placeability with packing quality in the utilization comparison.
  const int height = 28;
  const int avg_module_cells = 64;
  const int width =
      std::max(48, modules * avg_module_cells * 2 / height);
  fpga::IrregularSpec spec;
  spec.base.bram_period = 12;
  spec.base.bram_offset = 5;
  spec.base.dsp_period = 0;  // the §V workload requests CLB + BRAM only
  spec.base.center_clock_column = true;
  spec.base.edge_io = false;
  auto fabric = std::make_shared<const fpga::Fabric>(
      fpga::make_irregular(width, height, spec, seed));
  return std::make_shared<fpga::PartialRegion>(fabric);
}

}  // namespace rr::bench
