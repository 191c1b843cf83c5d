// Geost kernel microbench — incremental vs from-scratch propagation.
//
// Solves the same seeded reduced Table I models (tests/reference/
// reduced_model) twice, once per non-overlap engine — production's
// incremental engine and the from-scratch reference — under a fixed fail
// budget and no deadline so both searches are deterministic and explore the
// identical tree. The engines must agree exactly (extent, placements, node
// and fail counts); the point of the bench is the per-kind kGeost
// propagation-time column, where the incremental engine should come out
// ahead.
#include "bench_common.hpp"
#include "reference/reduced_model.hpp"

int main() {
  using namespace rr;
  const bench::EvalConfig config = bench::EvalConfig::from_env();
  config.print(std::cout);
  bench::StatsJsonWriter record("nonoverlap_kernel", config);
  // The geost timer is the measurement here, not an optional extra.
  metrics::set_enabled(true);

  const auto geost_ns = [](const reference::ReducedOutcome& outcome) {
    return outcome.space_stats
        .by_kind[static_cast<std::size_t>(cp::PropKind::kGeost)]
        .time_ns;
  };

  RunningStats incr_ms, scratch_ms, speedup;
  int mismatches = 0;
  int infeasible = 0;
  TextTable table({"Run", "Extent", "Geost incr", "Geost scratch", "Speedup",
                   "Identical"});
  for (int run = 0; run < config.runs; ++run) {
    const std::uint64_t seed = config.seed + static_cast<std::uint64_t>(run);
    const auto region = bench::make_eval_region(seed, config.modules);
    model::ModuleGenerator generator(bench::paper_workload_params(), seed);
    const auto modules = generator.generate_many(config.modules);

    reference::ReducedOutcome outcomes[2];
    for (const bool incremental : {false, true}) {
      reference::ReducedEngines engines;
      engines.geost = incremental ? reference::GeostEngine::kIncremental
                                  : reference::GeostEngine::kScratch;
      outcomes[incremental] = reference::solve_reduced_table1(
          *region, modules, engines, seed, /*max_fails=*/5000);
    }
    const auto& incr = outcomes[1];
    const auto& scratch = outcomes[0];
    if (!incr.solution.feasible && !scratch.solution.feasible) {
      ++infeasible;
      continue;
    }
    // Identical trees or bust: any divergence is an engine bug, not noise.
    const bool identical = incr.same_tree(scratch);
    if (!identical) ++mismatches;
    const auto report = placer::validate(*region, modules, incr.solution);
    if (!report.ok()) {
      std::cerr << "VALIDATION FAILED: " << report.errors.front() << '\n';
      return 1;
    }
    const double incr_time = static_cast<double>(geost_ns(incr)) / 1e6;
    const double scratch_time = static_cast<double>(geost_ns(scratch)) / 1e6;
    incr_ms.add(incr_time);
    scratch_ms.add(scratch_time);
    if (incr_time > 0) speedup.add(scratch_time / incr_time);
    table.add_row({std::to_string(run),
                   std::to_string(incr.solution.extent),
                   TextTable::num(incr_time, 2) + "ms",
                   TextTable::num(scratch_time, 2) + "ms",
                   incr_time > 0
                       ? TextTable::num(scratch_time / incr_time, 2) + "x"
                       : "-",
                   identical ? "yes" : "NO"});
  }
  table.add_row({"mean", "-", TextTable::num(incr_ms.mean(), 2) + "ms",
                 TextTable::num(scratch_ms.mean(), 2) + "ms",
                 TextTable::num(speedup.mean(), 2) + "x",
                 mismatches == 0 ? "yes" : "NO"});
  table.print(std::cout,
              "Geost non-overlap kernel: incremental vs from-scratch "
              "propagation time (identical B&B trees)");
  if (infeasible > 0)
    std::cout << "# " << infeasible << " infeasible run(s) skipped\n";

  record.add_result("geost_ms_incremental", incr_ms);
  record.add_result("geost_ms_scratch", scratch_ms);
  record.add_result("speedup", speedup);
  record.pin("speedup", bench::Better::kHigher);
  record.add_result("mismatches", json::Value(mismatches));
  record.pin("mismatches", bench::Better::kLower);
  record.add_result("infeasible_runs", json::Value(infeasible));
  if (mismatches > 0) {
    std::cerr << "ENGINE MISMATCH: incremental and from-scratch kernels "
                 "disagreed on "
              << mismatches << " run(s)\n";
    return 1;
  }
  return 0;
}
