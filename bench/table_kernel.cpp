// Element kernel microbench — compact-table vs scanning propagation.
//
// The reduced Table I model (tests/reference/reduced_model) runs under
// seeded branch-and-bound twice on identical search trees (same seeds,
// fail budgets, no deadline), with the placement->extent element
// constraint switched between production's compact engine and its
// scanning memory-guard fallback. The engines must agree exactly, so the
// kElement propagation-time columns are directly comparable. Any tree
// divergence exits nonzero — it is an engine bug, not noise.
#include "bench_common.hpp"
#include "reference/reduced_model.hpp"

namespace {

using namespace rr;

std::uint64_t kind_ns(const cp::SpaceStats& stats, cp::PropKind kind) {
  return stats.by_kind[static_cast<std::size_t>(kind)].time_ns;
}

}  // namespace

int main() {
  const bench::EvalConfig config = bench::EvalConfig::from_env();
  config.print(std::cout);
  bench::StatsJsonWriter record("table_kernel", config);
  // The per-kind timers are the measurement here, not an optional extra.
  metrics::set_enabled(true);

  int mismatches = 0;

  RunningStats element_compact_ms, element_scan_ms, element_speedup;
  int infeasible = 0;
  TextTable element_table({"Run", "Extent", "Element compact",
                           "Element scan", "Speedup", "Identical"});
  for (int run = 0; run < config.runs; ++run) {
    const std::uint64_t seed = config.seed + static_cast<std::uint64_t>(run);
    const auto region = bench::make_eval_region(seed, config.modules);
    model::ModuleGenerator generator(bench::paper_workload_params(), seed);
    const auto modules = generator.generate_many(config.modules);

    reference::ReducedOutcome outcomes[2];
    for (const bool compact : {false, true}) {
      reference::ReducedEngines engines;
      engines.element = compact ? reference::ElementEngine::kCompact
                                : reference::ElementEngine::kScanning;
      outcomes[compact] = reference::solve_reduced_table1(
          *region, modules, engines, seed, /*max_fails=*/5000);
    }
    const auto& comp = outcomes[1];
    const auto& scan = outcomes[0];
    if (!comp.solution.feasible && !scan.solution.feasible) {
      ++infeasible;
      continue;
    }
    // Identical trees or bust: same extent, same placements, same node and
    // fail counts.
    const bool identical = comp.same_tree(scan);
    if (!identical) ++mismatches;
    const auto report = placer::validate(*region, modules, comp.solution);
    if (!report.ok()) {
      std::cerr << "VALIDATION FAILED: " << report.errors.front() << '\n';
      return 1;
    }
    const double compact_ms = static_cast<double>(kind_ns(
                                  comp.space_stats, cp::PropKind::kElement)) /
                              1e6;
    const double scan_ms = static_cast<double>(kind_ns(
                               scan.space_stats, cp::PropKind::kElement)) /
                           1e6;
    element_compact_ms.add(compact_ms);
    element_scan_ms.add(scan_ms);
    if (compact_ms > 0) element_speedup.add(scan_ms / compact_ms);
    element_table.add_row(
        {std::to_string(run), std::to_string(comp.solution.extent),
         TextTable::num(compact_ms, 2) + "ms",
         TextTable::num(scan_ms, 2) + "ms",
         compact_ms > 0 ? TextTable::num(scan_ms / compact_ms, 2) + "x" : "-",
         identical ? "yes" : "NO"});
  }
  element_table.add_row(
      {"mean", "-", TextTable::num(element_compact_ms.mean(), 2) + "ms",
       TextTable::num(element_scan_ms.mean(), 2) + "ms",
       TextTable::num(element_speedup.mean(), 2) + "x",
       mismatches == 0 ? "yes" : "NO"});
  element_table.print(std::cout,
                      "Element kernel: compact-table vs scanning propagation "
                      "time (identical B&B trees)");
  if (infeasible > 0)
    std::cout << "# " << infeasible << " infeasible run(s) skipped\n";

  record.add_result("element_ms_compact", element_compact_ms);
  record.add_result("element_ms_scanning", element_scan_ms);
  record.add_result("element_speedup", element_speedup);
  record.pin("element_speedup", bench::Better::kHigher);
  record.add_result("mismatches", json::Value(mismatches));
  record.pin("mismatches", bench::Better::kLower);
  record.add_result("infeasible_runs", json::Value(infeasible));
  if (mismatches > 0) {
    std::cerr << "ENGINE MISMATCH: compact and scanning propagators "
                 "disagreed on "
              << mismatches << " run(s)\n";
    return 1;
  }
  return 0;
}
