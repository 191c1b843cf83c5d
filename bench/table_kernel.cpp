// Table/element kernel microbench — compact-table vs scanning propagation.
//
// Two experiments, both run twice on identical search trees (same seeds,
// fail budgets, no deadline) so the engines must agree exactly and the
// per-kind propagation-time columns are directly comparable:
//
//   1. element: the reduced Table I model (tests/reference/reduced_model)
//      under seeded branch-and-bound, with the placement->extent element
//      constraint switched between production's compact engine and its
//      scanning memory-guard fallback (kElement time).
//   2. table: a synthetic CSP of overlapping random ternary positive table
//      constraints (tests/reference/table), enumerated by DFS under a fail
//      budget, switched between CompactTable and ScanningTable (kTable
//      time).
//
// The combined speedup (scanning / compact, summed over both kinds) is the
// headline number; CI pins it via tools/bench_diff against the committed
// baseline. Any tree divergence exits nonzero — it is an engine bug, not
// noise.
#include "bench_common.hpp"
#include "reference/reduced_model.hpp"
#include "reference/table.hpp"

namespace {

using namespace rr;

std::uint64_t kind_ns(const cp::SpaceStats& stats, cp::PropKind kind) {
  return stats.by_kind[static_cast<std::size_t>(kind)].time_ns;
}

struct TableRun {
  std::uint64_t table_ns = 0;
  std::uint64_t nodes = 0;
  std::uint64_t fails = 0;
  std::uint64_t solutions = 0;
};

/// Enumerate one random overlapping-scope table CSP under fail/node
/// budgets. 12 variables over [0,30), sliding arity-3 scopes (10 chained
/// constraints) with 900 random tuples each — dense enough that GAC
/// propagation, not branching, is where the time goes.
TableRun run_table_csp(std::uint64_t seed, bool compact) {
  constexpr int kVars = 12;
  constexpr int kDomainSize = 30;
  constexpr int kArity = 3;
  constexpr int kTuplesPerConstraint = 900;

  cp::Space space;
  std::vector<cp::VarId> vars;
  for (int i = 0; i < kVars; ++i)
    vars.push_back(space.new_var(0, kDomainSize - 1));
  Rng rng(seed);
  for (int first = 0; first + kArity <= kVars; ++first) {
    std::vector<cp::VarId> scope(vars.begin() + first,
                                 vars.begin() + first + kArity);
    std::vector<std::vector<int>> tuples;
    for (int t = 0; t < kTuplesPerConstraint; ++t) {
      std::vector<int> tuple(kArity);
      for (int i = 0; i < kArity; ++i)
        tuple[i] = rng.uniform_int(0, kDomainSize - 1);
      tuples.push_back(std::move(tuple));
    }
    reference::post_table(space, scope, std::move(tuples),
                          compact ? reference::TableEngine::kCompact
                                  : reference::TableEngine::kScanning);
  }

  cp::BasicBrancher brancher(vars, cp::VarSelect::kFirstFail,
                             cp::ValSelect::kMin, seed);
  cp::Search::Options options;
  options.limits.max_fails = 10000;
  options.limits.max_nodes = 200000;  // bounds full enumeration
  cp::Search search(space, brancher, options);
  TableRun result;
  while (search.next()) ++result.solutions;
  result.nodes = search.stats().nodes;
  result.fails = search.stats().fails;
  result.table_ns = kind_ns(space.stats(), cp::PropKind::kTable);
  return result;
}

}  // namespace

int main() {
  const bench::EvalConfig config = bench::EvalConfig::from_env();
  config.print(std::cout);
  bench::StatsJsonWriter record("table_kernel", config);
  // The per-kind timers are the measurement here, not an optional extra.
  metrics::set_enabled(true);

  int mismatches = 0;

  // --- Experiment 1: reduced Table I model element kernel under B&B ---------
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

  // --- Experiment 2: synthetic positive-table CSP ---------------------------
  RunningStats table_compact_ms, table_scan_ms, table_speedup;
  TextTable table_table({"Run", "Solutions", "Table compact", "Table scan",
                         "Speedup", "Identical"});
  constexpr int kInstancesPerRun = 2;  // aggregated for stable timing
  for (int run = 0; run < config.runs; ++run) {
    TableRun comp, scan;
    bool identical = true;
    for (int inst = 0; inst < kInstancesPerRun; ++inst) {
      const std::uint64_t seed =
          config.seed + static_cast<std::uint64_t>(run * kInstancesPerRun +
                                                   inst);
      const TableRun c = run_table_csp(seed, /*compact=*/true);
      const TableRun s = run_table_csp(seed, /*compact=*/false);
      identical = identical && c.nodes == s.nodes && c.fails == s.fails &&
                  c.solutions == s.solutions;
      comp.table_ns += c.table_ns;
      comp.nodes += c.nodes;
      comp.fails += c.fails;
      comp.solutions += c.solutions;
      scan.table_ns += s.table_ns;
      scan.nodes += s.nodes;
      scan.fails += s.fails;
      scan.solutions += s.solutions;
    }
    if (!identical) ++mismatches;
    const double compact_ms = static_cast<double>(comp.table_ns) / 1e6;
    const double scan_ms = static_cast<double>(scan.table_ns) / 1e6;
    table_compact_ms.add(compact_ms);
    table_scan_ms.add(scan_ms);
    if (compact_ms > 0) table_speedup.add(scan_ms / compact_ms);
    table_table.add_row(
        {std::to_string(run), std::to_string(comp.solutions),
         TextTable::num(compact_ms, 2) + "ms",
         TextTable::num(scan_ms, 2) + "ms",
         compact_ms > 0 ? TextTable::num(scan_ms / compact_ms, 2) + "x" : "-",
         identical ? "yes" : "NO"});
  }
  table_table.add_row(
      {"mean", "-", TextTable::num(table_compact_ms.mean(), 2) + "ms",
       TextTable::num(table_scan_ms.mean(), 2) + "ms",
       TextTable::num(table_speedup.mean(), 2) + "x",
       mismatches == 0 ? "yes" : "NO"});
  table_table.print(std::cout,
                    "Positive-table kernel: compact-table vs scanning "
                    "propagation time (identical DFS trees)");

  // Combined headline: total scanning time over total compact time across
  // both kinds (the acceptance bar is >= 2x).
  const double combined_compact =
      element_compact_ms.mean() * element_compact_ms.count() +
      table_compact_ms.mean() * table_compact_ms.count();
  const double combined_scan =
      element_scan_ms.mean() * element_scan_ms.count() +
      table_scan_ms.mean() * table_scan_ms.count();
  const double combined_speedup =
      combined_compact > 0 ? combined_scan / combined_compact : 0.0;
  std::cout << "# combined kTable+kElement speedup: "
            << TextTable::num(combined_speedup, 2) << "x\n";

  record.add_result("element_ms_compact", element_compact_ms);
  record.add_result("element_ms_scanning", element_scan_ms);
  record.add_result("element_speedup", element_speedup);
  record.add_result("table_ms_compact", table_compact_ms);
  record.add_result("table_ms_scanning", table_scan_ms);
  record.add_result("table_speedup", table_speedup);
  record.add_result("combined_speedup", json::Value(combined_speedup));
  record.add_result("mismatches", json::Value(mismatches));
  record.add_result("infeasible_runs", json::Value(infeasible));
  if (mismatches > 0) {
    std::cerr << "ENGINE MISMATCH: compact and scanning propagators "
                 "disagreed on "
              << mismatches << " run(s)\n";
    return 1;
  }
  return 0;
}
