// A7 — availability under fabric degradation: fault injection and
// deadline-bounded recovery.
//
// Runtime reconfigurable systems are also repair mechanisms: when a tile
// dies, the hit module can be re-placed elsewhere instead of taking the
// device down. This bench loads the Table I workload onto the evaluation
// device, injects permanent single-tile faults at a 1% tile rate (one
// event per tile, uniformly over the initially available area), and drives
// each event through the tiered recovery pipeline (in-place shape swap,
// local re-place, defrag-assisted relocation) under a per-event deadline.
//
// Expected shape: with design alternatives the large majority of hit
// modules recover within the deadline (the acceptance bar is >= 80%), a
// visible share of them via the zero-disruption in-place swap; without
// alternatives recovery leans on relocation and parks more modules.
// Utilization retained tracks the fraction of initially configured logic
// still in service after the full fault sequence.
#include <set>

#include "bench_common.hpp"
#include "util/rng.hpp"

namespace {

struct RunMetrics {
  double recovered_fraction = 1.0;
  double utilization_retained = 1.0;
  double capacity_retained = 1.0;
  double mean_recovery_seconds = 0.0;
  int modules_hit = 0;
  int parked = 0;
};

RunMetrics replay_faults(rr::runtime::FaultRecoveryManager& manager,
                         const rr::fpga::PartialRegion& region,
                         std::uint64_t seed) {
  // 1% permanent tile fault rate over the initially available area; each
  // tile is its own event so every recovery runs under its own deadline.
  rr::Rng rng(seed ^ 0xFA017);
  const long initial_tiles = manager.occupied_tiles();
  const int fault_count =
      std::max(1, static_cast<int>(region.total_available() / 100));
  std::vector<rr::Point> targets;
  std::set<std::pair<int, int>> chosen;
  while (static_cast<int>(targets.size()) < fault_count) {
    const int x = rng.uniform_int(0, region.width() - 1);
    const int y = rng.uniform_int(0, region.height() - 1);
    if (!region.available(x, y)) continue;
    if (!chosen.insert({x, y}).second) continue;
    targets.push_back(rr::Point{x, y});
  }

  rr::RunningStats recovery_seconds;
  for (const rr::Point& tile : targets) {
    rr::fpga::FaultEvent event;
    event.op = rr::fpga::FaultEvent::Op::kTile;
    event.kind = rr::fpga::FaultKind::kPermanent;
    event.rect = rr::Rect{tile.x, tile.y, 1, 1};
    const auto outcome = manager.on_fault(event);
    for (const auto& recovery : outcome.modules)
      if (recovery.recovered) recovery_seconds.add(recovery.seconds);
  }

  const auto& stats = manager.stats();
  RunMetrics metrics;
  metrics.modules_hit = static_cast<int>(stats.modules_hit);
  metrics.parked = manager.parked_count();
  metrics.recovered_fraction =
      stats.modules_hit > 0 ? static_cast<double>(stats.recovered) /
                                  static_cast<double>(stats.modules_hit)
                            : 1.0;
  metrics.utilization_retained =
      initial_tiles > 0 ? static_cast<double>(manager.occupied_tiles()) /
                              static_cast<double>(initial_tiles)
                        : 1.0;
  metrics.capacity_retained = manager.capacity_retained();
  metrics.mean_recovery_seconds = recovery_seconds.mean();
  return metrics;
}

}  // namespace

int main() {
  using namespace rr;
  const bench::EvalConfig config = bench::EvalConfig::from_env();
  // Recovery fractions sit near 1.0 at smoke scale; the bound exists to
  // catch "fault recovery stopped working", not run-to-run noise.
  bench::StatsJsonWriter record("fault_recovery", config,
                                /*max_regression_pct=*/50);
  config.print(std::cout);
  const double deadline = env_double("RRPLACE_FAULT_DEADLINE", 0.05);

  RunningStats recovered_base, recovered_alt;
  RunningStats retained_base, retained_alt;
  RunningStats capacity, recovery_seconds, hit, parked;
  runtime::FaultRecoveryStats totals;
  int feasible_runs = 0;
  for (int run = 0; run < config.runs; ++run) {
    const std::uint64_t seed = config.seed + static_cast<std::uint64_t>(run);
    const auto region = bench::make_eval_region(seed, config.modules);
    model::ModuleGenerator generator(bench::paper_workload_params(), seed);
    const auto pool = generator.generate_many(config.modules);
    const auto greedy = baseline::place_greedy(*region, pool);
    if (!greedy.solution.feasible) continue;
    ++feasible_runs;

    // Identical fault sequence, with and without design alternatives.
    for (const bool alternatives : {false, true}) {
      runtime::FaultRecoveryOptions options;
      options.deadline_seconds = deadline;
      options.use_alternatives = alternatives;
      options.seed = seed;
      runtime::FaultRecoveryManager manager(*region, options);
      for (const auto& p : greedy.solution.placements)
        manager.admit(p.module, pool[static_cast<std::size_t>(p.module)],
                      p.shape, p.x, p.y);
      const RunMetrics metrics = replay_faults(manager, *region, seed);
      (alternatives ? recovered_alt : recovered_base)
          .add(metrics.recovered_fraction);
      (alternatives ? retained_alt : retained_base)
          .add(metrics.utilization_retained);
      if (alternatives) {
        capacity.add(metrics.capacity_retained);
        recovery_seconds.add(metrics.mean_recovery_seconds);
        hit.add(metrics.modules_hit);
        parked.add(metrics.parked);
        const auto& stats = manager.stats();
        totals.events += stats.events;
        totals.tiles_faulted += stats.tiles_faulted;
        totals.modules_hit += stats.modules_hit;
        totals.recovered += stats.recovered;
        totals.inplace_swaps += stats.inplace_swaps;
        totals.local_replaces += stats.local_replaces;
        totals.defrag_recoveries += stats.defrag_recoveries;
        totals.greedy_recoveries += stats.greedy_recoveries;
        totals.parked += stats.parked;
        totals.retries += stats.retries;
        totals.retry_recoveries += stats.retry_recoveries;
        totals.abandoned += stats.abandoned;
        totals.deadline_expiries += stats.deadline_expiries;
        totals.relocated_modules += stats.relocated_modules;
        totals.relocated_tiles += stats.relocated_tiles;
      }
    }
  }

  TextTable table(
      {"Configuration", "Recovered in deadline", "Utilization retained"});
  table.add_row({"without alternatives", TextTable::pct(recovered_base.mean()),
                 TextTable::pct(retained_base.mean())});
  table.add_row({"with alternatives", TextTable::pct(recovered_alt.mean()),
                 TextTable::pct(retained_alt.mean())});
  table.print(std::cout,
              "A7: availability under 1% permanent tile faults (" +
                  std::to_string(feasible_runs) + " runs, " +
                  TextTable::num(deadline, 3) + "s/event deadline)");
  std::cout << "tiers (with alternatives): " << totals.inplace_swaps
            << " in-place swap, " << totals.local_replaces << " local, "
            << totals.defrag_recoveries << " defrag, "
            << totals.greedy_recoveries << " greedy shake; " << totals.parked
            << " parked, " << totals.retry_recoveries << " revived, "
            << totals.abandoned << " abandoned\n";
  std::cout << "faults: " << totals.events << " events / "
            << totals.tiles_faulted << " tiles, " << totals.modules_hit
            << " modules hit, mean recovery "
            << TextTable::num(recovery_seconds.mean() * 1e3, 3) << "ms\n";

  record.add_result("recovered_fraction", recovered_alt);
  record.pin("recovered_fraction", bench::Better::kHigher);
  record.add_result("recovered_fraction_base", recovered_base);
  record.add_result("utilization_retained", retained_alt);
  record.pin("utilization_retained", bench::Better::kHigher);
  record.add_result("utilization_retained_base", retained_base);
  record.add_result("capacity_retained", capacity);
  record.add_result("recovery_seconds", recovery_seconds);
  record.add_result("modules_hit_mean", hit);
  record.add_result("parked_mean", parked);
  record.add_result("events", json::Value(totals.events));
  record.add_result("tiles_faulted", json::Value(totals.tiles_faulted));
  record.add_result("inplace_swaps", json::Value(totals.inplace_swaps));
  record.add_result("local_replaces", json::Value(totals.local_replaces));
  record.add_result("defrag_recoveries",
                    json::Value(totals.defrag_recoveries));
  record.add_result("greedy_recoveries",
                    json::Value(totals.greedy_recoveries));
  record.add_result("parked", json::Value(totals.parked));
  record.add_result("retry_recoveries", json::Value(totals.retry_recoveries));
  record.add_result("abandoned", json::Value(totals.abandoned));
  record.add_result("deadline_expiries",
                    json::Value(totals.deadline_expiries));
  record.add_result("relocated_modules",
                    json::Value(totals.relocated_modules));
  record.add_result("relocated_tiles", json::Value(totals.relocated_tiles));
  return 0;
}
