// A6 — online service level: request acceptance under runtime churn.
//
// The related work ([1], [4], [5]) measures reconfigurable systems by the
// fraction of module requests that can be fulfilled; [1] reports 36%
// average utilization for online placement on a heterogeneous FPGA. This
// bench replays identical arrival/departure traces through the online
// bottom-left placer, with and without design alternatives.
//
// Expected shape: alternatives raise both the acceptance ratio and the
// sustained occupancy; the on-reject defragmentation pass raises them
// further on the same traces (fragmentation, not capacity, causes most
// rejects); absolute occupancy sits well below the offline optimum of
// Table I (fragmentation under churn).
#include "bench_common.hpp"
#include "util/rng.hpp"

namespace {

struct TraceResult {
  double acceptance = 0.0;
  double occupancy = 0.0;
};

/// Replay the churn trace derived from `seed` (identical across
/// configurations) through one OnlinePlacer.
TraceResult replay_trace(rr::baseline::OnlinePlacer& placer,
                         const std::vector<rr::model::Module>& pool,
                         std::uint64_t seed, int steps) {
  rr::Rng rng(seed ^ 0xABCDEF);
  std::vector<int> live;
  int requests = 0, accepted = 0, next_id = 0;
  rr::RunningStats occupancy;
  for (int step = 0; step < steps; ++step) {
    if (live.empty() || rng.chance(0.55)) {
      ++requests;
      const auto& module = pool[rng.pick_index(pool)];
      if (placer.place(next_id, module)) {
        live.push_back(next_id);
        ++accepted;
      }
      ++next_id;
    } else {
      const std::size_t pick = rng.pick_index(live);
      placer.remove(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    occupancy.add(placer.occupancy());
  }
  TraceResult result;
  result.acceptance =
      requests > 0 ? static_cast<double>(accepted) / requests : 0.0;
  result.occupancy = occupancy.mean();
  return result;
}

}  // namespace

int main() {
  using namespace rr;
  const bench::EvalConfig config = bench::EvalConfig::from_env();
  // Deadline-bounded defrag has timing variance; a generous regression
  // bound still catches "defrag stopped helping".
  bench::StatsJsonWriter record("online_service", config,
                                /*max_regression_pct=*/50);
  config.print(std::cout);
  const int steps = env_int("RRPLACE_STEPS", 400);
  const double defrag_deadline = env_double("RRPLACE_DEFRAG_DEADLINE", 0.05);

  RunningStats accept_without, accept_with, accept_defrag;
  RunningStats occ_without, occ_with, occ_defrag;
  baseline::OnlineDefragStats defrag_totals;
  for (int run = 0; run < config.runs; ++run) {
    const std::uint64_t seed = config.seed + static_cast<std::uint64_t>(run);
    const auto region = bench::make_eval_region(seed, config.modules);
    model::ModuleGenerator generator(bench::paper_workload_params(), seed);
    const auto pool = generator.generate_many(config.modules);

    // Three configurations over the identical trace: base layouts only,
    // design alternatives, and alternatives plus the defragmentation pass.
    for (const int variant : {0, 1, 2}) {
      baseline::OnlineOptions options;
      options.use_alternatives = variant >= 1;
      if (variant == 2) {
        options.defrag.deadline_seconds = defrag_deadline;
        options.defrag.seed = seed;
      }
      baseline::OnlinePlacer placer(*region, options);
      const TraceResult result = replay_trace(placer, pool, seed, steps);
      (variant == 0   ? accept_without
       : variant == 1 ? accept_with
                      : accept_defrag)
          .add(result.acceptance);
      (variant == 0 ? occ_without : variant == 1 ? occ_with : occ_defrag)
          .add(result.occupancy);
      if (variant == 2) {
        const baseline::OnlineDefragStats& stats = placer.defrag_stats();
        defrag_totals.attempts += stats.attempts;
        defrag_totals.successes += stats.successes;
        defrag_totals.exact_successes += stats.exact_successes;
        defrag_totals.greedy_successes += stats.greedy_successes;
        defrag_totals.relocated_modules += stats.relocated_modules;
        defrag_totals.relocated_tiles += stats.relocated_tiles;
        defrag_totals.deadline_expiries += stats.deadline_expiries;
        defrag_totals.rejects += stats.rejects;
        defrag_totals.retry_skips += stats.retry_skips;
        defrag_totals.budget_skips += stats.budget_skips;
      }
    }
  }

  TextTable table({"Configuration", "Acceptance ratio", "Mean occupancy"});
  table.add_row({"without alternatives", TextTable::pct(accept_without.mean()),
                 TextTable::pct(occ_without.mean())});
  table.add_row({"with alternatives", TextTable::pct(accept_with.mean()),
                 TextTable::pct(occ_with.mean())});
  table.add_row({"alternatives + defrag", TextTable::pct(accept_defrag.mean()),
                 TextTable::pct(occ_defrag.mean())});
  table.print(std::cout, "A6: online service level under churn (" +
                             std::to_string(steps) + " steps)");
  std::cout << "reference point: [1] reports 36% average utilization for "
               "online placement on a heterogeneous FPGA\n";
  std::cout << "defrag (" << defrag_deadline << "s deadline): "
            << defrag_totals.attempts << " passes, " << defrag_totals.successes
            << " admitted (" << defrag_totals.exact_successes << " exact, "
            << defrag_totals.greedy_successes << " greedy), "
            << defrag_totals.relocated_modules << " modules / "
            << defrag_totals.relocated_tiles << " tiles relocated\n";

  record.add_result("acceptance_without", accept_without);
  record.add_result("acceptance_with", accept_with);
  record.add_result("acceptance_defrag", accept_defrag);
  record.pin("acceptance_defrag", bench::Better::kHigher);
  record.add_result("occupancy_without", occ_without);
  record.add_result("occupancy_with", occ_with);
  record.add_result("occupancy_defrag", occ_defrag);
  record.add_result("acceptance_gain",
                    json::Value(accept_defrag.mean() - accept_with.mean()));
  record.pin("acceptance_gain", bench::Better::kHigher);
  record.add_result("defrag_attempts", json::Value(defrag_totals.attempts));
  record.add_result("defrag_successes", json::Value(defrag_totals.successes));
  record.pin("defrag_successes", bench::Better::kHigher);
  record.add_result("defrag_exact_successes",
                    json::Value(defrag_totals.exact_successes));
  record.add_result("defrag_greedy_successes",
                    json::Value(defrag_totals.greedy_successes));
  record.add_result("defrag_relocated_modules",
                    json::Value(defrag_totals.relocated_modules));
  record.add_result("defrag_relocated_tiles",
                    json::Value(defrag_totals.relocated_tiles));
  record.add_result("defrag_deadline_expiries",
                    json::Value(defrag_totals.deadline_expiries));
  record.add_result("defrag_rejects", json::Value(defrag_totals.rejects));

  // Defragmentation coda: greedily snapshot one churned workload and
  // compact it with the CP machinery ([12]'s motivation).
  {
    const auto region = bench::make_eval_region(config.seed, config.modules);
    model::ModuleGenerator generator(bench::paper_workload_params(),
                                     config.seed);
    const auto modules = generator.generate_many(config.modules);
    const auto greedy = baseline::place_greedy(*region, modules);
    if (greedy.solution.feasible) {
      placer::CompactionOptions compaction;
      compaction.time_limit_seconds = config.time_limit;
      compaction.seed = config.seed;
      const auto result =
          placer::compact(*region, modules, greedy.solution, compaction);
      std::cout << "compaction: greedy extent " << result.extent_before
                << " -> " << result.extent_after << " columns ("
                << result.relocated << " modules relocated, "
                << result.iterations << " LNS iterations"
                << (result.optimal ? ", optimal" : "") << ")\n";
    }
  }
  return 0;
}
