// Free-space index: online admission-decision latency, incremental
// maximal-empty-rectangle index vs the occupancy-bitmap sweep.
//
// Each scenario is a (grid, target occupancy) pair. Both arms share one
// region and one prewarmed module-table source (the service hot path:
// tables cached, the decision itself is what costs), fill to the target
// occupancy with an identical first-fit prefix, then answer the same
// randomized admission probes — place, and remove again on accept, so
// occupancy stays at the level under test. The sweep arm is the reference
// placer of tests/reference, which scans the anchor table against the
// occupancy bitmap per probe; the index arm is the production OnlinePlacer,
// which answers from the incrementally maintained MER set and pays
// occupy/release maintenance on accepted probes. Grids include a 10x-scale
// fabric where the sweep's per-probe anchor scan is at its worst.
//
// Expected shape: index_speedup (sweep seconds / index seconds, aggregated
// over the >=50%-occupancy scenarios on the large grid) lands well above
// 2x, growing with grid size and occupancy. On an *empty* grid the sweep
// wins instead — its first-fit scan accepts at the first anchor while the
// index pays MER split/merge maintenance for every accepted probe — which
// is why the index earns its keep exactly where admission is hard (the
// fragmented, mostly-full fabric the online setting lives in), and why the
// empty-grid rows are reported but not pinned. decision_mismatches stays
// at exactly 0 — the two arms are differential oracles of each other, and
// a single divergent accept/reject or anchor is a correctness bug, not a
// tuning matter.
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "reference/admission.hpp"
#include "util/rng.hpp"

namespace {

/// Prewarmed table source over a fixed library: the bench-side stand-in for
/// the service's SolveContext (same prepare_tables code path, keyed by
/// module name).
class PreparedTables final : public rr::baseline::ModuleTableSource {
 public:
  PreparedTables(const rr::fpga::PartialRegion& region,
                 std::span<const rr::model::Module> library)
      : tables_(rr::placer::prepare_tables(region, library, true)) {
    for (std::size_t i = 0; i < library.size(); ++i)
      index_.emplace(library[i].name(), i);
  }

  [[nodiscard]] const rr::placer::ModuleTables* lookup(
      const rr::model::Module& module) override {
    const auto it = index_.find(module.name());
    return it == index_.end() ? nullptr : &tables_[it->second];
  }

 private:
  std::vector<rr::placer::ModuleTables> tables_;
  std::unordered_map<std::string, std::size_t> index_;
};

struct ProbeDecision {
  bool accepted = false;
  int shape = 0;
  int x = 0;
  int y = 0;

  bool operator==(const ProbeDecision&) const = default;
};

struct ArmRun {
  double fill_occupancy = 0.0;
  double probe_seconds = 0.0;
  std::vector<ProbeDecision> decisions;
};

/// Fill to `target` occupancy with a deterministic first-fit prefix, then
/// time `probes` place(+remove-on-accept) admission probes. Both placers
/// implement the same admission contract, so fills and probe decisions
/// must be bit-identical between the arms.
template <typename Placer>
ArmRun run_arm(const rr::fpga::PartialRegion& region,
               std::span<const rr::model::Module> library,
               PreparedTables& tables, double target, int probes,
               std::uint64_t seed) {
  Placer placer(region);
  placer.set_table_source(&tables);

  rr::Rng rng(seed);
  int next_id = 0;
  int consecutive_rejects = 0;
  while (placer.occupancy() < target && consecutive_rejects < 50) {
    const std::size_t m = rng.bounded(library.size());
    if (placer.place(next_id++, library[m]).has_value())
      consecutive_rejects = 0;
    else
      ++consecutive_rejects;
  }

  ArmRun run;
  run.fill_occupancy = placer.occupancy();
  run.decisions.reserve(static_cast<std::size_t>(probes));
  constexpr int kProbeId = 1 << 24;  // clear of every fill id
  rr::Stopwatch watch;
  for (int i = 0; i < probes; ++i) {
    const std::size_t m = rng.bounded(library.size());
    const auto placement = placer.place(kProbeId, library[m]);
    ProbeDecision decision;
    if (placement.has_value()) {
      decision = ProbeDecision{true, placement->shape, placement->x,
                               placement->y};
      placer.remove(kProbeId);
    }
    run.decisions.push_back(decision);
  }
  run.probe_seconds = watch.seconds();
  return run;
}

struct Scenario {
  const char* grid;
  double occupancy;
  bool large;
};

}  // namespace

int main() {
  using namespace rr;
  const bench::EvalConfig config = bench::EvalConfig::from_env();
  bench::StatsJsonWriter record("free_space", config,
                                /*max_regression_pct=*/50);
  config.print(std::cout);
  const int probes = env_int("RRPLACE_STEPS", 200);

  model::ModuleGenerator generator(bench::paper_workload_params(),
                                   config.seed);
  const auto library = generator.generate_many(config.modules);

  // The evaluation-device region plus a 10x-width fabric (same column
  // structure) where per-probe anchor scans are an order of magnitude
  // larger.
  const auto eval_region = bench::make_eval_region(config.seed, config.modules);
  fpga::IrregularSpec spec;
  spec.base.bram_period = 12;
  spec.base.bram_offset = 5;
  spec.base.dsp_period = 0;
  spec.base.center_clock_column = true;
  spec.base.edge_io = false;
  const auto large_fabric = std::make_shared<const fpga::Fabric>(
      fpga::make_irregular(480, 28, spec, config.seed));
  const auto large_region =
      std::make_shared<fpga::PartialRegion>(large_fabric);

  PreparedTables eval_tables(*eval_region, library);
  PreparedTables large_tables(*large_region, library);

  const Scenario scenarios[] = {
      {"eval", 0.0, false},  {"eval", 0.5, false},  {"eval", 0.8, false},
      {"large", 0.0, true},  {"large", 0.5, true},  {"large", 0.8, true},
  };

  std::vector<RunningStats> speedups(std::size(scenarios));
  std::vector<RunningStats> index_rates(std::size(scenarios));
  std::vector<RunningStats> sweep_rates(std::size(scenarios));
  std::vector<double> occupancies(std::size(scenarios), 0.0);
  RunningStats large_hot_speedup;  // the pinned aggregate
  long mismatches = 0;

  for (int run = 0; run < config.runs; ++run) {
    for (std::size_t s = 0; s < std::size(scenarios); ++s) {
      const Scenario& scenario = scenarios[s];
      const fpga::PartialRegion& region =
          scenario.large ? *large_region : *eval_region;
      PreparedTables& tables = scenario.large ? large_tables : eval_tables;
      const std::uint64_t seed =
          config.seed + 1000 * static_cast<std::uint64_t>(s) +
          static_cast<std::uint64_t>(run);
      const ArmRun sweep = run_arm<reference::SweepPlacer>(
          region, library, tables, scenario.occupancy, probes, seed);
      const ArmRun index = run_arm<baseline::OnlinePlacer>(
          region, library, tables, scenario.occupancy, probes, seed);
      occupancies[s] = index.fill_occupancy;
      for (std::size_t i = 0; i < sweep.decisions.size(); ++i)
        if (sweep.decisions[i] != index.decisions[i]) ++mismatches;
      if (index.probe_seconds > 0.0 && sweep.probe_seconds > 0.0) {
        const double speedup = sweep.probe_seconds / index.probe_seconds;
        speedups[s].add(speedup);
        if (scenario.large && scenario.occupancy >= 0.5)
          large_hot_speedup.add(speedup);
        index_rates[s].add(probes / index.probe_seconds);
        sweep_rates[s].add(probes / sweep.probe_seconds);
      }
    }
  }

  TextTable table({"Grid", "Occupancy", "Sweep (dec/s)", "Index (dec/s)",
                   "Speedup"});
  for (std::size_t s = 0; s < std::size(scenarios); ++s) {
    table.add_row({scenarios[s].grid, TextTable::pct(occupancies[s]),
                   TextTable::num(sweep_rates[s].mean(), 0),
                   TextTable::num(index_rates[s].mean(), 0),
                   TextTable::num(speedups[s].mean(), 2) + "x"});
  }
  table.print(std::cout,
              "Admission decisions: MER index vs occupancy-bitmap sweep (" +
                  std::to_string(probes) + " probes/scenario)");
  std::cout << "index speedup (large grid, >=50% occupancy): "
            << TextTable::num(large_hot_speedup.mean(), 2)
            << "x  decision mismatches: " << mismatches << '\n';

  record.add_result("probes", json::Value(probes));
  record.add_result("index_speedup", large_hot_speedup);
  record.pin("index_speedup", bench::Better::kHigher);
  record.add_result("decision_mismatches", json::Value(mismatches));
  record.pin("decision_mismatches", bench::Better::kLower);
  for (std::size_t s = 0; s < std::size(scenarios); ++s) {
    const std::string key = std::string(scenarios[s].grid) + "_" +
                            std::to_string(static_cast<int>(
                                scenarios[s].occupancy * 100));
    record.add_result("speedup_" + key, speedups[s]);
    record.add_result("index_decisions_per_sec_" + key, index_rates[s]);
    record.add_result("sweep_decisions_per_sec_" + key, sweep_rates[s]);
  }
  return 0;
}
