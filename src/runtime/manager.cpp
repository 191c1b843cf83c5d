#include "runtime/manager.hpp"

#include <algorithm>

#include "placer/lns.hpp"
#include "placer/metrics.hpp"
#include "util/stopwatch.hpp"

namespace rr::runtime {
namespace {

long footprint_area(std::span<const model::Module> pool,
                    const PlacedModule& p) {
  return pool[static_cast<std::size_t>(p.module)]
      .shapes()[static_cast<std::size_t>(p.shape)]
      .area();
}

}  // namespace

long RunResult::total_tiles_written() const {
  long total = 0;
  for (const TransitionCost& t : transitions) total += t.tiles_written;
  return total;
}

std::optional<double> RunResult::mean_utilization() const {
  double sum = 0.0;
  int feasible = 0;
  for (const PhaseOutcome& p : phases) {
    if (!p.feasible) continue;
    sum += p.utilization;
    ++feasible;
  }
  if (feasible == 0) return std::nullopt;
  return sum / feasible;
}

int RunResult::infeasible_phases() const {
  int count = 0;
  for (const PhaseOutcome& p : phases) count += !p.feasible;
  return count;
}

TransitionCost transition_cost(std::span<const model::Module> pool,
                               const std::vector<PlacedModule>& before,
                               const std::vector<PlacedModule>& after) {
  TransitionCost cost;
  for (const PlacedModule& next : after) {
    const auto prev = std::find_if(
        before.begin(), before.end(),
        [&](const PlacedModule& p) { return p.module == next.module; });
    if (prev != before.end() && *prev == next) {
      ++cost.modules_kept;
      continue;
    }
    ++cost.modules_loaded;
    cost.tiles_written += footprint_area(pool, next);
    if (prev != before.end())
      cost.tiles_cleared += footprint_area(pool, *prev);  // moved: blank old
  }
  for (const PlacedModule& prev : before) {
    const bool still_active = std::any_of(
        after.begin(), after.end(),
        [&](const PlacedModule& p) { return p.module == prev.module; });
    if (!still_active) cost.tiles_cleared += footprint_area(pool, prev);
  }
  return cost;
}

ReconfigurationManager::ReconfigurationManager(
    const fpga::PartialRegion& region, std::span<const model::Module> pool,
    placer::PlacerOptions solver_options)
    : region_(region), pool_(pool), options_(std::move(solver_options)) {
  RR_REQUIRE(!pool_.empty(), "module pool must be non-empty");
}

placer::TablesHandle ReconfigurationManager::pool_tables() const {
  if (pool_tables_ == nullptr)
    pool_tables_ = placer::prepare_tables_shared(region_, pool_,
                                                 options_.use_alternatives);
  return pool_tables_;
}

void ReconfigurationManager::set_pool_tables(placer::TablesHandle tables) {
  RR_REQUIRE(tables == nullptr || tables->size() == pool_.size(),
             "pool tables must cover exactly the module pool");
  pool_tables_ = std::move(tables);
}

PhaseOutcome ReconfigurationManager::place_phase(
    const Phase& phase, const std::vector<PlacedModule>& frozen,
    bool defrag) const {
  Stopwatch watch;
  PhaseOutcome outcome;
  if (phase.active_modules.empty()) {
    outcome.feasible = true;
    outcome.seconds = watch.seconds();
    return outcome;
  }
  std::vector<model::Module> modules;
  modules.reserve(phase.active_modules.size());
  for (const int id : phase.active_modules)
    modules.push_back(pool_[static_cast<std::size_t>(id)]);

  const Deadline deadline(options_.time_limit_seconds);
  // Slice the cached pool-wide tables for this phase's active set: the
  // entries are prepared per module independently, so the slice is
  // bit-identical to a per-phase prepare_tables over `modules`.
  const placer::TablesHandle pool_tables = this->pool_tables();
  std::vector<placer::ModuleTables> tables;
  tables.reserve(phase.active_modules.size());
  for (const int id : phase.active_modules)
    tables.push_back((*pool_tables)[static_cast<std::size_t>(id)]);

  // Locate the frozen modules' previous placements in this phase's tables.
  std::vector<bool> frozen_mask(modules.size(), false);
  std::vector<int> frozen_value(modules.size(), -1);
  for (std::size_t i = 0; i < modules.size(); ++i) {
    const int id = phase.active_modules[i];
    const auto prev = std::find_if(
        frozen.begin(), frozen.end(),
        [&](const PlacedModule& p) { return p.module == id; });
    if (prev == frozen.end()) continue;
    frozen_value[i] =
        placer::find_placement(tables[i], prev->shape, prev->x, prev->y);
    frozen_mask[i] = frozen_value[i] >= 0;
  }

  placer::BuildOptions build_options;
  build_options.use_alternatives = options_.use_alternatives;
  build_options.nonoverlap = options_.nonoverlap;
  build_options.area_bound = options_.area_bound;

  // Pin tiers: first the frozen placements as-is; for kDefrag, then each
  // single unpin (cheapest relocation first); finally a free re-place of
  // the whole phase.
  const bool any_frozen = std::any_of(
      frozen_mask.begin(), frozen_mask.end(), [](bool f) { return f; });
  // Symmetry breaking orders the placement rows of identical modules, but
  // a frozen placement carried over from the previous phase need not obey
  // that order — composing the two wrongly refutes feasible pin attempts
  // (and LNS neighborhoods around them).
  if (any_frozen) build_options.break_symmetries = false;
  struct Attempt {
    std::vector<bool> pins;
    bool free_replace = false;
    int unpinned = 0;
  };
  std::vector<Attempt> attempts;
  attempts.push_back(Attempt{frozen_mask, false, 0});
  if (any_frozen && defrag) {
    // Unpin candidates in increasing footprint area: relocating a small
    // module costs the fewest tiles in the no-break copy model.
    std::vector<std::size_t> candidates;
    for (std::size_t i = 0; i < modules.size(); ++i)
      if (frozen_mask[i]) candidates.push_back(i);
    const auto frozen_area = [&](std::size_t i) {
      const geost::Placement& p =
          tables[i].table[static_cast<std::size_t>(frozen_value[i])];
      return (*tables[i].shapes)[static_cast<std::size_t>(p.shape)].area();
    };
    std::sort(candidates.begin(), candidates.end(),
              [&](std::size_t a, std::size_t b) {
                const int area_a = frozen_area(a);
                const int area_b = frozen_area(b);
                return area_a != area_b ? area_a < area_b : a < b;
              });
    for (const std::size_t i : candidates) {
      Attempt attempt{frozen_mask, false, 1};
      attempt.pins[i] = false;
      attempts.push_back(std::move(attempt));
    }
  }
  if (any_frozen) attempts.push_back(Attempt{{}, true, 0});

  std::vector<int> incumbent;
  for (const Attempt& attempt : attempts) {
    placer::BuiltModel model =
        placer::build_model_from_tables(region_, tables, build_options);
    if (model.infeasible) break;
    if (!attempt.free_replace) {
      for (std::size_t i = 0; i < modules.size(); ++i) {
        if (attempt.pins[i])
          model.space->assign(model.placement_vars[i], frozen_value[i]);
      }
    }
    auto brancher = placer::make_placement_brancher(
        model, options_.strategy, options_.seed);
    cp::Search::Options search_options;
    search_options.objective = model.objective;
    search_options.limits.deadline = deadline;
    cp::Search search(*model.space, *brancher, search_options);
    if (search.next()) {
      incumbent.clear();
      for (cp::VarId v : model.placement_vars)
        incumbent.push_back(model.space->min(v));
      if (attempt.free_replace) {
        outcome.fell_back = true;
        std::fill(frozen_mask.begin(), frozen_mask.end(), false);
      } else {
        outcome.defrag_unpinned = attempt.unpinned;
        frozen_mask = attempt.pins;
      }
      break;
    }
  }
  if (incumbent.empty()) {
    outcome.seconds = watch.seconds();
    return outcome;  // infeasible
  }

  // Improve with LNS, keeping the pinned modules pinned.
  placer::LnsOptions lns_options;
  lns_options.seed = options_.seed ^ 0x5EEDULL;
  lns_options.fails_per_iteration = options_.lns_fails_per_iteration;
  lns_options.frozen.assign(frozen_mask.begin(), frozen_mask.end());
  const placer::LnsResult lns = placer::improve_lns(
      region_, tables, incumbent, build_options, lns_options, deadline);

  outcome.feasible = true;
  placer::PlacementSolution solution;
  solution.feasible = true;
  for (std::size_t i = 0; i < modules.size(); ++i) {
    const geost::Placement& p =
        tables[i].table[static_cast<std::size_t>(lns.placement_values[i])];
    outcome.placements.push_back(PlacedModule{
        phase.active_modules[i], p.shape, p.x, p.y});
    solution.placements.push_back(placer::ModulePlacement{
        static_cast<int>(i), p.shape, p.x, p.y});
    solution.extent = std::max(
        solution.extent, tables[i].extents[static_cast<std::size_t>(
                             lns.placement_values[i])]);
  }
  outcome.extent = solution.extent;
  outcome.utilization =
      placer::spanned_utilization(region_, modules, solution);
  outcome.seconds = watch.seconds();
  return outcome;
}

RunResult ReconfigurationManager::run(const Schedule& schedule,
                                      PlacementPolicy policy) const {
  schedule.validate(static_cast<int>(pool_.size()));
  RunResult result;
  std::vector<PlacedModule> previous;
  for (const Phase& phase : schedule.phases) {
    const std::vector<PlacedModule> frozen =
        policy == PlacementPolicy::kReplaceAll ? std::vector<PlacedModule>{}
                                               : previous;
    PhaseOutcome outcome =
        place_phase(phase, frozen, policy == PlacementPolicy::kDefrag);
    result.transitions.push_back(
        transition_cost(pool_, previous, outcome.placements));
    previous = outcome.placements;
    result.phases.push_back(std::move(outcome));
  }
  return result;
}

}  // namespace rr::runtime
