#include "reference/reduced_model.hpp"

#include <algorithm>
#include <memory>

#include "cp/constraints.hpp"
#include "geost/nonoverlap.hpp"
#include "placer/brancher.hpp"
#include "placer/model_builder.hpp"
#include "reference/nonoverlap.hpp"

namespace rr::reference {

bool ReducedOutcome::same_tree(const ReducedOutcome& other) const {
  if (stats.nodes != other.stats.nodes || stats.fails != other.stats.fails ||
      solution.feasible != other.solution.feasible ||
      solution.extent != other.solution.extent ||
      solution.placements.size() != other.solution.placements.size())
    return false;
  for (std::size_t i = 0; i < solution.placements.size(); ++i) {
    const placer::ModulePlacement& a = solution.placements[i];
    const placer::ModulePlacement& b = other.solution.placements[i];
    if (a.module != b.module || a.shape != b.shape || a.x != b.x ||
        a.y != b.y)
      return false;
  }
  return true;
}

ReducedOutcome solve_reduced_table1(const fpga::PartialRegion& region,
                                    std::span<const model::Module> modules,
                                    ReducedEngines engines, std::uint64_t seed,
                                    std::uint64_t max_fails) {
  const std::vector<placer::ModuleTables> tables =
      placer::prepare_tables(region, modules, /*use_alternatives=*/true);
  placer::BuiltModel model;
  model.space = std::make_unique<cp::Space>();
  cp::Space& space = *model.space;
  ReducedOutcome outcome;
  for (const placer::ModuleTables& entry : tables) {
    if (entry.table.empty()) return outcome;  // some module cannot be placed
    model.objects.push_back(
        geost::make_object_from_table(space, entry.shapes, entry.table));
    model.placement_vars.push_back(model.objects.back().var());
  }

  for (std::size_t i = 0; i < tables.size(); ++i) {
    const std::vector<int>& extents = tables[i].extents;
    const auto [lo, hi] = std::minmax_element(extents.begin(), extents.end());
    const cp::VarId extent = space.new_var(*lo, *hi);
    if (engines.element == ElementEngine::kCompact) {
      cp::post_element(space, extents, model.placement_vars[i], extent);
    } else {
      cp::detail::post_scanning_element(space, extents,
                                        model.placement_vars[i], extent);
    }
    model.extent_vars.push_back(extent);
  }
  model.objective = space.new_var(0, region.width());
  model.extent_objective = model.objective;
  cp::post_max(space, model.objective, model.extent_vars);

  if (engines.geost == GeostEngine::kIncremental) {
    geost::post_non_overlap(space, model.objects, region.width(),
                            region.height());
  } else {
    post_non_overlap_scratch(space, model.objects, region.width(),
                             region.height());
  }

  const auto brancher = placer::make_placement_brancher(
      model, placer::SearchStrategy::kAreaOrderBottomLeft, seed);
  cp::SearchLimits limits;
  limits.max_fails = max_fails;
  const cp::MinimizeResult result = cp::minimize(
      space, *brancher, model.objective, model.placement_vars, limits);
  if (result.found)
    outcome.solution = placer::extract_solution(model, result.assignment);
  outcome.stats = result.stats;
  outcome.space_stats = space.stats();
  return outcome;
}

}  // namespace rr::reference
