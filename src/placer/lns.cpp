#include "placer/lns.hpp"

#include <algorithm>

#include "placer/brancher.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace rr::placer {
namespace {

int assignment_extent(std::span<const ModuleTables> tables,
                      std::span<const int> values) {
  int extent = 0;
  for (std::size_t i = 0; i < tables.size(); ++i)
    extent = std::max(
        extent, tables[i].extents[static_cast<std::size_t>(values[i])]);
  return extent;
}

/// Smallest column count whose available area covers the total minimum
/// module area — the proof bound LNS can hit.
int area_lower_bound(const fpga::PartialRegion& region,
                     std::span<const ModuleTables> tables) {
  long total_min_area = 0;
  for (const ModuleTables& entry : tables) total_min_area += entry.min_area;
  return min_extent_columns(region, total_min_area);
}

}  // namespace

LnsResult improve_lns(const fpga::PartialRegion& region,
                      std::span<const ModuleTables> tables,
                      std::span<const int> incumbent,
                      const BuildOptions& build_options,
                      const LnsOptions& options, const Deadline& deadline) {
  RR_REQUIRE(incumbent.size() == tables.size(),
             "LNS incumbent arity mismatch");
  LnsResult result;
  result.found = true;
  result.placement_values.assign(incumbent.begin(), incumbent.end());
  result.extent = assignment_extent(tables, incumbent);

  // The minimized cost: plain extent, or the combined extent + wirelength
  // objective when the build options carry an active communication model.
  // With comm off every line below reduces to the historical extent-only
  // logic (the zero-weight oracle).
  const comm::BoundNets* nets = build_options.comm_nets;
  const bool comm_on =
      nets != nullptr && build_options.comm_weight > 0 && !nets->empty();
  const auto assignment_cost = [&](std::span<const int> values) -> long {
    const int extent = assignment_extent(tables, values);
    if (!comm_on) return extent;
    return comm::kExtentScale * extent +
           build_options.comm_weight *
               assignment_wirelength2(tables, values, *nets);
  };
  result.cost = assignment_cost(result.placement_values);

  const int lower_bound = area_lower_bound(region, tables);
  const long lower_cost =
      comm_on ? comm::kExtentScale * lower_bound : lower_bound;
  Rng rng(options.seed);
  const std::size_t n = tables.size();
  RR_REQUIRE(options.frozen.empty() || options.frozen.size() == n,
             "LNS frozen mask arity mismatch");
  const auto is_frozen = [&](std::size_t i) {
    return !options.frozen.empty() && options.frozen[i];
  };

  while (!deadline.expired() && result.cost > lower_cost) {
    // With every extent-defining module frozen, the extent cannot drop.
    // (Only conclusive for the extent-only objective: under comm the cost
    // can still improve by shortening nets at the same extent.)
    if (!comm_on) {
      bool movable_at_extent = false;
      for (std::size_t i = 0; i < n; ++i) {
        const int extent_i = tables[i].extents[static_cast<std::size_t>(
            result.placement_values[i])];
        if (extent_i >= result.extent && !is_frozen(i))
          movable_at_extent = true;
      }
      if (!movable_at_extent) break;
    }

    ++result.iterations;
    // Most iterations demand a strict improvement; every fourth allows an
    // equal-extent sideways move to shake the incumbent out of plateaus.
    const bool strict = result.iterations % 4 != 0;
    // Pick the relaxed set: each module independently with probability p,
    // with at least two relaxed so a swap is possible. Modules sitting at
    // the incumbent extent are always relaxed under a strict cut — the
    // extent cannot drop unless they move.
    const double p = options.relax_min +
                     rng.uniform01() * (options.relax_max - options.relax_min);
    std::vector<bool> relaxed(n, false);
    std::size_t relaxed_count = 0;
    std::size_t movable = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (is_frozen(i)) continue;
      ++movable;
      const int extent_i =
          tables[i].extents[static_cast<std::size_t>(result.placement_values[i])];
      if ((strict && extent_i >= result.extent) || rng.chance(p)) {
        relaxed[i] = true;
        ++relaxed_count;
      }
    }
    if (movable == 0) break;
    while (relaxed_count < std::min<std::size_t>(2, movable)) {
      const std::size_t i = rng.bounded(n);
      if (!relaxed[i] && !is_frozen(i)) {
        relaxed[i] = true;
        ++relaxed_count;
      }
    }

    BuiltModel model = build_model_from_tables(region, tables, build_options);
    if (model.infeasible) break;
    cp::Space& space = *model.space;
    space.set_max(model.objective,
                  static_cast<int>(strict ? result.cost - 1 : result.cost));
    for (std::size_t i = 0; i < n; ++i) {
      if (!relaxed[i])
        space.assign(model.placement_vars[i], result.placement_values[i]);
    }

    auto brancher = make_placement_brancher(
        model, SearchStrategy::kAreaOrderRandomized, rng());
    cp::Search::Options search_options;
    search_options.limits.max_fails = options.fails_per_iteration;
    search_options.limits.deadline = deadline;
    cp::Search search(space, *brancher, search_options);
    if (search.next()) {
      for (std::size_t i = 0; i < n; ++i)
        result.placement_values[i] = space.min(model.placement_vars[i]);
      const long new_cost = assignment_cost(result.placement_values);
      RR_DEBUG("lns iter " << result.iterations << (strict ? " strict" : " sideways")
                           << " relaxed=" << relaxed_count << " cost "
                           << result.cost << " -> " << new_cost
                           << " fails=" << search.stats().fails);
      if (new_cost < result.cost) ++result.improvements;
      result.cost = new_cost;
      result.extent = assignment_extent(tables, result.placement_values);
    } else {
      RR_DEBUG("lns iter " << result.iterations << (strict ? " strict" : " sideways")
                           << " relaxed=" << relaxed_count
                           << " no solution (fails=" << search.stats().fails
                           << ", complete=" << search.stats().complete << ")");
    }
    // A completed sub-search only exhausted its restricted neighborhood —
    // never fold that into `complete`, which callers read as a global proof.
    cp::SearchStats iteration_stats = search.stats();
    iteration_stats.complete = false;
    result.stats.merge(iteration_stats);
    result.space_stats.merge(space.stats());
  }

  result.optimal = result.cost <= lower_cost;
  RR_METRIC_ADD("placer.lns.iterations",
                static_cast<std::uint64_t>(result.iterations));
  RR_METRIC_ADD("placer.lns.improvements",
                static_cast<std::uint64_t>(result.improvements));
  return result;
}

}  // namespace rr::placer
