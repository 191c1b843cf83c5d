#include "baseline/greedy.hpp"

#include <algorithm>
#include <numeric>

#include "baseline/online.hpp"
#include "util/stopwatch.hpp"

namespace rr::baseline {

placer::PlacementOutcome place_greedy(const fpga::PartialRegion& region,
                                      std::span<const model::Module> modules,
                                      const GreedyOptions& options) {
  Stopwatch watch;
  placer::PlacementOutcome outcome;

  std::vector<int> min_area(modules.size());
  for (std::size_t i = 0; i < modules.size(); ++i) {
    min_area[i] = options.use_alternatives
                      ? modules[i].min_area()
                      : modules[i].shapes().front().area();
  }
  std::vector<std::size_t> order(modules.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return min_area[a] > min_area[b];
  });

  // Defrag stays off, so each place() is one admission query. kCommCost
  // degrades to first fit while no placed net partner pins the module.
  OnlineOptions online;
  online.use_alternatives = options.use_alternatives;
  if (options.nets != nullptr && options.comm_weight > 0) {
    online.policy = AnchorPolicy::kCommCost;
    online.nets = options.nets;
    online.comm_weight = options.comm_weight;
  }
  OnlinePlacer placer(region, online);

  placer::PlacementSolution solution;
  solution.feasible = true;
  solution.placements.assign(modules.size(), placer::ModulePlacement{});
  for (const std::size_t i : order) {
    const auto placed = placer.place(static_cast<int>(i), modules[i]);
    if (!placed.has_value()) {
      solution.feasible = false;
      break;
    }
    solution.placements[i] = *placed;
    const int width = modules[i]
                          .shapes()[static_cast<std::size_t>(placed->shape)]
                          .bounding_box()
                          .width;
    solution.extent = std::max(solution.extent, placed->x + width);
  }

  if (solution.feasible) outcome.solution = std::move(solution);
  outcome.seconds = watch.seconds();
  return outcome;
}

}  // namespace rr::baseline
