#include "baseline/annealing.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "baseline/greedy.hpp"
#include "placer/model_builder.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace rr::baseline {
namespace {

/// The walk's schedule: initial temperature, geometric cooling factor per
/// round, moves attempted per round (scaled by module count), and the cost
/// of each doubly-occupied tile.
constexpr double kInitialTemperature = 8.0;
constexpr double kCooling = 0.95;
constexpr int kMovesPerRoundPerModule = 40;
constexpr double kOverlapWeight = 4.0;

/// Per-tile occupancy counter so overlap cells can be updated in O(shape).
class CountGrid {
 public:
  CountGrid(int height, int width)
      : width_(width), counts_(static_cast<std::size_t>(height) *
                               static_cast<std::size_t>(width)) {}

  /// Add (+1) or remove (-1) a footprint; returns the change in the number
  /// of overlapped tiles (tiles with count >= 2).
  int apply(const geost::ShapeFootprint& shape, int x, int y, int delta) {
    int overlap_delta = 0;
    for (const Point& cell : shape.all_cells().cells()) {
      auto& count = counts_[static_cast<std::size_t>(cell.y + y) *
                                static_cast<std::size_t>(width_) +
                            static_cast<std::size_t>(cell.x + x)];
      if (delta > 0) {
        if (count >= 1) ++overlap_delta;
        ++count;
      } else {
        --count;
        if (count >= 1) --overlap_delta;
      }
    }
    return overlap_delta;
  }

 private:
  int width_;
  std::vector<std::int16_t> counts_;
};

}  // namespace

placer::PlacementOutcome place_annealing(
    const fpga::PartialRegion& region,
    std::span<const model::Module> modules, const AnnealingOptions& options) {
  Stopwatch watch;
  placer::PlacementOutcome outcome;
  Rng rng(options.seed);

  std::vector<placer::ModuleTables> tables;
  tables.reserve(modules.size());
  for (const model::Module& module : modules) {
    tables.push_back(placer::prepare_module_tables(
        region, module, options.use_alternatives));
    if (tables.back().table.empty()) {
      outcome.seconds = watch.seconds();
      return outcome;  // unplaceable module: infeasible
    }
  }

  const auto shape_of = [&](std::size_t i, int value) -> const geost::ShapeFootprint& {
    const geost::Placement& p = tables[i].table[static_cast<std::size_t>(value)];
    return (*tables[i].shapes)[static_cast<std::size_t>(p.shape)];
  };
  const auto extent_of = [&](std::size_t i, int value) {
    return tables[i].extents[static_cast<std::size_t>(value)];
  };

  // Initial state: greedy when it succeeds (fast descent start), otherwise
  // every module at its bottom-left-most placement (overlaps likely).
  std::vector<int> state(modules.size(), 0);
  {
    GreedyOptions greedy_options;
    greedy_options.use_alternatives = options.use_alternatives;
    const placer::PlacementOutcome greedy =
        place_greedy(region, modules, greedy_options);
    if (greedy.solution.feasible) {
      for (std::size_t i = 0; i < modules.size(); ++i) {
        const placer::ModulePlacement& mp = greedy.solution.placements[i];
        state[i] = placer::find_placement(tables[i], mp.shape, mp.x, mp.y);
        RR_ASSERT(state[i] >= 0);
      }
    }
  }

  // Communication term: bound nets plus the per-module doubled centers the
  // walk keeps in sync with `state`. Fully gated — with comm off the cost
  // function, the accepted-move sequence, and every RNG draw are
  // byte-identical to the area-only walk (the zero-weight oracle).
  comm::BoundNets bound_nets;
  if (options.nets != nullptr && options.comm_weight > 0)
    bound_nets = comm::BoundNets(*options.nets, modules);
  const bool comm_on = !bound_nets.empty();
  const auto center_of = [&](std::size_t i, int value) {
    const geost::Placement& p =
        tables[i].table[static_cast<std::size_t>(value)];
    return comm::center2(shape_of(i, value).bounding_box(), p.x, p.y);
  };
  std::vector<comm::Center2> centers(comm_on ? modules.size() : 0);

  CountGrid grid(region.height(), region.width());
  int overlap_tiles = 0;
  std::vector<int> extents(modules.size());
  for (std::size_t i = 0; i < modules.size(); ++i) {
    const geost::Placement& p = tables[i].table[static_cast<std::size_t>(state[i])];
    overlap_tiles += grid.apply(shape_of(i, state[i]), p.x, p.y, +1);
    extents[i] = extent_of(i, state[i]);
    if (comm_on) centers[i] = center_of(i, state[i]);
  }
  auto cost = [&]() {
    const int extent = *std::max_element(extents.begin(), extents.end());
    double c = static_cast<double>(extent) + kOverlapWeight * overlap_tiles;
    if (comm_on) {
      c += static_cast<double>(options.comm_weight) *
           static_cast<double>(bound_nets.wirelength2(centers)) /
           static_cast<double>(comm::kExtentScale);
    }
    return c;
  };

  double current = cost();
  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<int> best_state;
  auto consider_best = [&]() {
    if (overlap_tiles == 0 && current < best_cost) {
      best_cost = current;
      best_state = state;
    }
  };
  consider_best();

  const Deadline deadline(options.time_limit_seconds);
  double temperature = kInitialTemperature;
  const int moves_per_round =
      kMovesPerRoundPerModule * static_cast<int>(modules.size());
  while (!deadline.expired() && temperature > 1e-3) {
    for (int move = 0; move < moves_per_round; ++move) {
      const std::size_t i = rng.pick_index(tables);
      const auto& table = tables[i].table;
      // Bias toward low (bottom-left) table entries: squaring the uniform
      // draw concentrates mass near 0 while keeping full support.
      const double u = rng.uniform01();
      const int value = static_cast<int>(u * u * static_cast<double>(table.size()));
      if (value == state[i]) continue;

      const geost::Placement& old_p = table[static_cast<std::size_t>(state[i])];
      const geost::Placement& new_p = table[static_cast<std::size_t>(value)];
      const int old_value = state[i];
      const int old_extent = extents[i];
      int delta_overlap = grid.apply(shape_of(i, old_value), old_p.x, old_p.y, -1);
      delta_overlap += grid.apply(shape_of(i, value), new_p.x, new_p.y, +1);
      overlap_tiles += delta_overlap;
      state[i] = value;
      extents[i] = extent_of(i, value);
      if (comm_on) centers[i] = center_of(i, value);
      const double next = cost();
      const double delta = next - current;
      if (delta <= 0 || rng.uniform01() < std::exp(-delta / temperature)) {
        current = next;
        consider_best();
      } else {
        // Undo: the reverse applies return exactly -delta_overlap in total.
        overlap_tiles += grid.apply(shape_of(i, value), new_p.x, new_p.y, -1);
        overlap_tiles += grid.apply(shape_of(i, old_value), old_p.x, old_p.y, +1);
        state[i] = old_value;
        extents[i] = old_extent;
        if (comm_on) centers[i] = center_of(i, old_value);
      }
    }
    temperature *= kCooling;
  }

  if (!best_state.empty()) {
    placer::PlacementSolution solution;
    solution.feasible = true;
    for (std::size_t i = 0; i < modules.size(); ++i) {
      const geost::Placement& p =
          tables[i].table[static_cast<std::size_t>(best_state[i])];
      solution.placements.push_back(placer::ModulePlacement{
          static_cast<int>(i), p.shape, p.x, p.y});
      solution.extent = std::max(solution.extent, extent_of(i, best_state[i]));
    }
    outcome.solution = std::move(solution);
  }
  outcome.seconds = watch.seconds();
  return outcome;
}

}  // namespace rr::baseline
