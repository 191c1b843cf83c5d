#include "baseline/slots.hpp"

#include <algorithm>
#include <numeric>

#include "placer/model_builder.hpp"
#include "util/stopwatch.hpp"

namespace rr::baseline {

placer::PlacementOutcome place_slots(const fpga::PartialRegion& region,
                                     std::span<const model::Module> modules,
                                     const SlotOptions& options) {
  RR_REQUIRE(options.slot_width > 0, "slot width must be positive");
  Stopwatch watch;
  placer::PlacementOutcome outcome;

  const int slot_count = region.width() / options.slot_width;
  std::vector<bool> slot_used(static_cast<std::size_t>(slot_count), false);

  // Decreasing-area order, as for the other first-fit baselines.
  std::vector<std::size_t> order(modules.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return modules[a].min_area() > modules[b].min_area();
  });

  placer::PlacementSolution solution;
  solution.feasible = true;
  solution.placements.assign(modules.size(), placer::ModulePlacement{});
  int last_slot_used = -1;

  for (const std::size_t i : order) {
    const placer::ModuleTables tables = placer::prepare_module_tables(
        region, modules[i], options.use_alternatives);
    const std::vector<geost::ShapeFootprint>& shapes = *tables.shapes;

    bool placed = false;
    for (int slot = 0; slot < slot_count && !placed; ++slot) {
      for (std::size_t s = 0; s < shapes.size() && !placed; ++s) {
        const int slots_needed =
            (shapes[s].bounding_box().width + options.slot_width - 1) /
            options.slot_width;
        if (slot + slots_needed > slot_count) continue;
        bool free_run = true;
        for (int k = 0; k < slots_needed; ++k)
          free_run = free_run && !slot_used[static_cast<std::size_t>(slot + k)];
        if (!free_run) continue;
        // Valid anchor at the slot's left edge, any row: the table is sorted
        // by (x + w, x, y, shape), so one shape's first entry at x is its
        // lowest valid row there.
        const int x = slot * options.slot_width;
        const auto anchor = std::find_if(
            tables.table.begin(), tables.table.end(),
            [&](const geost::Placement& p) {
              return p.shape == static_cast<int>(s) && p.x == x;
            });
        if (anchor == tables.table.end()) continue;
        for (int k = 0; k < slots_needed; ++k)
          slot_used[static_cast<std::size_t>(slot + k)] = true;
        solution.placements[i] = placer::ModulePlacement{
            static_cast<int>(i), static_cast<int>(s), x, anchor->y};
        last_slot_used = std::max(last_slot_used, slot + slots_needed - 1);
        placed = true;
      }
    }
    if (!placed) {
      solution.feasible = false;
      break;
    }
  }

  if (solution.feasible) {
    // Slot-granular extent: whole slots are reserved even where the module
    // is narrower (that is the internal fragmentation of slot systems).
    solution.extent = (last_slot_used + 1) * options.slot_width;
    outcome.solution = std::move(solution);
  }
  outcome.seconds = watch.seconds();
  return outcome;
}

}  // namespace rr::baseline
