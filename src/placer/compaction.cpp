#include "placer/compaction.hpp"

#include <algorithm>

#include "placer/lns.hpp"
#include "placer/validator.hpp"
#include "util/metrics.hpp"

namespace rr::placer {

CompactionResult compact(const fpga::PartialRegion& region,
                         std::span<const model::Module> modules,
                         const PlacementSolution& solution,
                         const CompactionOptions& options) {
  const ValidationReport report = validate(region, modules, solution);
  RR_REQUIRE(report.ok(), "compact() needs a valid placement: " +
                              (report.errors.empty() ? std::string("?")
                                                     : report.errors.front()));

  CompactionResult result;
  result.extent_before = solution.extent;

  const std::vector<ModuleTables> tables =
      prepare_tables(region, modules, options.use_alternatives);

  // Locate the incumbent in the tables. A placement's shape index is only
  // meaningful with alternatives enabled; without them, re-locating a
  // non-base shape is impossible, so compact() requires matching configs.
  std::vector<int> incumbent(modules.size(), -1);
  for (const ModulePlacement& p : solution.placements) {
    const std::size_t i = static_cast<std::size_t>(p.module);
    incumbent[i] = find_placement(tables[i], p.shape, p.x, p.y);
    RR_REQUIRE(incumbent[i] >= 0,
               "placement of module " +
                   modules[i].name() +
                   " is not reachable with the current alternative set");
  }

  BuildOptions build_options;
  build_options.use_alternatives = options.use_alternatives;
  LnsOptions lns_options;
  lns_options.seed = options.seed;
  const LnsResult lns =
      improve_lns(region, tables, incumbent, build_options, lns_options,
                  Deadline(options.time_limit_seconds));

  RR_METRIC_COUNT("placer.compaction.passes");
  RR_METRIC_ADD("placer.compaction.iterations",
                static_cast<std::uint64_t>(lns.iterations));
  result.iterations = lns.iterations;
  result.optimal = lns.optimal;
  if (lns.extent >= solution.extent) {
    // No extent gain: moving modules for nothing would only cost
    // reconfigurations, so hand back the input untouched.
    result.solution = solution;
    result.extent_after = solution.extent;
    return result;
  }
  result.solution.feasible = true;
  for (std::size_t i = 0; i < modules.size(); ++i) {
    const geost::Placement& p =
        tables[i].table[static_cast<std::size_t>(lns.placement_values[i])];
    result.solution.placements.push_back(
        ModulePlacement{static_cast<int>(i), p.shape, p.x, p.y});
    result.solution.extent =
        std::max(result.solution.extent,
                 tables[i].extents[static_cast<std::size_t>(
                     lns.placement_values[i])]);
    result.relocated += lns.placement_values[i] != incumbent[i];
  }
  result.extent_after = result.solution.extent;
  RR_ASSERT(result.extent_after <= result.extent_before);
  RR_METRIC_ADD("placer.compaction.relocations",
                static_cast<std::uint64_t>(result.relocated));
  return result;
}

}  // namespace rr::placer
