// Reduced Table I model: the placer's core CP model with the non-overlap and
// element engines chosen by the caller, solved by seeded branch-and-bound
// under a fail budget.
//
// The model is the heart of placer::build_model_from_tables — one placement
// variable per module over placer::prepare_tables entries (design
// alternatives on), extent_i = extents[placement_i] via element, objective
// H = max_i extent_i, and resource-typed non-overlap — without the area
// bound, symmetry ordering or communication term. Production has one
// engine per constraint, so the engine under comparison is swapped in here
// rather than through a placer option: two solves that differ only in
// `engines` must explore the identical tree (same nodes, fails, objective
// and placements), and their per-kind propagation times are directly
// comparable. Linked only by tests and benches.
#pragma once

#include <cstdint>
#include <span>

#include "cp/search.hpp"
#include "cp/space.hpp"
#include "fpga/region.hpp"
#include "model/module.hpp"
#include "placer/placement.hpp"

namespace rr::reference {

enum class GeostEngine {
  kIncremental,  // geost::post_non_overlap (production)
  kScratch,      // reference::post_non_overlap_scratch
};

enum class ElementEngine {
  kCompact,   // cp::post_element (production)
  kScanning,  // cp::detail::post_scanning_element
};

struct ReducedEngines {
  GeostEngine geost = GeostEngine::kIncremental;
  ElementEngine element = ElementEngine::kCompact;
};

struct ReducedOutcome {
  /// Best solution found within the budget (feasible == false when none).
  placer::PlacementSolution solution;
  cp::SearchStats stats;
  /// Per-kind propagation buckets; populated only while metrics are on.
  cp::SpaceStats space_stats;

  /// Same tree and same result: node and fail counts, feasibility, extent
  /// and every module's shape and anchor.
  [[nodiscard]] bool same_tree(const ReducedOutcome& other) const;
};

/// Build the reduced model on `region` for `modules` with `engines` and
/// minimize H with the placer's area-order bottom-left brancher (seeded by
/// `seed`) under `max_fails` fails and no deadline, so the run is
/// deterministic.
[[nodiscard]] ReducedOutcome solve_reduced_table1(
    const fpga::PartialRegion& region, std::span<const model::Module> modules,
    ReducedEngines engines, std::uint64_t seed, std::uint64_t max_fails);

}  // namespace rr::reference
