// Greedy bottom-left baseline placer.
//
// The related-work positioning (§II) compares constraint-based optimal
// placement against classical first-fit style heuristics; this module
// provides that comparator. It admits modules, largest first, through the
// online placer's free-space index (baseline/online.hpp), which answers
// from the same sorted placement tables as the CP model, so differences in
// outcome are attributable to search, not modeling.
#pragma once

#include <memory>
#include <span>

#include "comm/net.hpp"
#include "fpga/region.hpp"
#include "model/module.hpp"
#include "placer/placement.hpp"

namespace rr::baseline {

struct GreedyOptions {
  bool use_alternatives = true;
  /// Optional inter-module nets: with comm_weight > 0 each module goes to
  /// the feasible placement of minimal communication cost against the
  /// modules placed so far (ties broken by the first-fit key). Null nets or
  /// comm_weight <= 0 leaves the area-only first-fit path byte-identical
  /// (the zero-weight oracle).
  std::shared_ptr<const comm::NetList> nets;
  long comm_weight = 0;
};

/// First-fit decreasing: modules in decreasing order of their smallest
/// considered shape's area, each at its first (bottom-left-most)
/// conflict-free placement. Never backtracks: a module with no
/// conflict-free placement makes the outcome infeasible.
[[nodiscard]] placer::PlacementOutcome place_greedy(
    const fpga::PartialRegion& region,
    std::span<const model::Module> modules, const GreedyOptions& options = {});

}  // namespace rr::baseline
