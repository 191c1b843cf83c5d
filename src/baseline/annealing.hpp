// Simulated-annealing baseline placer.
//
// A metaheuristic comparator for the CP placer: the state assigns every
// module one entry of its placement table; overlaps are allowed during the
// walk and penalized, so the search can tunnel through infeasible
// configurations. The best feasible (overlap-free) state seen is returned.
#pragma once

#include <cstdint>
#include <span>

#include "comm/net.hpp"
#include "fpga/region.hpp"
#include "model/module.hpp"
#include "placer/placement.hpp"

namespace rr::baseline {

struct AnnealingOptions {
  bool use_alternatives = true;
  double time_limit_seconds = 2.0;
  std::uint64_t seed = 1;
  /// Optional inter-module nets: with comm_weight > 0 the walk minimizes
  /// extent + overlap penalty + comm_weight * HPWL2 / comm::kExtentScale
  /// (the CP objective's relative scaling, in tiles). Null nets or
  /// comm_weight <= 0 leaves the area-only cost and the random walk
  /// byte-identical (the zero-weight oracle).
  const comm::NetList* nets = nullptr;
  long comm_weight = 0;
};

[[nodiscard]] placer::PlacementOutcome place_annealing(
    const fpga::PartialRegion& region,
    std::span<const model::Module> modules,
    const AnnealingOptions& options = {});

}  // namespace rr::baseline
