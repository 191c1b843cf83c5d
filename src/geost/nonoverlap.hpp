// Resource-typed geost non-overlap propagator.
//
// Implements the sweep-style pruning of the geost kernel for 2-D objects
// with shape alternatives: placements of any object that would overlap the
// *definite* occupancy of other objects are removed. Definite occupancy is
//   (a) the footprints of assigned objects, and
//   (b) optionally, the compulsory part of nearly-decided objects — cells
//       occupied by every placement still in an object's domain.
// (b) is what makes this a sweep/forbidden-region kernel rather than plain
// forward checking, and is the lever the ablation bench A3 toggles.
//
// The propagator is event-driven and incremental: it keeps the union
// occupancy bitmap and per-object compulsory parts as trailed state. An
// assignment ORs one footprint in, a backtrack rolls the propagator's own
// trail back alongside the Space's, and each run only re-examines
// placements against the *delta* occupancy and *grown* compulsory-part
// cells since the previous run. This is the only non-overlap engine in the
// library; the from-scratch engine that rebuilds everything per call is the
// differential oracle in tests/reference/nonoverlap.hpp.
#pragma once

#include <vector>

#include "cp/space.hpp"
#include "geost/object.hpp"

namespace rr::geost {

struct NonOverlapOptions {
  /// Compute compulsory parts for unassigned objects (kernel mode). With
  /// false, only assigned objects prune (forward-checking mode).
  bool use_compulsory_parts = true;
  /// Compulsory parts are computed only for domains at most this large —
  /// larger domains essentially never have a non-empty compulsory part.
  int compulsory_threshold = 24;
  /// Live-domain size at which the batch anchor-feasibility kernel is
  /// considered for the delta pruning: such objects may test all their
  /// placements against one dilated conflict bitmap per shape instead of
  /// one intersects_shifted call per value; smaller domains keep the
  /// per-value path. Removal sets are identical either way. Within the
  /// batch path the bitmaps are still built lazily — only once a shape has
  /// seen enough hazard-box hits to amortize the build — so small-delta
  /// propagations cost the same as the per-value path. A value <= 0 forces
  /// the batch path on every domain (how the differential tests pin it).
  int batch_threshold = 96;
};

/// Post the non-overlap constraint over `objects` on a region of
/// `region_width` x `region_height` cells. Objects are copied (their shape
/// lists are shared). Returns the propagator id.
int post_non_overlap(cp::Space& space, std::vector<GeostObject> objects,
                     int region_width, int region_height,
                     const NonOverlapOptions& options = {});

}  // namespace rr::geost
