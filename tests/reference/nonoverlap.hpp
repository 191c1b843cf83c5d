// Reference non-overlap engine: the from-scratch geost propagator, kept as
// the differential oracle for the incremental engine in geost/nonoverlap.
//
// Same pruning semantics as geost::post_non_overlap — placements that would
// overlap the footprints of assigned objects or (kernel mode) the
// compulsory parts of nearly-decided objects are removed — but every
// propagate() rebuilds occupancy and all compulsory parts from the current
// domains. It keeps no search-dependent state, which makes it trivially
// backtrack-safe: any divergence from the incremental engine is a bug in
// the latter's trail, delta or batch logic. Linked only by tests and
// benches; nothing in src/ depends on it.
#pragma once

#include <vector>

#include "cp/space.hpp"
#include "geost/nonoverlap.hpp"
#include "geost/object.hpp"

namespace rr::reference {

/// Post the from-scratch engine over `objects`. Honours
/// `options.use_compulsory_parts` and `options.compulsory_threshold`
/// exactly as the production engine does; `batch_threshold` has no meaning
/// here. Reports under cp::PropKind::kGeost. Returns the propagator id.
int post_non_overlap_scratch(cp::Space& space,
                             std::vector<geost::GeostObject> objects,
                             int region_width, int region_height,
                             const geost::NonOverlapOptions& options = {});

}  // namespace rr::reference
