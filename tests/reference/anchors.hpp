// Reference valid-anchor scan: the per-anchor covers_shifted loop that
// geost::compute_valid_anchors' batch kernel must match anchor for anchor.
// Linked only by tests and benches; nothing in src/ depends on it.
#pragma once

#include <span>
#include <vector>

#include "geo/point.hpp"
#include "geost/footprint.hpp"
#include "util/bitmatrix.hpp"

namespace rr::reference {

/// Every anchor at which `shape` is resource-compatible with the region
/// given by one availability bitmap per resource type, checked one anchor
/// at a time, in geost::compute_valid_anchors' (x, y) order.
[[nodiscard]] std::vector<Point> compute_valid_anchors_scalar(
    std::span<const BitMatrix> masks_by_resource,
    const geost::ShapeFootprint& shape);

}  // namespace rr::reference
