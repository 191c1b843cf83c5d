// Shape footprints for the geost kernel.
//
// Following Beldiceanu et al., a geost shape is a set of shifted boxes; our
// 2-D instantiation uses unit cells grouped by resource type — exactly the
// paper's extension: "the geost definition of a box is extended with a
// resource property" (§IV). A ShapeFootprint caches, per resource, a local
// bitmap used both for resource-compatibility anchor computation and for
// fast overlap tests during propagation.
#pragma once

#include <vector>

#include "geo/cellset.hpp"
#include "util/bitmatrix.hpp"

namespace rr::geost {

/// Cells of a shape that require one particular resource type. Resource
/// identifiers are small non-negative integers defined by the client (the
/// fpga layer maps its ResourceType enum onto them).
struct TypedCells {
  int resource = 0;
  CellSet cells;
};

/// One concrete layout of an object: typed cells plus cached geometry.
/// All coordinates are local, normalized so the joint bounding box of all
/// typed cells has origin (0, 0).
class ShapeFootprint {
 public:
  /// Build from typed cell groups. Groups with the same resource are merged;
  /// empty groups are rejected; overlapping cells across groups are rejected
  /// (a tile has exactly one resource type, §III.A).
  static ShapeFootprint from_typed(std::vector<TypedCells> groups);

  [[nodiscard]] const std::vector<TypedCells>& typed() const noexcept {
    return typed_;
  }
  /// Union of all cells, regardless of type.
  [[nodiscard]] const CellSet& all_cells() const noexcept { return all_; }
  /// Local occupancy bitmap; rows indexed by y, columns by x.
  [[nodiscard]] const BitMatrix& mask() const noexcept { return mask_; }
  /// Per-resource local bitmaps, parallel to typed().
  [[nodiscard]] const std::vector<BitMatrix>& typed_masks() const noexcept {
    return typed_masks_;
  }
  [[nodiscard]] Rect bounding_box() const noexcept { return bbox_; }
  [[nodiscard]] int area() const noexcept {
    return static_cast<int>(all_.size());
  }
  /// Total cells demanded of `resource` (0 when the shape uses none).
  [[nodiscard]] int demand(int resource) const noexcept;

 private:
  std::vector<TypedCells> typed_;
  std::vector<BitMatrix> typed_masks_;
  CellSet all_;
  BitMatrix mask_;
  Rect bbox_{};
};

/// Compute all anchors (x, y) at which `shape` is resource-compatible with
/// a region described by one availability bitmap per resource type
/// (masks[k].get(y, x) == true iff the region cell (x, y) offers resource k
/// and is usable). This folds the paper's constraints (2) — inside the
/// region — and (3) — matching resource types — into the initial domain.
/// Anchors are returned in row-major order (y outer, x inner... see impl),
/// sorted by (x, y). Implemented on the batch anchor-feasibility kernel
/// (geost/anchor_kernel); the per-anchor reference it must match anchor for
/// anchor is reference::compute_valid_anchors_scalar (tests/reference).
[[nodiscard]] std::vector<Point> compute_valid_anchors(
    std::span<const BitMatrix> masks_by_resource, const ShapeFootprint& shape);

}  // namespace rr::geost
