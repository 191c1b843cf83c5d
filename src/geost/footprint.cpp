#include "geost/footprint.hpp"

#include <algorithm>
#include <map>

#include "geost/anchor_kernel.hpp"
#include "util/error.hpp"

namespace rr::geost {

ShapeFootprint ShapeFootprint::from_typed(std::vector<TypedCells> groups) {
  RR_REQUIRE(!groups.empty(), "shape must have at least one tile set");
  // Merge by resource.
  std::map<int, std::vector<Point>> by_resource;
  std::vector<Point> all;
  for (const TypedCells& group : groups) {
    RR_REQUIRE(!group.cells.empty(), "tile set must be non-empty (n > 0)");
    RR_REQUIRE(group.resource >= 0, "resource identifiers must be >= 0");
    auto& bucket = by_resource[group.resource];
    for (const Point& p : group.cells.cells()) {
      bucket.push_back(p);
      all.push_back(p);
    }
  }
  const std::size_t total = all.size();
  CellSet all_set(std::move(all), /*normalize=*/false);
  RR_REQUIRE(all_set.size() == total,
             "shape tile sets must not overlap: each tile has one resource");

  ShapeFootprint fp;
  // Normalize everything jointly so the union's bbox origin is (0, 0).
  const Rect raw_box = all_set.bounding_box();
  const Point shift{-raw_box.x, -raw_box.y};
  fp.all_ = all_set.translated(shift);
  fp.bbox_ = fp.all_.bounding_box();
  fp.mask_ = BitMatrix(fp.bbox_.height, fp.bbox_.width);
  for (const Point& p : fp.all_.cells()) fp.mask_.set(p.y, p.x, true);

  for (auto& [resource, cells] : by_resource) {
    CellSet set =
        CellSet(std::move(cells), /*normalize=*/false).translated(shift);
    BitMatrix mask(fp.bbox_.height, fp.bbox_.width);
    for (const Point& p : set.cells()) mask.set(p.y, p.x, true);
    fp.typed_.push_back(TypedCells{resource, std::move(set)});
    fp.typed_masks_.push_back(std::move(mask));
  }
  return fp;
}

int ShapeFootprint::demand(int resource) const noexcept {
  for (const TypedCells& group : typed_) {
    if (group.resource == resource)
      return static_cast<int>(group.cells.size());
  }
  return 0;
}

std::vector<Point> compute_valid_anchors(
    std::span<const BitMatrix> masks_by_resource,
    const ShapeFootprint& shape) {
  if (masks_by_resource.empty()) return {};
  const BitMatrix fit = batch_valid_anchors(masks_by_resource, shape);
  std::vector<Point> anchors;
  // Sorted by (x, y): x outer so the default bottom-left value ordering of
  // the placer (increasing placement index) minimizes x first. Bits outside
  // the valid anchor window are clear by construction, so the scan can stop
  // at the window edge.
  const Rect box = shape.bounding_box();
  for (int x = 0; x + box.width <= fit.cols(); ++x) {
    for (int y = 0; y + box.height <= fit.rows(); ++y) {
      if (fit.get(y, x)) anchors.push_back(Point{x, y});
    }
  }
  return anchors;
}

}  // namespace rr::geost
