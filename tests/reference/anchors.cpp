#include "reference/anchors.hpp"

#include "util/error.hpp"

namespace rr::reference {

std::vector<Point> compute_valid_anchors_scalar(
    std::span<const BitMatrix> masks_by_resource,
    const geost::ShapeFootprint& shape) {
  if (masks_by_resource.empty()) return {};
  const int region_h = masks_by_resource.front().rows();
  const int region_w = masks_by_resource.front().cols();
  for (const BitMatrix& m : masks_by_resource) {
    RR_REQUIRE(m.rows() == region_h && m.cols() == region_w,
               "all resource masks must share the region dimensions");
  }
  const Rect box = shape.bounding_box();
  std::vector<Point> anchors;
  for (int x = 0; x + box.width <= region_w; ++x) {
    for (int y = 0; y + box.height <= region_h; ++y) {
      bool ok = true;
      for (std::size_t g = 0; g < shape.typed().size() && ok; ++g) {
        const int resource = shape.typed()[g].resource;
        if (resource >= static_cast<int>(masks_by_resource.size())) {
          ok = false;
          break;
        }
        ok = masks_by_resource[static_cast<std::size_t>(resource)]
                 .covers_shifted(shape.typed_masks()[g], y, x);
      }
      if (ok) anchors.push_back(Point{x, y});
    }
  }
  return anchors;
}

}  // namespace rr::reference
