#include "fpga/region.hpp"

namespace rr::fpga {

PartialRegion::PartialRegion(std::shared_ptr<const Fabric> fabric)
    : PartialRegion(fabric, fabric ? fabric->bounds() : Rect{}) {}

PartialRegion::PartialRegion(std::shared_ptr<const Fabric> fabric,
                             const Rect& window)
    : fabric_(std::move(fabric)), window_(window) {
  RR_REQUIRE(fabric_ != nullptr, "partial region needs a fabric");
  RR_REQUIRE(!window_.empty() && fabric_->bounds().contains(window_),
             "region window must lie inside the fabric");
  blocked_ = BitMatrix(window_.height, window_.width);
  faulty_ = BitMatrix(window_.height, window_.width);
  rebuild_masks();
}

void PartialRegion::block(const Rect& local_rect) {
  const Rect clipped =
      local_rect.intersection(Rect{0, 0, window_.width, window_.height});
  for (int y = clipped.y; y < clipped.top(); ++y)
    for (int x = clipped.x; x < clipped.right(); ++x)
      blocked_.set(y, x, true);
  rebuild_masks();
}

void PartialRegion::block_mask(const BitMatrix& mask) {
  RR_REQUIRE(mask.rows() == window_.height && mask.cols() == window_.width,
             "block_mask needs a region-shaped bitmap");
  blocked_.or_with(mask);
  // Blocking only ever removes cells, so AND-NOT every resource mask
  // instead of re-deriving them tile by tile.
  for (BitMatrix& resource : masks_) resource.clear_shifted(mask, 0, 0);
}

void PartialRegion::apply_faults(const FaultMap& faults) {
  RR_REQUIRE(faults.width() == fabric_->width() &&
                 faults.height() == fabric_->height(),
             "fault map must match the fabric dimensions");
  for (int y = 0; y < window_.height; ++y)
    for (int x = 0; x < window_.width; ++x)
      faulty_.set(y, x, faults.faulty(x + window_.x, y + window_.y));
  rebuild_masks();
}

void PartialRegion::set_fault_mask(const BitMatrix& mask) {
  RR_REQUIRE(mask.rows() == window_.height && mask.cols() == window_.width,
             "fault mask must be region-shaped");
  faulty_ = mask;
  rebuild_masks();
}

bool PartialRegion::available(int x, int y) const noexcept {
  if (x < 0 || x >= window_.width || y < 0 || y >= window_.height) return false;
  if (blocked_.get(y, x) || faulty_.get(y, x)) return false;
  return placeable(at(x, y));
}

void PartialRegion::rebuild_masks() {
  masks_.assign(static_cast<std::size_t>(kNumResourceTypes),
                BitMatrix(window_.height, window_.width));
  for (int y = 0; y < window_.height; ++y) {
    for (int x = 0; x < window_.width; ++x) {
      if (!available(x, y)) continue;
      masks_[static_cast<std::size_t>(at(x, y))].set(y, x, true);
    }
  }
}

std::array<long, kNumResourceTypes> PartialRegion::available_counts() const {
  std::array<long, kNumResourceTypes> counts{};
  for (int k = 0; k < kNumResourceTypes; ++k)
    counts[static_cast<std::size_t>(k)] =
        static_cast<long>(masks_[static_cast<std::size_t>(k)].popcount());
  return counts;
}

long PartialRegion::total_available() const {
  long total = 0;
  for (long c : available_counts()) total += c;
  return total;
}

long PartialRegion::available_in_columns(int columns) const {
  long total = 0;
  const int limit = std::min(columns, window_.width);
  for (int y = 0; y < window_.height; ++y)
    for (int x = 0; x < limit; ++x)
      if (available(x, y)) ++total;
  return total;
}

}  // namespace rr::fpga
