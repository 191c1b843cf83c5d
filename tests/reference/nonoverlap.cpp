#include "reference/nonoverlap.hpp"

#include <memory>
#include <utility>

#include "util/error.hpp"

namespace rr::reference {
namespace {

using geost::GeostObject;
using geost::Placement;
using geost::ShapeFootprint;

class ScratchNonOverlap final : public cp::Propagator {
 public:
  ScratchNonOverlap(std::vector<GeostObject> objects, int width, int height,
                    geost::NonOverlapOptions options)
      : cp::Propagator(cp::PropPriority::kGlobal, cp::PropKind::kGeost),
        objects_(std::move(objects)),
        width_(width),
        height_(height),
        options_(options) {}

  void attach(cp::Space& space, int self) override {
    for (const GeostObject& object : objects_)
      space.subscribe(object.var(), self, cp::kOnDomain);
  }

  cp::PropStatus propagate(cp::Space& space) override;

 private:
  std::vector<GeostObject> objects_;
  int width_;
  int height_;
  geost::NonOverlapOptions options_;
};

cp::PropStatus ScratchNonOverlap::propagate(cp::Space& space) {
  // Definite occupancy from assigned objects, rebuilt every call.
  BitMatrix occupancy(height_, width_);
  Rect occupied_box{};  // union bbox, cheap prefilter
  int assigned = 0;
  for (const GeostObject& object : objects_) {
    if (!space.assigned(object.var())) continue;
    ++assigned;
    const int value = space.value(object.var());
    const Placement& p = object.placement(value);
    const ShapeFootprint& shape = object.footprint_of(value);
    if (occupancy.intersects_shifted(shape.mask(), p.y, p.x))
      return cp::PropStatus::kFail;
    occupancy.or_shifted(shape.mask(), p.y, p.x);
    occupied_box = occupied_box.bounding_union(object.bbox_of(value));
  }

  // All placed and overlap-free: subsumed. Checked before compulsory-part
  // construction so the final call does not build soft parts it would
  // immediately discard.
  if (assigned == static_cast<int>(objects_.size()))
    return cp::PropStatus::kSubsumed;

  // Compulsory parts of nearly-decided, still-open objects.
  struct Soft {
    std::size_t owner;
    BitMatrix mask;
    Rect box;
  };
  std::vector<Soft> soft;
  if (options_.use_compulsory_parts) {
    for (std::size_t j = 0; j < objects_.size(); ++j) {
      const GeostObject& object = objects_[j];
      const cp::Domain& dom = space.dom(object.var());
      if (dom.assigned() || dom.size() > options_.compulsory_threshold)
        continue;
      BitMatrix part(height_, width_);
      bool first = true;
      Rect box{};
      dom.for_each([&](int value) {
        const Placement& p = object.placement(value);
        const ShapeFootprint& shape = object.footprint_of(value);
        if (first) {
          part.or_shifted(shape.mask(), p.y, p.x);
          box = object.bbox_of(value);
          first = false;
        } else {
          BitMatrix this_one(height_, width_);
          this_one.or_shifted(shape.mask(), p.y, p.x);
          part.and_with(this_one);
          box = box.intersection(object.bbox_of(value));
        }
      });
      if (part.popcount() > 0)
        soft.push_back(Soft{j, std::move(part), box});
    }
  }

  // Prune every open object against occupancy and others' compulsory
  // parts. Removals are collected per object (domain values ascend, so
  // the batch is already sorted).
  std::vector<int> removals;
  for (std::size_t j = 0; j < objects_.size(); ++j) {
    const GeostObject& object = objects_[j];
    if (space.assigned(object.var())) continue;
    removals.clear();
    space.dom(object.var()).for_each([&](int value) {
      const Rect box = object.bbox_of(value);
      const Placement& p = object.placement(value);
      const ShapeFootprint& shape = object.footprint_of(value);
      if (box.intersects(occupied_box) &&
          occupancy.intersects_shifted(shape.mask(), p.y, p.x)) {
        removals.push_back(value);
        return;
      }
      for (const Soft& s : soft) {
        if (s.owner == j || !box.intersects(s.box)) continue;
        if (s.mask.intersects_shifted(shape.mask(), p.y, p.x)) {
          removals.push_back(value);
          return;
        }
      }
    });
    if (!removals.empty()) {
      if (space.remove_values_sorted(object.var(), removals) ==
          cp::ModEvent::kFail)
        return cp::PropStatus::kFail;
    }
  }
  return cp::PropStatus::kFix;
}

}  // namespace

int post_non_overlap_scratch(cp::Space& space,
                             std::vector<GeostObject> objects,
                             int region_width, int region_height,
                             const geost::NonOverlapOptions& options) {
  RR_REQUIRE(region_width > 0 && region_height > 0,
             "non-overlap region must be non-degenerate");
  return space.post(std::make_unique<ScratchNonOverlap>(
      std::move(objects), region_width, region_height, options));
}

}  // namespace rr::reference
