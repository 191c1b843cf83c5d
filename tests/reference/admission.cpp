#include "reference/admission.hpp"

#include <algorithm>
#include <array>
#include <tuple>

#include "geost/anchor_kernel.hpp"
#include "util/error.hpp"

namespace rr::reference {
namespace {

/// Lazily built per-shape conflict bitmaps: conflict(y, x) is set iff the
/// shape anchored at (x, y) overlaps `occupancy` — one dilation sweep per
/// shape instead of one intersects_shifted call per anchor.
class Conflicts {
 public:
  Conflicts(const BitMatrix& occupancy,
            const std::vector<geost::ShapeFootprint>& shapes)
      : occupancy_(occupancy),
        shapes_(shapes),
        maps_(shapes.size()),
        built_(shapes.size(), 0) {}

  [[nodiscard]] bool feasible(const geost::Placement& p) {
    const std::size_t s = static_cast<std::size_t>(p.shape);
    if (!built_[s]) {
      maps_[s] = BitMatrix(occupancy_.rows(), occupancy_.cols());
      geost::accumulate_conflicts(maps_[s], occupancy_, shapes_[s].mask(), 0,
                                  occupancy_.rows());
      built_[s] = 1;
    }
    return !maps_[s].get(p.y, p.x);
  }

 private:
  const BitMatrix& occupancy_;
  const std::vector<geost::ShapeFootprint>& shapes_;
  std::vector<BitMatrix> maps_;
  std::vector<unsigned char> built_;
};

/// The first conflict-free table entry. At low occupancy first fit succeeds
/// within a handful of bottom-left entries, so a scalar prefix is probed
/// before paying for the batch conflict bitmaps; both give identical
/// verdicts.
std::optional<geost::Placement> first_fit(
    const BitMatrix& occupancy,
    const std::vector<geost::ShapeFootprint>& shapes,
    const std::vector<geost::Placement>& table) {
  constexpr std::size_t kScalarPrefix = 64;
  const std::size_t prefix = std::min(kScalarPrefix, table.size());
  for (std::size_t t = 0; t < prefix; ++t) {
    const geost::Placement& p = table[t];
    const geost::ShapeFootprint& shape =
        shapes[static_cast<std::size_t>(p.shape)];
    if (occupancy.intersects_shifted(shape.mask(), p.y, p.x)) continue;
    return p;
  }
  if (prefix == table.size()) return std::nullopt;
  Conflicts conflicts(occupancy, shapes);
  for (std::size_t t = prefix; t < table.size(); ++t)
    if (conflicts.feasible(table[t])) return table[t];
  return std::nullopt;
}

}  // namespace

std::optional<geost::Placement> sweep_fit(
    const BitMatrix& available, const BitMatrix& occupancy,
    const std::vector<geost::ShapeFootprint>& shapes,
    const std::vector<geost::Placement>& table, AnchorPolicy policy,
    const comm::PinContext* comm) {
  if (comm != nullptr && comm->empty()) comm = nullptr;
  // kFirstFit wants the first feasible entry in table order — the
  // early-exit scan. kCommCost without a ranking context cannot tell
  // anchors apart and degrades to the same order (the zero-weight oracle).
  // The other policies must see every feasible entry and reduce under
  // their pinned key.
  if (policy == AnchorPolicy::kFirstFit ||
      (policy == AnchorPolicy::kCommCost && comm == nullptr))
    return first_fit(occupancy, shapes, table);
  Conflicts conflicts(occupancy, shapes);
  const geost::Placement* best = nullptr;
  if (policy == AnchorPolicy::kCommCost) {
    // Key (cost, x + bbox.width, x, y, shape), reduced by strict `<`.
    std::array<long, 5> best_key{};
    for (const geost::Placement& p : table) {
      const Rect box =
          shapes[static_cast<std::size_t>(p.shape)].bounding_box();
      const std::array<long, 5> key{comm->cost2(comm::center2(box, p.x, p.y)),
                                    p.x + box.width, p.x, p.y, p.shape};
      if (best != nullptr && !(key < best_key)) continue;
      if (!conflicts.feasible(p)) continue;
      best = &p;
      best_key = key;
    }
  } else if (policy == AnchorPolicy::kBottomLeft) {
    for (const geost::Placement& p : table) {
      if (best != nullptr && std::tuple(best->y, best->x, best->shape) <=
                                 std::tuple(p.y, p.x, p.shape))
        continue;
      if (conflicts.feasible(p)) best = &p;
    }
  } else {
    // kBestFit: tightest hole — the smallest maximal empty rectangle of the
    // free bitmap containing the shape's first part; ties fall back to the
    // first-fit key, which is the table order, so the first feasible entry
    // attaining the minimum wins.
    BitMatrix free = available;
    free.clear_shifted(occupancy, 0, 0);
    const std::vector<Rect> mers = FreeSpaceIndex::enumerate(free);
    std::vector<std::vector<Rect>> parts(shapes.size());
    for (std::size_t s = 0; s < shapes.size(); ++s)
      parts[s] = decompose_mask(shapes[s].mask());
    long best_area = 0;
    for (const geost::Placement& p : table) {
      if (!conflicts.feasible(p)) continue;
      const Rect probe =
          parts[static_cast<std::size_t>(p.shape)].front().translated(
              {p.x, p.y});
      long area = -1;
      for (const Rect& m : mers)
        if (m.contains(probe) && (area < 0 || m.area() < area))
          area = m.area();
      RR_ASSERT(area > 0);  // feasible => the part is free => a MER holds it
      if (best == nullptr || area < best_area) {
        best = &p;
        best_area = area;
      }
    }
  }
  if (best == nullptr) return std::nullopt;
  return *best;
}

std::optional<AnchorPick> best_anchor(const BitMatrix& free,
                                      std::span<const BitMatrix> shapes,
                                      std::span<const BitMatrix> anchors,
                                      AnchorPolicy policy, const Rect* window,
                                      const AnchorCost* cost) {
  const std::vector<Rect> mers = FreeSpaceIndex::enumerate(free);
  std::optional<AnchorPick> best;
  std::vector<long> best_key;
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    const BitMatrix& fp = shapes[s];
    const std::vector<Rect> parts = decompose_mask(fp);
    if (parts.empty()) continue;
    for (int y = 0; y < free.rows(); ++y) {
      for (int x = 0; x < free.cols(); ++x) {
        if (!anchors[s].get(y, x)) continue;
        if (window != nullptr &&
            !window->contains(Rect{x, y, fp.cols(), fp.rows()}))
          continue;
        if (!free.covers_shifted(fp, y, x)) continue;
        std::vector<long> key;
        switch (policy) {
          case AnchorPolicy::kFirstFit:
            key = {x + fp.cols(), x, y, static_cast<long>(s)};
            break;
          case AnchorPolicy::kBottomLeft:
            key = {y, x, static_cast<long>(s)};
            break;
          case AnchorPolicy::kBestFit: {
            const Rect p0 = parts[0].translated(Point{x, y});
            long bf = -1;
            for (const Rect& m : mers)
              if (m.contains(p0) && (bf < 0 || m.area() < bf)) bf = m.area();
            key = {bf, x + fp.cols(), x, y, static_cast<long>(s)};
            break;
          }
          case AnchorPolicy::kCommCost: {
            const long c =
                cost != nullptr ? (*cost)(static_cast<int>(s), x, y) : 0;
            key = {c, x + fp.cols(), x, y, static_cast<long>(s)};
            break;
          }
        }
        if (!best.has_value() || key < best_key) {
          best = AnchorPick{static_cast<int>(s), x, y};
          best_key = key;
        }
      }
    }
  }
  return best;
}

SweepPlacer::SweepPlacer(const fpga::PartialRegion& region,
                         baseline::OnlineOptions options)
    : region_(region),
      options_(std::move(options)),
      available_(FreeSpaceIndex::union_of(region.masks())),
      occupied_(region.height(), region.width()) {
  RR_REQUIRE(options_.defrag.deadline_seconds <= 0.0,
             "the reference sweep placer does not defragment");
}

void SweepPlacer::refresh_region() {
  available_ = FreeSpaceIndex::union_of(region_.masks());
}

double SweepPlacer::occupancy() const noexcept {
  const long total = region_.total_available();
  return total > 0 ? static_cast<double>(occupied_tiles_) /
                         static_cast<double>(total)
                   : 0.0;
}

std::vector<placer::ModulePlacement> SweepPlacer::live_placements() const {
  std::vector<placer::ModulePlacement> out;
  out.reserve(live_.size());
  for (const auto& [id, li] : live_)
    out.push_back(placer::ModulePlacement{id, li.shape, li.x, li.y});
  std::sort(out.begin(), out.end(),
            [](const placer::ModulePlacement& a,
               const placer::ModulePlacement& b) {
              return a.module < b.module;
            });
  return out;
}

comm::PinContext SweepPlacer::pin_context(std::string_view name) const {
  if (options_.nets == nullptr || options_.comm_weight <= 0 ||
      options_.nets->empty())
    return {};
  std::vector<comm::NamedPin> pins;
  pins.reserve(live_.size());
  for (const auto& [id, li] : live_) {
    const Rect box =
        li.module.shapes()[static_cast<std::size_t>(li.shape)].bounding_box();
    pins.push_back(
        comm::NamedPin{li.module.name(), comm::center2(box, li.x, li.y)});
  }
  return comm::PinContext::build(*options_.nets, name, pins);
}

std::optional<placer::ModulePlacement> SweepPlacer::place(
    int instance_id, const model::Module& module) {
  RR_REQUIRE(!live_.contains(instance_id),
             "instance id " + std::to_string(instance_id) + " already placed");
  const placer::ModuleTables* cached =
      table_source_ != nullptr ? table_source_->lookup(module) : nullptr;
  std::vector<geost::ShapeFootprint> local_shapes;
  std::vector<geost::Placement> local_table;
  if (cached == nullptr) {
    if (options_.use_alternatives) local_shapes = module.shapes();
    else local_shapes.push_back(module.shapes().front());
    std::vector<std::vector<Point>> anchors;
    anchors.reserve(local_shapes.size());
    for (const geost::ShapeFootprint& shape : local_shapes)
      anchors.push_back(geost::compute_valid_anchors(region_.masks(), shape));
    local_table = geost::sorted_placement_table(local_shapes, anchors);
  }
  const std::vector<geost::ShapeFootprint>& shapes =
      cached != nullptr ? *cached->shapes : local_shapes;
  const std::vector<geost::Placement>& table =
      cached != nullptr ? cached->table : local_table;

  comm::PinContext context;
  if (options_.policy == AnchorPolicy::kCommCost)
    context = pin_context(module.name());
  const auto p = sweep_fit(available_, occupied_, shapes, table,
                           options_.policy, &context);
  if (!p.has_value()) return std::nullopt;
  const geost::ShapeFootprint& shape =
      shapes[static_cast<std::size_t>(p->shape)];
  occupied_.or_shifted(shape.mask(), p->y, p->x);
  occupied_tiles_ += shape.area();
  live_.emplace(instance_id, LiveInstance{module, p->shape, p->x, p->y});
  return placer::ModulePlacement{instance_id, p->shape, p->x, p->y};
}

void SweepPlacer::remove(int instance_id) {
  const auto it = live_.find(instance_id);
  RR_REQUIRE(it != live_.end(),
             "instance id " + std::to_string(instance_id) + " is not placed");
  const LiveInstance& li = it->second;
  const geost::ShapeFootprint& shape =
      li.module.shapes()[static_cast<std::size_t>(li.shape)];
  occupied_.clear_shifted(shape.mask(), li.y, li.x);
  occupied_tiles_ -= shape.area();
  live_.erase(it);
}

}  // namespace rr::reference
