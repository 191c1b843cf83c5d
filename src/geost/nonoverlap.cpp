#include "geost/nonoverlap.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <utility>

#include "geost/anchor_kernel.hpp"
#include "util/error.hpp"

namespace rr::geost {
namespace {

// An advised propagator (see nonoverlap.hpp). The Space reports every
// modification of a placement variable through modified(), which lands in a
// dirty set drained at propagate() entry. Internal state — the union
// occupancy bitmap of committed (assigned) objects and per-object cached
// compulsory parts — is trailed through level_pushed()/level_popped() in
// lockstep with the Space's domain trail:
//   - committing an object ORs its footprint in; commits are recorded on a
//     trail and are pairwise disjoint (a conflicting commit fails the space
//     first), so rollback via clear_shifted is exact;
//   - a compulsory part cached at a decision level is invalidated when that
//     level dies, because the prunings justified against it die with it.
// Each run then prunes open objects only against the *delta*: footprint
// cells committed this run plus cells each recomputed compulsory part
// gained. Values that survived earlier runs stay consistent with the old
// occupancy, so re-checking them against it would be pure waste.
class NonOverlap final : public cp::Propagator {
 public:
  NonOverlap(std::vector<GeostObject> objects, int width, int height,
             NonOverlapOptions options)
      : cp::Propagator(cp::PropPriority::kGlobal, cp::PropKind::kGeost),
        objects_(std::move(objects)),
        width_(width),
        height_(height),
        options_(options) {}

  void attach(cp::Space& space, int self) override {
    const std::size_t n = objects_.size();
    for (std::size_t j = 0; j < n; ++j) {
      space.subscribe(objects_[j].var(), self, cp::kOnDomain,
                      static_cast<int>(j));
    }
    occupancy_ = BitMatrix(height_, width_);
    delta_occupancy_ = BitMatrix(height_, width_);
    hazard_ = BitMatrix(height_, width_);
    committed_.assign(n, -1);
    caches_.resize(n);
    // Start with everything dirty: the first run is a full from-scratch
    // pruning, later runs are pure deltas.
    in_dirty_.assign(n, 1);
    dirty_.resize(n);
    for (std::size_t j = 0; j < n; ++j) dirty_[j] = static_cast<int>(j);
    std::size_t largest_table = 0;
    for (const GeostObject& object : objects_)
      largest_table = std::max(largest_table, object.table().size());
    part_values_.reserve(std::min(
        largest_table,
        static_cast<std::size_t>(std::max(options_.compulsory_threshold, 0))));
    // Bounding box over each object's whole placement table — a cheap
    // whole-object prefilter for the delta pruning pass.
    table_boxes_.reserve(n);
    for (const GeostObject& object : objects_) {
      Rect box{};
      const int values = static_cast<int>(object.table().size());
      for (int v = 0; v < values; ++v)
        box = box.bounding_union(object.bbox_of(v));
      table_boxes_.push_back(box);
    }
  }

  [[nodiscard]] bool advised() const noexcept override { return true; }

  void modified(cp::Space& /*space*/, cp::VarId /*var*/, int data) override {
    const std::size_t j = static_cast<std::size_t>(data);
    if (in_dirty_[j]) return;
    in_dirty_[j] = 1;
    dirty_.push_back(static_cast<int>(j));
  }

  void level_pushed(cp::Space& /*space*/) override {
    commit_marks_.push_back(commit_trail_.size());
    cache_marks_.push_back(cache_trail_.size());
  }

  void level_popped(cp::Space& /*space*/) override {
    RR_ASSERT(!commit_marks_.empty());
    const std::size_t cmark = commit_marks_.back();
    commit_marks_.pop_back();
    while (commit_trail_.size() > cmark) {
      const std::size_t j = commit_trail_.back();
      const GeostObject& object = objects_[j];
      const Placement& p = object.placement(committed_[j]);
      occupancy_.clear_shifted(object.footprint_of(committed_[j]).mask(), p.y,
                               p.x);
      committed_[j] = -1;
      commit_trail_.pop_back();
    }
    const std::size_t kmark = cache_marks_.back();
    cache_marks_.pop_back();
    while (cache_trail_.size() > kmark) {
      caches_[cache_trail_.back()].has_content = false;
      cache_trail_.pop_back();
    }
  }

  cp::PropStatus propagate(cp::Space& space) override;

 private:
  /// Cached compulsory part of one open object. `has_content` means other
  /// objects were already pruned against the stored part at a still-live
  /// decision level, so a recompute needs to prune only against the cells
  /// the part *gained*; level_popped clears the flag for caches filled at
  /// dead levels (the prunings they justified were rolled back too). The
  /// stored bits, stale or not, lie in rows [row_lo, row_hi); `part` stays
  /// unallocated until the object first has a non-empty bounding box.
  struct SoftCache {
    BitMatrix part;
    int row_lo = 0;
    int row_hi = 0;
    bool has_content = false;
  };

  /// One run's growth of one object's part. Slots are reused across runs:
  /// `grown` keeps its storage and is set only in the rows of `box`.
  struct SoftDelta {
    std::size_t owner;
    BitMatrix grown;  // newly-compulsory cells, not yet pruned against
    Rect box;         // bounding box of the full (current) part
  };

  /// Recompute the compulsory part of open object `idx` from its current
  /// domain into its cache, and record the cells it gained in the next free
  /// delta slot (which counts as used only when it gained some).
  void recompute_part(cp::Space& space, std::size_t idx, bool trail);

  std::vector<GeostObject> objects_;
  int width_;
  int height_;
  NonOverlapOptions options_;

  // --- Trailed search state ----------------------------------------------
  BitMatrix occupancy_;         // union footprint of committed objects
  std::vector<int> committed_;  // committed placement value, -1 when open
  std::vector<std::size_t> commit_trail_;
  std::vector<std::size_t> commit_marks_;
  std::vector<SoftCache> caches_;
  std::vector<std::size_t> cache_trail_;  // caches filled at a live level
  std::vector<std::size_t> cache_marks_;
  std::vector<int> dirty_;  // objects modified since the last run, deduped
  std::vector<unsigned char> in_dirty_;
  std::vector<Rect> table_boxes_;
  // Per-run scratch, kept as members to avoid reallocation.
  BitMatrix delta_occupancy_;
  std::vector<int> drained_;
  std::vector<SoftDelta> soft_deltas_;  // slots; the first live_deltas_ hold
  std::size_t live_deltas_ = 0;         // this run's growth
  std::vector<int> part_values_;        // domain under recompute_part
  std::vector<int> removals_;
  // Batch-pruning scratch: the per-object hazard union and one lazily
  // dilated conflict bitmap per shape of the object under examination.
  BitMatrix hazard_;
  std::vector<BitMatrix> batch_conflicts_;
  std::vector<unsigned char> batch_conflict_built_;
  std::vector<int> batch_probe_counts_;
};

cp::PropStatus NonOverlap::propagate(cp::Space& space) {
  const std::size_t n = objects_.size();

  // Drain the dirty set: everything modified since the previous run.
  drained_.clear();
  drained_.swap(dirty_);
  for (int j : drained_) in_dirty_[static_cast<std::size_t>(j)] = 0;

  // Phase 1: commit newly assigned objects into the occupancy bitmap.
  // Committed footprints stay pairwise disjoint (a conflicting commit fails
  // before OR-ing), which is what makes the clear_shifted rollback in
  // level_popped exact.
  const bool trail = space.decision_level() > 0;
  delta_occupancy_.clear();
  Rect delta_box{};
  bool occupancy_grew = false;
  for (int j : drained_) {
    const std::size_t idx = static_cast<std::size_t>(j);
    const GeostObject& object = objects_[idx];
    if (!space.assigned(object.var()) || committed_[idx] >= 0) continue;
    const int value = space.value(object.var());
    const Placement& p = object.placement(value);
    const BitMatrix& mask = object.footprint_of(value).mask();
    if (occupancy_.intersects_shifted(mask, p.y, p.x))
      return cp::PropStatus::kFail;
    if (trail) commit_trail_.push_back(idx);
    occupancy_.or_shifted(mask, p.y, p.x);
    committed_[idx] = value;
    delta_occupancy_.or_shifted(mask, p.y, p.x);
    delta_box = delta_box.bounding_union(object.bbox_of(value));
    occupancy_grew = true;
  }

  std::size_t committed_count = 0;
  for (std::size_t j = 0; j < n; ++j) committed_count += committed_[j] >= 0;
  if (committed_count == n)
    return cp::PropStatus::kSubsumed;  // all placed, overlap-free

  // Phase 2: recompute compulsory parts of open objects whose domains
  // changed, collecting the cells each part gained.
  live_deltas_ = 0;
  if (options_.use_compulsory_parts) {
    for (int j : drained_) {
      const std::size_t idx = static_cast<std::size_t>(j);
      if (committed_[idx] >= 0) continue;  // the footprint covers it now
      if (space.dom(objects_[idx].var()).size() >
          options_.compulsory_threshold)
        continue;
      recompute_part(space, idx, trail);
    }
  }
  const std::span<const SoftDelta> deltas(soft_deltas_.data(), live_deltas_);

  if (!occupancy_grew && deltas.empty()) return cp::PropStatus::kFix;

  // Phase 3: prune open objects against the delta regions only. Values that
  // survived earlier runs are still consistent with the old occupancy and
  // parts; only the grown cells can invalidate them. Removals re-enter the
  // dirty set via modified(), so compulsory-part growth cascades to the
  // same fixpoint a from-scratch rebuild reaches (the differential oracle in
  // tests/reference/nonoverlap.hpp).
  for (std::size_t j = 0; j < n; ++j) {
    const GeostObject& object = objects_[j];
    if (committed_[j] >= 0) continue;
    const Rect& table_box = table_boxes_[j];
    bool relevant = occupancy_grew && table_box.intersects(delta_box);
    for (std::size_t s = 0; !relevant && s < deltas.size(); ++s) {
      relevant = deltas[s].owner != j && table_box.intersects(deltas[s].box);
    }
    if (!relevant) continue;
    const cp::Domain& dom = space.dom(object.var());
    removals_.clear();
    // Per-value check against the individual delta sources — the reference
    // semantics both paths below implement.
    const auto removable = [&](int value) {
      const Rect box = object.bbox_of(value);
      const Placement& p = object.placement(value);
      const BitMatrix& mask = object.footprint_of(value).mask();
      if (occupancy_grew && box.intersects(delta_box) &&
          delta_occupancy_.intersects_shifted(mask, p.y, p.x)) {
        return true;
      }
      for (const SoftDelta& s : deltas) {
        if (s.owner == j || !box.intersects(s.box)) continue;
        if (s.grown.intersects_shifted(mask, p.y, p.x)) return true;
      }
      return false;
    };
    if (dom.size() >= static_cast<long>(options_.batch_threshold)) {
      // Batch path, engaged lazily per shape: values are checked one at a
      // time exactly like the per-value path until a shape has seen enough
      // hazard-box hits to amortize a conflict bitmap — the union of all
      // hazard cells dilated by the shape over the hazard's anchor-row
      // stripe — after which each remaining value is a single bit probe.
      // The removal set is identical either way: the hazard union
      // distributes over the OR of the per-source intersects tests, and a
      // conflicting cell implies the bbox intersections checked by
      // `removable`. Small-delta propagations (the common in-tree case)
      // never reach the switch point and pay nothing beyond the per-value
      // path's cost.
      Rect hazard_box{};
      if (occupancy_grew) hazard_box = delta_box;
      for (const SoftDelta& s : deltas) {
        if (s.owner != j) hazard_box = hazard_box.bounding_union(s.box);
      }
      const std::size_t num_shapes = object.shapes().size();
      if (batch_conflicts_.size() < num_shapes) {
        batch_conflicts_.resize(num_shapes);
        batch_probe_counts_.resize(num_shapes);
      }
      std::fill_n(batch_probe_counts_.begin(), num_shapes, 0);
      batch_conflict_built_.assign(num_shapes, 0);
      bool hazard_built = false;
      dom.for_each([&](int value) {
        const Placement& p = object.placement(value);
        // Values outside the hazard union's bbox cannot conflict with any
        // grown cell — the same prefilter `removable` applies per source.
        if (!object.bbox_of(value).intersects(hazard_box)) return;
        const std::size_t s = static_cast<std::size_t>(p.shape);
        const ShapeFootprint& shape = object.shapes()[s];
        const int shape_rows = shape.mask().rows();
        // Anchor rows that can reach a hazard cell: the shape spans
        // shape_rows rows downward from its anchor, so the stripe is the
        // hazard rows dilated upward by shape_rows - 1 (clipped to the
        // object's anchor-row range).
        const int row_lo =
            std::max({0, table_box.y, hazard_box.y - shape_rows + 1});
        const int row_hi =
            std::min({height_, table_box.top(), hazard_box.top()});
        if (!batch_conflict_built_[s]) {
          // Cost model for the switch point: the build dilates every shape
          // cell across every stripe row (~stripe_rows * area word ops),
          // while a per-value probe gathers one window per shape row
          // (~shape_rows ops against the small delta bitmaps). The bitmap
          // therefore pays off only after about stripe_rows * cells_per_row
          // probes of this shape. batch_threshold <= 0 forces the bitmap on
          // the second probe (how the differential tests pin the batch
          // path).
          const int cells_per_row =
              std::max(shape.area() / std::max(shape_rows, 1), 1);
          const int switch_after =
              options_.batch_threshold <= 0
                  ? 1
                  : std::max(row_hi - row_lo, 1) * cells_per_row;
          if (++batch_probe_counts_[s] <= switch_after) {
            if (removable(value)) removals_.push_back(value);
            return;
          }
          if (!hazard_built) {
            hazard_.clear();
            if (occupancy_grew) hazard_.or_with(delta_occupancy_);
            for (const SoftDelta& s2 : deltas) {
              if (s2.owner != j) hazard_.or_with(s2.grown);
            }
            hazard_built = true;
          }
          BitMatrix& conflict = batch_conflicts_[s];
          if (conflict.rows() != height_ || conflict.cols() != width_)
            conflict = BitMatrix(height_, width_);
          else
            conflict.clear();
          accumulate_conflicts(conflict, hazard_,
                               object.shapes()[s].mask(), row_lo, row_hi);
          batch_conflict_built_[s] = 1;
        }
        // Every probed value passed the bbox test, which puts its anchor
        // row inside the built stripe.
        if (batch_conflicts_[s].get(p.y, p.x)) removals_.push_back(value);
      });
    } else {
      dom.for_each([&](int value) {
        if (removable(value)) removals_.push_back(value);
      });
    }
    if (!removals_.empty()) {
      if (space.remove_values_sorted(object.var(), removals_) ==
          cp::ModEvent::kFail)
        return cp::PropStatus::kFail;
    }
  }
  return cp::PropStatus::kFix;
}

void NonOverlap::recompute_part(cp::Space& space, std::size_t idx,
                                bool trail) {
  const GeostObject& object = objects_[idx];
  part_values_.clear();
  space.dom(object.var()).for_each(
      [&](int value) { part_values_.push_back(value); });
  // The part lies inside every value's bounding box, so an empty
  // intersection proves it empty without touching a bitmap.
  Rect box = object.bbox_of(part_values_.front());
  for (std::size_t i = 1; i < part_values_.size() && !box.empty(); ++i)
    box = box.intersection(object.bbox_of(part_values_[i]));

  SoftCache& cache = caches_[idx];
  const bool had_content = cache.has_content;
  cache.has_content = true;
  if (trail) cache_trail_.push_back(idx);
  if (box.empty()) {
    cache.part.clear_rows(cache.row_lo, cache.row_hi);
    cache.row_lo = cache.row_hi = 0;
    return;
  }

  if (cache.part.empty()) cache.part = BitMatrix(height_, width_);
  if (live_deltas_ == soft_deltas_.size())
    soft_deltas_.push_back(SoftDelta{idx, BitMatrix(height_, width_), Rect{}});
  SoftDelta& delta = soft_deltas_[live_deltas_];
  delta.grown.clear_rows(delta.box.y, delta.box.top());
  delta.owner = idx;
  delta.box = box;

  // Build the part word by word on the band's rows only: each word is the
  // AND of every value's shifted footprint window, and stops at the first
  // value that empties it. Words outside the box's columns are zero. The
  // stored part is read before it is overwritten, which gives the gained
  // cells; it is stale (and ignored) unless had_content.
  const std::size_t word_lo = static_cast<std::size_t>(box.x) >> 6;
  const std::size_t word_hi = static_cast<std::size_t>(box.right() - 1) >> 6;
  bool grew = false;
  for (int r = box.y; r < box.top(); ++r) {
    const std::span<std::uint64_t> part_row = cache.part.row_span_mut(r);
    const std::span<std::uint64_t> grown_row = delta.grown.row_span_mut(r);
    for (std::size_t w = 0; w < part_row.size(); ++w) {
      std::uint64_t word = 0;
      if (w >= word_lo && w <= word_hi) {
        word = ~std::uint64_t{0};
        const int col = static_cast<int>(w) * 64;
        for (const int value : part_values_) {
          const Placement& p = object.placement(value);
          word &= object.footprint_of(value).mask().row_window(r - p.y,
                                                               col - p.x);
          if (word == 0) break;
        }
      }
      const std::uint64_t old = had_content ? part_row[w] : 0;
      part_row[w] = word;
      grown_row[w] = word & ~old;
      grew = grew || grown_row[w] != 0;
    }
  }
  // Clear what the previous part left outside the new band.
  cache.part.clear_rows(cache.row_lo, std::min(cache.row_hi, box.y));
  cache.part.clear_rows(std::max(cache.row_lo, box.top()), cache.row_hi);
  cache.row_lo = box.y;
  cache.row_hi = box.top();
  if (grew) ++live_deltas_;
}

}  // namespace

int post_non_overlap(cp::Space& space, std::vector<GeostObject> objects,
                     int region_width, int region_height,
                     const NonOverlapOptions& options) {
  RR_REQUIRE(region_width > 0 && region_height > 0,
             "non-overlap region must be non-degenerate");
  return space.post(std::make_unique<NonOverlap>(
      std::move(objects), region_width, region_height, options));
}

}  // namespace rr::geost
