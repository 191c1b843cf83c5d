// Incremental maximal-empty-rectangle (MER) free-space index.
//
// Online admission, defragmentation target search, and fault recovery all
// ask the same question — "where does this footprint still fit?" — and the
// bitmap placers answer it by sweeping anchor tables against the occupancy
// grid. Following Ahmadinia et al. ("Optimal Free-Space Management and
// Routing-Conscious Dynamic Placement for Reconfigurable Devices"), this
// index instead maintains the complete set of maximal empty rectangles over
// the region's free cells (available and not occupied) and answers
// admission as a query against that set:
//
//   - occupy() splits every MER crossed by a placed footprint into its at
//     most four remainder rectangles (left/right/below/above of each
//     occupied column run) and prunes rectangles contained in another.
//   - release() re-enumerates exactly the maximal rectangles that gained a
//     freed cell (a column sweep of shrinking row intervals through the
//     freed run), drops old MERs they swallow, and keeps the rest — the
//     merge dual of the split.
//   - set_available() diffs an availability bitmap (fault / repair overlay
//     changes) and applies the per-cell deltas through the same two paths.
//
// Invariants (FreeSpaceIndex::check_invariants, which tests and the soak
// harness call): every stored rectangle is fully free and maximal — it
// cannot grow in any of the four directions — and every maximal empty
// rectangle of the free bitmap is stored exactly once.
//
// Queries are exact for non-rectangular footprints: a footprint is
// decomposed into rectangular parts (decompose_mask), and a part fits at an
// anchor iff some MER contains it, so the feasible-anchor set of a shape is
// the intersection over parts of unions of per-MER anchor windows, masked
// by the shape's resource-compatibility anchor bitmap. Resource types and
// fault overlays therefore filter through the anchor bitmaps (computed
// against the per-resource region masks), while the MER set tracks the
// union availability — together the decisions are bit-identical to the
// occupancy-bitmap sweep, which the callers keep as a differential oracle.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "geo/rect.hpp"
#include "util/bitmatrix.hpp"

namespace rr {

/// Anchor-selection policy for FreeSpaceIndex::best_anchor. All policies
/// see the same feasible set (accept/reject is policy-independent); they
/// differ only in which feasible anchor wins:
///   - kFirstFit: the sorted-placement-table order of geost — minimal
///     (x + bbox.width, x, y, shape); identical to the bitmap sweep's
///     first-fit scan.
///   - kBottomLeft: minimal (y, x, shape) — lowest row first.
///   - kBestFit: tightest hole first — minimal area of the smallest MER
///     containing the shape's first part, ties broken by the first-fit key.
///   - kCommCost: cheapest communication first — minimal caller-supplied
///     anchor cost (see AnchorCost), ties broken by the first-fit key.
///     Without a cost callback the policy degenerates to kFirstFit (the
///     zero-weight oracle).
///
/// Tie-breaking contract (pinned; the bitmap sweeps replicate it so the
/// index-vs-sweep differential oracle holds for every policy): each policy
/// reduces feasible anchors by strict `<` over a total-order key —
///   kFirstFit   (x + bbox.width, x, y, shape)
///   kBottomLeft (y, x, shape)
///   kBestFit    (containing-MER area, x + bbox.width, x, y, shape)
///   kCommCost   (cost, x + bbox.width, x, y, shape)
/// Every key ends in (.., x, y, shape)-distinguishing components, so equal
/// scores always resolve to the same anchor on both arms.
enum class AnchorPolicy {
  kFirstFit = 0,
  kBestFit = 1,
  kBottomLeft = 2,
  kCommCost = 3,
};

/// Anchor cost callback for AnchorPolicy::kCommCost: the communication cost
/// of anchoring shape `shape` (index into the query span) at (x, y). Must
/// be deterministic for the differential oracle to hold.
using AnchorCost = std::function<long(int shape, int x, int y)>;

/// One shape's inputs to best_anchor. `anchors` is the region-shaped
/// valid-anchor bitmap (resource compatibility folded in); `parts` is the
/// shape's rectangular decomposition in local coordinates (decompose_mask);
/// width/height are the shape's bounding box.
struct AnchorQuery {
  const BitMatrix* anchors = nullptr;
  std::span<const Rect> parts;
  int width = 0;
  int height = 0;
};

/// A winning anchor: shape index into the query span plus region coords.
struct AnchorPick {
  int shape = 0;
  int x = 0;
  int y = 0;
};

/// Decompose a footprint mask into disjoint rectangles covering exactly its
/// set cells: maximal groups of consecutive single-run columns sharing one
/// identical vertical run become one rectangle; columns with several runs
/// contribute one 1-wide rectangle per run. Deterministic left-to-right
/// order; the first part is the leftmost (the kBestFit probe part).
[[nodiscard]] std::vector<Rect> decompose_mask(const BitMatrix& mask);

class FreeSpaceIndex {
 public:
  FreeSpaceIndex() = default;

  /// Build over an availability bitmap (typically the union of a region's
  /// per-resource masks) with no occupancy.
  explicit FreeSpaceIndex(BitMatrix available);

  /// Union helper: OR of per-resource availability masks.
  [[nodiscard]] static BitMatrix union_of(std::span<const BitMatrix> masks);

  /// Replace the availability bitmap (fault/repair overlay change) and
  /// update the MER set incrementally from the per-cell diff. Cells under a
  /// live footprint stay non-free either way; they join the free set when
  /// released, if then available.
  void set_available(const BitMatrix& available);

  /// Mark a placed footprint's cells occupied. The cells must currently be
  /// free (the caller validated the placement).
  void occupy(const BitMatrix& footprint, int y, int x);

  /// Release a footprint's cells; cells still available re-join the free
  /// set (cells faulted while occupied stay out until repaired).
  void release(const BitMatrix& footprint, int y, int x);

  /// Best feasible anchor across `queries` under `policy`, or nullopt when
  /// no shape fits anywhere. `window`, when given, additionally requires
  /// the shape's bounding box to lie inside it (the fault-recovery local
  /// re-place tier). `cost` drives AnchorPolicy::kCommCost (ignored by the
  /// other policies; kCommCost with a null cost behaves as kFirstFit). Not
  /// thread-safe (reuses internal scratch).
  [[nodiscard]] std::optional<AnchorPick> best_anchor(
      std::span<const AnchorQuery> queries, AnchorPolicy policy,
      const Rect* window = nullptr, const AnchorCost* cost = nullptr) const;

  /// The maximal empty rectangles (unspecified order).
  [[nodiscard]] const std::vector<Rect>& rectangles() const noexcept {
    return mers_;
  }
  /// The free bitmap (available and not occupied) the MER set describes.
  [[nodiscard]] const BitMatrix& free_matrix() const noexcept { return free_; }
  [[nodiscard]] const BitMatrix& available_matrix() const noexcept {
    return avail_;
  }
  [[nodiscard]] long free_tiles() const noexcept { return free_tiles_; }
  [[nodiscard]] int rows() const noexcept { return free_.rows(); }
  [[nodiscard]] int cols() const noexcept { return free_.cols(); }

  /// From-scratch enumeration of every maximal empty rectangle of `free` —
  /// the construction path and the differential oracle for the incremental
  /// updates. One histogram-of-heights stack pass per row over word-
  /// extracted row runs; a popped histogram rectangle is maximal iff the
  /// row above blocks it somewhere.
  [[nodiscard]] static std::vector<Rect> enumerate(const BitMatrix& free);

 private:
  /// Cells (x, y1..y2) turned non-free: split every crossing MER.
  void insert_run(int x, int y1, int y2);
  /// Cells (x, y1..y2) turned free (free_ already updated): enumerate the
  /// maximal rectangles through the run and merge them into the set.
  void remove_run(int x, int y1, int y2);
  /// Maximal free row interval [l, r) of `row` containing column x, as
  /// stored in free_; {0, 0} when (x, row) is not free.
  [[nodiscard]] std::pair<int, int> row_interval(int row, int x) const;

  BitMatrix avail_;
  BitMatrix occ_;
  BitMatrix free_;
  long free_tiles_ = 0;
  std::vector<Rect> mers_;

  // best_anchor scratch (row-range cleared between uses).
  mutable BitMatrix feasible_;
  mutable BitMatrix strip_;
  mutable int strip_lo_ = 0;  // rows [strip_lo_, strip_hi_) may be dirty
  mutable int strip_hi_ = 0;

 public:
  /// One message per broken invariant (free = available minus occupied,
  /// free_tiles() its popcount, the MER set = enumerate(free)); empty when
  /// consistent. Never throws or asserts. For tests and soak harnesses.
  [[nodiscard]] std::vector<std::string> check_invariants() const;
};

}  // namespace rr
