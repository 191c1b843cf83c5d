// Reference admission: the occupancy-bitmap sweep and the per-anchor
// best-anchor check, kept as oracles for the free-space index.
//
// Production admission (baseline::OnlinePlacer, runtime::FaultRecoveryManager)
// answers every placement query from the incremental maximal-empty-rectangle
// index (geo/free_space). This library re-derives the same decisions without
// the index, so tests and benches can hold the index to them:
//   - sweep_fit scans a sorted anchor table against an occupancy bitmap
//     under the four anchor policies (kFirstFit, kBestFit, kBottomLeft,
//     kCommCost), reducing by the same pinned keys as the index;
//   - SweepPlacer wraps sweep_fit in OnlinePlacer's place/remove contract
//     (same tables, same communication contexts; no defragmentation);
//   - best_anchor is a per-anchor check that knows only bitmaps — no
//     tables, no rectangles beyond the kBestFit hole ranking.
// Linked only by tests and benches; nothing in src/ depends on it.
#pragma once

#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "baseline/online.hpp"
#include "comm/net.hpp"
#include "fpga/region.hpp"
#include "geo/free_space.hpp"
#include "geost/footprint.hpp"
#include "geost/object.hpp"
#include "model/module.hpp"
#include "placer/placement.hpp"
#include "util/bitmatrix.hpp"

namespace rr::reference {

/// Policy-aware admission by sweeping `table` (sorted as
/// geost::sorted_placement_table sorts it) against `occupancy`. `available`
/// is the region's union availability, used only by kBestFit to rank holes
/// of the free bitmap (available and not occupied). `comm` (may be null) is
/// the kCommCost ranking context; kCommCost without one degrades to
/// kFirstFit. nullopt when no entry is conflict-free.
[[nodiscard]] std::optional<geost::Placement> sweep_fit(
    const BitMatrix& available, const BitMatrix& occupancy,
    const std::vector<geost::ShapeFootprint>& shapes,
    const std::vector<geost::Placement>& table, AnchorPolicy policy,
    const comm::PinContext* comm);

/// Per-anchor reference for FreeSpaceIndex::best_anchor: every set bit of
/// `anchors[s]` whose footprint `shapes[s]` lies inside `free` (and inside
/// `window`, when given) competes under the policy's pinned key.
[[nodiscard]] std::optional<AnchorPick> best_anchor(
    const BitMatrix& free, std::span<const BitMatrix> shapes,
    std::span<const BitMatrix> anchors, AnchorPolicy policy,
    const Rect* window, const AnchorCost* cost = nullptr);

/// OnlinePlacer's admission without the free-space index and without
/// defragmentation: per-request anchor tables (or an installed table
/// source's), the same kCommCost pin contexts, sweep_fit for the decision.
/// `options.defrag` must be off.
class SweepPlacer {
 public:
  /// The region must outlive the placer.
  SweepPlacer(const fpga::PartialRegion& region,
              baseline::OnlineOptions options = {});

  std::optional<placer::ModulePlacement> place(int instance_id,
                                               const model::Module& module);
  void remove(int instance_id);

  /// Same contract as OnlinePlacer::set_table_source.
  void set_table_source(baseline::ModuleTableSource* source) noexcept {
    table_source_ = source;
  }
  /// Re-read the region's availability after a fault or repair.
  void refresh_region();

  [[nodiscard]] const BitMatrix& occupied_matrix() const noexcept {
    return occupied_;
  }
  [[nodiscard]] double occupancy() const noexcept;
  /// Sorted by instance id, as OnlinePlacer::live_placements.
  [[nodiscard]] std::vector<placer::ModulePlacement> live_placements() const;

 private:
  struct LiveInstance {
    model::Module module;
    int shape = 0;
    int x = 0;
    int y = 0;
  };

  [[nodiscard]] comm::PinContext pin_context(std::string_view name) const;

  const fpga::PartialRegion& region_;
  baseline::OnlineOptions options_;
  baseline::ModuleTableSource* table_source_ = nullptr;
  BitMatrix available_;
  BitMatrix occupied_;
  long occupied_tiles_ = 0;
  std::unordered_map<int, LiveInstance> live_;
};

}  // namespace rr::reference
