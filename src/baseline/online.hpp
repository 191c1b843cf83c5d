// Online module placement (the related-work setting of §II: modules are
// placed and removed at run time in a nondeterministic order, and the
// placer manages free space incrementally).
//
// OnlinePlacer serves place() / remove() requests on a runtime::LiveLayout
// of a region: each request's anchor table is intersected with the layout's
// maximal-empty-rectangle index of the free space (geo/free_space), and the
// anchor policy (bottom-left first fit by default) picks among the feasible
// anchors. It is the comparison point for the paper's offline in-advance
// placement, and demonstrates how design alternatives raise the request
// acceptance ratio (service level) under fragmentation.
//
// When a defrag deadline is configured, a rejected request additionally
// triggers the layout's relocation pipeline (runtime/live_layout.hpp): a
// bounded set of live modules chosen by a blocking-cell ranking is
// re-placed together with the new request — an exact CP re-place first, a
// greedy shake under the configured policy when the deadline expires
// mid-search — and the plan is committed only if the request then fits;
// otherwise the request is rejected. This class keeps only the admission
// policy around it: the retry-epoch and relocation-budget gates and the
// defrag telemetry. Relocations are paid for in the no-break copy model: a
// moved module costs its old footprint (cleared) plus its new footprint
// (written), accounted as a runtime::TransitionCost.
#pragma once

#include <memory>
#include <optional>

#include "comm/net.hpp"
#include "fpga/region.hpp"
#include "geo/free_space.hpp"
#include "model/module.hpp"
#include "placer/placement.hpp"
#include "runtime/live_layout.hpp"
#include "runtime/manager.hpp"

namespace rr::baseline {

/// Supplier of cached per-module placement tables; see
/// runtime::ModuleTableSource for the staleness contract.
using runtime::ModuleTableSource;

/// Tuning for the on-reject defragmentation pass. Defrag is off by default
/// (deadline_seconds <= 0), in which case place() behaves exactly like the
/// plain first-fit placer — bit-identical outcomes on any trace.
struct OnlineDefragOptions {
  /// Wall-clock budget per defrag pass; <= 0 disables defragmentation.
  double deadline_seconds = 0.0;
  /// Largest relocation set considered (live modules moved per pass).
  int max_relocations = 4;
  /// Blocking-cell heuristic scan bound: candidate anchors examined when
  /// choosing the relocation set.
  int max_anchor_scan = 256;
  /// Lifetime cap on relocated tiles (cleared + written); < 0 = unlimited.
  /// Once exhausted, defrag passes are skipped and requests fall back to
  /// plain first-fit accept/reject.
  long relocation_budget_tiles = -1;
  /// Seed for the exact tier's search.
  std::uint64_t seed = 1;
};

/// Defragmentation telemetry; also mirrored into rr::metrics under
/// "online.defrag.*" while collection is enabled.
struct OnlineDefragStats {
  std::uint64_t attempts = 0;           // defrag passes started
  std::uint64_t successes = 0;          // request admitted by a pass
  std::uint64_t exact_successes = 0;    // ... via the exact CP tier
  std::uint64_t greedy_successes = 0;   // ... via the greedy shake tier
  std::uint64_t relocated_modules = 0;  // live modules actually moved
  std::uint64_t relocated_tiles = 0;    // tiles cleared + written by moves
  std::uint64_t deadline_expiries = 0;  // exact tier cut off by deadline
  std::uint64_t rejects = 0;            // pass ran, request still rejected
  std::uint64_t retry_skips = 0;        // skipped: state unchanged since a
                                        // failed pass for a no-larger module
  std::uint64_t budget_skips = 0;       // skipped: relocation budget spent
};

struct OnlineOptions {
  bool use_alternatives = true;
  /// Which feasible anchor wins a placement query; see AnchorPolicy.
  /// Admission is answered by the incremental maximal-empty-rectangle index
  /// (geo/free_space), which implements every policy.
  AnchorPolicy policy = AnchorPolicy::kFirstFit;
  /// Communication model for AnchorPolicy::kCommCost: a request's candidate
  /// anchors are ranked by the weighted HPWL growth against the pins of the
  /// currently live instances (nets reference modules by name; instances of
  /// unnamed-by-any-net modules rank as first-fit). A null/empty net list or
  /// comm_weight <= 0 degrades kCommCost to kFirstFit — the zero-weight
  /// oracle. Shared ownership so service tenants can alias one list.
  std::shared_ptr<const comm::NetList> nets;
  long comm_weight = 0;
  OnlineDefragOptions defrag{};
};

class OnlinePlacer {
 public:
  /// The region must outlive the placer.
  explicit OnlinePlacer(const fpga::PartialRegion& region,
                        OnlineOptions options = {});

  /// Try to place an instance of `module`; returns the placement (region
  /// coordinates and chosen shape) or nullopt when no conflict-free anchor
  /// exists and defragmentation (if enabled) cannot make room.
  /// `instance_id` names the instance for later removal and must be fresh.
  /// A successful defrag pass may relocate other live instances; their new
  /// positions are visible through live_placements().
  ///
  /// `budget_seconds` > 0 caps the defrag pass's deadline at
  /// min(configured, budget) — the service hands each request's *remaining*
  /// deadline budget through here so a late-starting request cannot spend
  /// the full configured defrag budget it no longer has. <= 0 means "no
  /// extra cap" (the configured deadline applies unchanged); a positive
  /// budget never *enables* defrag when it is configured off, so the
  /// default is bit-identical to the two-argument call.
  std::optional<placer::ModulePlacement> place(int instance_id,
                                               const model::Module& module,
                                               double budget_seconds = 0.0);

  /// Remove a previously placed instance, freeing its tiles.
  void remove(int instance_id);

  /// Install (or clear, with nullptr) a table cache; see ModuleTableSource
  /// for the staleness contract. The source must outlive its installation.
  /// Dropping the source also drops the anchor-query cache derived from its
  /// tables (cache entries are keyed by ModuleTables address).
  void set_table_source(ModuleTableSource* source) noexcept {
    table_source_ = source;
    layout_.clear_query_cache();
  }

  /// Re-sync with the region after its availability masks changed (fault or
  /// repair overlay): the free-space index diffs the new union-availability
  /// bitmap and the anchor-query cache is dropped. Callers refreshing their
  /// ModuleTableSource after a fault (the staleness contract) must call this
  /// too, or index decisions diverge from the masks.
  void refresh_region() { layout_.refresh_available(); }

  [[nodiscard]] bool is_placed(int instance_id) const noexcept {
    return layout_.contains(instance_id);
  }
  [[nodiscard]] int live_count() const noexcept { return layout_.size(); }
  /// Tiles currently occupied by live instances.
  [[nodiscard]] long occupied_tiles() const noexcept {
    return layout_.occupied_tiles();
  }
  /// Fraction of the region's available tiles currently occupied.
  [[nodiscard]] double occupancy() const noexcept;

  /// Current placement of every live instance (ModulePlacement::module is
  /// the instance id), sorted by id. The oracle view for cross-checking
  /// the incremental occupancy state.
  [[nodiscard]] std::vector<placer::ModulePlacement> live_placements() const {
    return layout_.live_placements();
  }

  /// The incremental occupancy bitmap (rows by y, columns by x).
  [[nodiscard]] const BitMatrix& occupied_matrix() const noexcept {
    return layout_.occupied();
  }

  /// The free-space index that answers every admission query; it mirrors
  /// occupied_matrix() against the region's union availability. Exposed for
  /// tests and benches.
  [[nodiscard]] const FreeSpaceIndex& free_space() const noexcept {
    return layout_.index();
  }

  [[nodiscard]] const OnlineDefragStats& defrag_stats() const noexcept {
    return defrag_stats_;
  }

  /// Accumulated reconfiguration cost of defrag relocations: every moved
  /// module contributes tiles_cleared (old footprint) + tiles_written (new
  /// footprint), mirroring the no-break copy-cost model. The new request's
  /// own configuration write is not included — that cost exists with or
  /// without defragmentation.
  [[nodiscard]] const runtime::TransitionCost& relocation_cost()
      const noexcept {
    return relocation_cost_;
  }

 private:
  /// The defrag pass (gates already passed). Commits and returns the new
  /// request's placement on success. `deadline_seconds` is the effective
  /// (possibly remaining-budget-clamped) wall budget for this pass.
  std::optional<placer::ModulePlacement> defrag_place(
      int instance_id, const model::Module& module,
      const runtime::LiveLayout::Tables& tables, double deadline_seconds);

  void note_defrag_failure(const model::Module& module);

  OnlineOptions options_;
  ModuleTableSource* table_source_ = nullptr;  // non-owning; may be null
  runtime::LiveLayout layout_;

  OnlineDefragStats defrag_stats_{};
  runtime::TransitionCost relocation_cost_{};
  /// Bumped on every state change (place/remove/defrag commit); the retry
  /// gate compares it against the epoch of the last failed pass so a
  /// pathological trace of identical doomed requests cannot livelock the
  /// service re-running defrag against an unchanged region.
  std::uint64_t epoch_ = 0;
  bool have_failed_defrag_ = false;
  std::uint64_t failed_defrag_epoch_ = 0;
  int failed_defrag_min_area_ = 0;

 public:
  /// The live layout behind the placer, for its check_invariants() audit.
  [[nodiscard]] const runtime::LiveLayout& layout() const noexcept {
    return layout_;
  }
};

}  // namespace rr::baseline
