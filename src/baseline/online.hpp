// Online module placement (the related-work setting of §II: modules are
// placed and removed at run time in a nondeterministic order, and the
// placer manages free space incrementally).
//
// OnlinePlacer keeps the occupancy state of a region and serves place() /
// remove() requests: each request's anchor table is intersected with the
// incrementally maintained maximal-empty-rectangle index of the free space
// (geo/free_space), and the anchor policy (bottom-left first fit by
// default) picks among the feasible anchors. It is the comparison point
// for the paper's offline in-advance placement, and demonstrates how design
// alternatives raise the request acceptance ratio (service level) under
// fragmentation.
//
// When a defrag deadline is configured, a rejected request additionally
// triggers an online defragmentation pass in the spirit of van der Veen et
// al. ("Defragmenting the Module Layout of a Partially Reconfigurable
// Device") and Fekete et al.'s no-break model: a bounded set of live
// modules — chosen by a blocking-cell heuristic over the occupancy bitmap
// — is re-placed together with the new request, and the result is
// committed only if the request then fits. Degradation is graceful: an
// exact CP re-place first, a greedy bottom-left shake when the deadline
// expires mid-search, and finally a plain reject. Relocations are paid
// for in the no-break copy model: a moved module costs its old footprint
// (cleared) plus its new footprint (written), accounted as a
// runtime::TransitionCost.
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "comm/net.hpp"
#include "fpga/region.hpp"
#include "geo/free_space.hpp"
#include "model/module.hpp"
#include "placer/model_builder.hpp"
#include "placer/placement.hpp"
#include "runtime/manager.hpp"

namespace rr::baseline {

/// Supplier of cached per-module placement tables, as produced by
/// placer::prepare_tables over this placer's region and alternatives
/// setting. When installed via OnlinePlacer::set_table_source, place() and
/// the defrag shake tier skip the per-request anchor scan for any module
/// the source covers; a nullptr lookup falls back to the scan. Cached and
/// scanned tables are prepared by the same code path, so placements are
/// bit-identical either way.
///
/// Staleness contract: the tables encode the region's availability masks at
/// preparation time. After a fault or repair changes the masks the caller
/// MUST drop or refresh the source before the next request, or placements
/// may land on unavailable tiles (the occupancy bitmap alone cannot catch
/// this). Occupancy changes — place/remove/defrag — do not invalidate.
class ModuleTableSource {
 public:
  virtual ~ModuleTableSource() = default;
  /// Tables for `module`, or nullptr when not cached. The pointee must stay
  /// valid until the source is replaced or the placer is destroyed.
  [[nodiscard]] virtual const placer::ModuleTables* lookup(
      const model::Module& module) = 0;
};

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
    query_cache_.clear();
  }

  /// Re-sync with the region after its availability masks changed (fault or
  /// repair overlay): the free-space index diffs the new union-availability
  /// bitmap and the anchor-query cache is dropped. Callers refreshing their
  /// ModuleTableSource after a fault (the staleness contract) must call this
  /// too, or index decisions diverge from the masks.
  void refresh_region();

  [[nodiscard]] bool is_placed(int instance_id) const noexcept {
    return live_.contains(instance_id);
  }
  [[nodiscard]] int live_count() const noexcept {
    return static_cast<int>(live_.size());
  }
  /// Tiles currently occupied by live instances.
  [[nodiscard]] long occupied_tiles() const noexcept { return occupied_tiles_; }
  /// Fraction of the region's available tiles currently occupied.
  [[nodiscard]] double occupancy() const noexcept;

  /// Current placement of every live instance (ModulePlacement::module is
  /// the instance id), sorted by id. The oracle view for cross-checking
  /// the incremental occupancy state.
  [[nodiscard]] std::vector<placer::ModulePlacement> live_placements() const;

  /// The incremental occupancy bitmap (rows by y, columns by x).
  [[nodiscard]] const BitMatrix& occupied_matrix() const noexcept {
    return occupied_;
  }

  /// The free-space index that answers every admission query; it mirrors
  /// occupied_matrix() against the region's union availability. Exposed for
  /// tests and benches.
  [[nodiscard]] const FreeSpaceIndex& free_space() const noexcept {
    return index_;
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
  struct LiveInstance {
    model::Module module;  // owned copy: defrag re-places alternatives
    int shape = 0;         // index into module.shapes()
    int x = 0;
    int y = 0;

    [[nodiscard]] const geost::ShapeFootprint& footprint() const noexcept {
      return module.shapes()[static_cast<std::size_t>(shape)];
    }
  };

  /// One pending move of a committed defrag plan.
  struct Move {
    int instance_id = 0;
    int shape = 0;
    int x = 0;
    int y = 0;
  };

  [[nodiscard]] std::vector<geost::ShapeFootprint> shapes_of(
      const model::Module& module) const;

  /// The anchor scan (prepare_tables' per-module body): fills `shapes` and
  /// the sorted placement `table` for `module`. The fallback path when no
  /// table source covers the module.
  void build_tables(const model::Module& module,
                    std::vector<geost::ShapeFootprint>& shapes,
                    std::vector<geost::Placement>& table) const;

  /// Per-shape inputs for FreeSpaceIndex::best_anchor, derived purely from
  /// a table's contents (anchor bitmaps scattered from its entries, part
  /// decompositions of its shapes) — never from occupancy, so cached data
  /// stays valid for the lifetime of its ModuleTables object.
  struct ShapeQueryData {
    std::vector<BitMatrix> anchors;
    std::vector<std::vector<Rect>> parts;
  };

  [[nodiscard]] ShapeQueryData build_query_data(
      const std::vector<geost::ShapeFootprint>& shapes,
      const std::vector<geost::Placement>& table) const;

  /// Policy-aware admission of `shapes`/`table` against `index` (the live
  /// index, or a defrag shake's shadow copy). `cached` (may be null) keys
  /// the query-data cache. `comm` (may be null) is the kCommCost ranking
  /// context.
  [[nodiscard]] std::optional<geost::Placement> index_fit(
      const FreeSpaceIndex& index,
      const std::vector<geost::ShapeFootprint>& shapes,
      const std::vector<geost::Placement>& table,
      const placer::ModuleTables* cached,
      const comm::PinContext* comm) const;

  /// kCommCost ranking context for placing one instance of `name`: the
  /// fixed pins of the live instances, minus `exclude_id` (the moving
  /// instance must not attract itself during a defrag shake). Empty when
  /// comm is off or no net can distinguish anchors for this module.
  [[nodiscard]] comm::PinContext build_pin_context(std::string_view name,
                                                   int exclude_id) const;

  /// The defrag pass (gates already passed). Commits and returns the new
  /// request's placement on success. `deadline_seconds` is the effective
  /// (possibly remaining-budget-clamped) wall budget for this pass.
  std::optional<placer::ModulePlacement> defrag_place(
      int instance_id, const model::Module& module,
      const std::vector<geost::ShapeFootprint>& shapes,
      const std::vector<geost::Placement>& table,
      const placer::ModuleTables* cached, double deadline_seconds);

  /// Apply a defrag plan: relocate `moves` (entries whose placement is
  /// unchanged are kept for free) and admit the new request.
  placer::ModulePlacement commit_plan(int instance_id,
                                      const model::Module& module,
                                      const std::vector<Move>& moves,
                                      const geost::Placement& request);

  void note_defrag_failure(const model::Module& module);

  const fpga::PartialRegion& region_;
  OnlineOptions options_;
  ModuleTableSource* table_source_ = nullptr;  // non-owning; may be null
  BitMatrix occupied_;
  long occupied_tiles_ = 0;
  std::unordered_map<int, LiveInstance> live_;
  /// Mirrors occupied_ against the region's union availability; updated at
  /// every occupancy mutation.
  FreeSpaceIndex index_;
  /// Anchor bitmaps / parts per cached table, built on first index query.
  mutable std::unordered_map<const placer::ModuleTables*, ShapeQueryData>
      query_cache_;

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
};

}  // namespace rr::baseline
