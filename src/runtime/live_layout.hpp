// The live layout of a partial region: which module instance sits where,
// and the operations that place, relocate and re-place them.
//
// Online admission (baseline::OnlinePlacer) and fault recovery
// (runtime::FaultRecoveryManager) are two policies over this one state. A
// LiveLayout owns the occupancy bitmap, the incremental maximal-empty-
// rectangle index of the free space (geo/free_space) and the live instances,
// and implements every placement primitive both callers share:
//
//   - the index spot query (fit) under any AnchorPolicy, optionally inside a
//     window and ranked by communication cost against the live pins;
//   - the relocation pipeline in the spirit of van der Veen et al.
//     ("Defragmenting the Module Layout of a Partially Reconfigurable
//     Device") and Fekete et al.'s no-break model: a blocking-cell ranking
//     of relocation sets, an exact CP re-place of a set plus the request
//     under a deadline, and a greedy shake on a shadow copy of the index
//     when the deadline cuts the exact tier;
//   - a two-pass commit of the resulting plan, tallied in the no-break
//     copy-cost model.
//
// Callers keep only their policy (gates, tiers, stats, metrics); what
// differs between them is passed per call — the shake's anchor policy and
// table source, the exact tier's seed and limits.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "comm/net.hpp"
#include "fpga/region.hpp"
#include "geo/free_space.hpp"
#include "model/module.hpp"
#include "placer/model_builder.hpp"
#include "placer/placement.hpp"
#include "runtime/manager.hpp"
#include "util/stopwatch.hpp"

namespace rr::runtime {

/// Supplier of cached per-module placement tables, as produced by
/// placer::prepare_tables over the layout's region and alternatives
/// setting. Where a source covers a module, placement queries skip the
/// per-request anchor scan and the relocation pipeline derives every
/// sub-problem table from the source's table by filtering
/// (placer::filter_tables); a nullptr lookup falls back to the scan.
/// Cached and scanned tables are prepared by the same code path, so
/// placements are bit-identical either way.
///
/// Staleness contract: the tables encode the region's availability masks at
/// preparation time. After a fault or repair changes the masks the caller
/// MUST drop or refresh the source before the next request, or placements
/// and relocation plans may land on unavailable tiles (the occupancy bitmap
/// alone cannot catch this). A refreshed source may itself be derived by
/// filtering the fault-free tables with the fault mask. Occupancy changes —
/// place/remove/defrag — do not invalidate.
class ModuleTableSource {
 public:
  virtual ~ModuleTableSource() = default;
  /// Tables for `module`, or nullptr when not cached. The pointee must stay
  /// valid until the source is replaced or its user is destroyed.
  [[nodiscard]] virtual const placer::ModuleTables* lookup(
      const model::Module& module) = 0;
};

class LiveLayout {
 public:
  struct Instance {
    model::Module module;  // owned copy: relocation re-places alternatives
    int shape = 0;         // index into module.shapes()
    int x = 0;
    int y = 0;

    [[nodiscard]] const geost::ShapeFootprint& footprint() const noexcept {
      return module.shapes()[static_cast<std::size_t>(shape)];
    }
  };

  /// One relocation of a live instance.
  struct Move {
    int instance_id = 0;
    int shape = 0;
    int x = 0;
    int y = 0;
  };

  /// A relocation plan: where each relocated instance goes (an unchanged
  /// entry is kept in place for free) and where the request then fits.
  struct Plan {
    std::vector<Move> moves;
    geost::Placement request;
  };

  /// Bounds of one relocation pass.
  struct RelocationLimits {
    int max_relocations = 4;    // largest relocation set
    int max_anchor_scan = 256;  // request anchors ranked for sets
    std::uint64_t seed = 1;     // the exact tier's search seed
  };

  /// Outcome of relocate(): a plan (uncommitted) or none.
  struct Relocation {
    std::optional<Plan> plan;
    bool greedy = false;        // the plan came from the greedy shake
    bool deadline_cut = false;  // the deadline stopped the exact tier
  };

  /// A module's placement tables on the current fabric — its candidate
  /// shapes (every alternative, or the base layout only) and bottom-left-
  /// sorted anchor table: borrowed from a table source when it covers the
  /// module, else scanned from the region masks and owned.
  class Tables {
   public:
    [[nodiscard]] const placer::ModuleTables& module_tables() const noexcept {
      return cached_ != nullptr ? *cached_ : owned_;
    }
    [[nodiscard]] const std::vector<geost::ShapeFootprint>& shapes()
        const noexcept {
      return *module_tables().shapes;
    }
    [[nodiscard]] const std::vector<geost::Placement>& table()
        const noexcept {
      return module_tables().table;
    }
    /// The source's tables (the query-cache key), or null when scanned.
    [[nodiscard]] const placer::ModuleTables* cached() const noexcept {
      return cached_;
    }

   private:
    friend class LiveLayout;
    const placer::ModuleTables* cached_ = nullptr;
    placer::ModuleTables owned_;
  };

  /// The region must outlive the layout (and keep its address). `nets` and
  /// `comm_weight` define the pin contexts; null/empty nets or a weight <= 0
  /// make every pin context empty.
  LiveLayout(const fpga::PartialRegion& region, bool use_alternatives,
             std::shared_ptr<const comm::NetList> nets, long comm_weight);

  // --- State --------------------------------------------------------------

  /// Occupy a footprint that must be free (asserted) and record the
  /// instance; `id` must not be live.
  void insert(int id, const model::Module& module, int shape, int x, int y);
  /// Free a live instance's footprint and forget it; `id` must be live.
  void erase(int id);
  /// Re-sync the free-space index with the region's availability masks
  /// after a fault or repair overlay changed them; drops the query cache.
  void refresh_available();
  /// Drop the anchor-query data derived from a table source's tables (they
  /// are keyed by address, so a replaced source must not hit old entries).
  void clear_query_cache() noexcept { query_cache_.clear(); }

  [[nodiscard]] const fpga::PartialRegion& region() const noexcept {
    return *region_;
  }
  [[nodiscard]] bool contains(int id) const noexcept {
    return live_.contains(id);
  }
  [[nodiscard]] const Instance& at(int id) const { return live_.at(id); }
  [[nodiscard]] const std::unordered_map<int, Instance>& instances()
      const noexcept {
    return live_;
  }
  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(live_.size());
  }
  [[nodiscard]] long occupied_tiles() const noexcept { return occupied_tiles_; }
  [[nodiscard]] const BitMatrix& occupied() const noexcept {
    return occupied_;
  }
  [[nodiscard]] const FreeSpaceIndex& index() const noexcept { return index_; }
  /// Every live instance (ModulePlacement::module is the instance id),
  /// sorted by id.
  [[nodiscard]] std::vector<placer::ModulePlacement> live_placements() const;

  // --- Queries ------------------------------------------------------------

  [[nodiscard]] std::vector<geost::ShapeFootprint> shapes_of(
      const model::Module& module) const;
  /// `module`'s tables from `source` (may be null), else scanned.
  [[nodiscard]] Tables tables_of(const model::Module& module,
                                 ModuleTableSource* source) const;
  /// kCommCost ranking context for placing one instance of `name`: the pins
  /// of the live instances other than `exclude_id` (a moving instance must
  /// not attract itself). Empty when comm is off or no net can distinguish
  /// anchors for this module.
  [[nodiscard]] comm::PinContext pin_context(std::string_view name,
                                             int exclude_id) const;
  /// Best anchor for `tables` on `index` (the live index, or a shake's
  /// shadow copy) under `policy`; `window` (may be null) bounds each
  /// candidate's bounding box; `comm` (null or empty = none) prices
  /// kCommCost, which without it ranks as first fit.
  [[nodiscard]] std::optional<geost::Placement> fit(
      const FreeSpaceIndex& index, const Tables& tables, AnchorPolicy policy,
      const comm::PinContext* comm, const Rect* window = nullptr) const;

  // --- Relocation ---------------------------------------------------------

  /// Relocation sets for a request that fits nowhere, cheapest first. For
  /// each of the first `max_anchor_scan` table anchors, the live instances
  /// its footprint overlaps form a set; sets of more than `max_relocations`
  /// instances (or none) are skipped, and the distinct sets are ordered by
  /// (fewest instances, fewest blocked tiles, ids). A single "best" set is
  /// not enough: when the free space is fragmented, the cheapest set's
  /// modules often have nowhere else to go, while a slightly larger set
  /// frees a workable hole.
  [[nodiscard]] std::vector<std::vector<int>> relocation_candidates(
      const Tables& request, int max_relocations, int max_anchor_scan,
      const Deadline& deadline) const;
  /// Greedy shake: lift `set` out of a shadow copy of the index, fit the
  /// request (instance `request_id`, tables `request`), then the lifted
  /// instances by decreasing area (ties by id), each under `policy` — with
  /// pin contexts from the unshaken layout when it is kCommCost — and with
  /// tables from `source` (may be null: scanned). One linear pass.
  [[nodiscard]] std::optional<Plan> greedy_shake(
      const std::vector<int>& set, int request_id, const model::Module& module,
      const Tables& request, AnchorPolicy policy,
      ModuleTableSource* source) const;
  /// The whole pipeline for a request that fits nowhere: rank the sets,
  /// try the exact tier on each until one admits the request, a completed
  /// search refutes them all, or the deadline expires; after a deadline
  /// cut, shake the cheapest set (after a refutation of every set it would
  /// be pointless: the shake explores a subset of that space). Both tiers
  /// take the lifted instances' tables from `source` (may be null: each is
  /// scanned once per call). Commits nothing.
  [[nodiscard]] Relocation relocate(int request_id,
                                    const model::Module& module,
                                    const Tables& request,
                                    const RelocationLimits& limits,
                                    const Deadline& deadline,
                                    AnchorPolicy shake_policy,
                                    ModuleTableSource* source) const;
  /// Apply a plan's moves in two passes (every old footprint is lifted
  /// before any new one is written: a move may cover another's old spot).
  /// The request is not inserted. Returns the relocations' cost in the
  /// no-break copy model: old footprints cleared, new ones written, one
  /// module loaded per instance actually moved.
  TransitionCost commit(const Plan& plan);

 private:
  /// The current-fabric tables of the instances one relocate() call lifts,
  /// resolved at most once per instance for the whole call.
  using LiftedTables = std::unordered_map<int, Tables>;
  [[nodiscard]] const Tables& lifted_tables(int id, ModuleTableSource* source,
                                            LiftedTables& memo) const;

  /// Exact re-place of the live instances `set` together with the request
  /// via the CP machinery (satisfaction search, area-ordered bottom-left
  /// descent) on the region with every other live footprint blocked. The
  /// sub-problem tables are the current-fabric tables filtered by those
  /// footprints (placer::filter_tables); a set whose filtered tables or
  /// total area already rule it out is refuted before any model is built.
  /// Sets `*deadline_cut` when the deadline, not exhaustion, ended the
  /// search, and `*refuted` when the cheap check alone ruled the set out.
  [[nodiscard]] std::optional<Plan> exact_replace(
      const std::vector<int>& set, const Tables& request,
      ModuleTableSource* source, LiftedTables& memo, std::uint64_t seed,
      const Deadline& deadline, bool* deadline_cut, bool* refuted) const;

  /// Per-shape inputs for FreeSpaceIndex::best_anchor, derived purely from
  /// a table's contents (anchor bitmaps scattered from its entries, part
  /// decompositions of its shapes) — never from occupancy, so cached data
  /// stays valid for the lifetime of its ModuleTables object.
  struct ShapeQueryData {
    std::vector<BitMatrix> anchors;
    std::vector<std::vector<Rect>> parts;
  };
  [[nodiscard]] ShapeQueryData build_query_data(const Tables& tables) const;

  const fpga::PartialRegion* region_;
  bool use_alternatives_;
  std::shared_ptr<const comm::NetList> nets_;
  long comm_weight_;
  BitMatrix occupied_;
  long occupied_tiles_ = 0;
  std::unordered_map<int, Instance> live_;
  /// Mirrors occupied_ against the region's union availability.
  FreeSpaceIndex index_;
  /// Anchor bitmaps / parts per cached table, built on first query.
  mutable std::unordered_map<const placer::ModuleTables*, ShapeQueryData>
      query_cache_;

 public:
  /// One message per broken invariant: valid shapes on tiles the region
  /// masks offer by type (no fault, static or wrong-type tile), no overlap,
  /// occupancy = OR of footprints, occupied_tiles() = areas = popcount, an
  /// index in step with the masks and the occupancy, and the index's own
  /// check. Empty when consistent; never throws or asserts. For tests and
  /// soak harnesses.
  [[nodiscard]] std::vector<std::string> check_invariants() const;
};

}  // namespace rr::runtime
