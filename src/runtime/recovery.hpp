// Fault-aware recovery: keep a configured system running while the fabric
// degrades underneath it.
//
// A FaultRecoveryManager owns a mutable copy of the partial region and a
// FaultMap over its fabric. Fault events (tile / column / cluster
// injections, repairs) update the map and the region's availability masks;
// every live module whose footprint a new fault hits is then re-placed
// through an escalation ladder under a per-event deadline:
//
//   tier 0 — in-place shape swap: a design alternative that fits inside the
//            module's current bounding box and avoids the faulty tiles.
//            Cheapest possible recovery: no other module is disturbed and
//            the reconfiguration stays inside the old footprint.
//   tier 1 — local re-place: the best spot of any alternative inside a
//            window around the old position, then anywhere in the region
//            (first fit, or minimal communication cost when nets are set).
//   tier 2 — defrag-assisted relocation: the live layout's relocation
//            pipeline (runtime/live_layout.hpp, shared with the online
//            placer's defragmenter) re-places a bounded set of healthy
//            live modules together with the victim via the exact CP
//            machinery; it degrades to a greedy first-fit shake when the
//            deadline cuts the search.
//
// The occupancy, the free-space index and the live instances are one
// runtime::LiveLayout; this class keeps the recovery policy around it: the
// fault overlay, the tier ladder, parking and backoff, and the telemetry.
//
// Degradation is graceful: a module that no tier can save is *parked* —
// removed from the fabric, retried with exponential backoff over later
// events (bounded retries), while capacity accounting shrinks to the
// healthy area and service continues. Nothing in the pipeline aborts on
// capacity exhaustion.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "comm/net.hpp"
#include "fpga/faults.hpp"
#include "fpga/region.hpp"
#include "model/module.hpp"
#include "placer/placement.hpp"
#include "runtime/live_layout.hpp"
#include "runtime/manager.hpp"

namespace rr::runtime {

/// Tier-1 re-place and the tier-2 greedy shake answer their spot queries
/// from the incremental maximal-empty-rectangle index (geo/free_space),
/// kept in sync with every occupancy change and fault/repair overlay.
struct FaultRecoveryOptions {
  /// Wall-clock budget per fault event; <= 0 means unlimited. Tier 0/1 are
  /// cheap and always run; the exact defrag tier honors the remainder and
  /// degrades to the greedy shake when it expires.
  double deadline_seconds = 0.25;
  /// Consider design alternatives (the escape shapes that let a module
  /// route around a dead tile) or base layouts only.
  bool use_alternatives = true;
  /// Tier-1 window: the old bounding box inflated by this many tiles.
  int local_window_margin = 6;
  /// Defrag tier: largest relocation set (healthy modules moved per pass).
  int max_relocations = 3;
  /// Defrag tier: candidate anchors scanned for relocation sets.
  int max_anchor_scan = 128;
  /// Parked-module retries before the module is abandoned (permanently
  /// degraded capacity).
  int max_retries = 3;
  /// Initial retry backoff in events; doubles after every failed retry.
  int retry_backoff_events = 2;
  /// Seed for the exact tier's search.
  std::uint64_t seed = 1;
  /// Optional inter-module nets: with comm_weight > 0 the tier-1 re-place
  /// picks the feasible spot of minimal communication cost against the
  /// surviving live modules (ties broken by the first-fit key) instead of
  /// plain first fit, so relocation does not needlessly separate chatty
  /// pairs, in the free-space index's pinned kCommCost order. Null/empty
  /// nets or comm_weight <= 0 keeps recovery byte-identical to the
  /// area-only path (the zero-weight oracle).
  std::shared_ptr<const comm::NetList> nets;
  long comm_weight = 0;
};

enum class RecoveryTier {
  kNone,         // not recovered: parked
  kInPlaceSwap,  // tier 0
  kLocalReplace, // tier 1
  kDefrag,       // tier 2, exact
  kGreedyShake,  // tier 2, deadline-degraded
};

[[nodiscard]] const char* recovery_tier_name(RecoveryTier tier) noexcept;

/// One module's recovery attempt within an event.
struct ModuleRecovery {
  int instance_id = 0;
  RecoveryTier tier = RecoveryTier::kNone;
  bool recovered = false;
  bool from_parked = false;  // a parked module revived by the retry pass
  double seconds = 0.0;
};

struct FaultEventOutcome {
  long tiles_faulted = 0;   // available tiles newly lost to this event
  long tiles_repaired = 0;  // previously faulty tiles returned to service
  int modules_hit = 0;
  int recovered = 0;
  int parked = 0;
  int retry_recoveries = 0;
  bool deadline_expired = false;
  double seconds = 0.0;
  std::vector<ModuleRecovery> modules;
};

/// Lifetime telemetry; mirrored into rr::metrics under "runtime.fault.*"
/// while collection is enabled.
struct FaultRecoveryStats {
  std::uint64_t events = 0;
  std::uint64_t tiles_faulted = 0;
  std::uint64_t modules_hit = 0;
  std::uint64_t recovered = 0;
  std::uint64_t inplace_swaps = 0;
  std::uint64_t local_replaces = 0;
  std::uint64_t defrag_recoveries = 0;
  std::uint64_t greedy_recoveries = 0;
  std::uint64_t parked = 0;            // park transitions
  std::uint64_t retries = 0;           // parked-module retry attempts
  std::uint64_t retry_recoveries = 0;  // ... that revived the module
  std::uint64_t abandoned = 0;         // retries exhausted
  std::uint64_t deadline_expiries = 0;
  std::uint64_t relocated_modules = 0;  // healthy bystanders moved (tier 2)
  std::uint64_t relocated_tiles = 0;    // their cleared + written tiles
};

class FaultRecoveryManager {
 public:
  /// Takes its own copy of the region: the fault overlay mutates it.
  explicit FaultRecoveryManager(fpga::PartialRegion region,
                                FaultRecoveryOptions options = {});
  // The live layout references region_: not copyable or movable.
  FaultRecoveryManager(const FaultRecoveryManager&) = delete;
  FaultRecoveryManager& operator=(const FaultRecoveryManager&) = delete;

  /// Admit a live module at a placement (the initial configuration load).
  /// Throws InvalidInput when the id is already known, the shape index is
  /// out of range, or the footprint overlaps occupied/unavailable tiles.
  void admit(int instance_id, const model::Module& module, int shape, int x,
             int y);

  /// Apply one fault event and recover every module it displaced; then
  /// retry parked modules whose backoff has elapsed. Never throws on
  /// capacity exhaustion — unrecoverable modules are parked.
  FaultEventOutcome on_fault(const fpga::FaultEvent& event);

  [[nodiscard]] const fpga::PartialRegion& region() const noexcept {
    return region_;
  }
  [[nodiscard]] const fpga::FaultMap& fault_map() const noexcept {
    return faults_;
  }
  [[nodiscard]] const FaultRecoveryStats& stats() const noexcept {
    return stats_;
  }
  /// Reconfiguration cost of all recoveries and relocations, in the
  /// no-break copy model (cleared old footprints + written new ones).
  [[nodiscard]] const TransitionCost& recovery_cost() const noexcept {
    return recovery_cost_;
  }

  [[nodiscard]] int live_count() const noexcept { return layout_.size(); }
  [[nodiscard]] int parked_count() const noexcept {
    return static_cast<int>(parked_.size());
  }
  [[nodiscard]] bool is_live(int instance_id) const noexcept {
    return layout_.contains(instance_id);
  }
  [[nodiscard]] bool is_parked(int instance_id) const noexcept {
    return parked_.contains(instance_id);
  }
  [[nodiscard]] long occupied_tiles() const noexcept {
    return layout_.occupied_tiles();
  }
  [[nodiscard]] const BitMatrix& occupied_matrix() const noexcept {
    return layout_.occupied();
  }
  /// Current placement of every live instance (ModulePlacement::module is
  /// the instance id), sorted by id.
  [[nodiscard]] std::vector<placer::ModulePlacement> live_placements() const {
    return layout_.live_placements();
  }
  /// The module an instance id was admitted with (live or parked).
  [[nodiscard]] const model::Module& module_of(int instance_id) const;

  /// Capacity accounting. healthy_available() shrinks as faults accumulate;
  /// capacity_retained() is its fraction of the fault-free capacity;
  /// utilization() is occupancy over the *healthy* area (graceful
  /// degradation: a fully-parked system on a dead fabric reports 0/0 -> 0).
  [[nodiscard]] long healthy_available() const {
    return region_.total_available();
  }
  [[nodiscard]] double capacity_retained() const;
  [[nodiscard]] double utilization() const;

 private:
  struct ParkedInstance {
    model::Module module;
    int retries = 0;
    int backoff_events = 0;
    std::uint64_t next_retry_event = 0;
  };

  /// Resource compatibility against the (fault-aware) region masks plus
  /// occupancy vacancy.
  [[nodiscard]] bool placement_ok(const geost::ShapeFootprint& shape, int x,
                                  int y) const;

  /// The escalation ladder. `old_spot` is null for parked retries (tier 0
  /// and the tier-1 window need a previous position). The caller must have
  /// lifted the module out of the layout already.
  [[nodiscard]] ModuleRecovery recover_module(
      int instance_id, const model::Module& module,
      const geost::Placement* old_spot, const Deadline& deadline,
      bool* deadline_cut);
  /// Tier 0: the first alternative (shape order, then bottom-left) that
  /// fits inside `old_bbox` on healthy, vacant tiles.
  [[nodiscard]] std::optional<geost::Placement> inplace_swap(
      const model::Module& module, const Rect& old_bbox) const;
  /// Count a recovery by its tier, in stats_ and in the metrics.
  void tally_tier(RecoveryTier tier);

  void park(int instance_id, model::Module module);
  void retry_parked(const Deadline& deadline, FaultEventOutcome* outcome,
                    bool* deadline_cut);

  fpga::PartialRegion region_;
  fpga::FaultMap faults_;
  FaultRecoveryOptions options_;
  long initial_available_ = 0;
  /// Occupancy, free-space index and live instances over region_; the index
  /// is re-synced with every fault/repair overlay change.
  LiveLayout layout_;
  std::unordered_map<int, ParkedInstance> parked_;
  std::uint64_t event_no_ = 0;
  FaultRecoveryStats stats_{};
  TransitionCost recovery_cost_{};

 public:
  /// The live layout's check plus parked and live ids being disjoint; empty
  /// when consistent. Never throws or asserts. For tests and fuzzers.
  [[nodiscard]] std::vector<std::string> check_invariants() const;
};

}  // namespace rr::runtime
