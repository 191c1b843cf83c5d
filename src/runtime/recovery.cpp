#include "runtime/recovery.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/stopwatch.hpp"

namespace rr::runtime {

const char* recovery_tier_name(RecoveryTier tier) noexcept {
  switch (tier) {
    case RecoveryTier::kNone:
      return "parked";
    case RecoveryTier::kInPlaceSwap:
      return "inplace-swap";
    case RecoveryTier::kLocalReplace:
      return "local-replace";
    case RecoveryTier::kDefrag:
      return "defrag";
    case RecoveryTier::kGreedyShake:
      return "greedy-shake";
  }
  return "unknown";
}

FaultRecoveryManager::FaultRecoveryManager(fpga::PartialRegion region,
                                           FaultRecoveryOptions options)
    : region_(std::move(region)),
      faults_(region_.fabric()),
      options_(options),
      initial_available_(region_.total_available()),
      layout_(region_, options_.use_alternatives, options_.nets,
              options_.comm_weight) {}

double FaultRecoveryManager::capacity_retained() const {
  if (initial_available_ <= 0) return 0.0;
  return static_cast<double>(healthy_available()) /
         static_cast<double>(initial_available_);
}

double FaultRecoveryManager::utilization() const {
  const long healthy = healthy_available();
  if (healthy <= 0) return 0.0;
  return static_cast<double>(layout_.occupied_tiles()) /
         static_cast<double>(healthy);
}

const model::Module& FaultRecoveryManager::module_of(int instance_id) const {
  if (layout_.contains(instance_id)) return layout_.at(instance_id).module;
  const auto it = parked_.find(instance_id);
  RR_REQUIRE(it != parked_.end(),
             "instance id " + std::to_string(instance_id) + " is not known");
  return it->second.module;
}

bool FaultRecoveryManager::placement_ok(const geost::ShapeFootprint& shape,
                                        int x, int y) const {
  const std::vector<BitMatrix>& masks = region_.masks();
  const std::vector<geost::TypedCells>& typed = shape.typed();
  const std::vector<BitMatrix>& typed_masks = shape.typed_masks();
  for (std::size_t i = 0; i < typed.size(); ++i) {
    const int resource = typed[i].resource;
    if (resource < 0 || resource >= static_cast<int>(masks.size()))
      return false;
    if (!masks[static_cast<std::size_t>(resource)].covers_shifted(
            typed_masks[i], y, x))
      return false;
  }
  return !layout_.occupied().intersects_shifted(shape.mask(), y, x);
}

void FaultRecoveryManager::admit(int instance_id, const model::Module& module,
                                 int shape, int x, int y) {
  RR_REQUIRE(!layout_.contains(instance_id) && !parked_.contains(instance_id),
             "instance id " + std::to_string(instance_id) + " already known");
  RR_REQUIRE(shape >= 0 &&
                 shape < static_cast<int>(module.shapes().size()),
             "shape index out of range for module " + module.name());
  const geost::ShapeFootprint& footprint =
      module.shapes()[static_cast<std::size_t>(shape)];
  RR_REQUIRE(placement_ok(footprint, x, y),
             "admitted placement of " + module.name() +
                 " overlaps occupied or unavailable tiles");
  layout_.insert(instance_id, module, shape, x, y);
}

std::optional<geost::Placement> FaultRecoveryManager::inplace_swap(
    const model::Module& module, const Rect& old_bbox) const {
  const std::vector<geost::ShapeFootprint> shapes = layout_.shapes_of(module);
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    const geost::ShapeFootprint& shape = shapes[s];
    const Rect bb = shape.bounding_box();
    if (bb.width > old_bbox.width || bb.height > old_bbox.height) continue;
    for (int y = old_bbox.y; y + bb.height <= old_bbox.top(); ++y) {
      for (int x = old_bbox.x; x + bb.width <= old_bbox.right(); ++x) {
        if (placement_ok(shape, x, y))
          return geost::Placement{static_cast<int>(s), x, y};
      }
    }
  }
  return std::nullopt;
}

void FaultRecoveryManager::tally_tier(RecoveryTier tier) {
  switch (tier) {
    case RecoveryTier::kInPlaceSwap:
      ++stats_.inplace_swaps;
      RR_METRIC_COUNT("runtime.fault.inplace_swaps");
      break;
    case RecoveryTier::kLocalReplace:
      ++stats_.local_replaces;
      RR_METRIC_COUNT("runtime.fault.local_replaces");
      break;
    case RecoveryTier::kDefrag:
      ++stats_.defrag_recoveries;
      RR_METRIC_COUNT("runtime.fault.defrag_recoveries");
      break;
    case RecoveryTier::kGreedyShake:
      ++stats_.greedy_recoveries;
      RR_METRIC_COUNT("runtime.fault.greedy_recoveries");
      break;
    case RecoveryTier::kNone:
      break;
  }
}

ModuleRecovery FaultRecoveryManager::recover_module(
    int instance_id, const model::Module& module,
    const geost::Placement* old_spot, const Deadline& deadline,
    bool* deadline_cut) {
  Stopwatch watch;
  ModuleRecovery result;
  result.instance_id = instance_id;
  const auto recovered = [&](RecoveryTier tier, const geost::Placement& spot) {
    layout_.insert(instance_id, module, spot.shape, spot.x, spot.y);
    result.tier = tier;
    result.recovered = true;
    result.seconds = watch.seconds();
    return result;
  };
  std::optional<Rect> old_bbox;
  if (old_spot != nullptr)
    old_bbox = module.shapes()[static_cast<std::size_t>(old_spot->shape)]
                   .bounding_box()
                   .translated(Point{old_spot->x, old_spot->y});

  // Tier 0 — in-place shape swap inside the old bounding box. Cheap (a few
  // mask tests), so it runs regardless of the deadline.
  if (old_bbox.has_value()) {
    if (const auto spot = inplace_swap(module, *old_bbox))
      return recovered(RecoveryTier::kInPlaceSwap, *spot);
  }

  // Tier 1 — local re-place: the best spot inside an inflated window around
  // the old position, then anywhere. kCommCost only when some live net
  // partner pins the module.
  const LiveLayout::Tables tables = layout_.tables_of(module, nullptr);
  const comm::PinContext pins = layout_.pin_context(module.name(), instance_id);
  const AnchorPolicy policy =
      pins.empty() ? AnchorPolicy::kFirstFit : AnchorPolicy::kCommCost;
  std::optional<geost::Placement> spot;
  if (old_bbox.has_value()) {
    const int m = options_.local_window_margin;
    const Rect window =
        Rect{old_bbox->x - m, old_bbox->y - m, old_bbox->width + 2 * m,
             old_bbox->height + 2 * m}
            .intersection(Rect{0, 0, region_.width(), region_.height()});
    spot = layout_.fit(layout_.index(), tables, policy, &pins, &window);
  }
  if (!spot.has_value())
    spot = layout_.fit(layout_.index(), tables, policy, &pins);
  if (spot.has_value()) return recovered(RecoveryTier::kLocalReplace, *spot);

  // Tier 2 — defrag-assisted relocation under the remaining deadline; the
  // shake degrades to first fit on freshly scanned tables.
  const LiveLayout::Relocation relocation = layout_.relocate(
      instance_id, module, tables,
      {options_.max_relocations, options_.max_anchor_scan, options_.seed},
      deadline, AnchorPolicy::kFirstFit, nullptr);
  if (relocation.deadline_cut) *deadline_cut = true;
  if (relocation.plan.has_value()) {
    const TransitionCost moved = layout_.commit(*relocation.plan);
    if (moved.modules_loaded > 0) {
      const auto tiles = static_cast<std::uint64_t>(moved.tiles_cleared +
                                                    moved.tiles_written);
      stats_.relocated_modules +=
          static_cast<std::uint64_t>(moved.modules_loaded);
      stats_.relocated_tiles += tiles;
      recovery_cost_.tiles_cleared += moved.tiles_cleared;
      recovery_cost_.tiles_written += moved.tiles_written;
      recovery_cost_.modules_loaded += moved.modules_loaded;
      RR_METRIC_ADD("runtime.fault.relocated_modules",
                    static_cast<std::uint64_t>(moved.modules_loaded));
      RR_METRIC_ADD("runtime.fault.relocated_tiles", tiles);
    }
    return recovered(relocation.greedy ? RecoveryTier::kGreedyShake
                                       : RecoveryTier::kDefrag,
                     relocation.plan->request);
  }

  result.tier = RecoveryTier::kNone;
  result.seconds = watch.seconds();
  return result;
}

void FaultRecoveryManager::park(int instance_id, model::Module module) {
  const int backoff = std::max(1, options_.retry_backoff_events);
  parked_.insert_or_assign(
      instance_id,
      ParkedInstance{std::move(module), 0, backoff,
                     event_no_ + static_cast<std::uint64_t>(backoff)});
  ++stats_.parked;
  RR_METRIC_COUNT("runtime.fault.parked");
}

void FaultRecoveryManager::retry_parked(const Deadline& deadline,
                                        FaultEventOutcome* outcome,
                                        bool* deadline_cut) {
  std::vector<int> due;
  for (const auto& [id, parked] : parked_) {
    if (parked.retries >= options_.max_retries) continue;
    if (parked.next_retry_event > event_no_) continue;
    due.push_back(id);
  }
  std::sort(due.begin(), due.end());
  for (const int id : due) {
    ++stats_.retries;
    RR_METRIC_COUNT("runtime.fault.retries");
    ModuleRecovery recovery = recover_module(id, parked_.at(id).module,
                                             nullptr, deadline, deadline_cut);
    recovery.from_parked = true;
    if (recovery.recovered) {
      parked_.erase(id);
      ++stats_.retry_recoveries;
      ++outcome->retry_recoveries;
      RR_METRIC_COUNT("runtime.fault.retry_recoveries");
      tally_tier(recovery.tier);
      recovery_cost_.tiles_written += layout_.at(id).footprint().area();
      ++recovery_cost_.modules_loaded;
    } else {
      ParkedInstance& parked = parked_.at(id);
      ++parked.retries;
      if (parked.retries >= options_.max_retries) {
        ++stats_.abandoned;
        RR_METRIC_COUNT("runtime.fault.abandoned");
      } else {
        parked.backoff_events *= 2;
        parked.next_retry_event =
            event_no_ + static_cast<std::uint64_t>(parked.backoff_events);
      }
    }
    outcome->modules.push_back(recovery);
  }
}

FaultEventOutcome FaultRecoveryManager::on_fault(
    const fpga::FaultEvent& event) {
  Stopwatch watch;
  const Deadline deadline(options_.deadline_seconds);
  ++event_no_;
  ++stats_.events;
  RR_METRIC_COUNT("runtime.fault.events");

  FaultEventOutcome outcome;
  const BitMatrix before = region_.fault_mask();
  faults_.apply(event);
  region_.apply_faults(faults_);
  const BitMatrix& after = region_.fault_mask();
  {
    BitMatrix newly = after;
    newly.clear_shifted(before, 0, 0);
    outcome.tiles_faulted = static_cast<long>(newly.popcount());
    BitMatrix repaired = before;
    repaired.clear_shifted(after, 0, 0);
    outcome.tiles_repaired = static_cast<long>(repaired.popcount());
  }
  stats_.tiles_faulted += static_cast<std::uint64_t>(outcome.tiles_faulted);
  RR_METRIC_ADD("runtime.fault.tiles_faulted",
                static_cast<std::uint64_t>(outcome.tiles_faulted));
  // Sync the free-space index with the changed availability masks before
  // any recovery query runs. Victim lifts below then release their cells;
  // cells under a fault stay out of the free set until repaired.
  layout_.refresh_available();

  // Find every live module the new fault hits, lift them all out of the
  // occupancy (their old tiles are then free for each other's recovery),
  // and recover cheapest-first — smallest area first maximizes the number
  // of modules saved within the deadline.
  struct Victim {
    int id = 0;
    model::Module module;
    geost::Placement old_spot;
    long old_area = 0;
  };
  std::vector<Victim> victims;
  for (const auto& [id, li] : layout_.instances()) {
    if (!after.intersects_shifted(li.footprint().mask(), li.y, li.x)) continue;
    victims.push_back(Victim{id, li.module,
                             geost::Placement{li.shape, li.x, li.y},
                             li.footprint().area()});
  }
  std::sort(victims.begin(), victims.end(),
            [](const Victim& a, const Victim& b) {
              return a.old_area != b.old_area ? a.old_area < b.old_area
                                              : a.id < b.id;
            });
  for (const Victim& victim : victims) layout_.erase(victim.id);
  outcome.modules_hit = static_cast<int>(victims.size());
  stats_.modules_hit += static_cast<std::uint64_t>(victims.size());
  RR_METRIC_ADD("runtime.fault.modules_hit",
                static_cast<std::uint64_t>(victims.size()));

  bool deadline_cut = false;
  for (const Victim& victim : victims) {
    ModuleRecovery recovery = recover_module(victim.id, victim.module,
                                             &victim.old_spot, deadline,
                                             &deadline_cut);
    if (recovery.recovered) {
      ++outcome.recovered;
      ++stats_.recovered;
      RR_METRIC_COUNT("runtime.fault.recovered");
      tally_tier(recovery.tier);
      // No-break copy model: the old footprint is dead (cleared), the new
      // one is written.
      recovery_cost_.tiles_cleared += victim.old_area;
      recovery_cost_.tiles_written +=
          layout_.at(victim.id).footprint().area();
      ++recovery_cost_.modules_loaded;
    } else {
      park(victim.id, victim.module);
      ++outcome.parked;
      recovery_cost_.tiles_cleared += victim.old_area;
    }
    outcome.modules.push_back(recovery);
  }

  // Parked modules whose backoff elapsed get another chance — repairs and
  // the relocations above may have opened room.
  retry_parked(deadline, &outcome, &deadline_cut);

  if (deadline_cut) {
    ++stats_.deadline_expiries;
    RR_METRIC_COUNT("runtime.fault.deadline_expiries");
  }
  outcome.deadline_expired = deadline_cut;
  outcome.seconds = watch.seconds();
  return outcome;
}

std::vector<std::string> FaultRecoveryManager::check_invariants() const {
  std::vector<std::string> out = layout_.check_invariants();
  for (const auto& [id, parked] : parked_)
    if (layout_.contains(id))
      out.push_back(std::string("recovery: instance ")
                        .append(std::to_string(id))
                        .append(" is both live and parked"));
  return out;
}

}  // namespace rr::runtime
