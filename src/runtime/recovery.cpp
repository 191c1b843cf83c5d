#include "runtime/recovery.hpp"

#include <algorithm>

#include "geost/object.hpp"
#include "placer/brancher.hpp"
#include "placer/model_builder.hpp"
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
      occupied_(region_.height(), region_.width()),
      index_(FreeSpaceIndex::union_of(region_.masks())) {}

double FaultRecoveryManager::capacity_retained() const {
  if (initial_available_ <= 0) return 0.0;
  return static_cast<double>(healthy_available()) /
         static_cast<double>(initial_available_);
}

double FaultRecoveryManager::utilization() const {
  const long healthy = healthy_available();
  if (healthy <= 0) return 0.0;
  return static_cast<double>(occupied_tiles_) / static_cast<double>(healthy);
}

std::vector<placer::ModulePlacement> FaultRecoveryManager::live_placements()
    const {
  std::vector<placer::ModulePlacement> out;
  out.reserve(live_.size());
  for (const auto& [id, instance] : live_)
    out.push_back(
        placer::ModulePlacement{id, instance.shape, instance.x, instance.y});
  std::sort(out.begin(), out.end(),
            [](const placer::ModulePlacement& a,
               const placer::ModulePlacement& b) {
              return a.module < b.module;
            });
  return out;
}

const model::Module& FaultRecoveryManager::module_of(int instance_id) const {
  if (const auto it = live_.find(instance_id); it != live_.end())
    return it->second.module;
  const auto it = parked_.find(instance_id);
  RR_REQUIRE(it != parked_.end(),
             "instance id " + std::to_string(instance_id) + " is not known");
  return it->second.module;
}

std::vector<geost::ShapeFootprint> FaultRecoveryManager::shapes_of(
    const model::Module& module) const {
  std::vector<geost::ShapeFootprint> shapes;
  if (options_.use_alternatives) shapes = module.shapes();
  else shapes.push_back(module.shapes().front());
  return shapes;
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
  return !occupied_.intersects_shifted(shape.mask(), y, x);
}

void FaultRecoveryManager::write_instance(int instance_id,
                                          const model::Module& module,
                                          const Spot& spot) {
  const geost::ShapeFootprint& shape =
      module.shapes()[static_cast<std::size_t>(spot.shape)];
  RR_ASSERT(!occupied_.intersects_shifted(shape.mask(), spot.y, spot.x));
  occupied_.or_shifted(shape.mask(), spot.y, spot.x);
  index_.occupy(shape.mask(), spot.y, spot.x);
  occupied_tiles_ += shape.area();
  live_.insert_or_assign(
      instance_id, LiveInstance{module, spot.shape, spot.x, spot.y});
}

void FaultRecoveryManager::admit(int instance_id, const model::Module& module,
                                 int shape, int x, int y) {
  RR_REQUIRE(!live_.contains(instance_id) && !parked_.contains(instance_id),
             "instance id " + std::to_string(instance_id) + " already known");
  RR_REQUIRE(shape >= 0 &&
                 shape < static_cast<int>(module.shapes().size()),
             "shape index out of range for module " + module.name());
  const geost::ShapeFootprint& footprint =
      module.shapes()[static_cast<std::size_t>(shape)];
  RR_REQUIRE(placement_ok(footprint, x, y),
             "admitted placement of " + module.name() +
                 " overlaps occupied or unavailable tiles");
  write_instance(instance_id, module, Spot{shape, x, y});
}

bool FaultRecoveryManager::try_inplace_swap(
    const std::vector<geost::ShapeFootprint>& shapes, const Rect& old_bbox,
    Spot* out) const {
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    const geost::ShapeFootprint& shape = shapes[s];
    const Rect bb = shape.bounding_box();
    if (bb.width > old_bbox.width || bb.height > old_bbox.height) continue;
    for (int y = old_bbox.y; y + bb.height <= old_bbox.top(); ++y) {
      for (int x = old_bbox.x; x + bb.width <= old_bbox.right(); ++x) {
        if (!placement_ok(shape, x, y)) continue;
        *out = Spot{static_cast<int>(s), x, y};
        return true;
      }
    }
  }
  return false;
}

comm::PinContext FaultRecoveryManager::pin_context_for(
    const model::Module& module) const {
  if (options_.nets == nullptr || options_.comm_weight <= 0 ||
      options_.nets->empty())
    return {};
  std::vector<comm::NamedPin> pins;
  pins.reserve(live_.size());
  // PinContext folds pins into per-net min/max bounds, so the unordered
  // iteration order of live_ cannot affect the result.
  for (const auto& [id, li] : live_) {
    const Rect box = li.footprint().bounding_box();
    pins.push_back(comm::NamedPin{li.module.name(),
                                  comm::center2(box, li.x, li.y)});
  }
  return comm::PinContext::build(*options_.nets, module.name(), pins);
}

bool FaultRecoveryManager::try_first_fit(
    const FreeSpaceIndex& index,
    const std::vector<geost::ShapeFootprint>& shapes,
    const std::vector<geost::Placement>& table, const Rect* window,
    const comm::PinContext* comm, Spot* out) const {
  if (comm != nullptr && comm->empty()) comm = nullptr;
  // Anchors scattered from the (freshly built, so never stale) table, one
  // rectangular decomposition per shape; the window bounds each shape's
  // bounding box.
  std::vector<BitMatrix> anchors(
      shapes.size(), BitMatrix(region_.height(), region_.width()));
  for (const geost::Placement& p : table)
    anchors[static_cast<std::size_t>(p.shape)].set(p.y, p.x, true);
  std::vector<std::vector<Rect>> parts(shapes.size());
  std::vector<AnchorQuery> queries(shapes.size());
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    parts[s] = decompose_mask(shapes[s].mask());
    const Rect box = shapes[s].bounding_box();
    queries[s] = AnchorQuery{&anchors[s], parts[s], box.width, box.height};
  }
  const AnchorCost cost = [&shapes, comm](int s, int x, int y) {
    const Rect box = shapes[static_cast<std::size_t>(s)].bounding_box();
    return comm->cost2(comm::center2(box, x, y));
  };
  const auto pick = index.best_anchor(
      queries,
      comm != nullptr ? AnchorPolicy::kCommCost : AnchorPolicy::kFirstFit,
      window, comm != nullptr ? &cost : nullptr);
  if (!pick.has_value()) return false;
  *out = Spot{pick->shape, pick->x, pick->y};
  return true;
}

bool FaultRecoveryManager::try_defrag(
    const model::Module& module,
    const std::vector<geost::ShapeFootprint>& shapes,
    const std::vector<geost::Placement>& table, const Deadline& deadline,
    bool* deadline_cut, bool* used_greedy, Spot* out) {
  if (table.empty() || live_.empty()) return false;

  // Blocking-cell heuristic (the online defragmenter's candidate pass):
  // rank relocation sets by how cheap their conflict is to clear.
  struct Candidate {
    std::vector<int> blockers;  // sorted instance ids
    std::size_t blocked_tiles = 0;
  };
  std::vector<Candidate> candidates;
  const std::vector<placer::ModulePlacement> live = live_placements();
  BitMatrix scratch(region_.height(), region_.width());
  const int scan_limit = std::min<int>(options_.max_anchor_scan,
                                       static_cast<int>(table.size()));
  for (int t = 0; t < scan_limit; ++t) {
    if ((t & 31) == 0 && deadline.expired()) break;
    const geost::Placement& p = table[static_cast<std::size_t>(t)];
    const geost::ShapeFootprint& shape =
        shapes[static_cast<std::size_t>(p.shape)];
    scratch.clear();
    scratch.or_shifted(shape.mask(), p.y, p.x);
    Candidate candidate;
    for (const placer::ModulePlacement& inst : live) {
      const LiveInstance& li = live_.at(inst.module);
      const std::size_t overlap = scratch.overlap_popcount_shifted(
          li.footprint().mask(), li.y, li.x);
      if (overlap == 0) continue;
      candidate.blockers.push_back(inst.module);
      candidate.blocked_tiles += overlap;
      if (static_cast<int>(candidate.blockers.size()) >
          options_.max_relocations)
        break;
    }
    if (candidate.blockers.empty() ||
        static_cast<int>(candidate.blockers.size()) > options_.max_relocations)
      continue;
    candidates.push_back(std::move(candidate));
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.blockers.size() != b.blockers.size())
                return a.blockers.size() < b.blockers.size();
              if (a.blocked_tiles != b.blocked_tiles)
                return a.blocked_tiles < b.blocked_tiles;
              return a.blockers < b.blockers;
            });
  candidates.erase(std::unique(candidates.begin(), candidates.end(),
                               [](const Candidate& a, const Candidate& b) {
                                 return a.blockers == b.blockers;
                               }),
                   candidates.end());
  if (candidates.empty()) return false;

  // Exact tier: re-place a relocation set plus the victim via the CP
  // machinery, cheapest set first, under the event's remaining deadline.
  struct Move {
    int instance_id = 0;
    Spot spot;
  };
  const auto commit = [&](const std::vector<Move>& moves, const Spot& spot) {
    // Two passes: a moved instance's new footprint may cover another moved
    // instance's old position.
    std::vector<const Move*> applied;
    applied.reserve(moves.size());
    for (const Move& move : moves) {
      LiveInstance& li = live_.at(move.instance_id);
      if (li.shape == move.spot.shape && li.x == move.spot.x &&
          li.y == move.spot.y)
        continue;  // kept in place: no reconfiguration
      occupied_.clear_shifted(li.footprint().mask(), li.y, li.x);
      index_.release(li.footprint().mask(), li.y, li.x);
      applied.push_back(&move);
    }
    for (const Move* move : applied) {
      LiveInstance& li = live_.at(move->instance_id);
      const long old_area = li.footprint().area();
      li.shape = move->spot.shape;
      li.x = move->spot.x;
      li.y = move->spot.y;
      const geost::ShapeFootprint& new_shape = li.footprint();
      const long new_area = new_shape.area();
      RR_ASSERT(!occupied_.intersects_shifted(new_shape.mask(), li.y, li.x));
      occupied_.or_shifted(new_shape.mask(), li.y, li.x);
      index_.occupy(new_shape.mask(), li.y, li.x);
      occupied_tiles_ += new_area - old_area;
      ++stats_.relocated_modules;
      stats_.relocated_tiles += static_cast<std::uint64_t>(old_area + new_area);
      recovery_cost_.tiles_cleared += old_area;
      recovery_cost_.tiles_written += new_area;
      ++recovery_cost_.modules_loaded;
      RR_METRIC_COUNT("runtime.fault.relocated_modules");
      RR_METRIC_ADD("runtime.fault.relocated_tiles",
                    static_cast<std::uint64_t>(old_area + new_area));
    }
    *out = spot;
  };

  for (const Candidate& candidate : candidates) {
    if (deadline.expired()) {
      *deadline_cut = true;
      break;
    }
    fpga::PartialRegion sub_region = region_;
    BitMatrix others = occupied_;
    for (const int id : candidate.blockers) {
      const LiveInstance& li = live_.at(id);
      others.clear_shifted(li.footprint().mask(), li.y, li.x);
    }
    sub_region.block_mask(others);

    std::vector<model::Module> sub_modules;
    sub_modules.reserve(candidate.blockers.size() + 1);
    for (const int id : candidate.blockers)
      sub_modules.push_back(live_.at(id).module);
    sub_modules.push_back(module);

    const auto sub_tables = placer::prepare_tables(sub_region, sub_modules,
                                                   options_.use_alternatives);
    placer::BuildOptions build_options;
    build_options.use_alternatives = options_.use_alternatives;
    placer::BuiltModel built =
        placer::build_model_from_tables(sub_region, sub_tables, build_options);
    if (built.infeasible) continue;
    const auto brancher = placer::make_placement_brancher(
        built, placer::SearchStrategy::kAreaOrderBottomLeft, options_.seed);
    cp::Search::Options search_options;
    search_options.limits.deadline = deadline;
    cp::Search search(*built.space, *brancher, search_options);
    if (search.next()) {
      std::vector<Move> moves;
      for (std::size_t i = 0; i < candidate.blockers.size(); ++i) {
        const int value = built.space->min(built.placement_vars[i]);
        const geost::Placement& p =
            sub_tables[i].table[static_cast<std::size_t>(value)];
        moves.push_back(Move{candidate.blockers[i], Spot{p.shape, p.x, p.y}});
      }
      const std::size_t last = candidate.blockers.size();
      const int value = built.space->min(built.placement_vars[last]);
      const geost::Placement& request =
          sub_tables[last].table[static_cast<std::size_t>(value)];
      commit(moves, Spot{request.shape, request.x, request.y});
      return true;
    }
    if (!search.stats().complete) {
      *deadline_cut = true;  // the deadline, not exhaustion, stopped it
      break;
    }
    // A completed search refuted this relocation set; try the next one.
  }

  // Greedy bottom-left shake: the degraded mode when the exact tier ran out
  // of time. Lift the cheapest set out of a shadow copy of the index,
  // first-fit the victim, then the lifted modules by decreasing area.
  if (*deadline_cut) {
    const std::vector<int>& shake_set = candidates.front().blockers;
    FreeSpaceIndex shadow = index_;
    for (const int id : shake_set) {
      const LiveInstance& li = live_.at(id);
      shadow.release(li.footprint().mask(), li.y, li.x);
    }
    Spot request;
    if (try_first_fit(shadow, shapes, table, nullptr, nullptr, &request)) {
      shadow.occupy(shapes[static_cast<std::size_t>(request.shape)].mask(),
                    request.y, request.x);
      std::vector<int> order = shake_set;
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        const int area_a = live_.at(a).footprint().area();
        const int area_b = live_.at(b).footprint().area();
        return area_a != area_b ? area_a > area_b : a < b;
      });
      std::vector<Move> moves;
      bool all_placed = true;
      for (const int id : order) {
        const LiveInstance& li = live_.at(id);
        const std::vector<geost::ShapeFootprint> li_shapes =
            shapes_of(li.module);
        std::vector<std::vector<Point>> li_anchors;
        li_anchors.reserve(li_shapes.size());
        for (const geost::ShapeFootprint& s : li_shapes)
          li_anchors.push_back(
              geost::compute_valid_anchors(region_.masks(), s));
        const auto li_table =
            geost::sorted_placement_table(li_shapes, li_anchors);
        Spot spot;
        if (!try_first_fit(shadow, li_shapes, li_table, nullptr, nullptr,
                           &spot)) {
          all_placed = false;
          break;
        }
        shadow.occupy(li_shapes[static_cast<std::size_t>(spot.shape)].mask(),
                      spot.y, spot.x);
        moves.push_back(Move{id, spot});
      }
      if (all_placed) {
        commit(moves, request);
        *used_greedy = true;
        return true;
      }
    }
  }
  return false;
}

ModuleRecovery FaultRecoveryManager::recover_module(
    int instance_id, const model::Module& module, const Spot* old_spot,
    const Deadline& deadline, bool* deadline_cut) {
  Stopwatch watch;
  ModuleRecovery result;
  result.instance_id = instance_id;
  const std::vector<geost::ShapeFootprint> shapes = shapes_of(module);

  // Tier 0 — in-place shape swap inside the old bounding box. Cheap (a few
  // mask tests), so it runs regardless of the deadline.
  if (old_spot != nullptr) {
    const Rect old_bbox =
        module.shapes()[static_cast<std::size_t>(old_spot->shape)]
            .bounding_box()
            .translated(Point{old_spot->x, old_spot->y});
    Spot spot;
    if (try_inplace_swap(shapes, old_bbox, &spot)) {
      write_instance(instance_id, module, spot);
      result.tier = RecoveryTier::kInPlaceSwap;
      result.recovered = true;
      result.seconds = watch.seconds();
      return result;
    }
  }

  // Tier 1 — local re-place: first-fit inside an inflated window around the
  // old position, then anywhere. One linear pass over the anchor table.
  std::vector<std::vector<Point>> anchors;
  anchors.reserve(shapes.size());
  for (const geost::ShapeFootprint& shape : shapes)
    anchors.push_back(geost::compute_valid_anchors(region_.masks(), shape));
  const auto table = geost::sorted_placement_table(shapes, anchors);
  {
    const comm::PinContext pin_context = pin_context_for(module);
    const comm::PinContext* comm_ctx =
        pin_context.empty() ? nullptr : &pin_context;
    Spot spot;
    bool found = false;
    if (old_spot != nullptr) {
      const Rect old_bbox =
          module.shapes()[static_cast<std::size_t>(old_spot->shape)]
              .bounding_box()
              .translated(Point{old_spot->x, old_spot->y});
      const int m = options_.local_window_margin;
      const Rect window =
          Rect{old_bbox.x - m, old_bbox.y - m, old_bbox.width + 2 * m,
               old_bbox.height + 2 * m}
              .intersection(Rect{0, 0, region_.width(), region_.height()});
      found = try_first_fit(index_, shapes, table, &window, comm_ctx, &spot);
    }
    if (!found)
      found = try_first_fit(index_, shapes, table, nullptr, comm_ctx, &spot);
    if (found) {
      write_instance(instance_id, module, spot);
      result.tier = RecoveryTier::kLocalReplace;
      result.recovered = true;
      result.seconds = watch.seconds();
      return result;
    }
  }

  // Tier 2 — defrag-assisted relocation under the remaining deadline.
  {
    Spot spot;
    bool used_greedy = false;
    if (try_defrag(module, shapes, table, deadline, deadline_cut,
                   &used_greedy, &spot)) {
      write_instance(instance_id, module, spot);
      result.tier =
          used_greedy ? RecoveryTier::kGreedyShake : RecoveryTier::kDefrag;
      result.recovered = true;
      result.seconds = watch.seconds();
      return result;
    }
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
      switch (recovery.tier) {
        case RecoveryTier::kInPlaceSwap:
          ++stats_.inplace_swaps;
          break;
        case RecoveryTier::kLocalReplace:
          ++stats_.local_replaces;
          break;
        case RecoveryTier::kDefrag:
          ++stats_.defrag_recoveries;
          break;
        case RecoveryTier::kGreedyShake:
          ++stats_.greedy_recoveries;
          break;
        case RecoveryTier::kNone:
          break;
      }
      const LiveInstance& li = live_.at(id);
      recovery_cost_.tiles_written += li.footprint().area();
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
  index_.set_available(FreeSpaceIndex::union_of(region_.masks()));

  // Find every live module the new fault hits, lift them all out of the
  // occupancy (their old tiles are then free for each other's recovery),
  // and recover cheapest-first — smallest area first maximizes the number
  // of modules saved within the deadline.
  struct Victim {
    int id = 0;
    model::Module module;
    Spot old_spot;
    long old_area = 0;
  };
  std::vector<Victim> victims;
  for (const auto& [id, li] : live_) {
    if (!after.intersects_shifted(li.footprint().mask(), li.y, li.x)) continue;
    victims.push_back(Victim{id, li.module, Spot{li.shape, li.x, li.y},
                             li.footprint().area()});
  }
  std::sort(victims.begin(), victims.end(),
            [](const Victim& a, const Victim& b) {
              return a.old_area != b.old_area ? a.old_area < b.old_area
                                              : a.id < b.id;
            });
  for (const Victim& victim : victims) {
    const LiveInstance& li = live_.at(victim.id);
    occupied_.clear_shifted(li.footprint().mask(), li.y, li.x);
    index_.release(li.footprint().mask(), li.y, li.x);
    occupied_tiles_ -= victim.old_area;
    live_.erase(victim.id);
  }
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
      switch (recovery.tier) {
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
      // No-break copy model: the old footprint is dead (cleared), the new
      // one is written.
      const LiveInstance& li = live_.at(victim.id);
      recovery_cost_.tiles_cleared += victim.old_area;
      recovery_cost_.tiles_written += li.footprint().area();
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

}  // namespace rr::runtime
