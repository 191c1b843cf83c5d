#include "baseline/online.hpp"

#include <algorithm>

#include "geost/anchor_kernel.hpp"
#include "geost/object.hpp"
#include "placer/brancher.hpp"
#include "placer/model_builder.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace rr::baseline {

OnlinePlacer::OnlinePlacer(const fpga::PartialRegion& region,
                           OnlineOptions options)
    : region_(region),
      options_(options),
      occupied_(region.height(), region.width()),
      index_(FreeSpaceIndex::union_of(region_.masks())) {}

void OnlinePlacer::refresh_region() {
  index_.set_available(FreeSpaceIndex::union_of(region_.masks()));
  query_cache_.clear();
}

double OnlinePlacer::occupancy() const noexcept {
  const long total = region_.total_available();
  return total > 0 ? static_cast<double>(occupied_tiles_) /
                         static_cast<double>(total)
                   : 0.0;
}

std::vector<placer::ModulePlacement> OnlinePlacer::live_placements() const {
  std::vector<placer::ModulePlacement> out;
  out.reserve(live_.size());
  for (const auto& [id, instance] : live_)
    out.push_back(placer::ModulePlacement{id, instance.shape, instance.x,
                                          instance.y});
  std::sort(out.begin(), out.end(),
            [](const placer::ModulePlacement& a,
               const placer::ModulePlacement& b) {
              return a.module < b.module;
            });
  return out;
}

std::vector<geost::ShapeFootprint> OnlinePlacer::shapes_of(
    const model::Module& module) const {
  std::vector<geost::ShapeFootprint> shapes;
  if (options_.use_alternatives) shapes = module.shapes();
  else shapes.push_back(module.shapes().front());
  return shapes;
}

void OnlinePlacer::build_tables(const model::Module& module,
                                std::vector<geost::ShapeFootprint>& shapes,
                                std::vector<geost::Placement>& table) const {
  shapes = shapes_of(module);
  std::vector<std::vector<Point>> anchors;
  anchors.reserve(shapes.size());
  for (const geost::ShapeFootprint& shape : shapes)
    anchors.push_back(geost::compute_valid_anchors(region_.masks(), shape));
  table = geost::sorted_placement_table(shapes, anchors);
}

OnlinePlacer::ShapeQueryData OnlinePlacer::build_query_data(
    const std::vector<geost::ShapeFootprint>& shapes,
    const std::vector<geost::Placement>& table) const {
  ShapeQueryData data;
  data.anchors.reserve(shapes.size());
  data.parts.reserve(shapes.size());
  for (const geost::ShapeFootprint& shape : shapes) {
    data.anchors.emplace_back(region_.height(), region_.width());
    data.parts.push_back(decompose_mask(shape.mask()));
  }
  for (const geost::Placement& p : table)
    data.anchors[static_cast<std::size_t>(p.shape)].set(p.y, p.x, true);
  return data;
}

comm::PinContext OnlinePlacer::build_pin_context(std::string_view name,
                                                 int exclude_id) const {
  if (options_.nets == nullptr || options_.comm_weight <= 0 ||
      options_.nets->empty())
    return {};
  std::vector<comm::NamedPin> pins;
  pins.reserve(live_.size());
  for (const auto& [id, li] : live_) {
    if (id == exclude_id) continue;
    const Rect box = li.footprint().bounding_box();
    pins.push_back(
        comm::NamedPin{li.module.name(), comm::center2(box, li.x, li.y)});
  }
  // PinContext folds pins to per-net min/max bounds, so the unordered map's
  // iteration order cannot influence the result (determinism contract).
  return comm::PinContext::build(*options_.nets, name, pins);
}

std::optional<geost::Placement> OnlinePlacer::index_fit(
    const FreeSpaceIndex& index,
    const std::vector<geost::ShapeFootprint>& shapes,
    const std::vector<geost::Placement>& table,
    const placer::ModuleTables* cached, const comm::PinContext* comm) const {
  const ShapeQueryData* data;
  ShapeQueryData local;
  if (cached != nullptr) {
    const auto [it, inserted] = query_cache_.try_emplace(cached);
    if (inserted) it->second = build_query_data(shapes, table);
    data = &it->second;
  } else {
    local = build_query_data(shapes, table);
    data = &local;
  }
  std::vector<AnchorQuery> queries(shapes.size());
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    const Rect box = shapes[s].bounding_box();
    queries[s] = AnchorQuery{&data->anchors[s], data->parts[s], box.width,
                             box.height};
  }
  AnchorCost cost;
  const AnchorCost* cost_ptr = nullptr;
  if (options_.policy == AnchorPolicy::kCommCost && comm != nullptr) {
    cost = [&shapes, comm](int s, int x, int y) {
      const Rect box = shapes[static_cast<std::size_t>(s)].bounding_box();
      return comm->cost2(comm::center2(box, x, y));
    };
    cost_ptr = &cost;
  }
  const auto pick = index.best_anchor(queries, options_.policy, nullptr,
                                      cost_ptr);
  if (!pick.has_value()) return std::nullopt;
  return geost::Placement{pick->shape, pick->x, pick->y};
}

std::optional<placer::ModulePlacement> OnlinePlacer::place(
    int instance_id, const model::Module& module, double budget_seconds) {
  RR_REQUIRE(!live_.contains(instance_id),
             "instance id " + std::to_string(instance_id) + " already placed");
  // Anchor tables are computed per request — the online setting has no
  // design-time module list — unless an installed ModuleTableSource covers
  // the module, in which case the cached tables (prepared by the same code)
  // short-circuit the scan with bit-identical results.
  const placer::ModuleTables* cached =
      table_source_ != nullptr ? table_source_->lookup(module) : nullptr;
  std::vector<geost::ShapeFootprint> local_shapes;
  std::vector<geost::Placement> local_table;
  if (cached == nullptr) build_tables(module, local_shapes, local_table);
  const std::vector<geost::ShapeFootprint>& shapes =
      cached != nullptr ? *cached->shapes : local_shapes;
  const std::vector<geost::Placement>& table =
      cached != nullptr ? cached->table : local_table;

  comm::PinContext pin_context;
  const comm::PinContext* comm_ctx = nullptr;
  if (options_.policy == AnchorPolicy::kCommCost) {
    pin_context = build_pin_context(module.name(), instance_id);
    if (!pin_context.empty()) comm_ctx = &pin_context;
  }
  if (const auto p = index_fit(index_, shapes, table, cached, comm_ctx)) {
    const geost::ShapeFootprint& shape =
        shapes[static_cast<std::size_t>(p->shape)];
    occupied_.or_shifted(shape.mask(), p->y, p->x);
    index_.occupy(shape.mask(), p->y, p->x);
    occupied_tiles_ += shape.area();
    live_.emplace(instance_id,
                  LiveInstance{module, p->shape, p->x, p->y});
    ++epoch_;
    return placer::ModulePlacement{instance_id, p->shape, p->x, p->y};
  }

  // Admission failed: defragment, unless disabled or gated off. A caller
  // budget clamps the configured pass deadline (remaining-budget deadline
  // propagation) but never enables defrag on its own.
  if (options_.defrag.deadline_seconds <= 0.0) return std::nullopt;
  const double deadline_seconds =
      budget_seconds > 0.0
          ? std::min(options_.defrag.deadline_seconds, budget_seconds)
          : options_.defrag.deadline_seconds;
  if (table.empty() || live_.empty()) return std::nullopt;
  if (options_.defrag.relocation_budget_tiles >= 0 &&
      static_cast<long>(defrag_stats_.relocated_tiles) >=
          options_.defrag.relocation_budget_tiles) {
    ++defrag_stats_.budget_skips;
    RR_METRIC_COUNT("online.defrag.budget_skips");
    return std::nullopt;
  }
  if (have_failed_defrag_ && epoch_ == failed_defrag_epoch_ &&
      module.min_area() >= failed_defrag_min_area_) {
    // Nothing changed since a pass failed for a no-larger request: retrying
    // would burn the deadline on a provably identical sub-problem.
    ++defrag_stats_.retry_skips;
    RR_METRIC_COUNT("online.defrag.retry_skips");
    return std::nullopt;
  }
  return defrag_place(instance_id, module, shapes, table, cached,
                      deadline_seconds);
}

std::optional<placer::ModulePlacement> OnlinePlacer::defrag_place(
    int instance_id, const model::Module& module,
    const std::vector<geost::ShapeFootprint>& shapes,
    const std::vector<geost::Placement>& table,
    const placer::ModuleTables* cached, double deadline_seconds) {
  ++defrag_stats_.attempts;
  RR_METRIC_COUNT("online.defrag.attempts");
  const Deadline deadline(deadline_seconds);

  // --- Blocking-cell heuristic: rank relocation sets by how cheap their
  // conflict is to clear. For each candidate anchor of the request
  // (bottom-left order), find the live instances its footprint overlaps;
  // the distinct blocker sets, ordered by (fewest blockers, fewest blocked
  // tiles), are the relocation sets the exact tier will try. A single
  // "best" set is not enough: when the free space is fragmented, the
  // cheapest set's modules often have nowhere else to go, while a slightly
  // larger set frees a workable hole.
  struct Candidate {
    std::vector<int> blockers;  // sorted instance ids
    std::size_t blocked_tiles = 0;
  };
  std::vector<Candidate> candidates;
  const std::vector<placer::ModulePlacement> live = live_placements();
  BitMatrix scratch(region_.height(), region_.width());
  const int scan_limit =
      std::min<int>(options_.defrag.max_anchor_scan,
                    static_cast<int>(table.size()));
  // One conflict bitmap per (live instance, request shape) pair, built
  // lazily — conflict(y, x) answers "would the request overlap this
  // instance at anchor (x, y)" for the whole scan at once, so the
  // per-anchor overlap popcount is paid only for actual blockers.
  std::vector<BitMatrix> inst_conflicts(live.size() * shapes.size());
  std::vector<unsigned char> inst_built(inst_conflicts.size(), 0);
  BitMatrix inst_scratch(region_.height(), region_.width());
  for (int t = 0; t < scan_limit; ++t) {
    if ((t & 31) == 0 && deadline.expired()) break;
    const geost::Placement& p = table[static_cast<std::size_t>(t)];
    const geost::ShapeFootprint& shape =
        shapes[static_cast<std::size_t>(p.shape)];
    Candidate candidate;
    bool have_scratch = false;
    for (std::size_t i = 0; i < live.size(); ++i) {
      const LiveInstance& li = live_.at(live[i].module);
      const std::size_t key =
          i * shapes.size() + static_cast<std::size_t>(p.shape);
      if (!inst_built[key]) {
        BitMatrix& conflict = inst_conflicts[key];
        conflict = BitMatrix(region_.height(), region_.width());
        inst_scratch.clear();
        inst_scratch.or_shifted(li.footprint().mask(), li.y, li.x);
        geost::accumulate_conflicts(conflict, inst_scratch, shape.mask(), 0,
                                    region_.height());
        inst_built[key] = 1;
      }
      if (!inst_conflicts[key].get(p.y, p.x)) continue;
      if (!have_scratch) {
        scratch.clear();
        scratch.or_shifted(shape.mask(), p.y, p.x);
        have_scratch = true;
      }
      const std::size_t overlap = scratch.overlap_popcount_shifted(
          li.footprint().mask(), li.y, li.x);
      if (overlap == 0) continue;
      candidate.blockers.push_back(live[i].module);
      candidate.blocked_tiles += overlap;
      if (static_cast<int>(candidate.blockers.size()) >
          options_.defrag.max_relocations)
        break;
    }
    if (static_cast<int>(candidate.blockers.size()) >
        options_.defrag.max_relocations)
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
  if (candidates.empty()) {
    ++defrag_stats_.rejects;
    RR_METRIC_COUNT("online.defrag.rejects");
    note_defrag_failure(module);
    return std::nullopt;
  }

  // --- Tier 1: exact re-place of a relocation set plus the request via the
  // CP machinery (satisfaction search, bottom-left descent). Candidate sets
  // are tried cheapest-first until one admits the request, a completed
  // search has refuted every set, or the deadline expires.
  bool deadline_cut = false;
  for (const Candidate& candidate : candidates) {
    if (deadline.expired()) {
      deadline_cut = true;
      break;
    }
    // The sub-problem region: everything occupied except the relocation set.
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

    const auto sub_tables = placer::prepare_tables(
        sub_region, sub_modules, options_.use_alternatives);
    placer::BuildOptions build_options;
    build_options.use_alternatives = options_.use_alternatives;
    placer::BuiltModel model =
        placer::build_model_from_tables(sub_region, sub_tables, build_options);
    if (model.infeasible) continue;
    const auto brancher = placer::make_placement_brancher(
        model, placer::SearchStrategy::kAreaOrderBottomLeft,
        options_.defrag.seed);
    cp::Search::Options search_options;
    search_options.limits.deadline = deadline;
    cp::Search search(*model.space, *brancher, search_options);
    if (search.next()) {
      std::vector<Move> moves;
      for (std::size_t i = 0; i < candidate.blockers.size(); ++i) {
        const int value = model.space->min(model.placement_vars[i]);
        const geost::Placement& p =
            sub_tables[i].table[static_cast<std::size_t>(value)];
        moves.push_back(Move{candidate.blockers[i], p.shape, p.x, p.y});
      }
      const std::size_t last = candidate.blockers.size();
      const int value = model.space->min(model.placement_vars[last]);
      const geost::Placement& request =
          sub_tables[last].table[static_cast<std::size_t>(value)];
      ++defrag_stats_.exact_successes;
      RR_METRIC_COUNT("online.defrag.exact_successes");
      return commit_plan(instance_id, module, moves, request);
    }
    if (!search.stats().complete) {
      // The deadline (not exhaustion) stopped the search: degrade.
      deadline_cut = true;
      break;
    }
    // A completed search proved this relocation set infeasible; the greedy
    // shake explores a subset of the same space, so move on to the next set.
  }
  if (deadline_cut) {
    ++defrag_stats_.deadline_expiries;
    RR_METRIC_COUNT("online.defrag.deadline_expiries");
  }

  // --- Tier 2: greedy bottom-left shake. Lift the cheapest relocation set
  // out of the occupancy, then admit the request and the lifted modules
  // (by decreasing area) back in under the configured policy. One linear
  // pass — the degraded mode when the exact tier ran out of time (after a
  // refutation of every candidate set it would be pointless: the shake
  // explores a subset of that space).
  if (deadline_cut) {
    const std::vector<int>& shake_set = candidates.front().blockers;
    // Relocation-target search on the shaken state: a shadow copy of the
    // live index with the lifted footprints released.
    FreeSpaceIndex shadow = index_;
    for (const int id : shake_set) {
      const LiveInstance& li = live_.at(id);
      shadow.release(li.footprint().mask(), li.y, li.x);
    }
    // kCommCost ranking contexts fold pins from live_ as it stands during
    // the shake — lifted modules still contribute their old pins, which
    // keeps the plan deterministic.
    comm::PinContext request_ctx;
    const comm::PinContext* request_comm = nullptr;
    if (options_.policy == AnchorPolicy::kCommCost) {
      request_ctx = build_pin_context(module.name(), instance_id);
      if (!request_ctx.empty()) request_comm = &request_ctx;
    }
    const auto request =
        index_fit(shadow, shapes, table, cached, request_comm);
    if (request.has_value()) {
      const geost::ShapeFootprint& shape =
          shapes[static_cast<std::size_t>(request->shape)];
      shadow.occupy(shape.mask(), request->y, request->x);
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
        const placer::ModuleTables* li_cached =
            table_source_ != nullptr ? table_source_->lookup(li.module)
                                     : nullptr;
        std::vector<geost::ShapeFootprint> li_local_shapes;
        std::vector<geost::Placement> li_local_table;
        if (li_cached == nullptr)
          build_tables(li.module, li_local_shapes, li_local_table);
        const std::vector<geost::ShapeFootprint>& li_shapes =
            li_cached != nullptr ? *li_cached->shapes : li_local_shapes;
        const std::vector<geost::Placement>& li_table =
            li_cached != nullptr ? li_cached->table : li_local_table;
        comm::PinContext li_ctx;
        const comm::PinContext* li_comm = nullptr;
        if (options_.policy == AnchorPolicy::kCommCost) {
          li_ctx = build_pin_context(li.module.name(), id);
          if (!li_ctx.empty()) li_comm = &li_ctx;
        }
        const auto spot =
            index_fit(shadow, li_shapes, li_table, li_cached, li_comm);
        if (!spot.has_value()) {
          all_placed = false;
          break;
        }
        const BitMatrix& spot_mask =
            li_shapes[static_cast<std::size_t>(spot->shape)].mask();
        shadow.occupy(spot_mask, spot->y, spot->x);
        moves.push_back(Move{id, spot->shape, spot->x, spot->y});
      }
      if (all_placed) {
        ++defrag_stats_.greedy_successes;
        RR_METRIC_COUNT("online.defrag.greedy_successes");
        return commit_plan(instance_id, module, moves, *request);
      }
    }
  }

  ++defrag_stats_.rejects;
  RR_METRIC_COUNT("online.defrag.rejects");
  note_defrag_failure(module);
  return std::nullopt;
}

placer::ModulePlacement OnlinePlacer::commit_plan(
    int instance_id, const model::Module& module,
    const std::vector<Move>& moves, const geost::Placement& request) {
  // Two passes: a moved instance's new footprint may cover another moved
  // instance's old position, so every old footprint must be lifted out of
  // the occupancy before any new one is written.
  std::vector<const Move*> applied;
  applied.reserve(moves.size());
  for (const Move& move : moves) {
    LiveInstance& li = live_.at(move.instance_id);
    if (li.shape == move.shape && li.x == move.x && li.y == move.y)
      continue;  // kept in place: no reconfiguration
    occupied_.clear_shifted(li.footprint().mask(), li.y, li.x);
    index_.release(li.footprint().mask(), li.y, li.x);
    applied.push_back(&move);
  }
  for (const Move* move : applied) {
    LiveInstance& li = live_.at(move->instance_id);
    const long old_area = li.footprint().area();
    li.shape = move->shape;
    li.x = move->x;
    li.y = move->y;
    const geost::ShapeFootprint& new_shape = li.footprint();
    const long new_area = new_shape.area();
    RR_ASSERT(!occupied_.intersects_shifted(new_shape.mask(), li.y, li.x));
    occupied_.or_shifted(new_shape.mask(), li.y, li.x);
    index_.occupy(new_shape.mask(), li.y, li.x);
    occupied_tiles_ += new_area - old_area;
    ++defrag_stats_.relocated_modules;
    defrag_stats_.relocated_tiles +=
        static_cast<std::uint64_t>(old_area + new_area);
    relocation_cost_.tiles_cleared += old_area;
    relocation_cost_.tiles_written += new_area;
    ++relocation_cost_.modules_loaded;
    RR_METRIC_COUNT("online.defrag.relocated_modules");
    RR_METRIC_ADD("online.defrag.relocated_tiles",
                  static_cast<std::uint64_t>(old_area + new_area));
  }

  const geost::ShapeFootprint& shape =
      (options_.use_alternatives
           ? module.shapes()[static_cast<std::size_t>(request.shape)]
           : module.shapes().front());
  RR_ASSERT(!occupied_.intersects_shifted(shape.mask(), request.y, request.x));
  occupied_.or_shifted(shape.mask(), request.y, request.x);
  index_.occupy(shape.mask(), request.y, request.x);
  occupied_tiles_ += shape.area();
  live_.emplace(instance_id,
                LiveInstance{module, request.shape, request.x, request.y});
  ++epoch_;
  ++defrag_stats_.successes;
  RR_METRIC_COUNT("online.defrag.successes");
  return placer::ModulePlacement{instance_id, request.shape, request.x,
                                 request.y};
}

void OnlinePlacer::note_defrag_failure(const model::Module& module) {
  have_failed_defrag_ = true;
  failed_defrag_epoch_ = epoch_;
  failed_defrag_min_area_ = module.min_area();
}

void OnlinePlacer::remove(int instance_id) {
  const auto it = live_.find(instance_id);
  RR_REQUIRE(it != live_.end(),
             "instance id " + std::to_string(instance_id) + " is not placed");
  const LiveInstance& instance = it->second;
  occupied_.clear_shifted(instance.footprint().mask(), instance.y, instance.x);
  index_.release(instance.footprint().mask(), instance.y, instance.x);
  occupied_tiles_ -= instance.footprint().area();
  live_.erase(it);
  ++epoch_;
}

}  // namespace rr::baseline
