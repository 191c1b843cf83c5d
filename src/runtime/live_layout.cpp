#include "runtime/live_layout.hpp"

#include <algorithm>

#include "placer/brancher.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace rr::runtime {

LiveLayout::LiveLayout(const fpga::PartialRegion& region,
                       bool use_alternatives,
                       std::shared_ptr<const comm::NetList> nets,
                       long comm_weight)
    : region_(&region),
      use_alternatives_(use_alternatives),
      nets_(std::move(nets)),
      comm_weight_(comm_weight),
      occupied_(region.height(), region.width()),
      index_(FreeSpaceIndex::union_of(region.masks())) {}

void LiveLayout::insert(int id, const model::Module& module, int shape, int x,
                        int y) {
  const geost::ShapeFootprint& footprint =
      module.shapes()[static_cast<std::size_t>(shape)];
  RR_ASSERT(!occupied_.intersects_shifted(footprint.mask(), y, x));
  occupied_.or_shifted(footprint.mask(), y, x);
  index_.occupy(footprint.mask(), y, x);
  occupied_tiles_ += footprint.area();
  live_.emplace(id, Instance{module, shape, x, y});
}

void LiveLayout::erase(int id) {
  const auto it = live_.find(id);
  RR_ASSERT(it != live_.end());
  const Instance& instance = it->second;
  occupied_.clear_shifted(instance.footprint().mask(), instance.y, instance.x);
  index_.release(instance.footprint().mask(), instance.y, instance.x);
  occupied_tiles_ -= instance.footprint().area();
  live_.erase(it);
}

void LiveLayout::refresh_available() {
  index_.set_available(FreeSpaceIndex::union_of(region_->masks()));
  query_cache_.clear();
}

std::vector<placer::ModulePlacement> LiveLayout::live_placements() const {
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

std::vector<geost::ShapeFootprint> LiveLayout::shapes_of(
    const model::Module& module) const {
  std::vector<geost::ShapeFootprint> shapes;
  if (use_alternatives_) shapes = module.shapes();
  else shapes.push_back(module.shapes().front());
  return shapes;
}

LiveLayout::Tables LiveLayout::tables_of(const model::Module& module,
                                         ModuleTableSource* source) const {
  Tables tables;
  if (source != nullptr) tables.cached_ = source->lookup(module);
  if (tables.cached_ == nullptr)
    tables.owned_ =
        placer::prepare_module_tables(*region_, module, use_alternatives_);
  return tables;
}

const LiveLayout::Tables& LiveLayout::lifted_tables(
    int id, ModuleTableSource* source, LiftedTables& memo) const {
  const auto [it, inserted] = memo.try_emplace(id);
  if (inserted) it->second = tables_of(live_.at(id).module, source);
  return it->second;
}

comm::PinContext LiveLayout::pin_context(std::string_view name,
                                         int exclude_id) const {
  if (nets_ == nullptr || comm_weight_ <= 0 || nets_->empty()) return {};
  std::vector<comm::NamedPin> pins;
  pins.reserve(live_.size());
  for (const auto& [id, instance] : live_) {
    if (id == exclude_id) continue;
    const Rect box = instance.footprint().bounding_box();
    pins.push_back(comm::NamedPin{instance.module.name(),
                                  comm::center2(box, instance.x, instance.y)});
  }
  // PinContext folds pins to per-net min/max bounds, so the unordered map's
  // iteration order cannot influence the result (determinism contract).
  return comm::PinContext::build(*nets_, name, pins);
}

LiveLayout::ShapeQueryData LiveLayout::build_query_data(
    const Tables& tables) const {
  ShapeQueryData data;
  data.anchors.reserve(tables.shapes().size());
  data.parts.reserve(tables.shapes().size());
  for (const geost::ShapeFootprint& shape : tables.shapes()) {
    data.anchors.emplace_back(region_->height(), region_->width());
    data.parts.push_back(decompose_mask(shape.mask()));
  }
  for (const geost::Placement& p : tables.table())
    data.anchors[static_cast<std::size_t>(p.shape)].set(p.y, p.x, true);
  return data;
}

std::optional<geost::Placement> LiveLayout::fit(
    const FreeSpaceIndex& index, const Tables& tables, AnchorPolicy policy,
    const comm::PinContext* comm, const Rect* window) const {
  const ShapeQueryData* data;
  ShapeQueryData local;
  if (tables.cached() != nullptr) {
    const auto [it, inserted] = query_cache_.try_emplace(tables.cached());
    if (inserted) it->second = build_query_data(tables);
    data = &it->second;
  } else {
    local = build_query_data(tables);
    data = &local;
  }
  const std::vector<geost::ShapeFootprint>& shapes = tables.shapes();
  std::vector<AnchorQuery> queries(shapes.size());
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    const Rect box = shapes[s].bounding_box();
    queries[s] = AnchorQuery{&data->anchors[s], data->parts[s], box.width,
                             box.height};
  }
  AnchorCost cost;
  const AnchorCost* cost_ptr = nullptr;
  if (policy == AnchorPolicy::kCommCost && comm != nullptr && !comm->empty()) {
    cost = [&shapes, comm](int s, int x, int y) {
      const Rect box = shapes[static_cast<std::size_t>(s)].bounding_box();
      return comm->cost2(comm::center2(box, x, y));
    };
    cost_ptr = &cost;
  }
  const auto pick = index.best_anchor(queries, policy, window, cost_ptr);
  if (!pick.has_value()) return std::nullopt;
  return geost::Placement{pick->shape, pick->x, pick->y};
}

std::vector<std::vector<int>> LiveLayout::relocation_candidates(
    const Tables& request, int max_relocations, int max_anchor_scan,
    const Deadline& deadline) const {
  struct Candidate {
    std::vector<int> blockers;  // sorted instance ids
    std::size_t blocked_tiles = 0;
  };
  std::vector<Candidate> candidates;
  const std::vector<geost::ShapeFootprint>& shapes = request.shapes();
  const std::vector<geost::Placement>& table = request.table();
  const std::vector<placer::ModulePlacement> live = live_placements();
  BitMatrix scratch(region_->height(), region_->width());
  const int scan_limit =
      std::min<int>(max_anchor_scan, static_cast<int>(table.size()));
  // Bounding boxes reject most (anchor, instance) pairs; the exact overlap
  // popcount runs only where the boxes meet.
  std::vector<Rect> boxes;
  boxes.reserve(live.size());
  for (const placer::ModulePlacement& p : live) {
    const Rect box = live_.at(p.module).footprint().bounding_box();
    boxes.push_back(box.translated(Point{p.x, p.y}));
  }
  for (int t = 0; t < scan_limit; ++t) {
    if ((t & 31) == 0 && deadline.expired()) break;
    const geost::Placement& p = table[static_cast<std::size_t>(t)];
    const geost::ShapeFootprint& shape =
        shapes[static_cast<std::size_t>(p.shape)];
    const Rect box = shape.bounding_box().translated(Point{p.x, p.y});
    Candidate candidate;
    bool have_scratch = false;
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (!box.intersects(boxes[i])) continue;
      const Instance& instance = live_.at(live[i].module);
      if (!have_scratch) {
        scratch.clear();
        scratch.or_shifted(shape.mask(), p.y, p.x);
        have_scratch = true;
      }
      const std::size_t overlap = scratch.overlap_popcount_shifted(
          instance.footprint().mask(), instance.y, instance.x);
      if (overlap == 0) continue;
      candidate.blockers.push_back(live[i].module);
      candidate.blocked_tiles += overlap;
      if (static_cast<int>(candidate.blockers.size()) > max_relocations) break;
    }
    if (candidate.blockers.empty() ||
        static_cast<int>(candidate.blockers.size()) > max_relocations)
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
  std::vector<std::vector<int>> sets;
  for (Candidate& candidate : candidates)
    if (sets.empty() || sets.back() != candidate.blockers)
      sets.push_back(std::move(candidate.blockers));
  return sets;
}

std::optional<LiveLayout::Plan> LiveLayout::exact_replace(
    const std::vector<int>& set, const Tables& request,
    ModuleTableSource* source, LiftedTables& memo, std::uint64_t seed,
    const Deadline& deadline, bool* deadline_cut, bool* refuted) const {
  *refuted = false;
  // Everything occupied except the relocation set stays put.
  BitMatrix others = occupied_;
  for (const int id : set) {
    const Instance& instance = live_.at(id);
    others.clear_shifted(instance.footprint().mask(), instance.y, instance.x);
  }

  // Sub-problem tables: the set (in set order), then the request — each a
  // filtered view of its current-fabric table. A module left without a
  // spot, or a set needing more tiles than the sub-region offers (counted
  // as the model's area bound counts them), is refuted here: the model
  // build would mark it infeasible.
  std::vector<placer::ModuleTables> sub_tables;
  sub_tables.reserve(set.size() + 1);
  long total_min_area = 0;
  {
    metrics::ScopedTimer timer("layout.relocate.tables");
    const auto add = [&](const Tables& tables) {
      sub_tables.push_back(
          placer::filter_tables(tables.module_tables(), others));
      total_min_area += sub_tables.back().min_area;
      *refuted = sub_tables.back().table.empty();
    };
    for (std::size_t i = 0; i <= set.size() && !*refuted; ++i)
      add(i < set.size() ? lifted_tables(set[i], source, memo) : request);
  }
  if (!*refuted) {
    // The index mirrors the region's union availability.
    const BitMatrix& available = index_.available_matrix();
    const auto sub_available =
        static_cast<long>(available.popcount()) -
        static_cast<long>(available.overlap_popcount_shifted(others, 0, 0));
    *refuted = total_min_area > sub_available;
  }
  if (*refuted) return std::nullopt;

  // The sub-region still backs the model's area bound.
  const placer::BuiltModel model = [&] {
    metrics::ScopedTimer timer("layout.relocate.build");
    fpga::PartialRegion sub_region = *region_;
    sub_region.block_mask(others);
    placer::BuildOptions build_options;
    build_options.use_alternatives = use_alternatives_;
    return placer::build_model_from_tables(sub_region, sub_tables,
                                           build_options);
  }();
  if (model.infeasible) return std::nullopt;
  metrics::ScopedTimer timer("layout.relocate.search");
  const auto brancher = placer::make_placement_brancher(
      model, placer::SearchStrategy::kAreaOrderBottomLeft, seed);
  cp::Search::Options search_options;
  search_options.limits.deadline = deadline;
  cp::Search search(*model.space, *brancher, search_options);
  if (!search.next()) {
    if (!search.stats().complete) *deadline_cut = true;
    return std::nullopt;
  }
  const auto placement_of = [&](std::size_t i) {
    const int value = model.space->min(model.placement_vars[i]);
    return sub_tables[i].table[static_cast<std::size_t>(value)];
  };
  Plan plan;
  for (std::size_t i = 0; i < set.size(); ++i) {
    const geost::Placement p = placement_of(i);
    plan.moves.push_back(Move{set[i], p.shape, p.x, p.y});
  }
  plan.request = placement_of(set.size());
  return plan;
}

std::optional<LiveLayout::Plan> LiveLayout::greedy_shake(
    const std::vector<int>& set, int request_id, const model::Module& module,
    const Tables& request, AnchorPolicy policy,
    ModuleTableSource* source) const {
  FreeSpaceIndex shadow = index_;
  for (const int id : set) {
    const Instance& instance = live_.at(id);
    shadow.release(instance.footprint().mask(), instance.y, instance.x);
  }
  // kCommCost contexts fold pins from the layout as it stands before the
  // shake — lifted instances still contribute their old pins, which keeps
  // the plan deterministic.
  const auto place = [&](const Tables& tables, std::string_view name,
                         int id) -> std::optional<geost::Placement> {
    comm::PinContext pins;
    if (policy == AnchorPolicy::kCommCost) pins = pin_context(name, id);
    const auto spot = fit(shadow, tables, policy, &pins);
    if (spot.has_value())
      shadow.occupy(
          tables.shapes()[static_cast<std::size_t>(spot->shape)].mask(),
          spot->y, spot->x);
    return spot;
  };
  Plan plan;
  const auto spot = place(request, module.name(), request_id);
  if (!spot.has_value()) return std::nullopt;
  plan.request = *spot;
  std::vector<int> order = set;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const int area_a = live_.at(a).footprint().area();
    const int area_b = live_.at(b).footprint().area();
    return area_a != area_b ? area_a > area_b : a < b;
  });
  for (const int id : order) {
    const model::Module& lifted = live_.at(id).module;
    const auto moved = place(tables_of(lifted, source), lifted.name(), id);
    if (!moved.has_value()) return std::nullopt;
    plan.moves.push_back(Move{id, moved->shape, moved->x, moved->y});
  }
  return plan;
}

LiveLayout::Relocation LiveLayout::relocate(
    int request_id, const model::Module& module, const Tables& request,
    const RelocationLimits& limits, const Deadline& deadline,
    AnchorPolicy shake_policy, ModuleTableSource* source) const {
  Relocation result;
  if (request.table().empty() || live_.empty()) return result;
  std::vector<std::vector<int>> sets;
  {
    metrics::ScopedTimer timer("layout.relocate.candidates");
    sets = relocation_candidates(request, limits.max_relocations,
                                 limits.max_anchor_scan, deadline);
  }
  LiftedTables memo;
  std::uint64_t tried = 0;
  std::uint64_t refuted = 0;
  for (const std::vector<int>& set : sets) {
    if (deadline.expired()) {
      result.deadline_cut = true;
      break;
    }
    bool cheap = false;
    ++tried;
    result.plan = exact_replace(set, request, source, memo, limits.seed,
                                deadline, &result.deadline_cut, &cheap);
    refuted += cheap ? 1 : 0;
    if (result.plan.has_value() || result.deadline_cut) break;
    // A completed search (or a cheap refutation) ruled this set out; try
    // the next one.
  }
  RR_METRIC_ADD("layout.relocate.sets_tried", tried);
  RR_METRIC_ADD("layout.relocate.sets_refuted", refuted);
  if (!result.plan.has_value() && result.deadline_cut) {
    result.plan = greedy_shake(sets.front(), request_id, module, request,
                               shake_policy, source);
    result.greedy = result.plan.has_value();
  }
  return result;
}

TransitionCost LiveLayout::commit(const Plan& plan) {
  std::vector<const Move*> applied;
  applied.reserve(plan.moves.size());
  for (const Move& move : plan.moves) {
    const Instance& instance = live_.at(move.instance_id);
    if (instance.shape == move.shape && instance.x == move.x &&
        instance.y == move.y)
      continue;  // kept in place: no reconfiguration
    occupied_.clear_shifted(instance.footprint().mask(), instance.y,
                            instance.x);
    index_.release(instance.footprint().mask(), instance.y, instance.x);
    applied.push_back(&move);
  }
  TransitionCost cost;
  for (const Move* move : applied) {
    Instance& instance = live_.at(move->instance_id);
    const long old_area = instance.footprint().area();
    instance.shape = move->shape;
    instance.x = move->x;
    instance.y = move->y;
    const BitMatrix& mask = instance.footprint().mask();
    RR_ASSERT(!occupied_.intersects_shifted(mask, instance.y, instance.x));
    occupied_.or_shifted(mask, instance.y, instance.x);
    index_.occupy(mask, instance.y, instance.x);
    const long new_area = instance.footprint().area();
    occupied_tiles_ += new_area - old_area;
    cost.tiles_cleared += old_area;
    cost.tiles_written += new_area;
    ++cost.modules_loaded;
  }
  return cost;
}

}  // namespace rr::runtime
