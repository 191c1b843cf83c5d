#include "placer/model_builder.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <climits>

#include "util/log.hpp"
#include "util/metrics.hpp"

namespace rr::placer {
namespace {

/// Post the combined objective comm::kExtentScale * H + weight * HPWL2.
/// Doubled centers attach to the placement variables through the same
/// element machinery as the extents; per-net HPWL2 is (max - min) of the
/// member center coordinates plus fixed terminals on each axis.
void post_comm_objective(cp::Space& space, const fpga::PartialRegion& region,
                         std::span<const ModuleTables> tables,
                         BuiltModel& built, const comm::BoundNets& nets,
                         long weight, const cp::ElementOptions& element) {
  RR_REQUIRE(nets.module_count() == static_cast<int>(tables.size()),
             "communication nets bound against a different module list");
  // Doubled-center variables for every module that appears in a net.
  std::vector<cp::VarId> c2x(tables.size(), cp::kNoVar);
  std::vector<cp::VarId> c2y(tables.size(), cp::kNoVar);
  for (const int i : nets.used_modules()) {
    const ModuleTables& entry = tables[static_cast<std::size_t>(i)];
    std::vector<int> xs, ys;
    xs.reserve(entry.table.size());
    ys.reserve(entry.table.size());
    for (const geost::Placement& p : entry.table) {
      const Rect box =
          (*entry.shapes)[static_cast<std::size_t>(p.shape)].bounding_box();
      const comm::Center2 c = comm::center2(box, p.x, p.y);
      xs.push_back(c.x);
      ys.push_back(c.y);
    }
    const auto post_center = [&](const std::vector<int>& table) {
      const auto [lo, hi] = std::minmax_element(table.begin(), table.end());
      const cp::VarId v = space.new_var(*lo, *hi);
      cp::post_element(space, table,
                       built.placement_vars[static_cast<std::size_t>(i)], v,
                       element);
      return v;
    };
    c2x[static_cast<std::size_t>(i)] = post_center(xs);
    c2y[static_cast<std::size_t>(i)] = post_center(ys);
  }

  std::vector<cp::VarId> hpwl_vars;
  std::vector<int> hpwl_coeffs;
  long wl2_ub = 0;
  for (const comm::BoundNets::BoundNet& net : nets.nets()) {
    std::vector<cp::VarId> xs, ys;
    for (const int m : net.members) {
      xs.push_back(c2x[static_cast<std::size_t>(m)]);
      ys.push_back(c2y[static_cast<std::size_t>(m)]);
    }
    for (const comm::Center2 t : net.terminals) {
      xs.push_back(space.new_var(t.x, t.x));
      ys.push_back(space.new_var(t.y, t.y));
    }
    const auto span_bounds = [&](const std::vector<cp::VarId>& vs) {
      int lo = INT_MAX, hi = INT_MIN;
      for (const cp::VarId v : vs) {
        lo = std::min(lo, space.min(v));
        hi = std::max(hi, space.max(v));
      }
      return std::pair<int, int>(lo, hi);
    };
    const auto [xlo, xhi] = span_bounds(xs);
    const auto [ylo, yhi] = span_bounds(ys);
    const cp::VarId lo_x = space.new_var(xlo, xhi);
    const cp::VarId hi_x = space.new_var(xlo, xhi);
    const cp::VarId lo_y = space.new_var(ylo, yhi);
    const cp::VarId hi_y = space.new_var(ylo, yhi);
    cp::post_min(space, lo_x, xs);
    cp::post_max(space, hi_x, xs);
    cp::post_min(space, lo_y, ys);
    cp::post_max(space, hi_y, ys);
    const int ub = (xhi - xlo) + (yhi - ylo);
    const cp::VarId h = space.new_var(0, ub);
    const std::array<int, 5> coeffs{1, -1, 1, -1, -1};
    const std::array<cp::VarId, 5> vars{hi_x, lo_x, hi_y, lo_y, h};
    cp::post_linear(space, coeffs, vars, cp::RelOp::kEq, 0);
    RR_REQUIRE(net.weight <= INT_MAX, "net weight exceeds the integer domain");
    hpwl_vars.push_back(h);
    hpwl_coeffs.push_back(static_cast<int>(net.weight));
    wl2_ub += net.weight * static_cast<long>(ub);
  }

  const long obj_ub = comm::kExtentScale * static_cast<long>(region.width()) +
                      weight * wl2_ub;
  RR_REQUIRE(weight <= INT_MAX && obj_ub <= INT_MAX,
             "combined comm objective exceeds the integer domain; lower the "
             "comm weight or net weights");
  const cp::VarId wl2 = space.new_var(0, static_cast<int>(wl2_ub));
  hpwl_coeffs.push_back(-1);
  hpwl_vars.push_back(wl2);
  cp::post_linear(space, hpwl_coeffs, hpwl_vars, cp::RelOp::kEq, 0);
  const cp::VarId objective = space.new_var(0, static_cast<int>(obj_ub));
  const std::array<int, 3> coeffs{static_cast<int>(comm::kExtentScale),
                                  static_cast<int>(weight), -1};
  const std::array<cp::VarId, 3> vars{built.extent_objective, wl2, objective};
  cp::post_linear(space, coeffs, vars, cp::RelOp::kEq, 0);
  built.wirelength2_var = wl2;
  built.objective = objective;
}

}  // namespace

ModuleTables prepare_module_tables(const fpga::PartialRegion& region,
                                   const model::Module& module,
                                   bool use_alternatives) {
  ModuleTables entry;
  auto shapes = std::make_shared<std::vector<geost::ShapeFootprint>>();
  if (use_alternatives) {
    *shapes = module.shapes();
  } else {
    shapes->push_back(module.shapes().front());
  }
  // Valid anchors per shape: constraints (2) + (3) folded into the domain.
  std::vector<std::vector<Point>> anchors;
  anchors.reserve(shapes->size());
  for (const geost::ShapeFootprint& shape : *shapes)
    anchors.push_back(geost::compute_valid_anchors(region.masks(), shape));
  entry.table = geost::sorted_placement_table(*shapes, anchors);
  entry.extents.reserve(entry.table.size());
  for (const geost::Placement& p : entry.table) {
    const Rect box =
        (*shapes)[static_cast<std::size_t>(p.shape)].bounding_box();
    entry.extents.push_back(p.x + box.width);
  }
  int min_area = shapes->front().area();
  for (const geost::ShapeFootprint& shape : *shapes)
    min_area = std::min(min_area, shape.area());
  entry.min_area = min_area;
  entry.shapes = std::move(shapes);
  return entry;
}

std::vector<ModuleTables> prepare_tables(
    const fpga::PartialRegion& region,
    std::span<const model::Module> modules, bool use_alternatives) {
  metrics::ScopedTimer timer("placer.prepare_tables");
  std::vector<ModuleTables> tables;
  tables.reserve(modules.size());
  for (const model::Module& module : modules) {
    tables.push_back(prepare_module_tables(region, module, use_alternatives));
    if (tables.back().table.empty()) {
      RR_WARN("module " << module.name()
                        << " has no valid placement on this region");
    }
  }
  return tables;
}

ModuleTables filter_tables(const ModuleTables& tables,
                           const BitMatrix& blocked) {
  ModuleTables out;
  out.shapes = tables.shapes;
  out.min_area = tables.min_area;
  for (std::size_t i = 0; i < tables.table.size(); ++i) {
    const geost::Placement& p = tables.table[i];
    const BitMatrix& mask =
        (*tables.shapes)[static_cast<std::size_t>(p.shape)].mask();
    if (blocked.intersects_shifted(mask, p.y, p.x)) continue;
    out.table.push_back(p);
    out.extents.push_back(tables.extents[i]);
  }
  return out;
}

int min_extent_columns(const fpga::PartialRegion& region, long area) {
  // Per-column counts of the union availability: the resource masks
  // partition the available tiles, so OR them row by row.
  const int width = region.width();
  std::vector<long> per_column(static_cast<std::size_t>(width), 0);
  const std::vector<BitMatrix>& masks = region.masks();
  std::vector<std::uint64_t> row;
  for (int y = 0; y < region.height(); ++y) {
    row.assign(masks.front().words_per_row(), 0);
    for (const BitMatrix& mask : masks) {
      const auto words = mask.row_span(y);
      for (std::size_t w = 0; w < row.size(); ++w) row[w] |= words[w];
    }
    for (std::size_t w = 0; w < row.size(); ++w) {
      for (std::uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(bits));
        ++per_column[w * 64 + bit];
      }
    }
  }
  long total = 0;
  for (int c = 1; c <= width; ++c) {
    total += per_column[static_cast<std::size_t>(c - 1)];
    if (total >= area) return c;
  }
  return width + 1;
}

TablesHandle prepare_tables_shared(const fpga::PartialRegion& region,
                                   std::span<const model::Module> modules,
                                   bool use_alternatives) {
  return std::make_shared<const std::vector<ModuleTables>>(
      prepare_tables(region, modules, use_alternatives));
}

BuiltModel build_model_from_tables(const fpga::PartialRegion& region,
                                   std::span<const ModuleTables> tables,
                                   const BuildOptions& options) {
  BuiltModel built;
  built.space = std::make_unique<cp::Space>();
  cp::Space& space = *built.space;

  long total_min_area = 0;
  for (const ModuleTables& entry : tables) {
    geost::GeostObject object =
        geost::make_object_from_table(space, entry.shapes, entry.table);
    if (object.table().empty()) {
      built.infeasible = true;
      built.placement_vars.push_back(cp::kNoVar);
      built.extent_vars.push_back(cp::kNoVar);
      built.objects.push_back(std::move(object));
      continue;
    }
    built.placement_vars.push_back(object.var());
    built.objects.push_back(std::move(object));
    total_min_area += entry.min_area;
  }
  if (built.infeasible) {
    space.fail();
    return built;
  }

  // extent_i = extent_table[placement_i]
  for (std::size_t i = 0; i < tables.size(); ++i) {
    const std::vector<int>& extents = tables[i].extents;
    const int min_extent = *std::min_element(extents.begin(), extents.end());
    const int max_extent = *std::max_element(extents.begin(), extents.end());
    const cp::VarId extent_var = space.new_var(min_extent, max_extent);
    cp::post_element(space, extents, built.placement_vars[i], extent_var,
                     options.element);
    built.extent_vars.push_back(extent_var);
  }

  // Objective: H = max_i extent_i, minimized by the search engine. With an
  // active communication model the minimized variable becomes the combined
  // extent + wirelength cost; otherwise nothing extra is posted so the
  // model stays byte-identical to the area-only build (zero-weight oracle).
  built.objective = space.new_var(0, region.width());
  cp::post_max(space, built.objective, built.extent_vars);
  built.extent_objective = built.objective;
  const bool comm_on = options.comm_nets != nullptr &&
                       options.comm_weight > 0 && !options.comm_nets->empty();
  if (comm_on) {
    post_comm_objective(space, region, tables, built, *options.comm_nets,
                        options.comm_weight, options.element);
  }

  if (options.area_bound) {
    // The spanned columns must offer at least the modules' total minimum
    // area.
    const int bound = min_extent_columns(region, total_min_area);
    if (bound > region.width()) {
      RR_WARN("total module area exceeds region capacity");
      space.fail();
      built.infeasible = true;
      return built;
    }
    space.set_min(built.extent_objective, bound);
  }

  if (options.break_symmetries) {
    // Identical modules (shared or layout-equal shape lists => identical
    // placement tables) are interchangeable: force increasing placement
    // indices. Equal indices would overlap anyway, so <= is sound and
    // removes the k! permutations. Modules mentioned by a communication net
    // are NOT interchangeable (their net memberships may differ), so the
    // ordering is only posted between net-free pairs when comm is on.
    std::vector<bool> in_net(tables.size(), false);
    if (comm_on) {
      for (const int m : options.comm_nets->used_modules())
        in_net[static_cast<std::size_t>(m)] = true;
    }
    for (std::size_t i = 0; i + 1 < tables.size(); ++i) {
      for (std::size_t j = i + 1; j < tables.size(); ++j) {
        const bool same_tables =
            tables[i].shapes == tables[j].shapes ||  // shared list
            tables[i].table == tables[j].table;      // or equal content
        if (!same_tables || tables[i].table.size() != tables[j].table.size())
          continue;
        if (in_net[i] || in_net[j]) continue;
        cp::post_rel(space, built.placement_vars[i], cp::RelOp::kLeq,
                     built.placement_vars[j]);
      }
    }
  }

  geost::post_non_overlap(space, built.objects, region.width(),
                          region.height(), options.nonoverlap);
  return built;
}

BuiltModel build_model(const fpga::PartialRegion& region,
                       std::span<const model::Module> modules,
                       const BuildOptions& options) {
  const std::vector<ModuleTables> tables =
      prepare_tables(region, modules, options.use_alternatives);
  return build_model_from_tables(region, tables, options);
}

PlacementSolution extract_solution(const BuiltModel& model,
                                   std::span<const int> placement_values) {
  PlacementSolution solution;
  if (model.infeasible ||
      placement_values.size() != model.objects.size())
    return solution;
  solution.feasible = true;
  solution.placements.reserve(model.objects.size());
  for (std::size_t i = 0; i < model.objects.size(); ++i) {
    const geost::GeostObject& object = model.objects[i];
    const int value = placement_values[i];
    const geost::Placement& p = object.placement(value);
    solution.placements.push_back(
        ModulePlacement{static_cast<int>(i), p.shape, p.x, p.y});
    solution.extent = std::max(solution.extent, object.extent_x_of(value));
  }
  return solution;
}

long assignment_wirelength2(std::span<const ModuleTables> tables,
                            std::span<const int> values,
                            const comm::BoundNets& nets) {
  RR_ASSERT(values.size() == tables.size());
  std::vector<comm::Center2> centers(tables.size());
  for (const int i : nets.used_modules()) {
    const ModuleTables& entry = tables[static_cast<std::size_t>(i)];
    const geost::Placement& p =
        entry.table[static_cast<std::size_t>(values[i])];
    const Rect box =
        (*entry.shapes)[static_cast<std::size_t>(p.shape)].bounding_box();
    centers[static_cast<std::size_t>(i)] = comm::center2(box, p.x, p.y);
  }
  return nets.wirelength2(centers);
}

}  // namespace rr::placer
