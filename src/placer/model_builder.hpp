// Translate a placement problem (partial region + modules) into a CP model:
// one polymorphic geost object per module, an extent variable tied to each
// placement via an element constraint, the resource-typed non-overlap
// kernel, and the minimization objective H = max extent (eq. 6).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "comm/net.hpp"
#include "cp/constraints.hpp"
#include "fpga/region.hpp"
#include "geost/nonoverlap.hpp"
#include "model/module.hpp"
#include "placer/placement.hpp"

namespace rr::placer {

struct BuildOptions {
  /// false: restrict every module to its first shape (the paper's
  /// "no design alternatives" configuration).
  bool use_alternatives = true;
  geost::NonOverlapOptions nonoverlap{};
  /// Element propagator selection for the placement->extent coupling
  /// (compact-table by default; scanning kept for differential testing).
  cp::ElementOptions element{};
  /// Add the root-level area lower bound on the extent (redundant but
  /// effective pruning: the spanned columns must offer enough tiles).
  bool area_bound = true;
  /// Order the placement variables of *identical* modules (same shape
  /// lists): interchangeable modules otherwise multiply the search space by
  /// k! without adding solutions.
  bool break_symmetries = true;
  /// Communication model (non-owning; must outlive every build). When set
  /// with a positive comm_weight and at least one surviving net, the
  /// objective becomes comm::kExtentScale * H + comm_weight * HPWL2 via a
  /// doubled-center element encoding. Otherwise the model is built
  /// byte-for-byte identically to the area-only objective (same variable
  /// ids, same propagators) — the zero-weight oracle.
  const comm::BoundNets* comm_nets = nullptr;
  long comm_weight = 0;
};

struct BuiltModel {
  std::unique_ptr<cp::Space> space;
  std::vector<geost::GeostObject> objects;  // one per module, module order
  std::vector<cp::VarId> placement_vars;    // objects[i].var()
  std::vector<cp::VarId> extent_vars;
  /// Minimized by the search engine: equal to extent_objective for the
  /// area-only model, the combined extent + wirelength variable when the
  /// communication term is active.
  cp::VarId objective = cp::kNoVar;
  cp::VarId extent_objective = cp::kNoVar;  // H = max_i extent_i
  /// Weighted doubled HPWL variable (kNoVar when comm is off).
  cp::VarId wirelength2_var = cp::kNoVar;
  /// True when some module had no valid placement at all (model is failed).
  bool infeasible = false;
};

/// Precomputed per-module placement data: the expensive part of model
/// construction (anchor correlation over the region), cacheable across
/// repeated builds (LNS iterations, portfolio workers).
struct ModuleTables {
  geost::ShapeList shapes;
  std::vector<geost::Placement> table;  // sorted bottom-left
  std::vector<int> extents;             // x-extent per table entry
  int min_area = 0;
};

[[nodiscard]] std::vector<ModuleTables> prepare_tables(
    const fpga::PartialRegion& region,
    std::span<const model::Module> modules, bool use_alternatives);

/// One module's tables — prepare_tables' per-module body (the anchor scan),
/// without its "no valid placement" warning.
[[nodiscard]] ModuleTables prepare_module_tables(
    const fpga::PartialRegion& region, const model::Module& module,
    bool use_alternatives);

/// `tables` with every entry whose shape overlaps a set cell of `blocked`
/// (region-shaped, rows by y) dropped, in the same order. The shape list is
/// shared and min_area carries over. Filter identity: if `tables` were
/// prepared on a region R, the result equals prepare_module_tables on R
/// with `blocked` additionally blocked (or faulty) — the sort key (x + w,
/// x, y, shape) does not depend on availability, and a shape anchored
/// validly on R stays valid exactly when it avoids the new cells.
[[nodiscard]] ModuleTables filter_tables(const ModuleTables& tables,
                                         const BitMatrix& blocked);

/// Smallest column count c such that the region's available tiles with
/// x < c number at least `area` (width() + 1 when even the whole region
/// falls short) — the extent lower bound of an instance whose modules
/// need `area` tiles in total. One pass over per-column availability.
[[nodiscard]] int min_extent_columns(const fpga::PartialRegion& region,
                                     long area);

/// Shared immutable tables: one prepare, many builds. The handle is safe to
/// reference from several threads at once (the tables are never mutated
/// after construction) — portfolio workers, repeated solves, and the
/// service layer's SolveContext cache all hold one.
using TablesHandle = std::shared_ptr<const std::vector<ModuleTables>>;

[[nodiscard]] TablesHandle prepare_tables_shared(
    const fpga::PartialRegion& region,
    std::span<const model::Module> modules, bool use_alternatives);

/// Build a model from cached tables — microseconds, no anchor scans.
[[nodiscard]] BuiltModel build_model_from_tables(
    const fpga::PartialRegion& region, std::span<const ModuleTables> tables,
    const BuildOptions& options = {});

/// Convenience: prepare_tables + build_model_from_tables.
[[nodiscard]] BuiltModel build_model(const fpga::PartialRegion& region,
                                     std::span<const model::Module> modules,
                                     const BuildOptions& options = {});

/// Extract the solution from a (solved) model given the report-variable
/// assignment `placement_values` (one table index per module).
[[nodiscard]] PlacementSolution extract_solution(
    const BuiltModel& model, std::span<const int> placement_values);

/// Weighted doubled HPWL of a table-index assignment (one value per module,
/// module order matching the tables `nets` was bound against).
[[nodiscard]] long assignment_wirelength2(std::span<const ModuleTables> tables,
                                          std::span<const int> values,
                                          const comm::BoundNets& nets);

}  // namespace rr::placer
