#include "baseline/online.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/metrics.hpp"

namespace rr::baseline {

OnlinePlacer::OnlinePlacer(const fpga::PartialRegion& region,
                           OnlineOptions options)
    : options_(options),
      layout_(region, options.use_alternatives, options.nets,
              options.comm_weight) {}

double OnlinePlacer::occupancy() const noexcept {
  const long total = layout_.region().total_available();
  return total > 0 ? static_cast<double>(layout_.occupied_tiles()) /
                         static_cast<double>(total)
                   : 0.0;
}

std::optional<placer::ModulePlacement> OnlinePlacer::place(
    int instance_id, const model::Module& module, double budget_seconds) {
  RR_REQUIRE(!layout_.contains(instance_id),
             "instance id " + std::to_string(instance_id) + " already placed");
  // Anchor tables are computed per request — the online setting has no
  // design-time module list — unless an installed ModuleTableSource covers
  // the module, in which case the cached tables (prepared by the same code)
  // short-circuit the scan with bit-identical results.
  const runtime::LiveLayout::Tables tables =
      layout_.tables_of(module, table_source_);
  comm::PinContext pins;
  if (options_.policy == AnchorPolicy::kCommCost)
    pins = layout_.pin_context(module.name(), instance_id);
  if (const auto p =
          layout_.fit(layout_.index(), tables, options_.policy, &pins)) {
    layout_.insert(instance_id, module, p->shape, p->x, p->y);
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
  if (tables.table().empty() || layout_.size() == 0) return std::nullopt;
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
  return defrag_place(instance_id, module, tables, deadline_seconds);
}

std::optional<placer::ModulePlacement> OnlinePlacer::defrag_place(
    int instance_id, const model::Module& module,
    const runtime::LiveLayout::Tables& tables, double deadline_seconds) {
  ++defrag_stats_.attempts;
  RR_METRIC_COUNT("online.defrag.attempts");
  const runtime::LiveLayout::Relocation relocation = layout_.relocate(
      instance_id, module, tables,
      {options_.defrag.max_relocations, options_.defrag.max_anchor_scan,
       options_.defrag.seed},
      Deadline(deadline_seconds), options_.policy, table_source_);
  if (relocation.deadline_cut) {
    ++defrag_stats_.deadline_expiries;
    RR_METRIC_COUNT("online.defrag.deadline_expiries");
  }
  if (!relocation.plan.has_value()) {
    ++defrag_stats_.rejects;
    RR_METRIC_COUNT("online.defrag.rejects");
    note_defrag_failure(module);
    return std::nullopt;
  }
  if (relocation.greedy) {
    ++defrag_stats_.greedy_successes;
    RR_METRIC_COUNT("online.defrag.greedy_successes");
  } else {
    ++defrag_stats_.exact_successes;
    RR_METRIC_COUNT("online.defrag.exact_successes");
  }

  const runtime::LiveLayout::Plan& plan = *relocation.plan;
  const runtime::TransitionCost moved = layout_.commit(plan);
  if (moved.modules_loaded > 0) {
    const auto tiles =
        static_cast<std::uint64_t>(moved.tiles_cleared + moved.tiles_written);
    defrag_stats_.relocated_modules +=
        static_cast<std::uint64_t>(moved.modules_loaded);
    defrag_stats_.relocated_tiles += tiles;
    relocation_cost_.tiles_cleared += moved.tiles_cleared;
    relocation_cost_.tiles_written += moved.tiles_written;
    relocation_cost_.modules_loaded += moved.modules_loaded;
    RR_METRIC_ADD("online.defrag.relocated_modules",
                  static_cast<std::uint64_t>(moved.modules_loaded));
    RR_METRIC_ADD("online.defrag.relocated_tiles", tiles);
  }
  layout_.insert(instance_id, module, plan.request.shape, plan.request.x,
                 plan.request.y);
  ++epoch_;
  ++defrag_stats_.successes;
  RR_METRIC_COUNT("online.defrag.successes");
  return placer::ModulePlacement{instance_id, plan.request.shape,
                                 plan.request.x, plan.request.y};
}

void OnlinePlacer::note_defrag_failure(const model::Module& module) {
  have_failed_defrag_ = true;
  failed_defrag_epoch_ = epoch_;
  failed_defrag_min_area_ = module.min_area();
}

void OnlinePlacer::remove(int instance_id) {
  RR_REQUIRE(layout_.contains(instance_id),
             "instance id " + std::to_string(instance_id) + " is not placed");
  layout_.erase(instance_id);
  ++epoch_;
}

}  // namespace rr::baseline
