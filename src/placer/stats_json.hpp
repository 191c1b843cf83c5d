// Machine-readable solver statistics: assemble the `rrplace-stats-v1` JSON
// document from a PlacementOutcome.
//
// Consumers: `rrplace_cli <cmd> --stats-json`, the benches' BENCH_*.json
// records, and the CI benchmark-smoke job (validated by
// tools/check_stats_json). Schema, stable across minor versions:
//
//   {
//     "schema": "rrplace-stats-v1",
//     "tool": "<producer>",
//     "config": { ... free-form producer configuration echo ... },
//     "search": {"nodes", "fails", "solutions", "max_depth", "restarts",
//                "complete"},
//     "space": {"propagations", "domain_changes"},
//     "propagators": {"<kind>": {"runs", "failures", "prunings",
//                                "seconds"}, ...},   // all PropKind buckets
//     "incumbents": [{"worker", "seconds", "objective"}, ...],
//     "result": {"feasible", "extent", "optimal", "seconds",
//                "utilization"},
//     "modules": {"count", "alternatives_per_module": [...]},
//     "metrics": {"counters": {...}, "timers": {...}}  // global registry
//   }
//
// Per-kind propagator buckets (and timer values) are only non-zero when
// metrics collection was enabled during the solve — call
// rr::metrics::set_enabled(true) before Placer construction.
#pragma once

#include <span>
#include <string>

#include "fpga/region.hpp"
#include "model/module.hpp"
#include "placer/placement.hpp"
#include "util/json.hpp"

namespace rr::placer {

/// Search counters as a JSON object.
[[nodiscard]] json::Value search_stats_json(const cp::SearchStats& stats);

/// Propagation counters: {"space": {...}, "propagators": {...}}, one
/// propagator bucket per PropKind (zeros included, so the schema is fixed).
[[nodiscard]] json::Value space_stats_json(const cp::SpaceStats& stats);

/// The full rrplace-stats-v1 document for one solve. `tool` names the
/// producer; `config` is echoed verbatim (pass json::Value() for an
/// empty object — the key is always present).
[[nodiscard]] json::Value solve_stats_json(
    const fpga::PartialRegion& region,
    std::span<const model::Module> modules, const PlacementOutcome& outcome,
    const std::string& tool, json::Value config = json::Value());

}  // namespace rr::placer
