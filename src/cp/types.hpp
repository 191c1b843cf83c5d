// Shared vocabulary types of the constraint engine.
#pragma once

namespace rr::cp {

/// Handle to an integer decision variable owned by a Space.
using VarId = int;
inline constexpr VarId kNoVar = -1;

/// Result of a domain modification.
enum class ModEvent {
  kNone,    // no change
  kDomain,  // interior values removed, bounds unchanged
  kBounds,  // min or max changed
  kAssign,  // domain became a singleton
  kFail,    // domain became empty
};

/// Result of a propagation step.
enum class PropStatus {
  kFix,       // at fixpoint for now; keep the propagator
  kSubsumed,  // entailed at this node and below; disabled until backtrack
  kFail,      // inconsistency detected
};

/// Events a propagator may subscribe to, as a bitmask.
enum PropCond : unsigned {
  kOnAssign = 1u << 0,
  kOnBounds = 1u << 1,  // implies interest in assignment as well
  kOnDomain = 1u << 2,  // any change at all
};

/// Scheduling priority: lower runs earlier. Cheap propagators first keeps
/// the queue short before expensive global constraints run.
enum class PropPriority : int { kUnary = 0, kLinear = 1, kGlobal = 2 };
inline constexpr int kNumPriorities = 3;

/// Propagator family, for per-kind solver metrics (runs / failures /
/// prunings / time bucketed by constraint type). Purely observational:
/// scheduling only ever looks at PropPriority.
enum class PropKind : int {
  kRel = 0,      // binary relations (x op y + c)
  kLinear,       // linear sums
  kElement,      // result == table[index]
  kMinMax,       // z == min/max(xs)
  // No propagator fills the next four kinds: they stay, always zero,
  // because the stats JSON and perfbench's traced schema report every kind.
  kDistinct,
  kCount,
  kReified,
  kTable,
  kGeost,        // geost-style non-overlap over resource-typed boxes
  kOther,        // anything user-defined that doesn't declare a kind
};
inline constexpr int kNumPropKinds = 10;

/// Stable lowercase name of a kind ("linear", "geost-nonoverlap", ...),
/// used as the JSON key in emitted stats.
[[nodiscard]] constexpr const char* prop_kind_name(PropKind kind) noexcept {
  switch (kind) {
    case PropKind::kRel: return "rel";
    case PropKind::kLinear: return "linear";
    case PropKind::kElement: return "element";
    case PropKind::kMinMax: return "minmax";
    case PropKind::kDistinct: return "distinct";
    case PropKind::kCount: return "count";
    case PropKind::kReified: return "reified";
    case PropKind::kTable: return "table";
    case PropKind::kGeost: return "geost-nonoverlap";
    case PropKind::kOther: return "other";
  }
  return "other";
}

}  // namespace rr::cp
