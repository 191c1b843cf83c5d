// Reference positive table constraint: the compact-table propagator and the
// scanning propagator it is held to.
//
// No placer model posts a positive table, so the constraint is not part of
// the production library (cp/constraints.hpp). It stays here as the
// benchmark and test subject for the reversible sparse bitset
// (cp/sparse_bitset) that the production element propagator shares, and as
// the kTable propagator kind's only source. Linked only by tests and
// benches; nothing in src/ depends on it.
#pragma once

#include <span>
#include <vector>

#include "cp/space.hpp"

namespace rr::reference {

enum class TableEngine {
  /// Compact-table (Demeulenaere et al., CP 2016): live tuples in a
  /// reversible sparse bitset, updated from domain deltas. Falls back to
  /// kScanning when the dense support masks would be too large.
  kCompact,
  /// Straight support scanning, O(#tuples x arity) per run — the oracle.
  kScanning,
};

/// Positive table constraint: the tuple (vars[0], ..., vars[n-1]) must
/// equal one of `tuples` (each of arity vars.size()). Generalized arc
/// consistency under either engine; both report under cp::PropKind::kTable.
/// Returns the propagator id (usable with Space::schedule).
int post_table(cp::Space& space, std::span<const cp::VarId> vars,
               std::vector<std::vector<int>> tuples,
               TableEngine engine = TableEngine::kCompact);

}  // namespace rr::reference
