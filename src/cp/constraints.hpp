// Constraint posting functions.
//
// Each post_* builds one or more propagators on the given Space. Posting
// never runs propagation itself; call Space::propagate() (the search engine
// does this at every node, including the root).
//
// One engine per constraint. The placer models post rel, linear, min/max
// and element; only the tests post post_rel_const.
// Differential oracles live in tests/reference/.
#pragma once

#include <span>

#include "cp/space.hpp"

namespace rr::cp {

enum class RelOp { kEq, kNeq, kLeq, kGeq, kLt, kGt };

/// x `op` c — applied immediately to the domain (no propagator needed).
void post_rel_const(Space& space, VarId x, RelOp op, int c);

/// x `op` y + offset — bounds-consistent binary relation.
void post_rel(Space& space, VarId x, RelOp op, VarId y, int offset = 0);

/// sum(coeffs[i] * vars[i]) `op` rhs — bounds consistency.
/// op must be kEq, kLeq or kGeq.
void post_linear(Space& space, std::span<const int> coeffs,
                 std::span<const VarId> vars, RelOp op, int rhs);

/// z == max(xs) — bounds consistency. xs must be non-empty.
void post_max(Space& space, VarId z, std::span<const VarId> xs);

/// z == min(xs) — bounds consistency. xs must be non-empty.
void post_min(Space& space, VarId z, std::span<const VarId> xs);

/// Element engine selection for the placer's model options. Empty: the
/// element constraint has a single engine (below). The struct stays because
/// placer::PlacerOptions::element and placer::BuildOptions::element are
/// part of the public option surface that external drivers copy field by
/// field.
struct ElementOptions {};

/// result == table[index] — domain-consistent element constraint.
/// Index values outside [0, table.size()) are pruned immediately. The
/// propagator is compact-table style (reversible sparse bitset over table
/// indices); tables whose value span would make its support masks too
/// large fall back to a scanning propagator with the same pruning.
/// Returns the propagator id (usable with Space::schedule).
int post_element(Space& space, std::span<const int> table, VarId index,
                 VarId result);

namespace detail {
/// post_element's memory-guard fallback engine, posted unconditionally.
/// Declared for the differential tests that hold the compact engine to it.
int post_scanning_element(Space& space, std::span<const int> table,
                          VarId index, VarId result);
}  // namespace detail

}  // namespace rr::cp
