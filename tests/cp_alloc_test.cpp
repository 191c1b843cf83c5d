// Steady-state allocation tests for the compact-table propagators and the
// geost non-overlap kernel.
//
// The compact engines size every scratch buffer at post time (support
// masks, dirty sets, keep/remove word buffers) and the reversible sparse
// bitsets reuse their trail capacity across push/pop cycles; the geost
// kernel rebuilds compulsory parts in storage kept across runs. So a
// propagation run that finds nothing new to prune must not touch the heap
// at all. These tests count global operator new calls around propagate()
// after a short warm-up and pin that number at zero — a regression back to
// per-run vector allocations fails immediately.
//
// The instances are built so the measured runs are genuine no-op fixpoints
// (every remaining value keeps a support by construction); the mutations
// that feed the propagator deltas happen outside the measured window,
// because Space mutators intentionally snapshot domains onto the trail.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "cp/constraints.hpp"
#include "cp/space.hpp"
#include "geost/nonoverlap.hpp"
#include "geost/object.hpp"
#include "reference/table.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rr::cp {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

// result == table[index] with table[i] = (i % 8) + 4: every result value
// keeps 64 index supports, so removing single index values never prunes
// the result and the steady-state propagation is a pure no-op check.
TEST(SteadyStateAllocations, CompactElementPropagationIsAllocationFree) {
  Space space;
  constexpr int kN = 512;
  std::vector<int> table(kN);
  for (int i = 0; i < kN; ++i) table[i] = (i % 8) + 4;
  const VarId index = space.new_var(0, kN - 1);
  const VarId result = space.new_var(0, 64);
  const int prop = post_element(space, table, index, result);
  ASSERT_TRUE(space.propagate());
  ASSERT_EQ(space.dom(result).size(), 8);

  constexpr int kWarmup = 5;
  constexpr int kMeasured = 20;
  for (int cycle = 0; cycle < kWarmup + kMeasured; ++cycle) {
    space.push();
    // Feed the advisor a delta outside the measured window: the trail
    // snapshot this triggers is Space policy, not propagator cost.
    ASSERT_EQ(space.remove(index, 100 + cycle), ModEvent::kDomain);
    const std::uint64_t before = allocations();
    ASSERT_TRUE(space.propagate());
    const std::uint64_t delta_run = allocations() - before;
    // Re-running at the fixpoint takes the version-skip fast path.
    space.schedule(prop);
    const std::uint64_t before_rerun = allocations();
    ASSERT_TRUE(space.propagate());
    const std::uint64_t rerun = allocations() - before_rerun;
    if (cycle >= kWarmup) {
      EXPECT_EQ(delta_run, 0u) << "cycle=" << cycle;
      EXPECT_EQ(rerun, 0u) << "cycle=" << cycle;
    }
    space.pop();
  }
}

// Positive table over tuples (a, b, (a+b) % 64): removing one value of b
// leaves 63 supports for every value of a and c, so propagation after the
// delta is again a no-op check — and must stay off the heap.
TEST(SteadyStateAllocations, CompactTablePropagationIsAllocationFree) {
  Space space;
  constexpr int kDomainSize = 64;
  std::vector<VarId> vars;
  for (int i = 0; i < 3; ++i) vars.push_back(space.new_var(0, kDomainSize - 1));
  std::vector<std::vector<int>> tuples;
  for (int a = 0; a < kDomainSize; ++a)
    for (int b = 0; b < kDomainSize; ++b)
      tuples.push_back({a, b, (a + b) % kDomainSize});
  reference::post_table(space, vars, std::move(tuples),
                        reference::TableEngine::kCompact);
  ASSERT_TRUE(space.propagate());
  for (const VarId v : vars) ASSERT_EQ(space.dom(v).size(), kDomainSize);

  constexpr int kWarmup = 5;
  constexpr int kMeasured = 20;
  for (int cycle = 0; cycle < kWarmup + kMeasured; ++cycle) {
    space.push();
    ASSERT_NE(space.remove(vars[1], 1 + cycle % (kDomainSize - 2)),
              ModEvent::kFail);
    const std::uint64_t before = allocations();
    ASSERT_TRUE(space.propagate());
    const std::uint64_t delta_run = allocations() - before;
    if (cycle >= kWarmup) {
      EXPECT_EQ(delta_run, 0u) << "cycle=" << cycle;
    }
    space.pop();
  }
}

/// An object of one `width` x 1 bar anchored at each (x, y) of `anchors`;
/// value i of its variable is anchors[i].
geost::GeostObject bar_object(Space& space, int width,
                              const std::vector<Point>& anchors) {
  std::vector<Point> cells;
  for (int x = 0; x < width; ++x) cells.push_back({x, 0});
  auto shapes = std::make_shared<std::vector<geost::ShapeFootprint>>();
  shapes->push_back(geost::ShapeFootprint::from_typed(
      {geost::TypedCells{0, CellSet(std::move(cells), false)}}));
  std::vector<geost::Placement> table;
  for (const Point& a : anchors) table.push_back({0, a.x, a.y});
  return geost::make_object_from_table(space, std::move(shapes),
                                       std::move(table));
}

// Recomputing a compulsory part must stay off the heap in both of its
// outcomes. Object `a` has a domain under the production compulsory
// threshold (24); object `b` sits in row 4, where no part of `a` can
// reach, so the measured runs recompute `a`'s part and prune nothing.
//   - disjoint: `a`'s 10 values are bars whose bounding boxes never meet,
//     so the part is empty and the bitmap work is skipped;
//   - growing: `a` is a 30-wide bar at x = 0..9, whose part [9, 30) grows
//     by one cell whenever the leftmost or rightmost value goes.
// Each cycle removes one value outside the measured window (the Space
// snapshots the domain onto its trail there) and pops it again after.
TEST(SteadyStateAllocations, GeostCompulsoryPartRecomputeIsAllocationFree) {
  for (const bool growing : {false, true}) {
    SCOPED_TRACE(growing ? "growing part" : "disjoint bounding boxes");
    Space space;
    std::vector<Point> a_anchors;
    for (int i = 0; i < 10; ++i)
      a_anchors.push_back({growing ? i : 4 * i, 0});
    std::vector<Point> b_anchors;
    for (int x = 0; x < 39; ++x) b_anchors.push_back({x, 4});
    std::vector<geost::GeostObject> objects{
        bar_object(space, growing ? 30 : 2, a_anchors),
        bar_object(space, 2, b_anchors)};
    const VarId a = objects[0].var();
    geost::post_non_overlap(space, std::move(objects), 40, 6);
    ASSERT_TRUE(space.propagate());
    ASSERT_EQ(space.dom(a).size(), 10);

    constexpr int kWarmup = 5;
    constexpr int kMeasured = 20;
    for (int cycle = 0; cycle < kWarmup + kMeasured; ++cycle) {
      space.push();
      const int value = growing ? (cycle % 2) * 9 : cycle % 10;
      ASSERT_NE(space.remove(a, value), ModEvent::kFail);
      const std::uint64_t before = allocations();
      ASSERT_TRUE(space.propagate());
      const std::uint64_t delta_run = allocations() - before;
      if (cycle >= kWarmup) {
        EXPECT_EQ(delta_run, 0u) << "cycle=" << cycle;
      }
      space.pop();
    }
  }
}

}  // namespace
}  // namespace rr::cp
