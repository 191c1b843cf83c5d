// Steady-state allocation tests for the compact-table propagators.
//
// The compact engines size every scratch buffer at post time (support
// masks, dirty sets, keep/remove word buffers) and the reversible sparse
// bitsets reuse their trail capacity across push/pop cycles, so a
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
#include <new>
#include <vector>

#include "cp/constraints.hpp"
#include "cp/space.hpp"
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
    if (cycle >= kWarmup) EXPECT_EQ(delta_run, 0u) << "cycle=" << cycle;
    space.pop();
  }
}

}  // namespace
}  // namespace rr::cp
