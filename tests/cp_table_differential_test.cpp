// Differential tests: the compact element engine must be observationally
// identical to the scanning engine it replaced, which stays as
// post_element's memory-guard fallback.
//
// Three layers of evidence, strongest last:
//   1. fixpoint equivalence on random element instances — after identical
//      mutation bursts, both engines leave identical domains or both fail;
//   2. the memory-guard fallback against a brute-force support check;
//   3. the reduced Table I model (tests/reference/reduced_model) under
//      branch-and-bound with the element engine swapped — identical trees,
//      extents and placements.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cp/constraints.hpp"
#include "cp/space.hpp"
#include "fpga/builders.hpp"
#include "model/generator.hpp"
#include "reference/reduced_model.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace rr::cp {
namespace {

// Layer 1: random element tables, lockstep mutation bursts on index and
// result.
TEST(TableDifferential, ElementFixpointEquivalence) {
  for (std::uint64_t seed = 300; seed <= 330; ++seed) {
    Rng setup(seed);
    const int n = setup.uniform_int(2, 400);
    std::vector<int> table(static_cast<std::size_t>(n));
    for (int& v : table) v = setup.uniform_int(-20, 60);

    Space scan_space, compact_space;
    const VarId si = scan_space.new_var(-3, n + 3);
    const VarId sr = scan_space.new_var(-30, 70);
    const VarId ci = compact_space.new_var(-3, n + 3);
    const VarId cr = compact_space.new_var(-30, 70);
    detail::post_scanning_element(scan_space, table, si, sr);
    post_element(compact_space, table, ci, cr);
    ASSERT_EQ(scan_space.propagate(), compact_space.propagate())
        << "seed=" << seed;
    if (scan_space.failed()) continue;

    Rng walk(seed * 31 + 7);
    int depth = 0;
    for (int step = 0; step < 30 && !scan_space.failed(); ++step) {
      const std::string context =
          "seed=" + std::to_string(seed) + " step=" + std::to_string(step);
      if (depth > 0 && walk.uniform_int(0, 3) == 0) {
        scan_space.pop();
        compact_space.pop();
        --depth;
        continue;
      }
      scan_space.push();
      compact_space.push();
      ++depth;
      const bool on_index = walk.uniform_int(0, 1) == 0;
      const Domain& dom = scan_space.dom(on_index ? si : sr);
      if (dom.assigned()) {
        scan_space.pop();
        compact_space.pop();
        --depth;
        continue;
      }
      if (walk.uniform_int(0, 1) == 0) {
        const int v = walk.uniform_int(dom.min(), dom.max());
        scan_space.set_max(on_index ? si : sr, v);
        compact_space.set_max(on_index ? ci : cr, v);
      } else {
        const int v = dom.nth_value(static_cast<long>(
            walk.bounded(static_cast<std::uint64_t>(dom.size()))));
        scan_space.remove(on_index ? si : sr, v);
        compact_space.remove(on_index ? ci : cr, v);
      }
      const bool scan_ok = scan_space.propagate();
      const bool compact_ok = compact_space.propagate();
      ASSERT_EQ(scan_ok, compact_ok) << context;
      if (!scan_ok) break;
      ASSERT_TRUE(scan_space.dom(si) == compact_space.dom(ci))
          << context;
      ASSERT_TRUE(scan_space.dom(sr) == compact_space.dom(cr))
          << context;
    }
  }
}

// Layer 3: the reduced Table I model. Branch-and-bound with the element
// engine swapped must explore the identical tree and return identical
// placements.
TEST(TableDifferential, PlacerBranchAndBoundTreesAreIdentical) {
  auto fabric = std::make_shared<const fpga::Fabric>(
      fpga::make_homogeneous(24, 10));
  const fpga::PartialRegion region(fabric);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    model::GeneratorParams params;
    params.clb_min = 6;
    params.clb_max = 20;
    params.bram_blocks_max = 0;
    params.max_height = 8;
    model::ModuleGenerator generator(params, seed);
    const auto modules = generator.generate_many(6);

    reference::ReducedOutcome outcomes[2];
    for (const bool compact : {false, true}) {
      reference::ReducedEngines engines;
      engines.element = compact ? reference::ElementEngine::kCompact
                                : reference::ElementEngine::kScanning;
      outcomes[compact] = reference::solve_reduced_table1(
          region, modules, engines, seed, /*max_fails=*/3000);
    }
    const auto& scan = outcomes[0];
    const auto& comp = outcomes[1];
    ASSERT_TRUE(comp.solution.feasible) << "seed=" << seed;
    EXPECT_GT(comp.stats.fails, 0u) << "seed=" << seed;
    EXPECT_TRUE(scan.same_tree(comp))
        << "seed=" << seed << " nodes " << scan.stats.nodes << " vs "
        << comp.stats.nodes << ", fails " << scan.stats.fails << " vs "
        << comp.stats.fails << ", extent " << scan.solution.extent << " vs "
        << comp.solution.extent;
  }
}

/// Restores the global metrics switch when a test exits.
class MetricsSwitchGuard {
 public:
  MetricsSwitchGuard() : was_(metrics::enabled()) {}
  ~MetricsSwitchGuard() { metrics::set_enabled(was_); }

 private:
  bool was_;
};

// post_element's memory guard: a table whose result span exceeds the
// compact engine's limit is served by the scanning engine. It must prune
// both directions exactly like a brute-force support check — through
// mutation bursts and backtracking — and account its runs to kElement.
TEST(TableDifferential, ElementMemoryGuardFallbackMatchesBruteForce) {
  MetricsSwitchGuard guard;
  metrics::set_enabled(true);  // before any Space snapshots the flag
  constexpr int kHuge = 1 << 21;  // span > the compact engine's 2^20 limit
  for (std::uint64_t seed = 400; seed <= 415; ++seed) {
    Rng setup(seed);
    const int n = setup.uniform_int(2, 60);
    std::vector<int> table(static_cast<std::size_t>(n));
    for (int& v : table) v = setup.uniform_int(-5, 25);
    table[setup.bounded(table.size())] = kHuge;

    Space space;
    const VarId index = space.new_var(-3, n + 3);
    const VarId result = space.new_var(-10, kHuge + 10);
    post_element(space, table, index, result);

    // Propagate, and hold the result to a brute-force support check from
    // the pre-propagation domains: surviving indices are in range and map
    // into dom(result); surviving results are images of surviving indices.
    const auto propagate_and_check = [&](const std::string& context) {
      const Domain di = space.dom(index);
      const Domain dr = space.dom(result);
      std::vector<int> indices, results;
      di.for_each([&](int i) {
        if (i < 0 || i >= n) return;
        const int entry = table[static_cast<std::size_t>(i)];
        if (!dr.contains(entry)) return;
        indices.push_back(i);
        results.push_back(entry);
      });
      std::sort(results.begin(), results.end());
      results.erase(std::unique(results.begin(), results.end()),
                    results.end());
      const bool ok = space.propagate();
      ASSERT_EQ(ok, !indices.empty()) << context;
      if (!ok) return;
      ASSERT_EQ(space.dom(index).values(), indices) << context;
      ASSERT_EQ(space.dom(result).values(), results) << context;
    };

    propagate_and_check("seed=" + std::to_string(seed) + " root");
    ASSERT_FALSE(space.failed()) << "seed=" << seed;
    Rng walk(seed * 13 + 5);
    int depth = 0;
    for (int step = 0; step < 25; ++step) {
      const std::string context =
          "seed=" + std::to_string(seed) + " step=" + std::to_string(step);
      if (depth > 0 && walk.uniform_int(0, 3) == 0) {
        space.pop();
        --depth;
        continue;
      }
      const VarId var = walk.uniform_int(0, 1) == 0 ? index : result;
      const Domain& dom = space.dom(var);
      if (dom.assigned()) continue;
      const int v = dom.nth_value(static_cast<long>(
          walk.bounded(static_cast<std::uint64_t>(dom.size()))));
      space.push();
      ++depth;
      if (walk.uniform_int(0, 1) == 0) space.remove(var, v);
      else space.set_max(var, v);
      propagate_and_check(context);
      if (space.failed()) {
        space.pop();
        --depth;
      }
    }
#ifndef RRPLACE_DISABLE_METRICS
    EXPECT_GT(space.stats()
                  .by_kind[static_cast<std::size_t>(PropKind::kElement)]
                  .runs,
              0u)
        << "seed=" << seed;
#endif
  }
}

}  // namespace
}  // namespace rr::cp
