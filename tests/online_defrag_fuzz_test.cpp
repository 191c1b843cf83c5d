// Randomized test for the online placer's defragmentation path: every
// intermediate state (including states produced by relocation commits) must
// hold the trace's own record of live instances and pass the live layout's
// check_invariants() — no overlap, no module on a static tile, exact tile
// accounting and occupancy bitmap, an index in step — which targeted unit
// scenarios cannot reach.
#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "baseline/online.hpp"
#include "fpga/builders.hpp"
#include "model/generator.hpp"
#include "util/rng.hpp"

namespace rr::baseline {
namespace {

using model::Module;
using model::ModuleGenerator;

struct Fixture {
  std::shared_ptr<const fpga::Fabric> fabric;
  std::shared_ptr<fpga::PartialRegion> region;
  std::vector<Module> pool;
};

Fixture make_fixture(std::uint64_t seed) {
  Fixture f;
  f.fabric =
      std::make_shared<const fpga::Fabric>(fpga::make_homogeneous(20, 8));
  f.region = std::make_shared<fpga::PartialRegion>(f.fabric);
  // A static obstacle so the audit exercises region availability, not just
  // mutual non-overlap.
  f.region->block(Rect{9, 2, 2, 4});
  model::GeneratorParams params;
  params.clb_min = 4;
  params.clb_max = 20;
  params.bram_blocks_max = 0;
  params.min_height = 1;
  params.max_height = 6;
  ModuleGenerator generator(params, seed);
  f.pool = generator.generate_many(6);
  return f;
}

/// The trace's record of live instances against the placer, then the
/// layout's audit.
void check_oracle(const OnlinePlacer& placer,
                  const std::unordered_map<int, Module>& live_modules) {
  const auto placements = placer.live_placements();
  ASSERT_EQ(placements.size(), live_modules.size());
  ASSERT_EQ(placer.live_count(), static_cast<int>(live_modules.size()));
  for (const auto& p : placements) {
    const auto it = live_modules.find(p.module);
    ASSERT_NE(it, live_modules.end()) << "unknown live id " << p.module;
    EXPECT_EQ(placer.layout().at(p.module).module.name(), it->second.name());
  }
  ASSERT_EQ(placer.layout().check_invariants(), std::vector<std::string>{});
}

void run_trace(const OnlineOptions& options, std::uint64_t seed, int steps) {
  const Fixture f = make_fixture(seed);
  OnlinePlacer placer(*f.region, options);
  std::unordered_map<int, Module> live_modules;
  std::vector<int> live_ids;
  Rng rng(seed * 7919 + 13);
  int next_id = 0;
  for (int step = 0; step < steps; ++step) {
    if (live_ids.empty() || rng.chance(0.58)) {
      const Module& module = f.pool[rng.pick_index(f.pool)];
      if (placer.place(next_id, module)) {
        live_modules.emplace(next_id, module);
        live_ids.push_back(next_id);
      } else {
        EXPECT_FALSE(placer.is_placed(next_id));
      }
      ++next_id;
    } else {
      const std::size_t pick = rng.pick_index(live_ids);
      const int id = live_ids[pick];
      placer.remove(id);
      EXPECT_FALSE(placer.is_placed(id));
      live_modules.erase(id);
      live_ids.erase(live_ids.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    check_oracle(placer, live_modules);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Relocation accounting is internally consistent at the end of the trace.
  const OnlineDefragStats& stats = placer.defrag_stats();
  EXPECT_EQ(stats.successes, stats.exact_successes + stats.greedy_successes);
  EXPECT_EQ(stats.relocated_tiles,
            static_cast<std::uint64_t>(placer.relocation_cost().tiles_cleared +
                                       placer.relocation_cost().tiles_written));
  EXPECT_EQ(
      stats.relocated_modules,
      static_cast<std::uint64_t>(placer.relocation_cost().modules_loaded));
}

TEST(OnlineDefragFuzz, FirstFitOnlyTracesStayConsistent) {
  for (const std::uint64_t seed : {1u, 2u, 3u})
    run_trace(OnlineOptions{}, seed, 250);
}

TEST(OnlineDefragFuzz, DefragTracesStayConsistent) {
  OnlineOptions options;
  options.defrag.deadline_seconds = 0.5;
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    options.defrag.seed = seed;
    run_trace(options, seed, 250);
  }
}

TEST(OnlineDefragFuzz, ConstrainedDefragTracesStayConsistent) {
  // Tight knobs force the greedy tier, the retry gate, and the budget gate
  // to all fire within the trace.
  OnlineOptions options;
  options.defrag.deadline_seconds = 0.5;
  options.defrag.max_relocations = 2;
  options.defrag.max_anchor_scan = 16;
  options.defrag.relocation_budget_tiles = 200;
  for (const std::uint64_t seed : {21u, 22u})
    run_trace(options, seed, 250);
}

TEST(OnlineDefragFuzz, DuplicateIdThrowsEvenAfterRelocation) {
  const Fixture f = make_fixture(5);
  OnlineOptions options;
  options.defrag.deadline_seconds = 0.5;
  OnlinePlacer placer(*f.region, options);
  ASSERT_TRUE(placer.place(0, f.pool[0]).has_value());
  EXPECT_THROW(placer.place(0, f.pool[1]), InvalidInput);
  EXPECT_THROW(placer.remove(42), InvalidInput);
}

}  // namespace
}  // namespace rr::baseline
