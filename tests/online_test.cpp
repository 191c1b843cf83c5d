// Online placement: incremental occupancy management, removal, acceptance
// behavior under churn, and the service-level effect of alternatives.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baseline/online.hpp"
#include "fpga/builders.hpp"
#include "model/generator.hpp"
#include "util/rng.hpp"

namespace rr::baseline {
namespace {

using model::Module;
using model::ModuleGenerator;

std::shared_ptr<fpga::PartialRegion> homogeneous_region(int w, int h) {
  auto fabric =
      std::make_shared<const fpga::Fabric>(fpga::make_homogeneous(w, h));
  return std::make_shared<fpga::PartialRegion>(fabric);
}

Module rect_module(const std::string& name, int w, int h) {
  return Module(name, {ModuleGenerator::make_column_shape(w * h, 0, 1, h, 0)});
}

TEST(OnlinePlacer, PlaceAndRemoveRoundTrip) {
  const auto region = homogeneous_region(8, 4);
  OnlinePlacer placer(*region);
  const Module m = rect_module("m", 2, 2);
  const auto placement = placer.place(1, m);
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->x, 0);
  EXPECT_EQ(placement->y, 0);
  EXPECT_EQ(placer.occupied_tiles(), 4);
  EXPECT_TRUE(placer.is_placed(1));
  placer.remove(1);
  EXPECT_EQ(placer.occupied_tiles(), 0);
  EXPECT_FALSE(placer.is_placed(1));
  // The freed space is reusable.
  EXPECT_TRUE(placer.place(2, m).has_value());
  EXPECT_TRUE(placer.place(3, rect_module("x", 1, 1)).has_value());
}

TEST(OnlinePlacer, RejectsDuplicateAndUnknownIds) {
  const auto region = homogeneous_region(8, 4);
  OnlinePlacer placer(*region);
  ASSERT_TRUE(placer.place(7, rect_module("m", 2, 2)).has_value());
  EXPECT_THROW(placer.place(7, rect_module("m", 1, 1)), InvalidInput);
  EXPECT_THROW(placer.remove(99), InvalidInput);
}

TEST(OnlinePlacer, FillsBottomLeftFirst) {
  const auto region = homogeneous_region(6, 4);
  OnlinePlacer placer(*region);
  const Module m = rect_module("m", 2, 2);
  const auto a = placer.place(0, m);
  const auto b = placer.place(1, m);
  ASSERT_TRUE(a && b);
  // Bottom-left order: second instance stacks above the first (same
  // column, lower extent) before moving right.
  EXPECT_EQ(a->x, 0);
  EXPECT_EQ(b->x, 0);
  EXPECT_EQ(b->y, 2);
}

TEST(OnlinePlacer, RefusesWhenFull) {
  const auto region = homogeneous_region(4, 2);
  OnlinePlacer placer(*region);
  ASSERT_TRUE(placer.place(0, rect_module("m", 2, 2)).has_value());
  ASSERT_TRUE(placer.place(1, rect_module("m", 2, 2)).has_value());
  EXPECT_EQ(placer.place(2, rect_module("m", 2, 2)), std::nullopt);
  EXPECT_DOUBLE_EQ(placer.occupancy(), 1.0);
}

TEST(OnlinePlacer, AlternativesRaiseAcceptance) {
  // Tall base layout cannot fit a short region; the rotated alternative can.
  const auto region = homogeneous_region(8, 2);
  const Module rotatable(
      "rot", {ModuleGenerator::make_column_shape(4, 0, 1, 4, 0),   // 1x4
              ModuleGenerator::make_column_shape(4, 0, 1, 1, 0)}); // 4x1
  OnlineOptions with;
  OnlinePlacer a(*region, with);
  EXPECT_TRUE(a.place(0, rotatable).has_value());
  OnlineOptions without;
  without.use_alternatives = false;
  OnlinePlacer b(*region, without);
  EXPECT_EQ(b.place(0, rotatable), std::nullopt);
}

TEST(OnlinePlacer, ChurnConservesOccupancyAccounting) {
  // Random arrivals and departures; occupancy accounting must never drift.
  const auto region = homogeneous_region(24, 10);
  OnlinePlacer placer(*region);
  model::GeneratorParams params;
  params.clb_min = 4;
  params.clb_max = 16;
  params.bram_blocks_max = 0;
  params.max_height = 5;
  ModuleGenerator generator(params, 17);
  const auto pool = generator.generate_many(6);

  Rng rng(99);
  std::vector<std::pair<int, long>> live;  // (id, area placed)
  long expected = 0;
  int next_id = 0;
  for (int step = 0; step < 300; ++step) {
    if (live.empty() || rng.chance(0.6)) {
      const auto& module = pool[rng.pick_index(pool)];
      const auto placement = placer.place(next_id, module);
      if (placement) {
        const long area =
            module.shapes()[static_cast<std::size_t>(placement->shape)].area();
        live.emplace_back(next_id, area);
        expected += area;
      } else {
        // Rejection must not change state; clean up the failed id space.
        EXPECT_FALSE(placer.is_placed(next_id));
      }
      ++next_id;
    } else {
      const std::size_t pick = rng.pick_index(live);
      placer.remove(live[pick].first);
      expected -= live[pick].second;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    ASSERT_EQ(placer.occupied_tiles(), expected);
    ASSERT_EQ(placer.live_count(), static_cast<int>(live.size()));
  }
}

// A 1-row strip module: `w` tiles wide, one tall.
Module strip_module(const std::string& name, int w) {
  return Module(name, {ModuleGenerator::make_column_shape(w, 0, 1, 1, 0)});
}

TEST(OnlineDefrag, RelocatesLiveModuleToAdmitRequest) {
  // 16x1 strip: A=[0..3], B=[4..7], C=[8..11]; removing B leaves two 4-cell
  // holes. A 6-wide request fits nowhere until defrag moves C into one of
  // the holes, merging [8..15] into a single 8-cell run.
  const auto region = homogeneous_region(16, 1);
  OnlineOptions options;
  options.defrag.deadline_seconds = 5.0;
  OnlinePlacer placer(*region, options);
  ASSERT_TRUE(placer.place(1, strip_module("A", 4)).has_value());
  ASSERT_TRUE(placer.place(2, strip_module("B", 4)).has_value());
  ASSERT_TRUE(placer.place(3, strip_module("C", 4)).has_value());
  placer.remove(2);

  const auto placement = placer.place(4, strip_module("D", 6));
  ASSERT_TRUE(placement.has_value());
  const OnlineDefragStats& stats = placer.defrag_stats();
  EXPECT_EQ(stats.attempts, 1u);
  EXPECT_EQ(stats.successes, 1u);
  EXPECT_EQ(stats.exact_successes, 1u);
  EXPECT_EQ(stats.relocated_modules, 1u);
  EXPECT_EQ(stats.relocated_tiles, 8u);  // C: 4 cleared + 4 written
  EXPECT_EQ(placer.occupied_tiles(), 4 + 4 + 6);
  // Relocation cost follows the no-break copy model.
  EXPECT_EQ(placer.relocation_cost().tiles_cleared, 4);
  EXPECT_EQ(placer.relocation_cost().tiles_written, 4);
  EXPECT_EQ(placer.relocation_cost().modules_loaded, 1);

  // The relocation left a consistent layout (no overlap, exact occupancy).
  EXPECT_EQ(placer.layout().check_invariants(), std::vector<std::string>{});

  // Removing the relocated module frees its *new* footprint.
  placer.remove(3);
  EXPECT_EQ(placer.occupied_tiles(), 4 + 6);
  EXPECT_TRUE(placer.place(5, strip_module("E", 4)).has_value());
}

TEST(OnlineDefrag, DeadlineZeroIsBitIdenticalToFirstFit) {
  // defrag.deadline_seconds == 0 must leave the placer's behavior exactly
  // as before the defrag subsystem existed: every decision on a random
  // churn trace matches a plain placer, event by event.
  const auto region = homogeneous_region(24, 10);
  model::GeneratorParams params;
  params.clb_min = 4;
  params.clb_max = 16;
  params.bram_blocks_max = 0;
  params.max_height = 5;
  ModuleGenerator generator(params, 31);
  const auto pool = generator.generate_many(6);

  OnlineOptions gated;
  gated.defrag.deadline_seconds = 0.0;  // disabled ...
  gated.defrag.max_relocations = 8;     // ... regardless of other knobs
  gated.defrag.relocation_budget_tiles = 0;
  OnlinePlacer plain(*region);
  OnlinePlacer with_knobs(*region, gated);

  Rng rng(71);
  std::vector<int> live;
  int next_id = 0;
  for (int step = 0; step < 300; ++step) {
    if (live.empty() || rng.chance(0.6)) {
      const auto& module = pool[rng.pick_index(pool)];
      const auto a = plain.place(next_id, module);
      const auto b = with_knobs.place(next_id, module);
      ASSERT_EQ(a.has_value(), b.has_value()) << "step " << step;
      if (a) {
        EXPECT_EQ(a->shape, b->shape);
        EXPECT_EQ(a->x, b->x);
        EXPECT_EQ(a->y, b->y);
        live.push_back(next_id);
      }
      ++next_id;
    } else {
      const std::size_t pick = rng.pick_index(live);
      plain.remove(live[pick]);
      with_knobs.remove(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    ASSERT_EQ(plain.occupied_tiles(), with_knobs.occupied_tiles());
  }
  const OnlineDefragStats& stats = with_knobs.defrag_stats();
  EXPECT_EQ(stats.attempts, 0u);
  EXPECT_EQ(stats.budget_skips, 0u);
  EXPECT_EQ(stats.retry_skips, 0u);
}

TEST(OnlineDefrag, RetryGateSkipsUnchangedState) {
  // 8x1 strip completely full: a doomed request triggers exactly one defrag
  // pass; retrying against unchanged state is gated off, and a state change
  // (remove) re-arms the gate.
  const auto region = homogeneous_region(8, 1);
  OnlineOptions options;
  options.defrag.deadline_seconds = 5.0;
  OnlinePlacer placer(*region, options);
  ASSERT_TRUE(placer.place(1, strip_module("A", 4)).has_value());
  ASSERT_TRUE(placer.place(2, strip_module("B", 4)).has_value());

  EXPECT_EQ(placer.place(3, strip_module("C", 4)), std::nullopt);
  EXPECT_EQ(placer.defrag_stats().attempts, 1u);
  EXPECT_EQ(placer.defrag_stats().rejects, 1u);

  EXPECT_EQ(placer.place(4, strip_module("C", 4)), std::nullopt);
  EXPECT_EQ(placer.defrag_stats().attempts, 1u);  // gated: no second pass
  EXPECT_EQ(placer.defrag_stats().retry_skips, 1u);

  placer.remove(1);  // state changed: the gate re-arms
  EXPECT_TRUE(placer.place(5, strip_module("C", 4)).has_value());
}

TEST(OnlineDefrag, RelocationBudgetZeroDisablesPasses) {
  const auto region = homogeneous_region(16, 1);
  OnlineOptions options;
  options.defrag.deadline_seconds = 5.0;
  options.defrag.relocation_budget_tiles = 0;  // budget already spent
  OnlinePlacer placer(*region, options);
  ASSERT_TRUE(placer.place(1, strip_module("A", 4)).has_value());
  ASSERT_TRUE(placer.place(2, strip_module("B", 4)).has_value());
  ASSERT_TRUE(placer.place(3, strip_module("C", 4)).has_value());
  placer.remove(2);

  EXPECT_EQ(placer.place(4, strip_module("D", 6)), std::nullopt);
  EXPECT_EQ(placer.defrag_stats().attempts, 0u);
  EXPECT_EQ(placer.defrag_stats().budget_skips, 1u);
}

TEST(OnlineDefrag, RaisesAcceptanceUnderChurn) {
  // On an identical churn trace, the defrag-enabled placer accepts at
  // least as many requests — and on this fragmenting trace strictly more.
  const auto region = homogeneous_region(20, 8);
  model::GeneratorParams params;
  params.clb_min = 8;
  params.clb_max = 24;
  params.bram_blocks_max = 0;
  params.max_height = 7;
  params.min_height = 4;
  ModuleGenerator generator(params, 23);
  const auto pool = generator.generate_many(5);

  // After the first relocation the two trajectories diverge, so a single
  // seed can go either way; the service-level claim is about the aggregate.
  long accepted[2] = {0, 0};
  std::uint64_t defrag_successes = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    for (const bool defrag : {false, true}) {
      OnlineOptions options;
      if (defrag) options.defrag.deadline_seconds = 5.0;
      OnlinePlacer placer(*region, options);
      Rng rng(seed);  // identical trace for both configurations
      std::vector<int> live;
      int next_id = 0;
      for (int step = 0; step < 200; ++step) {
        if (live.empty() || rng.chance(0.55)) {
          const auto& module = pool[rng.pick_index(pool)];
          if (placer.place(next_id, module)) {
            live.push_back(next_id);
            ++accepted[defrag];
          }
          ++next_id;
        } else {
          const std::size_t pick = rng.pick_index(live);
          placer.remove(live[pick]);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        }
      }
      if (defrag) defrag_successes += placer.defrag_stats().successes;
    }
  }
  EXPECT_GT(defrag_successes, 0u);
  EXPECT_GT(accepted[1], accepted[0]);
}

TEST(OnlinePlacer, AcceptanceRatioStudyUnderChurn) {
  // The service-level claim, in miniature: with alternatives the online
  // placer accepts at least as many requests as without, on the same
  // arrival/departure trace.
  const auto region = homogeneous_region(20, 8);
  model::GeneratorParams params;
  params.clb_min = 8;
  params.clb_max = 24;
  params.bram_blocks_max = 0;
  params.max_height = 7;
  params.min_height = 4;
  ModuleGenerator generator(params, 23);
  const auto pool = generator.generate_many(5);

  int accepted[2] = {0, 0};
  for (const bool alternatives : {false, true}) {
    OnlineOptions options;
    options.use_alternatives = alternatives;
    OnlinePlacer placer(*region, options);
    Rng rng(5);  // identical trace for both configurations
    std::vector<int> live;
    int next_id = 0;
    for (int step = 0; step < 200; ++step) {
      if (live.empty() || rng.chance(0.55)) {
        const auto& module = pool[rng.pick_index(pool)];
        if (placer.place(next_id, module)) {
          live.push_back(next_id);
          ++accepted[alternatives];
        }
        ++next_id;
      } else {
        const std::size_t pick = rng.pick_index(live);
        placer.remove(live[pick]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }
  }
  EXPECT_GE(accepted[1], accepted[0]);
  EXPECT_GT(accepted[0], 0);
}

}  // namespace
}  // namespace rr::baseline
