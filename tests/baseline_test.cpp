// Baseline placers: greedy bottom-left and simulated annealing.
#include <gtest/gtest.h>

#include <set>

#include "baseline/annealing.hpp"
#include "baseline/greedy.hpp"
#include "baseline/slots.hpp"
#include "fpga/builders.hpp"
#include "model/generator.hpp"
#include "placer/metrics.hpp"
#include "placer/placer.hpp"
#include "placer/validator.hpp"

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

std::vector<Module> random_workload(int count, std::uint64_t seed) {
  model::GeneratorParams params;
  params.clb_min = 6;
  params.clb_max = 24;
  params.bram_blocks_max = 0;
  params.max_height = 6;
  return ModuleGenerator(params, seed).generate_many(count);
}

TEST(Greedy, ProducesValidPlacement) {
  const auto region = homogeneous_region(24, 8);
  const auto modules = random_workload(6, 3);
  const auto outcome = place_greedy(*region, modules);
  ASSERT_TRUE(outcome.solution.feasible);
  EXPECT_TRUE(placer::validate(*region, modules, outcome.solution).ok());
  EXPECT_GT(outcome.solution.extent, 0);
}

TEST(Greedy, PacksPerfectInstancePerfectly) {
  // First-fit decreasing on equal squares tiles the region exactly.
  const auto region = homogeneous_region(8, 4);
  std::vector<Module> modules;
  for (int i = 0; i < 8; ++i)
    modules.push_back(
        rect_module(std::string("m").append(std::to_string(i)), 2, 2));
  const auto outcome = place_greedy(*region, modules);
  ASSERT_TRUE(outcome.solution.feasible);
  EXPECT_EQ(outcome.solution.extent, 8);
  EXPECT_DOUBLE_EQ(
      placer::spanned_utilization(*region, modules, outcome.solution), 1.0);
}

TEST(Greedy, InfeasibleWhenModuleCannotFit) {
  const auto region = homogeneous_region(4, 4);
  const std::vector<Module> modules{rect_module("big", 5, 1)};
  const auto outcome = place_greedy(*region, modules);
  EXPECT_FALSE(outcome.solution.feasible);
}

TEST(Greedy, InputOrderDiffersFromDecreasing) {
  // A small module first can block the bottom-left corner for a large one.
  const auto region = homogeneous_region(8, 3);
  const std::vector<Module> modules{rect_module("small", 1, 1),
                                    rect_module("large", 3, 3)};
  GreedyOptions input_order;
  input_order.order = GreedyOrder::kInputOrder;
  const auto by_input = place_greedy(*region, modules, input_order);
  const auto by_area = place_greedy(*region, modules);
  ASSERT_TRUE(by_input.solution.feasible);
  ASSERT_TRUE(by_area.solution.feasible);
  // Decreasing-area order puts the large module at x=0.
  EXPECT_EQ(by_area.solution.placements[1].x, 0);
  EXPECT_GE(by_input.solution.extent, by_area.solution.extent);
}

TEST(Greedy, WithoutAlternativesUsesBaseShapeOnly) {
  const auto region = homogeneous_region(6, 2);
  const Module rotatable(
      "rot", {ModuleGenerator::make_column_shape(4, 0, 1, 4, 0),   // 1x4
              ModuleGenerator::make_column_shape(4, 0, 1, 1, 0)}); // 4x1
  const std::vector<Module> modules{rotatable};
  GreedyOptions with;
  const auto a = place_greedy(*region, modules, with);
  ASSERT_TRUE(a.solution.feasible);  // uses the 4x1 alternative
  EXPECT_EQ(a.solution.placements[0].shape, 1);
  GreedyOptions without;
  without.use_alternatives = false;
  const auto b = place_greedy(*region, modules, without);
  EXPECT_FALSE(b.solution.feasible);  // 1x4 cannot fit height 2
}

TEST(Greedy, NeverBeatsCpPlacer) {
  // Region sized above the worst-case workload area (8 x 24 cells).
  const auto region = homogeneous_region(32, 8);
  const auto modules = random_workload(8, 11);
  const auto greedy = place_greedy(*region, modules);
  placer::PlacerOptions options;
  options.time_limit_seconds = 3.0;
  const auto cp = placer::Placer(*region, modules, options).place();
  ASSERT_TRUE(greedy.solution.feasible);
  ASSERT_TRUE(cp.solution.feasible);
  EXPECT_LE(cp.solution.extent, greedy.solution.extent);
}

TEST(Slots, OneModulePerSlotRun) {
  // 12x4 region, slot width 4: three slots. Three 2x2 modules get one slot
  // each (no vertical stacking in slot-style placement).
  const auto region = homogeneous_region(12, 4);
  std::vector<Module> modules;
  for (int i = 0; i < 3; ++i)
    modules.push_back(
        rect_module(std::string("m").append(std::to_string(i)), 2, 2));
  SlotOptions options;
  options.slot_width = 4;
  const auto outcome = place_slots(*region, modules, options);
  ASSERT_TRUE(outcome.solution.feasible);
  EXPECT_EQ(outcome.solution.extent, 12);  // all three slots reserved
  EXPECT_TRUE(placer::validate(*region, modules, outcome.solution).ok());
  std::set<int> xs;
  for (const auto& p : outcome.solution.placements) xs.insert(p.x);
  EXPECT_EQ(xs, (std::set<int>{0, 4, 8}));  // slot-boundary anchors
}

TEST(Slots, WideModuleSpansMultipleSlots) {
  const auto region = homogeneous_region(12, 4);
  const std::vector<Module> modules{rect_module("wide", 6, 2),
                                    rect_module("small", 2, 2)};
  SlotOptions options;
  options.slot_width = 4;
  const auto outcome = place_slots(*region, modules, options);
  ASSERT_TRUE(outcome.solution.feasible);
  // wide takes slots 0-1, small slot 2.
  EXPECT_EQ(outcome.solution.placements[0].x, 0);
  EXPECT_EQ(outcome.solution.placements[1].x, 8);
  EXPECT_EQ(outcome.solution.extent, 12);
}

TEST(Slots, InfeasibleWhenSlotsRunOut) {
  const auto region = homogeneous_region(8, 4);
  std::vector<Module> modules;
  for (int i = 0; i < 3; ++i)
    modules.push_back(
        rect_module(std::string("m").append(std::to_string(i)), 2, 2));
  SlotOptions options;
  options.slot_width = 4;  // only two slots
  EXPECT_FALSE(place_slots(*region, modules, options).solution.feasible);
}

TEST(Slots, NeverBeatsTwoDimensionalGreedy) {
  // Slot-granular reservation cannot span fewer columns than free 2-D
  // bottom-left placement of the same workload.
  const auto region = homogeneous_region(36, 8);
  const auto modules = random_workload(6, 19);
  SlotOptions options;
  options.slot_width = 6;
  const auto slots = place_slots(*region, modules, options);
  const auto greedy = place_greedy(*region, modules);
  ASSERT_TRUE(greedy.solution.feasible);
  if (slots.solution.feasible) {
    EXPECT_GE(slots.solution.extent, greedy.solution.extent);
  }
}

TEST(Annealing, ProducesValidPlacement) {
  const auto region = homogeneous_region(24, 8);
  const auto modules = random_workload(6, 4);
  AnnealingOptions options;
  options.time_limit_seconds = 1.0;
  options.seed = 9;
  const auto outcome = place_annealing(*region, modules, options);
  ASSERT_TRUE(outcome.solution.feasible);
  EXPECT_TRUE(placer::validate(*region, modules, outcome.solution).ok());
}

TEST(Annealing, InfeasibleWhenModuleCannotFit) {
  const auto region = homogeneous_region(4, 4);
  const std::vector<Module> modules{rect_module("big", 5, 1)};
  AnnealingOptions options;
  options.time_limit_seconds = 0.2;
  const auto outcome = place_annealing(*region, modules, options);
  EXPECT_FALSE(outcome.solution.feasible);
}

TEST(Annealing, AtLeastAsGoodAsItsGreedySeed) {
  const auto region = homogeneous_region(32, 8);
  const auto modules = random_workload(8, 13);
  const auto greedy = place_greedy(*region, modules);
  AnnealingOptions options;
  options.time_limit_seconds = 1.0;
  options.seed = 17;
  const auto annealed = place_annealing(*region, modules, options);
  ASSERT_TRUE(greedy.solution.feasible);
  ASSERT_TRUE(annealed.solution.feasible);
  EXPECT_LE(annealed.solution.extent, greedy.solution.extent);
}

TEST(Annealing, DeterministicPerSeed) {
  const auto region = homogeneous_region(16, 6);
  const auto modules = random_workload(5, 21);
  AnnealingOptions options;
  options.time_limit_seconds = 0.0;  // unlimited; cooling terminates
  options.initial_temperature = 2.0;
  options.cooling = 0.8;
  options.moves_per_round_per_module = 10;
  options.seed = 33;
  const auto a = place_annealing(*region, modules, options);
  const auto b = place_annealing(*region, modules, options);
  ASSERT_EQ(a.solution.feasible, b.solution.feasible);
  if (a.solution.feasible) {
    EXPECT_EQ(a.solution.extent, b.solution.extent);
    for (std::size_t i = 0; i < a.solution.placements.size(); ++i) {
      EXPECT_EQ(a.solution.placements[i].x, b.solution.placements[i].x);
      EXPECT_EQ(a.solution.placements[i].y, b.solution.placements[i].y);
      EXPECT_EQ(a.solution.placements[i].shape, b.solution.placements[i].shape);
    }
  }
}

}  // namespace
}  // namespace rr::baseline
