// Compaction / defragmentation and the per-resource utilization breakdown.
#include <gtest/gtest.h>

#include "baseline/greedy.hpp"
#include "baseline/online.hpp"
#include "fpga/builders.hpp"
#include "model/generator.hpp"
#include "placer/compaction.hpp"
#include "placer/metrics.hpp"
#include "placer/validator.hpp"
#include "util/rng.hpp"

namespace rr::placer {
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

TEST(Compaction, ShrinksASpreadOutPlacement) {
  const auto region = homogeneous_region(16, 4);
  std::vector<Module> modules;
  for (int i = 0; i < 4; ++i)
    modules.push_back(
        rect_module(std::string("m").append(std::to_string(i)), 2, 2));
  // Hand-spread placement: one module per column group.
  PlacementSolution spread;
  spread.feasible = true;
  for (int i = 0; i < 4; ++i)
    spread.placements.push_back(ModulePlacement{i, 0, i * 4, 0});
  spread.extent = 14;
  ASSERT_TRUE(validate(*region, modules, spread).ok());

  CompactionOptions options;
  options.time_limit_seconds = 3.0;
  const CompactionResult result =
      compact(*region, modules, spread, options);
  EXPECT_EQ(result.extent_before, 14);
  EXPECT_EQ(result.extent_after, 4);  // area bound: 16 cells / height 4
  EXPECT_TRUE(result.optimal);
  EXPECT_GT(result.relocated, 0);
  EXPECT_TRUE(validate(*region, modules, result.solution).ok());
}

TEST(Compaction, NeverWorsensAnAlreadyTightPlacement) {
  const auto region = homogeneous_region(4, 4);
  std::vector<Module> modules;
  for (int i = 0; i < 4; ++i)
    modules.push_back(
        rect_module(std::string("m").append(std::to_string(i)), 2, 2));
  PlacementSolution tight;
  tight.feasible = true;
  tight.placements = {{0, 0, 0, 0}, {1, 0, 2, 0}, {2, 0, 0, 2}, {3, 0, 2, 2}};
  tight.extent = 4;
  const CompactionResult result = compact(*region, modules, tight,
                                          CompactionOptions{0.2, true, 1});
  EXPECT_EQ(result.extent_after, 4);
  EXPECT_TRUE(result.optimal);
  EXPECT_TRUE(validate(*region, modules, result.solution).ok());
}

TEST(Compaction, RejectsInvalidInput) {
  const auto region = homogeneous_region(4, 4);
  const std::vector<Module> modules{rect_module("a", 2, 2)};
  PlacementSolution bad;
  bad.feasible = true;
  bad.placements = {{0, 0, 3, 3}};  // pokes out of the region
  bad.extent = 5;
  EXPECT_THROW(compact(*region, modules, bad), InvalidInput);
}

TEST(Compaction, DefragmentsAfterOnlineChurn) {
  // Produce a fragmented layout by churning the online placer, then
  // compact the survivors.
  const auto region = homogeneous_region(24, 6);
  model::GeneratorParams params;
  params.clb_min = 4;
  params.clb_max = 12;
  params.bram_blocks_max = 0;
  params.max_height = 4;
  ModuleGenerator generator(params, 7);
  const auto pool = generator.generate_many(6);

  baseline::OnlinePlacer online(*region);
  Rng rng(42);
  std::vector<std::pair<int, int>> live;  // (instance id, pool index)
  int next_id = 0;
  for (int step = 0; step < 120; ++step) {
    if (live.empty() || rng.chance(0.55)) {
      const std::size_t pick = rng.pick_index(pool);
      if (online.place(next_id, pool[pick]))
        live.emplace_back(next_id, static_cast<int>(pick));
      ++next_id;
    } else {
      const std::size_t pick = rng.pick_index(live);
      online.remove(live[pick].first);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  ASSERT_GE(live.size(), 2u) << "churn left too few modules to compact";

  // Snapshot the survivors as a placement problem. (The online placer does
  // not expose positions, so re-place survivors greedily for the snapshot.)
  std::vector<Module> modules;
  for (const auto& [id, pool_index] : live)
    modules.push_back(pool[static_cast<std::size_t>(pool_index)]);
  const auto greedy = baseline::place_greedy(*region, modules);
  ASSERT_TRUE(greedy.solution.feasible);
  const CompactionResult result = compact(
      *region, modules, greedy.solution, CompactionOptions{1.0, true, 3});
  EXPECT_LE(result.extent_after, result.extent_before);
  EXPECT_TRUE(validate(*region, modules, result.solution).ok());
}

TEST(Metrics, ResourceBreakdownSeparatesTypes) {
  // 6x2 fabric with a BRAM column at x=2; module uses 2 BRAM + 4 CLB.
  auto fabric = std::make_shared<const fpga::Fabric>([] {
    fpga::Fabric f(6, 2);
    f.set_column(2, fpga::ResourceType::kBram);
    return f;
  }());
  const fpga::PartialRegion region(fabric);
  const Module m("m", {ModuleGenerator::make_column_shape(4, 1, 2, 2, 0)});
  const std::vector<Module> modules{m};
  PlacementSolution solution;
  solution.feasible = true;
  solution.placements = {{0, 0, 2, 0}};  // BRAM column on x=2
  solution.extent = 5;
  const auto breakdown =
      resource_utilization_breakdown(region, modules, solution);
  // Span columns 0..4: 8 CLB tiles offered, 4 used; 2 BRAM offered, 2 used.
  EXPECT_DOUBLE_EQ(breakdown[static_cast<int>(fpga::ResourceType::kClb)],
                   0.5);
  EXPECT_DOUBLE_EQ(breakdown[static_cast<int>(fpga::ResourceType::kBram)],
                   1.0);
  EXPECT_DOUBLE_EQ(breakdown[static_cast<int>(fpga::ResourceType::kDsp)],
                   0.0);
}

TEST(Metrics, ResourceBreakdownInfeasibleIsZero) {
  const auto region = homogeneous_region(4, 4);
  const std::vector<Module> modules{rect_module("a", 2, 2)};
  const auto breakdown =
      resource_utilization_breakdown(*region, modules, PlacementSolution{});
  for (const double v : breakdown) EXPECT_DOUBLE_EQ(v, 0.0);
}

}  // namespace
}  // namespace rr::placer
