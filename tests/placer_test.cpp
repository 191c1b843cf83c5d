// Placer tests: model building, optimality on brute-forceable instances,
// metrics, the validator, LNS and the solver modes.
#include <gtest/gtest.h>

#include "baseline/greedy.hpp"
#include "fpga/builders.hpp"
#include "model/generator.hpp"
#include "placer/lns.hpp"
#include "placer/metrics.hpp"
#include "placer/placer.hpp"
#include "placer/validator.hpp"

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

/// Module with two alternatives: w x h and h x w.
Module rotatable_module(const std::string& name, int w, int h) {
  return Module(name, {ModuleGenerator::make_column_shape(w * h, 0, 1, h, 0),
                       ModuleGenerator::make_column_shape(w * h, 0, 1, w, 0)});
}

TEST(ModelBuilder, BuildsExpectedStructure) {
  const auto region = homogeneous_region(6, 4);
  const std::vector<Module> modules{rect_module("a", 2, 2),
                                    rect_module("b", 3, 2)};
  const BuiltModel model = build_model(*region, modules);
  EXPECT_FALSE(model.infeasible);
  ASSERT_EQ(model.objects.size(), 2u);
  EXPECT_EQ(model.placement_vars.size(), 2u);
  EXPECT_EQ(model.extent_vars.size(), 2u);
  EXPECT_NE(model.objective, cp::kNoVar);
  // a: (6-2+1)*(4-2+1) = 15 anchors; b: 4*3 = 12.
  EXPECT_EQ(model.objects[0].table().size(), 15u);
  EXPECT_EQ(model.objects[1].table().size(), 12u);
}

TEST(ModelBuilder, AreaBoundTightensObjective) {
  const auto region = homogeneous_region(10, 2);
  // Two 2x2 modules: 8 cells over height 2 -> extent >= 4.
  const std::vector<Module> modules{rect_module("a", 2, 2),
                                    rect_module("b", 2, 2)};
  BuildOptions options;
  options.area_bound = true;
  const BuiltModel model = build_model(*region, modules, options);
  ASSERT_TRUE(model.space->propagate());
  EXPECT_GE(model.space->min(model.objective), 4);
}

TEST(ModelBuilder, UnplaceableModuleMarksInfeasible) {
  const auto region = homogeneous_region(3, 3);
  const std::vector<Module> modules{rect_module("big", 5, 2)};
  const BuiltModel model = build_model(*region, modules);
  EXPECT_TRUE(model.infeasible);
  EXPECT_TRUE(model.space->failed());
}

TEST(ModelBuilder, OverfullRegionMarksInfeasible) {
  const auto region = homogeneous_region(3, 3);
  std::vector<Module> modules;
  for (int i = 0; i < 4; ++i)
    modules.push_back(
        rect_module(std::string("m").append(std::to_string(i)), 2, 2));
  const BuiltModel model = build_model(*region, modules);  // 16 > 9 cells
  EXPECT_TRUE(model.infeasible);
}

TEST(ModelBuilder, TablesCacheMatchesDirectBuild) {
  const auto region = homogeneous_region(6, 4);
  const std::vector<Module> modules{rect_module("a", 2, 2)};
  const auto tables = prepare_tables(*region, modules, true);
  ASSERT_EQ(tables.size(), 1u);
  EXPECT_EQ(tables[0].table.size(), 15u);
  EXPECT_EQ(tables[0].extents.size(), 15u);
  EXPECT_EQ(tables[0].min_area, 4);
  const BuiltModel model = build_model_from_tables(*region, tables);
  EXPECT_EQ(model.objects[0].table().size(), 15u);
}

TEST(Placer, OptimalOnTinyInstanceMatchesExhaustive) {
  // 4x4 region, two 2x2 squares and one 4x2 bar: optimal extent is 4
  // (bar vertical impossible - it is 4 wide x 2 tall; stack squares left,
  // bar on rows? Exhaustive reasoning: total area 16 = region -> extent 4).
  const auto region = homogeneous_region(4, 4);
  const std::vector<Module> modules{rect_module("s1", 2, 2),
                                    rect_module("s2", 2, 2),
                                    rect_module("bar", 4, 2)};
  PlacerOptions options;
  options.mode = PlacerMode::kBranchAndBound;
  options.time_limit_seconds = 10.0;
  Placer placer(*region, modules, options);
  const PlacementOutcome outcome = placer.place();
  ASSERT_TRUE(outcome.solution.feasible);
  EXPECT_TRUE(outcome.optimal);
  EXPECT_EQ(outcome.solution.extent, 4);
  EXPECT_TRUE(validate(*region, modules, outcome.solution).ok());
  EXPECT_DOUBLE_EQ(
      spanned_utilization(*region, modules, outcome.solution), 1.0);
}

TEST(Placer, AlternativesReduceExtent) {
  // Region 8x2. One 4x2 module and one 2x4/4x2 rotatable module: without
  // alternatives (4x2 base... choose base 2x4 which cannot fit the height-2
  // region at all) -- so construct carefully: base is 1x4 (too tall),
  // alternative is 4x1.
  const auto region = homogeneous_region(8, 2);
  const Module fixed = rect_module("fixed", 4, 2);
  const Module rotatable = rotatable_module("rot", 4, 1);  // 4x1 and 1x4
  const std::vector<Module> modules{fixed, rotatable};
  PlacerOptions with;
  with.mode = PlacerMode::kBranchAndBound;
  with.time_limit_seconds = 5.0;
  const PlacementOutcome a = Placer(*region, modules, with).place();
  ASSERT_TRUE(a.solution.feasible);
  EXPECT_TRUE(validate(*region, modules, a.solution).ok());

  PlacerOptions without = with;
  without.use_alternatives = false;
  const PlacementOutcome b = Placer(*region, modules, without).place();
  // The base shape of "rot" is 4x1 -> still feasible, but any alternative
  // placement is at least as good with alternatives enabled.
  ASSERT_TRUE(b.solution.feasible);
  EXPECT_LE(a.solution.extent, b.solution.extent);
}

TEST(Placer, InfeasibleOutcomeReported) {
  const auto region = homogeneous_region(3, 2);
  const std::vector<Module> modules{rect_module("big", 3, 3)};
  PlacerOptions options;
  Placer placer(*region, modules, options);
  const PlacementOutcome outcome = placer.place();
  EXPECT_FALSE(outcome.solution.feasible);
  EXPECT_TRUE(outcome.optimal);  // proven infeasible
}

TEST(Placer, HeterogeneousResourceMatching) {
  // BRAM column at x=2. A module with a BRAM column must land on it.
  auto fabric = std::make_shared<const fpga::Fabric>([] {
    fpga::Fabric f(8, 4);
    f.set_column(2, fpga::ResourceType::kBram);
    return f;
  }());
  const auto region = std::make_shared<fpga::PartialRegion>(fabric);
  const Module m("mem", {ModuleGenerator::make_column_shape(
                     6, 1, 2, 3, 0)});  // BRAM col + 2 CLB cols, height 3
  const std::vector<Module> modules{m};
  Placer placer(*region, modules, {});
  const PlacementOutcome outcome = placer.place();
  ASSERT_TRUE(outcome.solution.feasible);
  EXPECT_EQ(outcome.solution.placements[0].x, 2);  // anchored on the column
  EXPECT_TRUE(validate(*region, modules, outcome.solution).ok());
}

TEST(Placer, ModesAgreeOnSmallInstances) {
  const auto region = homogeneous_region(6, 4);
  const std::vector<Module> modules{rect_module("a", 2, 2),
                                    rect_module("b", 2, 2),
                                    rect_module("c", 2, 4)};
  int extents[4];
  int i = 0;
  for (const PlacerMode mode :
       {PlacerMode::kBranchAndBound, PlacerMode::kLns, PlacerMode::kAuto,
        PlacerMode::kRestarts}) {
    PlacerOptions options;
    options.mode = mode;
    options.time_limit_seconds = 5.0;
    const PlacementOutcome outcome =
        Placer(*region, modules, options).place();
    ASSERT_TRUE(outcome.solution.feasible);
    EXPECT_TRUE(validate(*region, modules, outcome.solution).ok());
    extents[i++] = outcome.solution.extent;
  }
  // Area bound: 4+4+8 = 16 cells over height 4 -> extent 4 is optimal,
  // and every mode must reach it on so small an instance.
  EXPECT_EQ(extents[0], 4);
  EXPECT_EQ(extents[1], 4);
  EXPECT_EQ(extents[2], 4);
  EXPECT_EQ(extents[3], 4);
}

TEST(Placer, PortfolioMatchesSequentialOptimum) {
  const auto region = homogeneous_region(6, 4);
  const std::vector<Module> modules{rect_module("a", 3, 2),
                                    rect_module("b", 3, 2),
                                    rect_module("c", 2, 2)};
  PlacerOptions sequential;
  sequential.mode = PlacerMode::kBranchAndBound;
  sequential.time_limit_seconds = 5.0;
  const PlacementOutcome s = Placer(*region, modules, sequential).place();
  PlacerOptions parallel = sequential;
  parallel.workers = 3;
  const PlacementOutcome p = Placer(*region, modules, parallel).place();
  ASSERT_TRUE(s.solution.feasible);
  ASSERT_TRUE(p.solution.feasible);
  EXPECT_TRUE(s.optimal);
  EXPECT_TRUE(p.optimal);
  EXPECT_EQ(s.solution.extent, p.solution.extent);
  EXPECT_TRUE(validate(*region, modules, p.solution).ok());
}

TEST(Placer, ParallelWorkersHonorLnsModes) {
  // Regression: workers > 1 used to silently force a pure-B&B portfolio,
  // discarding the requested mode. kLns and kAuto must now run the
  // portfolio exact phase followed by LNS and still reach the optimum on a
  // small instance.
  const auto region = homogeneous_region(6, 4);
  const std::vector<Module> modules{rect_module("a", 2, 2),
                                    rect_module("b", 2, 2),
                                    rect_module("c", 2, 4)};
  for (const PlacerMode mode : {PlacerMode::kLns, PlacerMode::kAuto}) {
    PlacerOptions options;
    options.mode = mode;
    options.workers = 2;
    options.time_limit_seconds = 5.0;
    const PlacementOutcome outcome =
        Placer(*region, modules, options).place();
    ASSERT_TRUE(outcome.solution.feasible);
    EXPECT_TRUE(validate(*region, modules, outcome.solution).ok());
    EXPECT_EQ(outcome.solution.extent, 4);  // area bound, see ModesAgree
  }
}

TEST(Placer, RestartsModeRejectsMultipleWorkers) {
  // kRestarts has no portfolio variant; asking for one must fail loudly at
  // construction instead of silently running something else.
  const auto region = homogeneous_region(6, 4);
  const std::vector<Module> modules{rect_module("a", 2, 2)};
  PlacerOptions options;
  options.mode = PlacerMode::kRestarts;
  options.workers = 2;
  EXPECT_THROW(Placer(*region, modules, options), InvalidInput);
}

TEST(Lns, ImprovesAGreedyIncumbent) {
  // A workload where bottom-left greedy is suboptimal and LNS must close
  // the gap to the area bound: 8 modules on a tight region.
  const auto region = homogeneous_region(12, 6);
  std::vector<Module> modules;
  for (int i = 0; i < 6; ++i)
    modules.push_back(
        rect_module(std::string("s").append(std::to_string(i)), 2, 3));
  // total area: 6*6 = 36 cells over height 6 -> bound 6, achievable by
  // tiling three column pairs with two stacked modules each.
  const auto tables = prepare_tables(*region, modules, true);
  // Deliberately poor incumbent: modules spread to the right.
  std::vector<int> incumbent;
  for (const ModuleTables& t : tables)
    incumbent.push_back(static_cast<int>(t.table.size()) - 1);
  LnsOptions options;
  options.seed = 5;
  const LnsResult result = improve_lns(*region, tables, incumbent, {},
                                       options, Deadline(5.0));
  EXPECT_TRUE(result.found);
  EXPECT_GT(result.iterations, 0);
  EXPECT_EQ(result.extent, 6);
  EXPECT_TRUE(result.optimal);  // reached the area bound
}

TEST(Lns, RejectsArityMismatch) {
  const auto region = homogeneous_region(4, 4);
  const std::vector<Module> modules{rect_module("a", 2, 2)};
  const auto tables = prepare_tables(*region, modules, true);
  EXPECT_THROW(
      improve_lns(*region, tables, std::vector<int>{}, {}, {}, Deadline(1.0)),
      InvalidInput);
}

TEST(ModelBuilder, SymmetryBreakingRemovesPermutations) {
  // Two identical squares on a 4x2 strip: placements x in {0,1,2}, the only
  // packings are {0,2} — one per ordering. Symmetry breaking keeps exactly
  // one representative.
  const auto region = homogeneous_region(4, 2);
  std::vector<Module> modules;
  for (int i = 0; i < 2; ++i)
    modules.push_back(
        rect_module(std::string("m").append(std::to_string(i)), 2, 2));

  auto count_solutions = [&](bool break_symmetries) {
    BuildOptions build;
    build.break_symmetries = break_symmetries;
    build.area_bound = false;  // satisfaction: count everything
    BuiltModel model = build_model(*region, modules, build);
    cp::BasicBrancher brancher(model.placement_vars,
                               cp::VarSelect::kInputOrder,
                               cp::ValSelect::kMin);
    cp::Search search(*model.space, brancher, {});
    int solutions = 0;
    while (search.next()) ++solutions;
    return solutions;
  };
  EXPECT_EQ(count_solutions(false), 2);  // (0,2) and (2,0)
  EXPECT_EQ(count_solutions(true), 1);   // only the ordered one
}

// --- Validator --------------------------------------------------------------

TEST(Validator, AcceptsSolverOutput) {
  const auto region = homogeneous_region(6, 4);
  const std::vector<Module> modules{rect_module("a", 2, 2),
                                    rect_module("b", 3, 2)};
  const PlacementOutcome outcome = Placer(*region, modules, {}).place();
  ASSERT_TRUE(outcome.solution.feasible);
  EXPECT_TRUE(validate(*region, modules, outcome.solution).ok());
}

TEST(Validator, DetectsOverlap) {
  const auto region = homogeneous_region(6, 4);
  const std::vector<Module> modules{rect_module("a", 2, 2),
                                    rect_module("b", 2, 2)};
  PlacementSolution bad;
  bad.feasible = true;
  bad.placements = {{0, 0, 0, 0}, {1, 0, 1, 1}};
  bad.extent = 3;
  const auto report = validate(*region, modules, bad);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.errors.front().find("overlap"), std::string::npos);
}

TEST(Validator, DetectsOutOfRegion) {
  const auto region = homogeneous_region(4, 4);
  const std::vector<Module> modules{rect_module("a", 2, 2)};
  PlacementSolution bad;
  bad.feasible = true;
  bad.placements = {{0, 0, 3, 3}};
  bad.extent = 5;
  EXPECT_FALSE(validate(*region, modules, bad).ok());
}

TEST(Validator, DetectsResourceMismatch) {
  auto fabric = std::make_shared<const fpga::Fabric>([] {
    fpga::Fabric f(4, 4);
    f.set_column(1, fpga::ResourceType::kBram);
    return f;
  }());
  const auto region = std::make_shared<fpga::PartialRegion>(fabric);
  const std::vector<Module> modules{rect_module("a", 2, 2)};
  PlacementSolution bad;
  bad.feasible = true;
  bad.placements = {{0, 0, 0, 0}};  // covers the BRAM column with CLB cells
  bad.extent = 2;
  const auto report = validate(*region, modules, bad);
  EXPECT_FALSE(report.ok());
}

TEST(Validator, DetectsWrongExtentAndMissingModules) {
  const auto region = homogeneous_region(6, 4);
  const std::vector<Module> modules{rect_module("a", 2, 2)};
  PlacementSolution wrong_extent;
  wrong_extent.feasible = true;
  wrong_extent.placements = {{0, 0, 2, 0}};  // actual extent 4
  wrong_extent.extent = 3;                   // under-reported: invalid
  EXPECT_FALSE(validate(*region, modules, wrong_extent).ok());
  wrong_extent.extent = 5;  // over-reservation is legal (slot style)
  EXPECT_TRUE(validate(*region, modules, wrong_extent).ok());

  PlacementSolution missing;
  missing.feasible = true;
  EXPECT_FALSE(validate(*region, modules, missing).ok());
}

TEST(Validator, RejectsInfeasibleFlag) {
  const auto region = homogeneous_region(4, 4);
  const std::vector<Module> modules{rect_module("a", 2, 2)};
  EXPECT_FALSE(validate(*region, modules, PlacementSolution{}).ok());
}

// --- Metrics ----------------------------------------------------------------

TEST(Metrics, UtilizationOfPerfectPacking) {
  const auto region = homogeneous_region(4, 2);
  const std::vector<Module> modules{rect_module("a", 2, 2),
                                    rect_module("b", 2, 2)};
  PlacementSolution solution;
  solution.feasible = true;
  solution.placements = {{0, 0, 0, 0}, {1, 0, 2, 0}};
  solution.extent = 4;
  EXPECT_DOUBLE_EQ(spanned_utilization(*region, modules, solution), 1.0);
  EXPECT_DOUBLE_EQ(region_utilization(*region, modules, solution), 1.0);
  EXPECT_DOUBLE_EQ(fragmentation(*region, modules, solution), 0.0);
  EXPECT_EQ(placed_area(modules, solution), 8);
}

TEST(Metrics, UtilizationCountsOnlySpannedColumns) {
  const auto region = homogeneous_region(8, 2);
  const std::vector<Module> modules{rect_module("a", 2, 2)};
  PlacementSolution solution;
  solution.feasible = true;
  solution.placements = {{0, 0, 0, 0}};
  solution.extent = 2;
  EXPECT_DOUBLE_EQ(spanned_utilization(*region, modules, solution), 1.0);
  EXPECT_DOUBLE_EQ(region_utilization(*region, modules, solution), 0.25);
}

TEST(Metrics, FragmentationDistinguishesScatter) {
  const auto region = homogeneous_region(4, 4);
  const std::vector<Module> modules{rect_module("a", 2, 2),
                                    rect_module("b", 2, 2)};
  // Compact: both squares left, free space is one 4x2 block... actually
  // squares at (0,0) and (0,2) fill columns 0-1; free = columns 2-3.
  PlacementSolution compact;
  compact.feasible = true;
  compact.placements = {{0, 0, 0, 0}, {1, 0, 0, 2}};
  compact.extent = 2;
  // Diagonal: squares at (0,0) and (2,2): free space is two 2x2 corners.
  PlacementSolution diagonal;
  diagonal.feasible = true;
  diagonal.placements = {{0, 0, 0, 0}, {1, 0, 2, 2}};
  diagonal.extent = 4;
  EXPECT_DOUBLE_EQ(fragmentation(*region, modules, compact), 0.0);
  EXPECT_GT(fragmentation(*region, modules, diagonal), 0.4);
}

TEST(Metrics, LargestFreeRectangle) {
  BitMatrix occupied(3, 4);
  BitMatrix usable(3, 4);
  usable.fill();
  occupied.set(1, 1, true);
  // Best free rectangle avoiding (1,1): rows 0..2 x cols 2..3 = 6.
  EXPECT_EQ(largest_free_rectangle(occupied, usable), 6);
  occupied.clear();
  EXPECT_EQ(largest_free_rectangle(occupied, usable), 12);
  usable.clear();
  EXPECT_EQ(largest_free_rectangle(occupied, usable), 0);
}

TEST(Metrics, InfeasibleSolutionsScoreZero) {
  const auto region = homogeneous_region(4, 4);
  const std::vector<Module> modules{rect_module("a", 2, 2)};
  const PlacementSolution infeasible;
  EXPECT_DOUBLE_EQ(spanned_utilization(*region, modules, infeasible), 0.0);
  EXPECT_DOUBLE_EQ(region_utilization(*region, modules, infeasible), 0.0);
  EXPECT_DOUBLE_EQ(fragmentation(*region, modules, infeasible), 0.0);
}

}  // namespace
}  // namespace rr::placer
