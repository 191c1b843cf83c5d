// Baseline placers: greedy bottom-left, 1-D slots and simulated annealing.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "baseline/annealing.hpp"
#include "baseline/greedy.hpp"
#include "baseline/slots.hpp"
#include "comm/net.hpp"
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

/// Irregular CLB/BRAM fabric, 12 rows, BRAM every `bram_period`-th column
/// whose last column of each period is BRAM.
std::shared_ptr<fpga::PartialRegion> irregular_region(int width,
                                                      std::uint64_t seed,
                                                      int bram_period = 8) {
  fpga::IrregularSpec spec;
  spec.base.bram_period = bram_period;
  spec.base.bram_offset = bram_period - 1;
  spec.base.dsp_period = 0;
  spec.base.edge_io = false;
  auto fabric = std::make_shared<const fpga::Fabric>(
      fpga::make_irregular(width, 12, spec, seed));
  return std::make_shared<fpga::PartialRegion>(fabric);
}

/// Modules with up to `bram_blocks` memory blocks and four layouts each,
/// narrower than the BRAM column period.
std::vector<Module> mixed_workload(int count, std::uint64_t seed,
                                   int bram_blocks = 2) {
  model::GeneratorParams params;
  params.clb_min = 6;
  params.clb_max = 30;
  params.bram_blocks_max = bram_blocks;
  params.max_height = 8;
  params.max_width = 7;
  return ModuleGenerator(params, seed).generate_many(count);
}

/// A net between each pair of consecutive modules, plus one from the first
/// module to a terminal at the origin, all of weight `weight`.
comm::NetList chain_nets(std::span<const Module> modules, long weight) {
  comm::NetList nets;
  for (std::size_t i = 0; i + 1 < modules.size(); ++i) {
    comm::Net net;
    net.weight = weight;
    net.modules = {modules[i].name(), modules[i + 1].name()};
    nets.nets.push_back(std::move(net));
  }
  comm::Net io;
  io.weight = weight;
  io.modules = {modules.front().name()};
  io.terminals.push_back(Point{0, 0});
  nets.nets.push_back(std::move(io));
  return nets;
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

TEST(Greedy, PlacesLargestModuleFirst) {
  // Listed after a small module, the large one still takes the bottom-left
  // corner: decreasing-area order places it first.
  const auto region = homogeneous_region(8, 3);
  const std::vector<Module> modules{rect_module("small", 1, 1),
                                    rect_module("large", 3, 3)};
  const auto by_area = place_greedy(*region, modules);
  ASSERT_TRUE(by_area.solution.feasible);
  EXPECT_EQ(by_area.solution.placements[1].x, 0);
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

TEST(Greedy, PositiveCommWeightMovesModules) {
  // Chain nets at a positive weight pull modules toward their placed net
  // partners and the terminal at the origin, away from plain first fit.
  const auto region = irregular_region(48, 2);
  const auto modules = mixed_workload(12, 2);
  const auto area_only = place_greedy(*region, modules);
  GreedyOptions options;
  options.nets = std::make_shared<const comm::NetList>(chain_nets(modules, 4));
  options.comm_weight = 1;
  const auto with_comm = place_greedy(*region, modules, options);
  ASSERT_TRUE(area_only.solution.feasible);
  ASSERT_TRUE(with_comm.solution.feasible);
  EXPECT_NE(with_comm.solution.placements, area_only.solution.placements);
  EXPECT_TRUE(placer::validate(*region, modules, with_comm.solution).ok());
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

TEST(Annealing, PositiveCommWeightMovesModules) {
  const auto region = irregular_region(40, 2);
  const auto modules = mixed_workload(8, 2);
  const comm::NetList nets = chain_nets(modules, 4);
  AnnealingOptions options;
  options.time_limit_seconds = 60.0;  // the walk ends at the floor
  options.seed = 5;
  const auto area_only = place_annealing(*region, modules, options);
  options.nets = &nets;
  options.comm_weight = 1;
  const auto with_comm = place_annealing(*region, modules, options);
  ASSERT_TRUE(area_only.solution.feasible);
  ASSERT_TRUE(with_comm.solution.feasible);
  EXPECT_NE(with_comm.solution.placements, area_only.solution.placements);
  EXPECT_TRUE(placer::validate(*region, modules, with_comm.solution).ok());
}

TEST(Annealing, DeterministicPerSeed) {
  const auto region = homogeneous_region(16, 6);
  const auto modules = random_workload(5, 21);
  AnnealingOptions options;
  options.time_limit_seconds = 0.0;  // unlimited; cooling terminates
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

// --- Decision digests --------------------------------------------------------
// Fixed-seed sweeps hash every outcome of the three offline baselines
// (feasibility, extent, each module's shape and anchor) on irregular
// heterogeneous regions, so a rewrite of their internals must reproduce
// them exactly. Re-recording: a change that means to alter decisions copies
// the `new digest: 0x...` value from the failure message into the constant
// and says why.

class Digest {
 public:
  void add(std::int64_t value) {
    auto bits = static_cast<std::uint64_t>(value);
    for (int i = 0; i < 8; ++i) {
      hash_ ^= bits & 0xffu;
      hash_ *= 0x100000001b3ULL;
      bits >>= 8;
    }
  }
  void add(const placer::PlacementOutcome& outcome) {
    add(outcome.solution.feasible ? 1 : 0);
    add(outcome.solution.extent);
    add(static_cast<std::int64_t>(outcome.solution.placements.size()));
    for (const placer::ModulePlacement& p : outcome.solution.placements) {
      add(p.module);
      add(p.shape);
      add(p.x);
      add(p.y);
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void expect_digest(const Digest& digest, std::uint64_t expected) {
  EXPECT_EQ(digest.value(), expected)
      << "new digest: 0x" << std::hex << digest.value();
}

TEST(BaselineDigest, Greedy) {
  Digest digest;
  int feasible = 0;
  int calls = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (const int count : {6, 12, 24}) {
      const auto region = irregular_region(count * 4, seed);
      const auto modules = mixed_workload(count, seed);
      const auto nets =
          std::make_shared<const comm::NetList>(chain_nets(modules, 4));
      for (const bool alternatives : {true, false}) {
        for (const bool comm_on : {false, true}) {
          GreedyOptions options;
          options.use_alternatives = alternatives;
          if (comm_on) {
            options.nets = nets;
            options.comm_weight = 1;
          }
          const auto outcome = place_greedy(*region, modules, options);
          digest.add(outcome);
          ++calls;
          if (!outcome.solution.feasible) continue;
          ++feasible;
          EXPECT_TRUE(placer::validate(*region, modules, outcome.solution).ok());
        }
      }
    }
  }
  EXPECT_GT(feasible, calls / 2);
  expect_digest(digest, 0x31a62d2707316844ULL);
}

TEST(BaselineDigest, Slots) {
  Digest digest;
  int feasible = 0;
  int calls = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (const int slot_width : {6, 12, 16}) {
      // Two slot widths per module, so even a module wider than one slot
      // finds a free run, and BRAM columns at the slot period, so a slot's
      // left edge sees the same columns throughout. Every third seed draws
      // memory blocks, which must then line up with those columns.
      const int count = 6;
      const auto region =
          irregular_region(count * 2 * slot_width, seed, slot_width);
      const auto modules = mixed_workload(count, seed, seed % 3 == 0 ? 1 : 0);
      for (const bool alternatives : {true, false}) {
        SlotOptions options;
        options.slot_width = slot_width;
        options.use_alternatives = alternatives;
        const auto outcome = place_slots(*region, modules, options);
        digest.add(outcome);
        ++calls;
        if (!outcome.solution.feasible) continue;
        ++feasible;
        EXPECT_TRUE(placer::validate(*region, modules, outcome.solution).ok());
      }
    }
  }
  EXPECT_GT(feasible, calls / 2);
  expect_digest(digest, 0x6f5a34c52346c1eeULL);
}

TEST(BaselineDigest, Annealing) {
  // Every walk ends at the temperature floor, far inside the wall-clock
  // budget, so the outcome depends on the seed alone.
  Digest digest;
  int feasible = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto region = irregular_region(40, seed);
    const auto modules = mixed_workload(8, seed);
    const comm::NetList nets = chain_nets(modules, 4);
    for (const bool alternatives : {true, false}) {
      for (const bool comm_on : {false, true}) {
        AnnealingOptions options;
        options.use_alternatives = alternatives;
        options.time_limit_seconds = 60.0;
        options.seed = seed;
        if (comm_on) {
          options.nets = &nets;
          options.comm_weight = 1;
        }
        const auto outcome = place_annealing(*region, modules, options);
        digest.add(outcome);
        if (!outcome.solution.feasible) continue;
        ++feasible;
        EXPECT_TRUE(placer::validate(*region, modules, outcome.solution).ok());
      }
    }
  }
  EXPECT_GT(feasible, 12);
  expect_digest(digest, 0xf15584c00bcde539ULL);
}

}  // namespace
}  // namespace rr::baseline
