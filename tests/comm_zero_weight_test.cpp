// The zero-weight oracle, enforced end to end: every backend that accepts
// a communication net list must, when the list is present but weightless
// (comm_weight == 0, or all net weights zero so nothing survives binding),
// run byte-for-byte the area-only code path — same placements, same search
// tree, same RNG draws, same admission decisions. This is what makes
// `--comm-weight 0` differentially testable against builds that never
// heard of src/comm.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "baseline/annealing.hpp"
#include "baseline/greedy.hpp"
#include "baseline/online.hpp"
#include "comm/net.hpp"
#include "fpga/builders.hpp"
#include "fpga/faults.hpp"
#include "fpga/region.hpp"
#include "model/generator.hpp"
#include "placer/placer.hpp"
#include "runtime/recovery.hpp"
#include "util/rng.hpp"

namespace rr {
namespace {

/// Chain nets over a module pool with a terminal on the first module, at a
/// uniform weight (0 builds the all-zero-weight variant).
comm::NetList chain_nets(std::span<const model::Module> pool, long weight) {
  comm::NetList nets;
  for (std::size_t i = 0; i + 1 < pool.size(); ++i) {
    comm::Net net;
    net.weight = weight;
    net.modules = {pool[i].name(), pool[i + 1].name()};
    nets.nets.push_back(std::move(net));
  }
  comm::Net io;
  io.weight = weight;
  io.modules = {pool.front().name()};
  io.terminals.push_back(Point{0, 0});
  nets.nets.push_back(std::move(io));
  return nets;
}

std::vector<model::Module> generated_pool(std::uint64_t seed, int count) {
  model::GeneratorParams params;
  params.clb_min = 4;
  params.clb_max = 10;
  params.bram_blocks_max = 0;
  params.max_height = 4;
  model::ModuleGenerator generator(params, seed);
  return generator.generate_many(count);
}

void expect_same_solution(const placer::PlacementOutcome& a,
                          const placer::PlacementOutcome& b,
                          const char* context) {
  EXPECT_EQ(a.solution.feasible, b.solution.feasible) << context;
  EXPECT_EQ(a.solution.extent, b.solution.extent) << context;
  EXPECT_EQ(a.solution.placements, b.solution.placements) << context;
}

void expect_same_search_tree(const placer::PlacementOutcome& a,
                             const placer::PlacementOutcome& b,
                             const char* context) {
  EXPECT_EQ(a.stats.nodes, b.stats.nodes) << context;
  EXPECT_EQ(a.stats.fails, b.stats.fails) << context;
  EXPECT_EQ(a.stats.solutions, b.stats.solutions) << context;
  EXPECT_EQ(a.stats.max_depth, b.stats.max_depth) << context;
  EXPECT_EQ(a.stats.restarts, b.stats.restarts) << context;
  EXPECT_EQ(a.stats.complete, b.stats.complete) << context;
}

TEST(ZeroWeightOracle, CpPlacerSearchTreeIsBitIdentical) {
  const auto fabric =
      std::make_shared<const fpga::Fabric>(fpga::make_homogeneous(18, 8));
  const fpga::PartialRegion region(fabric);
  const auto pool = generated_pool(17, 4);
  const comm::NetList weighted = chain_nets(pool, 3);
  const comm::NetList weightless = chain_nets(pool, 0);

  placer::PlacerOptions base;
  base.mode = placer::PlacerMode::kBranchAndBound;
  base.time_limit_seconds = 30.0;
  const auto area_only = placer::Placer(region, pool, base).place();
  ASSERT_TRUE(area_only.solution.feasible);
  ASSERT_TRUE(area_only.stats.complete);

  placer::PlacerOptions zero_weight = base;
  zero_weight.nets = &weighted;
  zero_weight.comm_weight = 0;
  const auto with_zero = placer::Placer(region, pool, zero_weight).place();
  expect_same_solution(area_only, with_zero, "comm_weight 0");
  expect_same_search_tree(area_only, with_zero, "comm_weight 0");

  placer::PlacerOptions zero_nets = base;
  zero_nets.nets = &weightless;
  zero_nets.comm_weight = 5;
  const auto with_dead = placer::Placer(region, pool, zero_nets).place();
  expect_same_solution(area_only, with_dead, "all-zero net weights");
  expect_same_search_tree(area_only, with_dead, "all-zero net weights");

  // Sanity of the oracle's other arm: a positive weight genuinely changes
  // the objective (this instance has slack to trade), so the gating above
  // is not vacuous.
  placer::PlacerOptions live = base;
  live.nets = &weighted;
  live.comm_weight = 8;
  const auto with_comm = placer::Placer(region, pool, live).place();
  ASSERT_TRUE(with_comm.solution.feasible);
  EXPECT_NE(with_comm.stats.nodes, area_only.stats.nodes)
      << "comm objective did not alter the search at weight 8";
}

TEST(ZeroWeightOracle, GreedyPlacementsAreBitIdentical) {
  const auto fabric =
      std::make_shared<const fpga::Fabric>(fpga::make_homogeneous(20, 8));
  const fpga::PartialRegion region(fabric);
  const auto pool = generated_pool(23, 6);
  const comm::NetList weighted = chain_nets(pool, 3);
  const comm::NetList weightless = chain_nets(pool, 0);

  const auto area_only = baseline::place_greedy(region, pool);
  baseline::GreedyOptions zero_weight;
  zero_weight.nets = std::make_shared<const comm::NetList>(weighted);
  zero_weight.comm_weight = 0;
  expect_same_solution(area_only,
                       baseline::place_greedy(region, pool, zero_weight),
                       "greedy comm_weight 0");
  baseline::GreedyOptions zero_nets;
  zero_nets.nets = std::make_shared<const comm::NetList>(weightless);
  zero_nets.comm_weight = 5;
  expect_same_solution(area_only,
                       baseline::place_greedy(region, pool, zero_nets),
                       "greedy all-zero net weights");
}

TEST(ZeroWeightOracle, AnnealingWalkIsBitIdentical) {
  const auto fabric =
      std::make_shared<const fpga::Fabric>(fpga::make_homogeneous(16, 8));
  const fpga::PartialRegion region(fabric);
  const auto pool = generated_pool(31, 4);
  const comm::NetList weighted = chain_nets(pool, 3);
  const comm::NetList weightless = chain_nets(pool, 0);

  // The walk ends at the temperature floor, far inside the wall-clock
  // budget, so two runs take identical move sequences iff they draw the
  // same RNG stream — which is exactly what the oracle demands.
  baseline::AnnealingOptions base;
  base.seed = 9;
  base.time_limit_seconds = 60.0;
  const auto area_only = baseline::place_annealing(region, pool, base);

  baseline::AnnealingOptions zero_weight = base;
  zero_weight.nets = &weighted;
  zero_weight.comm_weight = 0;
  expect_same_solution(area_only,
                       baseline::place_annealing(region, pool, zero_weight),
                       "annealing comm_weight 0");
  baseline::AnnealingOptions zero_nets = base;
  zero_nets.nets = &weightless;
  zero_nets.comm_weight = 5;
  expect_same_solution(area_only,
                       baseline::place_annealing(region, pool, zero_nets),
                       "annealing all-zero net weights");
}

/// Hand-built library with stable names for the online/recovery nets.
std::vector<model::Module> online_library() {
  using model::ModuleGenerator;
  std::vector<model::Module> lib;
  lib.push_back(
      model::Module("s1", {ModuleGenerator::make_column_shape(1, 0, 1, 1, 0)}));
  lib.push_back(
      model::Module("s4", {ModuleGenerator::make_column_shape(4, 0, 1, 2, 0),
                           ModuleGenerator::make_column_shape(4, 0, 1, 4, 0)}));
  lib.push_back(
      model::Module("s6", {ModuleGenerator::make_column_shape(6, 0, 1, 3, 0),
                           ModuleGenerator::make_column_shape(6, 0, 1, 2, 0)}));
  return lib;
}

TEST(ZeroWeightOracle, OnlineAdmissionAndDefragAreBitIdentical) {
  const auto fabric =
      std::make_shared<const fpga::Fabric>(fpga::make_homogeneous(12, 8));
  const auto library = online_library();
  const auto nets =
      std::make_shared<const comm::NetList>(chain_nets(library, 4));
  const auto dead_nets =
      std::make_shared<const comm::NetList>(chain_nets(library, 0));
  // Three arms over the identical trace: area-only first fit, commcost at
  // weight 0, and commcost whose nets all weigh 0. Defrag is live on all
  // three (small scale: every pass finishes far under the deadline).
  fpga::PartialRegion region_a(fabric);
  fpga::PartialRegion region_b(fabric);
  fpga::PartialRegion region_c(fabric);
  baseline::OnlineOptions area_only;
  area_only.policy = AnchorPolicy::kFirstFit;
  area_only.defrag.deadline_seconds = 0.5;
  baseline::OnlineOptions zero_weight = area_only;
  zero_weight.policy = AnchorPolicy::kCommCost;
  zero_weight.nets = nets;
  zero_weight.comm_weight = 0;
  baseline::OnlineOptions dead = area_only;
  dead.policy = AnchorPolicy::kCommCost;
  dead.nets = dead_nets;
  dead.comm_weight = 9;
  baseline::OnlinePlacer a(region_a, area_only);
  baseline::OnlinePlacer b(region_b, zero_weight);
  baseline::OnlinePlacer c(region_c, dead);
  Rng rng(0x0A11CEULL + 1);
  std::vector<int> live;
  int next_id = 0;
  for (int step = 0; step < 160; ++step) {
    if (live.empty() || rng.chance(0.6)) {
      const std::size_t m = rng.bounded(library.size());
      const int id = next_id++;
      const auto pa = a.place(id, library[m]);
      const auto pb = b.place(id, library[m]);
      const auto pc = c.place(id, library[m]);
      ASSERT_EQ(pa, pb) << "step " << step;
      ASSERT_EQ(pa, pc) << "step " << step;
      if (pa.has_value()) live.push_back(id);
    } else {
      const std::size_t pick = rng.bounded(live.size());
      const int id = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      a.remove(id);
      b.remove(id);
      c.remove(id);
    }
    ASSERT_EQ(a.live_placements(), b.live_placements()) << "step " << step;
    ASSERT_EQ(a.live_placements(), c.live_placements()) << "step " << step;
  }
  EXPECT_EQ(a.defrag_stats().attempts, b.defrag_stats().attempts);
  EXPECT_EQ(a.defrag_stats().successes, b.defrag_stats().successes);
}

TEST(ZeroWeightOracle, FaultRecoveryIsBitIdentical) {
  const auto fabric =
      std::make_shared<const fpga::Fabric>(fpga::make_homogeneous(12, 8));
  const auto library = online_library();
  const auto nets =
      std::make_shared<const comm::NetList>(chain_nets(library, 4));
  Rng rng(0xFA17E0ULL);
  runtime::FaultRecoveryOptions base;
  base.deadline_seconds = 0.0;
  base.seed = 7;
  runtime::FaultRecoveryOptions zero_weight = base;
  zero_weight.nets = nets;
  zero_weight.comm_weight = 0;
  runtime::FaultRecoveryManager area_only(fpga::PartialRegion(fabric), base);
  runtime::FaultRecoveryManager with_zero(fpga::PartialRegion(fabric),
                                          zero_weight);
  // Identical initial layouts via a shared first-fit seeding pass.
  fpga::PartialRegion seed_region(fabric);
  baseline::OnlinePlacer seeder(seed_region);
  for (int id = 0; id < 8; ++id) {
    const std::size_t m = rng.bounded(library.size());
    if (const auto p = seeder.place(id, library[m])) {
      area_only.admit(id, library[m], p->shape, p->x, p->y);
      with_zero.admit(id, library[m], p->shape, p->x, p->y);
    }
  }
  for (int step = 0; step < 25; ++step) {
    fpga::FaultEvent event;
    if (rng.bounded(4) == 0) {
      event.op = fpga::FaultEvent::Op::kRepairTransient;
    } else {
      event.op = fpga::FaultEvent::Op::kTile;
      event.kind = rng.bounded(2) == 0 ? fpga::FaultKind::kTransient
                                       : fpga::FaultKind::kPermanent;
      event.rect =
          Rect{static_cast<int>(
                   rng.bounded(static_cast<std::uint64_t>(fabric->width()))),
               static_cast<int>(
                   rng.bounded(static_cast<std::uint64_t>(fabric->height()))),
               1, 1};
    }
    const auto a = area_only.on_fault(event);
    const auto b = with_zero.on_fault(event);
    ASSERT_EQ(a.modules_hit, b.modules_hit) << "step " << step;
    ASSERT_EQ(a.recovered, b.recovered) << "step " << step;
    ASSERT_EQ(a.parked, b.parked) << "step " << step;
    ASSERT_EQ(area_only.live_placements(), with_zero.live_placements())
        << "step " << step;
    ASSERT_EQ(area_only.occupied_matrix(), with_zero.occupied_matrix())
        << "step " << step;
  }
}

}  // namespace
}  // namespace rr
