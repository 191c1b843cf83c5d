// Fault model and fault-aware recovery: FaultMap semantics, .fft trace
// parsing, the region fault overlay (including the empty-map identity the
// placers rely on), fault-masked placement across every solver layer, and
// the tiered recovery pipeline.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "baseline/annealing.hpp"
#include "baseline/greedy.hpp"
#include "baseline/online.hpp"
#include "fpga/builders.hpp"
#include "fpga/faults.hpp"
#include "fpga/region.hpp"
#include "model/generator.hpp"
#include "placer/placer.hpp"
#include "runtime/recovery.hpp"
#include "util/metrics.hpp"

namespace rr {
namespace {

using fpga::FaultEvent;
using fpga::FaultKind;
using fpga::FaultMap;
using model::Module;

constexpr int kClb = static_cast<int>(fpga::ResourceType::kClb);

geost::ShapeFootprint shape_of(std::vector<Point> cells) {
  return geost::ShapeFootprint::from_typed(
      {geost::TypedCells{kClb, CellSet(std::move(cells), false)}});
}

geost::ShapeFootprint rect_shape(int w, int h) {
  std::vector<Point> cells;
  for (int x = 0; x < w; ++x)
    for (int y = 0; y < h; ++y) cells.push_back({x, y});
  return shape_of(std::move(cells));
}

std::shared_ptr<fpga::PartialRegion> clb_region(int w, int h) {
  auto fabric =
      std::make_shared<const fpga::Fabric>(fpga::make_homogeneous(w, h));
  return std::make_shared<fpga::PartialRegion>(fabric);
}

void expect_parse_error(const std::string& text, const std::string& needle) {
  try {
    (void)fpga::parse_fault_trace_string(text);
    FAIL() << "expected InvalidInput for: " << text;
  } catch (const InvalidInput& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message '" << e.what() << "' lacks '" << needle << "'";
  }
}

// --- FaultMap semantics ---------------------------------------------------

TEST(FaultMap, InjectQueryAndCounts) {
  FaultMap map(8, 4);
  EXPECT_EQ(map.width(), 8);
  EXPECT_EQ(map.height(), 4);
  EXPECT_EQ(map.faulty_count(), 0);
  map.inject(2, 1, FaultKind::kPermanent);
  map.inject(5, 3, FaultKind::kTransient);
  EXPECT_TRUE(map.faulty(2, 1));
  EXPECT_TRUE(map.permanent(2, 1));
  EXPECT_TRUE(map.faulty(5, 3));
  EXPECT_FALSE(map.permanent(5, 3));
  EXPECT_FALSE(map.faulty(0, 0));
  EXPECT_EQ(map.faulty_count(), 2);
  EXPECT_EQ(map.permanent_count(), 1);
  EXPECT_EQ(map.transient_count(), 1);
  EXPECT_EQ(map.mask().popcount(), 2u);
  EXPECT_TRUE(map.mask().get(1, 2));
  EXPECT_TRUE(map.mask().get(3, 5));
}

TEST(FaultMap, PermanentNeverDowngrades) {
  FaultMap map(4, 4);
  map.inject(1, 1, FaultKind::kPermanent);
  map.inject(1, 1, FaultKind::kTransient);  // ignored: already permanent
  EXPECT_TRUE(map.permanent(1, 1));
  map.repair(1, 1);  // repairs clear transient faults only
  EXPECT_TRUE(map.faulty(1, 1));
  map.repair_transient();
  EXPECT_TRUE(map.faulty(1, 1));
}

TEST(FaultMap, RepairClearsTransientFaults) {
  FaultMap map(4, 4);
  map.inject(0, 0, FaultKind::kTransient);
  map.inject(1, 0, FaultKind::kTransient);
  map.inject(2, 0, FaultKind::kPermanent);
  map.repair(0, 0);
  EXPECT_FALSE(map.faulty(0, 0));
  EXPECT_TRUE(map.faulty(1, 0));
  map.repair_transient();
  EXPECT_EQ(map.faulty_count(), 1);
  EXPECT_TRUE(map.permanent(2, 0));
}

TEST(FaultMap, ColumnAndRectInjection) {
  FaultMap map(6, 3);
  map.inject_column(2, FaultKind::kTransient);
  EXPECT_EQ(map.faulty_count(), 3);
  for (int y = 0; y < 3; ++y) EXPECT_TRUE(map.faulty(2, y));
  map.inject_rect(Rect{4, 1, 2, 2}, FaultKind::kPermanent);
  EXPECT_EQ(map.faulty_count(), 7);
  EXPECT_TRUE(map.permanent(5, 2));
  EXPECT_THROW(map.inject_rect(Rect{5, 0, 3, 1}, FaultKind::kPermanent),
               InvalidInput);
  EXPECT_THROW(map.inject_column(6, FaultKind::kPermanent), InvalidInput);
  EXPECT_THROW(map.inject_rect(Rect{0, 0, 0, 1}, FaultKind::kPermanent),
               InvalidInput);
}

TEST(FaultMap, TraceRoundTrip) {
  FaultMap map(10, 5);
  map.inject(3, 2, FaultKind::kPermanent);
  map.inject(7, 0, FaultKind::kTransient);
  map.inject_rect(Rect{0, 3, 2, 2}, FaultKind::kPermanent);
  const fpga::FaultTrace trace = fpga::fault_trace_from_map(map);
  const std::string text = fpga::write_fault_trace_string(trace);
  const FaultMap parsed =
      fpga::fault_map_from_trace(fpga::parse_fault_trace_string(text));
  EXPECT_EQ(parsed, map);
}

TEST(FaultMap, TraceAppliesEventsInOrder) {
  const fpga::FaultTrace trace = fpga::parse_fault_trace_string(
      "faults 6 4\n"
      "tile 1 1 transient\n"
      "column 3 transient\n"
      "tile 5 0\n"          // kind defaults to permanent
      "repair 1 1\n"
      "repair-transient\n");
  const FaultMap map = fpga::fault_map_from_trace(trace);
  EXPECT_FALSE(map.faulty(1, 1));  // repaired
  EXPECT_FALSE(map.faulty(3, 2));  // transient column cleared
  EXPECT_TRUE(map.permanent(5, 0));
  EXPECT_EQ(map.faulty_count(), 1);
}

TEST(FaultMap, TraceParserAcceptsCommentsAndCrlf) {
  const fpga::FaultTrace trace = fpga::parse_fault_trace_string(
      "# header comment\r\n"
      "faults 4 4\r\n"
      "\r\n"
      "tile 0 0 permanent\r\n");
  EXPECT_EQ(trace.width, 4);
  ASSERT_EQ(trace.events.size(), 1u);
  EXPECT_EQ(trace.events[0].rect, (Rect{0, 0, 1, 1}));
}

TEST(FaultMap, TraceParserRejectsMalformedInput) {
  expect_parse_error("", "empty fault trace");
  expect_parse_error("# only comments\n", "missing faults header");
  expect_parse_error("tile 0 0\n", "fft:1:");
  expect_parse_error("faults 0 4\n", "must be positive");
  expect_parse_error("faults 4 4\nfaults 4 4\n", "duplicate");
  expect_parse_error("faults 4 4\ntile 4 0\n", "fft:2: tile coordinates");
  expect_parse_error("faults 4 4\ntile 0 -1\n", "out of bounds");
  expect_parse_error("faults 4 4\ncolumn 9\n", "column index");
  expect_parse_error("faults 4 4\nrect 2 2 4 1\n", "rect out of bounds");
  expect_parse_error("faults 4 4\nrect 0 0 0 2\n", "non-empty");
  expect_parse_error("faults 4 4\ntile 1 1 broken\n", "fault kind");
  expect_parse_error("faults 4 4\ntile x 1\n", "must be an integer");
  expect_parse_error("faults 4 4\nrepair 5 5\n", "repair coordinates");
  expect_parse_error("faults 4 4\nzap 1 1\n", "unknown directive 'zap'");
  expect_parse_error("faults 4 4\n\n\ntile 1\n", "fft:4:");
  // Beyond int: rejected, not wrapped to tile 0 0; at INT_MAX the bounds
  // check must not overflow.
  expect_parse_error("faults 4 4\ntile 4294967296 0\n", "x must be an integer");
  expect_parse_error("faults 4 4\ntile 2147483647 0\n", "out of bounds");
  expect_parse_error("faults 4 4\nrect 1 1 2147483647 1\n", "out of bounds");
}

// --- Region fault overlay -------------------------------------------------

TEST(RegionFaults, FaultyTilesDropOutOfAvailability) {
  const auto region = clb_region(8, 4);
  const long before = region->total_available();
  FaultMap map(region->fabric());
  map.inject(3, 2, FaultKind::kPermanent);
  map.inject_column(6, FaultKind::kTransient);
  region->apply_faults(map);
  EXPECT_FALSE(region->available(3, 2));
  EXPECT_FALSE(region->available(6, 0));
  EXPECT_TRUE(region->available(0, 0));
  EXPECT_EQ(region->total_available(), before - 5);
  EXPECT_FALSE(region->masks()[kClb].get(2, 3));
  EXPECT_EQ(region->fault_mask().popcount(), 5u);
}

TEST(RegionFaults, OverlayIsReplacedSoRepairsRestoreTiles) {
  const auto region = clb_region(8, 4);
  const long before = region->total_available();
  FaultMap map(region->fabric());
  map.inject_column(2, FaultKind::kTransient);
  region->apply_faults(map);
  EXPECT_EQ(region->total_available(), before - 4);
  map.repair_transient();
  region->apply_faults(map);
  EXPECT_EQ(region->total_available(), before);
  EXPECT_TRUE(region->available(2, 1));
}

TEST(RegionFaults, EmptyFaultMapIsBitIdentical) {
  // The acceptance criterion for the whole fault layer: a fault-free map
  // must leave every placer input untouched.
  const auto seed = std::uint64_t{7};
  auto fabric = std::make_shared<const fpga::Fabric>(
      fpga::make_irregular(24, 12, fpga::IrregularSpec{}, seed));
  fpga::PartialRegion plain(fabric);
  fpga::PartialRegion faulted(fabric);
  faulted.apply_faults(FaultMap(*fabric));
  ASSERT_EQ(plain.masks().size(), faulted.masks().size());
  for (std::size_t k = 0; k < plain.masks().size(); ++k)
    EXPECT_EQ(plain.masks()[k], faulted.masks()[k]) << "resource " << k;
  EXPECT_EQ(plain.total_available(), faulted.total_available());

  model::GeneratorParams params;
  params.clb_min = 6;
  params.clb_max = 24;
  params.bram_blocks_max = 1;
  model::ModuleGenerator generator(params, seed);
  const auto modules = generator.generate_many(5);

  const auto greedy_plain = baseline::place_greedy(plain, modules);
  const auto greedy_faulted = baseline::place_greedy(faulted, modules);
  ASSERT_EQ(greedy_plain.solution.feasible, greedy_faulted.solution.feasible);
  ASSERT_TRUE(greedy_plain.solution.feasible);
  for (std::size_t i = 0; i < modules.size(); ++i) {
    const auto& a = greedy_plain.solution.placements[i];
    const auto& b = greedy_faulted.solution.placements[i];
    EXPECT_EQ(a.shape, b.shape);
    EXPECT_EQ(a.x, b.x);
    EXPECT_EQ(a.y, b.y);
  }

  placer::PlacerOptions options;
  options.mode = placer::PlacerMode::kBranchAndBound;
  options.time_limit_seconds = 10.0;
  options.seed = seed;
  const auto cp_plain = placer::Placer(plain, modules, options).place();
  const auto cp_faulted = placer::Placer(faulted, modules, options).place();
  ASSERT_TRUE(cp_plain.solution.feasible);
  ASSERT_TRUE(cp_faulted.solution.feasible);
  EXPECT_EQ(cp_plain.solution.extent, cp_faulted.solution.extent);
  for (std::size_t i = 0; i < modules.size(); ++i) {
    const auto& a = cp_plain.solution.placements[i];
    const auto& b = cp_faulted.solution.placements[i];
    EXPECT_EQ(a.shape, b.shape);
    EXPECT_EQ(a.x, b.x);
    EXPECT_EQ(a.y, b.y);
  }
}

TEST(RegionFaults, DimensionMismatchesAreRejected) {
  const auto region = clb_region(8, 4);
  EXPECT_THROW(region->apply_faults(FaultMap(7, 4)), InvalidInput);
  EXPECT_THROW(region->set_fault_mask(BitMatrix(3, 8)), InvalidInput);
}

// Every solver layer consumes the same availability masks, so a faulted
// region must keep all of them off the dead tiles.
TEST(RegionFaults, AllPlacersRefuseFaultyTiles) {
  const auto seed = std::uint64_t{11};
  const auto region = clb_region(20, 8);
  FaultMap map(region->fabric());
  map.inject_rect(Rect{4, 2, 2, 3}, FaultKind::kPermanent);
  map.inject_column(11, FaultKind::kPermanent);
  map.inject(16, 7, FaultKind::kTransient);
  region->apply_faults(map);
  const BitMatrix fault_mask = region->fault_mask();

  model::GeneratorParams params;
  params.clb_min = 4;
  params.clb_max = 16;
  params.bram_blocks_max = 0;
  params.max_height = 6;
  model::ModuleGenerator generator(params, seed);
  const auto modules = generator.generate_many(5);

  const auto check = [&](const std::vector<placer::ModulePlacement>& placed,
                         const char* who) {
    for (const auto& p : placed) {
      const auto& shape =
          modules[static_cast<std::size_t>(p.module)]
              .shapes()[static_cast<std::size_t>(p.shape)];
      EXPECT_FALSE(fault_mask.intersects_shifted(shape.mask(), p.y, p.x))
          << who << " placed module " << p.module << " on a faulty tile";
      for (const Point& cell : shape.all_cells().cells())
        EXPECT_TRUE(region->available(p.x + cell.x, p.y + cell.y))
            << who << " used unavailable tile";
    }
  };

  const auto greedy = baseline::place_greedy(*region, modules);
  ASSERT_TRUE(greedy.solution.feasible);
  check(greedy.solution.placements, "greedy");

  const auto annealed = baseline::place_annealing(*region, modules, {});
  if (annealed.solution.feasible) check(annealed.solution.placements, "sa");

  placer::PlacerOptions options;
  options.time_limit_seconds = 5.0;
  options.seed = seed;
  const auto exact = placer::Placer(*region, modules, options).place();
  ASSERT_TRUE(exact.solution.feasible);
  check(exact.solution.placements, "cp");

  baseline::OnlinePlacer online(*region, {});
  std::vector<placer::ModulePlacement> online_placed;
  for (std::size_t i = 0; i < modules.size(); ++i) {
    const auto p = online.place(static_cast<int>(i), modules[i]);
    if (p) online_placed.push_back(*p);
  }
  EXPECT_FALSE(online_placed.empty());
  check(online_placed, "online");
}

// --- Tiered recovery ------------------------------------------------------

runtime::FaultRecoveryOptions test_recovery_options() {
  runtime::FaultRecoveryOptions options;
  options.deadline_seconds = 5.0;  // generous: tests assert tier choice
  return options;
}

FaultEvent tile_fault(int x, int y,
                      FaultKind kind = FaultKind::kPermanent) {
  FaultEvent event;
  event.op = FaultEvent::Op::kTile;
  event.kind = kind;
  event.rect = Rect{x, y, 1, 1};
  return event;
}

TEST(FaultRecovery, AdmitValidatesItsInputs) {
  const auto region = clb_region(8, 4);
  runtime::FaultRecoveryManager manager(*region, test_recovery_options());
  const Module module("m", {rect_shape(2, 2)});
  manager.admit(0, module, 0, 0, 0);
  EXPECT_THROW(manager.admit(0, module, 0, 4, 0), InvalidInput);  // id taken
  EXPECT_THROW(manager.admit(1, module, 1, 0, 0), InvalidInput);  // bad shape
  EXPECT_THROW(manager.admit(1, module, 0, 1, 1), InvalidInput);  // overlap
  EXPECT_THROW(manager.admit(1, module, 0, 7, 0), InvalidInput);  // outside
  manager.admit(1, module, 0, 4, 0);
  EXPECT_EQ(manager.live_count(), 2);
  EXPECT_EQ(manager.occupied_tiles(), 8);
}

TEST(FaultRecovery, InPlaceSwapUsesAnAlternativeInsideTheOldBbox) {
  const auto region = clb_region(6, 4);
  // Shape 0 fills its 2x2 bbox; shape 1 is an L that leaves local (0,1)
  // empty — the design alternative that can route around a dead tile.
  const Module module(
      "m", {rect_shape(2, 2), shape_of({{0, 0}, {1, 0}, {1, 1}})});
  runtime::FaultRecoveryManager manager(*region, test_recovery_options());
  manager.admit(0, module, 0, 2, 1);
  // Kill the tile under local (0,1) of the placement: global (2, 2).
  const auto outcome = manager.on_fault(tile_fault(2, 2));
  ASSERT_EQ(outcome.modules_hit, 1);
  ASSERT_EQ(outcome.recovered, 1);
  ASSERT_EQ(outcome.modules.size(), 1u);
  EXPECT_EQ(outcome.modules[0].tier, runtime::RecoveryTier::kInPlaceSwap);
  EXPECT_EQ(manager.stats().inplace_swaps, 1u);
  const auto placements = manager.live_placements();
  ASSERT_EQ(placements.size(), 1u);
  EXPECT_EQ(placements[0].shape, 1);
  EXPECT_EQ(placements[0].x, 2);
  EXPECT_EQ(placements[0].y, 1);
}

TEST(FaultRecovery, LocalReplaceMovesTheModuleOffTheFault) {
  const auto region = clb_region(8, 2);
  const Module module("m", {rect_shape(2, 2)});
  runtime::FaultRecoveryManager manager(*region, test_recovery_options());
  manager.admit(0, module, 0, 0, 0);
  const auto outcome = manager.on_fault(tile_fault(1, 1));
  ASSERT_EQ(outcome.recovered, 1);
  EXPECT_EQ(outcome.modules[0].tier, runtime::RecoveryTier::kLocalReplace);
  const auto placements = manager.live_placements();
  ASSERT_EQ(placements.size(), 1u);
  EXPECT_GE(placements[0].x, 2);  // off the faulty columns
  EXPECT_EQ(manager.occupied_tiles(), 4);
  // The no-break copy model charges the old footprint as cleared and the
  // new one as written.
  EXPECT_EQ(manager.recovery_cost().tiles_cleared, 4);
  EXPECT_EQ(manager.recovery_cost().tiles_written, 4);
}

TEST(FaultRecovery, DefragRelocatesABystanderToMakeRoom) {
  // 6x1 strip: victim V on columns 0-1, bystander B on 3-4. Killing column
  // 1 leaves free healthy cells {0, 2, 5} — no two adjacent, so V only
  // fits after B moves. That is exactly the defrag tier's job.
  const auto region = clb_region(6, 1);
  const Module victim("v", {rect_shape(2, 1)});
  const Module bystander("b", {rect_shape(2, 1)});
  runtime::FaultRecoveryManager manager(*region, test_recovery_options());
  manager.admit(0, victim, 0, 0, 0);
  manager.admit(1, bystander, 0, 3, 0);
  const auto outcome = manager.on_fault(tile_fault(1, 0));
  ASSERT_EQ(outcome.modules_hit, 1);
  ASSERT_EQ(outcome.recovered, 1);
  EXPECT_EQ(outcome.modules[0].tier, runtime::RecoveryTier::kDefrag);
  EXPECT_EQ(manager.stats().relocated_modules, 1u);
  EXPECT_EQ(manager.live_count(), 2);
  // Both modules live, disjoint, and off the dead tile.
  EXPECT_EQ(manager.check_invariants(), std::vector<std::string>{});
}

TEST(FaultRecovery, ParkedModuleIsRevivedAfterRepair) {
  // The region has room for exactly one 2x2 module; a transient fault
  // evicts it with nowhere to go, so it parks. After the repair its backoff
  // has elapsed and the retry pass brings it back. The revival's tier is
  // counted in the stats and mirrored into the metrics alike.
  const bool metrics_were_enabled = metrics::enabled();
  metrics::set_enabled(true);
  metrics::global().reset();
  const auto region = clb_region(2, 2);
  const Module module("m", {rect_shape(2, 2)});
  auto options = test_recovery_options();
  options.retry_backoff_events = 1;
  runtime::FaultRecoveryManager manager(*region, options);
  manager.admit(0, module, 0, 0, 0);

  const auto fault = manager.on_fault(tile_fault(0, 0, FaultKind::kTransient));
  EXPECT_EQ(fault.modules_hit, 1);
  EXPECT_EQ(fault.recovered, 0);
  EXPECT_EQ(fault.parked, 1);
  EXPECT_EQ(manager.parked_count(), 1);
  EXPECT_EQ(manager.live_count(), 0);
  EXPECT_EQ(manager.occupied_tiles(), 0);
  EXPECT_TRUE(manager.is_parked(0));
  EXPECT_LT(manager.capacity_retained(), 1.0);

  FaultEvent repair;
  repair.op = FaultEvent::Op::kRepairTransient;
  const auto revived = manager.on_fault(repair);
  EXPECT_EQ(revived.retry_recoveries, 1);
  EXPECT_EQ(manager.live_count(), 1);
  EXPECT_EQ(manager.parked_count(), 0);
  EXPECT_EQ(manager.occupied_tiles(), 4);
  EXPECT_DOUBLE_EQ(manager.capacity_retained(), 1.0);
  EXPECT_EQ(manager.stats().retry_recoveries, 1u);
  ASSERT_EQ(revived.modules.size(), 1u);
  EXPECT_TRUE(revived.modules[0].from_parked);
  EXPECT_EQ(revived.modules[0].tier, runtime::RecoveryTier::kLocalReplace);
  EXPECT_EQ(manager.stats().local_replaces, 1u);
#ifndef RRPLACE_DISABLE_METRICS
  EXPECT_EQ(metrics::global().counter("runtime.fault.local_replaces"),
            manager.stats().local_replaces);
  EXPECT_EQ(metrics::global().counter("runtime.fault.retry_recoveries"),
            manager.stats().retry_recoveries);
#endif
  metrics::set_enabled(metrics_were_enabled);
}

TEST(FaultRecovery, DegradesGracefullyWhenCapacityIsGone) {
  // Permanent fault on a fully used region: the module parks, retries are
  // bounded, and the manager keeps serving events without throwing.
  const auto region = clb_region(2, 2);
  const Module module("m", {rect_shape(2, 2)});
  auto options = test_recovery_options();
  options.retry_backoff_events = 1;
  options.max_retries = 2;
  runtime::FaultRecoveryManager manager(*region, options);
  manager.admit(0, module, 0, 0, 0);

  ASSERT_EQ(manager.on_fault(tile_fault(1, 1)).parked, 1);
  EXPECT_DOUBLE_EQ(manager.capacity_retained(), 0.75);
  EXPECT_DOUBLE_EQ(manager.utilization(), 0.0);
  // Subsequent events trigger retries until the budget is exhausted.
  for (int i = 0; i < 4; ++i)
    (void)manager.on_fault(tile_fault(0, 0, FaultKind::kTransient));
  EXPECT_EQ(manager.stats().retries, 2u);
  EXPECT_EQ(manager.stats().abandoned, 1u);
  EXPECT_EQ(manager.parked_count(), 1);
  EXPECT_EQ(manager.live_count(), 0);
}

TEST(FaultRecovery, RecoveryTierNamesAreStable) {
  EXPECT_STREQ(runtime::recovery_tier_name(runtime::RecoveryTier::kNone),
               "parked");
  EXPECT_STREQ(
      runtime::recovery_tier_name(runtime::RecoveryTier::kInPlaceSwap),
      "inplace-swap");
  EXPECT_STREQ(runtime::recovery_tier_name(runtime::RecoveryTier::kDefrag),
               "defrag");
}

}  // namespace
}  // namespace rr
