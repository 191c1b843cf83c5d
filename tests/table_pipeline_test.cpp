// The table pipeline: every table on a region with extra unavailable cells
// — the frozen modules of a defrag sub-problem, a fault overlay — is the
// current-fabric table filtered by those cells (placer::filter_tables), and
// the model's extent lower bound is one per-column pass
// (placer::min_extent_columns). Both are checked differentially against
// what they replace, on random heterogeneous fabrics with blocks, fault
// overlays and occupancies, with design alternatives on and off:
//
//   - filtered tables equal prepare_tables on the reduced region: entries,
//     extents, min_area and shape order;
//   - a solve context derived from the fault-free one by the fault mask
//     equals a freshly prepared context on the faulted fabric;
//   - min_extent_columns equals the scan over available_in_columns.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fpga/builders.hpp"
#include "fpga/faults.hpp"
#include "fpga/region.hpp"
#include "model/generator.hpp"
#include "placer/model_builder.hpp"
#include "service/solve_context.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace rr {
namespace {

constexpr int kTrials = 32;

/// Reduced regions routinely leave a module without a spot; prepare_tables
/// warns about each, which is noise here.
class QuietLog {
 public:
  QuietLog() : level_(log_level()) { set_log_level(LogLevel::kError); }
  ~QuietLog() { set_log_level(level_); }
  QuietLog(const QuietLog&) = delete;
  QuietLog& operator=(const QuietLog&) = delete;

 private:
  LogLevel level_;
};

/// A random heterogeneous fabric region with a few blocked rectangles.
fpga::PartialRegion random_region(Rng& rng, std::uint64_t seed) {
  const int width = rng.uniform_int(20, 48);
  const int height = rng.uniform_int(8, 20);
  fpga::IrregularSpec spec;
  spec.base.bram_period = rng.uniform_int(5, 9);
  auto fabric = std::make_shared<const fpga::Fabric>(
      fpga::make_irregular(width, height, spec, seed));
  fpga::PartialRegion region(fabric);
  const int blocks = rng.uniform_int(0, 3);
  for (int b = 0; b < blocks; ++b)
    region.block(Rect{rng.uniform_int(0, width - 1),
                      rng.uniform_int(0, height - 1), rng.uniform_int(1, 4),
                      rng.uniform_int(1, 4)});
  return region;
}

/// A fault overlay of single tiles, rectangles and the odd column.
fpga::FaultMap random_faults(Rng& rng, const fpga::Fabric& fabric) {
  fpga::FaultMap faults(fabric);
  const int events = rng.uniform_int(1, 6);
  for (int e = 0; e < events; ++e) {
    const int x = rng.uniform_int(0, fabric.width() - 1);
    const int y = rng.uniform_int(0, fabric.height() - 1);
    if (rng.chance(0.15)) {
      faults.inject_column(x, fpga::FaultKind::kPermanent);
    } else {
      const int w = std::min(rng.uniform_int(1, 3), fabric.width() - x);
      const int h = std::min(rng.uniform_int(1, 3), fabric.height() - y);
      faults.inject_rect(Rect{x, y, w, h}, fpga::FaultKind::kPermanent);
    }
  }
  return faults;
}

std::vector<model::Module> random_library(std::uint64_t seed) {
  model::GeneratorParams params;
  params.clb_min = 6;
  params.clb_max = 30;
  params.bram_blocks_max = 2;
  params.min_height = 2;
  params.max_height = 7;
  params.max_width = 6;
  model::ModuleGenerator generator(params, seed);
  return generator.generate_many(5);
}

/// An occupancy the way a live layout builds one: footprints at valid,
/// pairwise disjoint anchors — plus, on odd trials, scattered noise cells.
BitMatrix random_occupancy(Rng& rng, const fpga::PartialRegion& region,
                           std::span<const placer::ModuleTables> tables,
                           bool noise) {
  BitMatrix occupied(region.height(), region.width());
  for (int attempt = 0; attempt < 12; ++attempt) {
    const placer::ModuleTables& entry = tables[rng.pick_index(tables)];
    if (entry.table.empty()) continue;
    const geost::Placement& p = entry.table[rng.pick_index(entry.table)];
    const BitMatrix& mask =
        (*entry.shapes)[static_cast<std::size_t>(p.shape)].mask();
    if (!occupied.intersects_shifted(mask, p.y, p.x))
      occupied.or_shifted(mask, p.y, p.x);
  }
  if (noise) {
    for (int y = 0; y < region.height(); ++y)
      for (int x = 0; x < region.width(); ++x)
        if (rng.chance(0.03)) occupied.set(y, x, true);
  }
  return occupied;
}

void expect_same_shapes(const placer::ModuleTables& got,
                        const placer::ModuleTables& want) {
  ASSERT_EQ(got.shapes->size(), want.shapes->size());
  for (std::size_t s = 0; s < got.shapes->size(); ++s) {
    const geost::ShapeFootprint& a = (*got.shapes)[s];
    const geost::ShapeFootprint& b = (*want.shapes)[s];
    EXPECT_EQ(a.mask(), b.mask()) << "shape " << s;
    EXPECT_EQ(a.typed_masks(), b.typed_masks()) << "shape " << s;
  }
}

void expect_same_tables(const placer::ModuleTables& got,
                        const placer::ModuleTables& want) {
  expect_same_shapes(got, want);
  EXPECT_EQ(got.table, want.table);
  EXPECT_EQ(got.extents, want.extents);
  EXPECT_EQ(got.min_area, want.min_area);
}

TEST(TablePipeline, FilteredTablesEqualPreparedSubRegionTables) {
  const QuietLog quiet;
  long entries_dropped = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto seed = static_cast<std::uint64_t>(trial) + 1;
    Rng rng(seed * 7919 + 3);
    fpga::PartialRegion region = random_region(rng, seed);
    if (rng.chance(0.5))
      region.apply_faults(random_faults(rng, region.fabric()));
    const std::vector<model::Module> library = random_library(seed);
    for (const bool alternatives : {true, false}) {
      SCOPED_TRACE("trial " + std::to_string(trial) +
                   (alternatives ? " with alternatives" : " base layouts"));
      const auto tables = placer::prepare_tables(region, library, alternatives);
      const BitMatrix occupied =
          random_occupancy(rng, region, tables, trial % 2 == 1);
      fpga::PartialRegion sub_region = region;
      sub_region.block_mask(occupied);
      const auto expected =
          placer::prepare_tables(sub_region, library, alternatives);
      for (std::size_t i = 0; i < library.size(); ++i) {
        const placer::ModuleTables filtered =
            placer::filter_tables(tables[i], occupied);
        EXPECT_EQ(filtered.shapes, tables[i].shapes);  // shared, not copied
        expect_same_tables(filtered, expected[i]);
        entries_dropped += static_cast<long>(tables[i].table.size() -
                                             filtered.table.size());
      }
    }
  }
  EXPECT_GT(entries_dropped, 0);  // the occupancies really did filter
}

TEST(TablePipeline, FaultDerivedContextEqualsFreshContext) {
  const QuietLog quiet;
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto seed = static_cast<std::uint64_t>(trial) + 101;
    Rng rng(seed * 104729 + 11);
    const fpga::PartialRegion healthy = random_region(rng, seed);
    const std::vector<model::Module> library = random_library(seed);
    fpga::PartialRegion faulted = healthy;
    faulted.apply_faults(random_faults(rng, healthy.fabric()));
    for (const bool alternatives : {true, false}) {
      SCOPED_TRACE("trial " + std::to_string(trial) +
                   (alternatives ? " with alternatives" : " base layouts"));
      const service::SolveContextKey healthy_key{
          service::fabric_signature(healthy),
          service::library_signature(library), alternatives};
      const service::SolveContextKey faulted_key{
          service::fabric_signature(faulted), healthy_key.library,
          alternatives};
      const service::SolveContext base(healthy_key, healthy, library);
      const service::SolveContext fresh(faulted_key, faulted, library);
      service::SolveContext derived(faulted_key, base, faulted.fault_mask());
      // Through the cache: a miss with the fault-free context derives.
      service::SolveContextCache cache;
      const auto acquired =
          cache.acquire(faulted, library, alternatives, &base);
      EXPECT_EQ(acquired->key(), faulted_key);
      ASSERT_EQ(derived.tables()->size(), fresh.tables()->size());
      for (std::size_t i = 0; i < library.size(); ++i) {
        expect_same_tables((*derived.tables())[i], (*fresh.tables())[i]);
        expect_same_tables((*acquired->tables())[i], (*fresh.tables())[i]);
      }
      for (std::size_t i = 0; i < library.size(); ++i)
        EXPECT_EQ(derived.lookup(library[i]), &(*derived.tables())[i]);
    }
  }
}

/// The scan min_extent_columns replaced.
int scanned_min_extent(const fpga::PartialRegion& region, long area) {
  for (int c = 1; c <= region.width(); ++c)
    if (region.available_in_columns(c) >= area) return c;
  return region.width() + 1;
}

TEST(TablePipeline, MinExtentColumnsMatchesColumnScan) {
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto seed = static_cast<std::uint64_t>(trial) + 501;
    Rng rng(seed * 31 + 5);
    fpga::PartialRegion region = random_region(rng, seed);
    if (rng.chance(0.6))
      region.apply_faults(random_faults(rng, region.fabric()));
    if (rng.chance(0.5)) {
      BitMatrix blocked(region.height(), region.width());
      for (int y = 0; y < region.height(); ++y)
        for (int x = 0; x < region.width(); ++x)
          if (rng.chance(0.2)) blocked.set(y, x, true);
      region.block_mask(blocked);
    }
    const long total = region.total_available();
    std::vector<long> areas{0, 1, total / 3, total / 2, total - 1, total,
                            total + 1};
    for (int k = 0; k < 8; ++k)
      areas.push_back(rng.uniform_int(0, static_cast<int>(total) + 2));
    for (const long area : areas)
      EXPECT_EQ(placer::min_extent_columns(region, area),
                scanned_min_extent(region, area))
          << "trial " << trial << " area " << area;
  }
}

}  // namespace
}  // namespace rr
