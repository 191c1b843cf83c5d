// Fabric, builders, partial region and the .fdf format.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "fpga/builders.hpp"
#include "fpga/faults.hpp"
#include "fpga/fdf.hpp"
#include "fpga/region.hpp"
#include "util/rng.hpp"

namespace rr::fpga {
namespace {

TEST(Resource, CharRoundTrip) {
  for (int k = 0; k < kNumResourceTypes; ++k) {
    const auto t = static_cast<ResourceType>(k);
    const auto back = resource_from_char(resource_char(t));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, t);
  }
  EXPECT_FALSE(resource_from_char('x').has_value());
  EXPECT_EQ(resource_from_char('b'), ResourceType::kBram);  // lower case
}

TEST(Resource, Placeability) {
  EXPECT_TRUE(placeable(ResourceType::kClb));
  EXPECT_TRUE(placeable(ResourceType::kIo));
  EXPECT_FALSE(placeable(ResourceType::kStatic));
}

TEST(Fabric, ConstructionAndMutation) {
  Fabric f(8, 4);
  EXPECT_EQ(f.width(), 8);
  EXPECT_EQ(f.height(), 4);
  EXPECT_EQ(f.at(0, 0), ResourceType::kClb);
  f.set(3, 2, ResourceType::kDsp);
  EXPECT_EQ(f.at(3, 2), ResourceType::kDsp);
  f.set_column(5, ResourceType::kBram);
  for (int y = 0; y < 4; ++y) EXPECT_EQ(f.at(5, y), ResourceType::kBram);
  f.set_rect(Rect{6, 1, 10, 2}, ResourceType::kStatic);  // clipped
  EXPECT_EQ(f.at(7, 1), ResourceType::kStatic);
  EXPECT_EQ(f.at(7, 0), ResourceType::kClb);
}

TEST(Fabric, RejectsDegenerateDimensions) {
  EXPECT_THROW(Fabric(0, 5), InvalidInput);
  EXPECT_THROW(Fabric(5, -1), InvalidInput);
}

TEST(Fabric, SetRectRejectsEmptyAndFullyOutOfBoundsInputs) {
  Fabric f(8, 4);
  // Empty and fully out-of-bounds rectangles are caller bugs: the mutation
  // would silently do nothing, so the contract asserts instead of clipping.
  EXPECT_THROW(f.set_rect(Rect{0, 0, 0, 2}, ResourceType::kStatic),
               std::logic_error);
  EXPECT_THROW(f.set_rect(Rect{3, 1, 2, -1}, ResourceType::kStatic),
               std::logic_error);
  EXPECT_THROW(f.set_rect(Rect{20, 20, 2, 2}, ResourceType::kStatic),
               std::logic_error);
  EXPECT_THROW(f.set_rect(Rect{-5, 0, 3, 2}, ResourceType::kStatic),
               std::logic_error);
  // A partial overlap is still clipped to the fabric, not rejected.
  f.set_rect(Rect{6, 2, 10, 10}, ResourceType::kBram);
  EXPECT_EQ(f.at(7, 3), ResourceType::kBram);
  EXPECT_EQ(f.at(5, 3), ResourceType::kClb);
}

TEST(Fabric, SetColumnRejectsOutOfBoundsIndex) {
  Fabric f(8, 4);
  EXPECT_THROW(f.set_column(-1, ResourceType::kBram), std::logic_error);
  EXPECT_THROW(f.set_column(8, ResourceType::kBram), std::logic_error);
  f.set_column(7, ResourceType::kBram);  // last valid column is fine
  EXPECT_EQ(f.at(7, 0), ResourceType::kBram);
}

TEST(Fabric, ResourceCounts) {
  Fabric f(4, 2);
  f.set_column(1, ResourceType::kBram);
  const auto counts = f.resource_counts();
  EXPECT_EQ(counts[static_cast<int>(ResourceType::kClb)], 6);
  EXPECT_EQ(counts[static_cast<int>(ResourceType::kBram)], 2);
}

TEST(Builders, Homogeneous) {
  const Fabric f = make_homogeneous(10, 5);
  const auto counts = f.resource_counts();
  EXPECT_EQ(counts[static_cast<int>(ResourceType::kClb)], 50);
}

TEST(Builders, ColumnarPlacesBramColumns) {
  ColumnarSpec spec;
  spec.bram_period = 4;
  spec.bram_offset = 1;
  spec.dsp_period = 0;
  spec.center_clock_column = false;
  spec.edge_io = false;
  const Fabric f = make_columnar(10, 3, spec);
  for (const int x : {1, 5, 9})
    EXPECT_EQ(f.at(x, 0), ResourceType::kBram) << x;
  EXPECT_EQ(f.at(2, 0), ResourceType::kClb);
}

TEST(Builders, ColumnarEdgeIoAndClock) {
  ColumnarSpec spec;
  spec.bram_period = 0;
  spec.dsp_period = 0;
  const Fabric f = make_columnar(11, 3, spec);
  EXPECT_EQ(f.at(0, 1), ResourceType::kIo);
  EXPECT_EQ(f.at(10, 1), ResourceType::kIo);
  EXPECT_EQ(f.at(5, 1), ResourceType::kClock);
}

TEST(Builders, IrregularIsDeterministicPerSeed) {
  IrregularSpec spec;
  const Fabric a = make_irregular(40, 16, spec, 7);
  const Fabric b = make_irregular(40, 16, spec, 7);
  const Fabric c = make_irregular(40, 16, spec, 8);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(Builders, EvaluationDeviceHasStaticFlank) {
  const Fabric f = make_evaluation_device();
  EXPECT_EQ(f.width(), 120);
  EXPECT_EQ(f.height(), 48);
  EXPECT_EQ(f.at(110, 10), ResourceType::kStatic);
  EXPECT_NE(f.at(50, 10), ResourceType::kStatic);
}

TEST(PartialRegion, WholeFabricExcludesStatic) {
  auto fabric = std::make_shared<const Fabric>(make_evaluation_device());
  const PartialRegion region(fabric);
  EXPECT_EQ(region.width(), 120);
  EXPECT_FALSE(region.available(110, 10));  // static flank
  EXPECT_TRUE(region.available(1, 1));
  const auto counts = region.available_counts();
  EXPECT_EQ(counts[static_cast<int>(ResourceType::kStatic)], 0);
  EXPECT_GT(counts[static_cast<int>(ResourceType::kClb)], 0);
}

TEST(PartialRegion, WindowUsesLocalCoordinates) {
  auto fabric = std::make_shared<const Fabric>(make_homogeneous(10, 10));
  const PartialRegion region(fabric, Rect{4, 2, 5, 6});
  EXPECT_EQ(region.width(), 5);
  EXPECT_EQ(region.height(), 6);
  EXPECT_TRUE(region.available(0, 0));   // fabric (4,2)
  EXPECT_FALSE(region.available(5, 0));  // outside window
  EXPECT_EQ(region.total_available(), 30);
}

TEST(PartialRegion, RejectsWindowOutsideFabric) {
  auto fabric = std::make_shared<const Fabric>(make_homogeneous(4, 4));
  EXPECT_THROW(PartialRegion(fabric, Rect{2, 2, 4, 4}), InvalidInput);
  EXPECT_THROW(PartialRegion(fabric, Rect{0, 0, 0, 0}), InvalidInput);
}

TEST(PartialRegion, BlockRemovesTiles) {
  auto fabric = std::make_shared<const Fabric>(make_homogeneous(6, 6));
  PartialRegion region(fabric);
  region.block(Rect{0, 0, 3, 6});
  EXPECT_FALSE(region.available(1, 1));
  EXPECT_TRUE(region.available(3, 1));
  EXPECT_EQ(region.total_available(), 18);
  EXPECT_EQ(region.available_in_columns(3), 0);
  EXPECT_EQ(region.available_in_columns(4), 6);
}

TEST(PartialRegion, BlockMaskEmptyBitmapIsANoOp) {
  auto fabric = std::make_shared<const Fabric>(make_homogeneous(6, 4));
  PartialRegion region(fabric);
  const long before = region.total_available();
  region.block_mask(BitMatrix(4, 6));  // region-shaped, all zero
  EXPECT_EQ(region.total_available(), before);
  EXPECT_TRUE(region.available(0, 0));
}

TEST(PartialRegion, BlockMaskRejectsDimensionMismatch) {
  auto fabric = std::make_shared<const Fabric>(make_homogeneous(6, 4));
  PartialRegion region(fabric);
  EXPECT_THROW(region.block_mask(BitMatrix(4, 7)), InvalidInput);
  EXPECT_THROW(region.block_mask(BitMatrix(3, 6)), InvalidInput);
  EXPECT_THROW(region.block_mask(BitMatrix(0, 0)), InvalidInput);
  // Failed calls must not have blocked anything.
  EXPECT_EQ(region.total_available(), 24);
}

TEST(PartialRegion, FullyBlockedMaskEmptiesTheRegion) {
  auto fabric = std::make_shared<const Fabric>(make_homogeneous(5, 3));
  PartialRegion region(fabric);
  BitMatrix all(3, 5);
  for (int y = 0; y < 3; ++y)
    for (int x = 0; x < 5; ++x) all.set(y, x, true);
  region.block_mask(all);
  EXPECT_EQ(region.total_available(), 0);
  for (int y = 0; y < 3; ++y)
    for (int x = 0; x < 5; ++x) EXPECT_FALSE(region.available(x, y));
  for (const auto& mask : region.masks()) EXPECT_EQ(mask.popcount(), 0);
}

TEST(PartialRegion, BlockMaskMatchesARebuiltRegion) {
  // block_mask updates the resource masks by AND-NOT. Interleaved with
  // fault overlays (applied, replaced, repaired), the masks must equal
  // those of a region rebuilt tile by tile from the same blocked and
  // faulty cells.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed * 977 + 1);
    const int width = rng.uniform_int(9, 70);
    const int height = rng.uniform_int(4, 14);
    auto fabric = std::make_shared<const Fabric>(
        make_irregular(width, height, IrregularSpec{}, seed));
    PartialRegion region(fabric);
    BitMatrix blocked(height, width);
    BitMatrix faulty(height, width);
    const auto random_cells = [&](double density) {
      BitMatrix cells(height, width);
      for (int y = 0; y < height; ++y)
        for (int x = 0; x < width; ++x)
          if (rng.chance(density)) cells.set(y, x, true);
      return cells;
    };
    const auto expect_rebuilt_masks = [&](const char* step) {
      PartialRegion rebuilt(fabric);
      for (int y = 0; y < height; ++y)
        for (int x = 0; x < width; ++x)
          if (blocked.get(y, x)) rebuilt.block(Rect{x, y, 1, 1});
      rebuilt.set_fault_mask(faulty);
      EXPECT_EQ(region.masks(), rebuilt.masks())
          << "seed " << seed << " after " << step;
      EXPECT_EQ(region.total_available(), rebuilt.total_available());
    };
    for (int round = 0; round < 3; ++round) {
      const BitMatrix cells = random_cells(0.1);
      blocked.or_with(cells);
      region.block_mask(cells);
      expect_rebuilt_masks("block_mask");
      // A new fault overlay replaces the old one: tiles it drops return
      // to service unless blocked.
      FaultMap faults(*fabric);
      faulty = random_cells(0.05);
      for (int y = 0; y < height; ++y)
        for (int x = 0; x < width; ++x)
          if (faulty.get(y, x)) faults.inject(x, y, FaultKind::kPermanent);
      region.apply_faults(faults);
      expect_rebuilt_masks("apply_faults");
    }
    const BitMatrix cells = random_cells(0.2);
    blocked.or_with(cells);
    region.block_mask(cells);
    expect_rebuilt_masks("block_mask after faults");
    faulty.clear();
    region.apply_faults(FaultMap(*fabric));
    expect_rebuilt_masks("repair");
  }
}

TEST(PartialRegion, AvailableIsFalseOutsideTheWindow) {
  auto fabric = std::make_shared<const Fabric>(make_homogeneous(5, 3));
  const PartialRegion region(fabric, Rect{1, 1, 3, 2});
  EXPECT_TRUE(region.available(0, 0));
  EXPECT_FALSE(region.available(-1, 0));
  EXPECT_FALSE(region.available(0, -1));
  EXPECT_FALSE(region.available(3, 0));  // window is 3 wide
  EXPECT_FALSE(region.available(0, 2));  // window is 2 tall
}

TEST(PartialRegion, MasksMatchAvailability) {
  auto fabric = std::make_shared<const Fabric>(make_evaluation_device());
  const PartialRegion region(fabric);
  const auto& masks = region.masks();
  ASSERT_EQ(masks.size(), static_cast<std::size_t>(kNumResourceTypes));
  for (int y = 0; y < region.height(); ++y) {
    for (int x = 0; x < region.width(); ++x) {
      int set_count = 0;
      for (const auto& mask : masks) set_count += mask.get(y, x);
      EXPECT_EQ(set_count, region.available(x, y) ? 1 : 0)
          << "tile " << x << "," << y;
    }
  }
}

TEST(Fdf, RoundTrip) {
  const Fabric original = make_evaluation_device(99);
  const Fabric parsed = parse_fdf_string(write_fdf_string(original));
  EXPECT_EQ(parsed, original);
  EXPECT_EQ(parsed.name(), original.name());
}

TEST(Fdf, ParsesMinimalFabric) {
  const Fabric f = parse_fdf_string(
      "# comment\n"
      "fabric tiny 3 2\n"
      "row 0 CBC\n"
      "row 1 CCS\n");
  EXPECT_EQ(f.width(), 3);
  EXPECT_EQ(f.at(1, 0), ResourceType::kBram);
  EXPECT_EQ(f.at(2, 1), ResourceType::kStatic);
}

TEST(Fdf, StaticRectangleRetypesTiles) {
  // The static directive is applied after all rows are painted, so it wins
  // regardless of where it appears relative to the row lines.
  const Fabric f = parse_fdf_string(
      "fabric t 4 2\n"
      "static 1 0 2 1\n"
      "row 0 CCCC\n"
      "row 1 BBBB\n"
      "static 3 1 1 1\n");
  EXPECT_EQ(f.at(0, 0), ResourceType::kClb);
  EXPECT_EQ(f.at(1, 0), ResourceType::kStatic);
  EXPECT_EQ(f.at(2, 0), ResourceType::kStatic);
  EXPECT_EQ(f.at(3, 0), ResourceType::kClb);
  EXPECT_EQ(f.at(3, 1), ResourceType::kStatic);
  EXPECT_EQ(f.at(0, 1), ResourceType::kBram);
}

TEST(Fdf, StaticRectangleOutOfBoundsReportsLine) {
  try {
    static_cast<void>(parse_fdf_string(
        "fabric t 4 2\nrow 0 CCCC\nrow 1 CCCC\nstatic 3 0 2 1\n"));
    FAIL() << "out-of-bounds static rectangle must throw";
  } catch (const InvalidInput& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("fdf:4:"), std::string::npos) << what;
    EXPECT_NE(what.find("out of bounds"), std::string::npos) << what;
  }
}

TEST(Fdf, OverlappingStaticRectanglesReportLine) {
  try {
    static_cast<void>(parse_fdf_string(
        "fabric t 4 2\n"
        "row 0 CCCC\n"
        "row 1 CCCC\n"
        "static 0 0 2 2\n"
        "static 1 1 2 1\n"));
    FAIL() << "overlapping static rectangles must throw";
  } catch (const InvalidInput& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("fdf:5:"), std::string::npos) << what;
    EXPECT_NE(what.find("overlaps"), std::string::npos) << what;
  }
}

TEST(Fdf, RowsInAnyOrder) {
  const Fabric f = parse_fdf_string(
      "fabric t 2 2\nrow 1 BB\nrow 0 CC\n");
  EXPECT_EQ(f.at(0, 1), ResourceType::kBram);
  EXPECT_EQ(f.at(0, 0), ResourceType::kClb);
}

TEST(Fdf, AcceptsCrlfLineEndings) {
  const Fabric f = parse_fdf_string(
      "# dos file\r\n"
      "fabric tiny 3 2\r\n"
      "row 0 CBC\r\n"
      "row 1 CCS\r\n");
  EXPECT_EQ(f.width(), 3);
  EXPECT_EQ(f.at(1, 0), ResourceType::kBram);
  EXPECT_EQ(f.at(2, 1), ResourceType::kStatic);
}

TEST(Fdf, EmptyInputReportsEmptyFabricFile) {
  // Not the misleading "fdf:0: missing fabric header".
  try {
    static_cast<void>(parse_fdf_string(""));
    FAIL() << "empty input must throw";
  } catch (const InvalidInput& e) {
    EXPECT_NE(std::string(e.what()).find("empty fabric file"),
              std::string::npos)
        << e.what();
  }
}

TEST(Fdf, OversizedHeaderIsRejectedBeforeAllocation) {
  // 10^10 tiles would be tens of gigabytes; the header alone is refused.
  try {
    static_cast<void>(parse_fdf_string("fabric f 100000 100000\n"));
    FAIL() << "oversized header must throw";
  } catch (const InvalidInput& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("fdf:1: fabric of 100000x100000 tiles exceeds the "
                        "limit of 16777216 tiles"),
              std::string::npos)
        << what;
  }
}

TEST(Fdf, UnknownResourceCharacterReportsColumn) {
  try {
    static_cast<void>(parse_fdf_string("fabric t 4 1\nrow 0 CCXC\n"));
    FAIL() << "bad character must throw";
  } catch (const InvalidInput& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'X'"), std::string::npos) << what;
    EXPECT_NE(what.find("column 3"), std::string::npos) << what;  // 1-based
  }
}

class FdfErrorTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FdfErrorTest, RejectsMalformedInput) {
  EXPECT_THROW(parse_fdf_string(GetParam()), InvalidInput);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FdfErrorTest,
    ::testing::Values(
        "",                                          // empty
        "row 0 CC\n",                                // row before header
        "fabric t 0 2\nrow 0 \n",                    // zero width
        "fabric t 2 2\nrow 0 CC\n",                  // missing row 1
        "fabric t 2 2\nrow 0 CC\nrow 0 CC\nrow 1 CC\n",  // duplicate row
        "fabric t 2 1\nrow 0 CCC\n",                 // row too long
        "fabric t 2 1\nrow 0 CX\n",                  // bad character
        "fabric t 2 1\nrow 5 CC\n",                  // row out of range
        "fabric t 2 1\nbogus\n",                     // unknown directive
        "fabric t 2 1\nfabric t 2 1\nrow 0 CC\n",    // duplicate header
        "static 0 0 1 1\nfabric t 2 1\nrow 0 CC\n",  // static before header
        "fabric t 2 1\nrow 0 CC\nstatic 0 0\n",      // static field count
        "fabric t 2 1\nrow 0 CC\nstatic 0 0 a 1\n",  // non-integer static
        "fabric t 2 1\nrow 0 CC\nstatic 0 0 0 1\n",  // zero-width static
        "fabric t 2 1\nrow 0 CC\nstatic 0 0 1 -1\n",  // negative static
        "fabric t 2 1\nrow 0 CC\nstatic 0 0 3 1\n",  // static oob
        "fabric t 4097 4096\n",                     // 2^24 + 4096 tiles
        "fabric t 16777217 1\n"));                  // 2^24 + 1 tiles

TEST(Fdf, FileRoundTrip) {
  const Fabric original = make_columnar(12, 6);
  const std::string path = ::testing::TempDir() + "/rr_fabric.fdf";
  save_fdf(path, original);
  EXPECT_EQ(load_fdf(path), original);
}

TEST(Fdf, LoadMissingFileThrows) {
  EXPECT_THROW(load_fdf("/nonexistent/path/x.fdf"), InvalidInput);
}

}  // namespace
}  // namespace rr::fpga
