// Batch anchor-feasibility kernels (geost/anchor_kernel) vs their scalar
// oracles.
//
// The batch kernels answer "which anchors fit / which anchors conflict"
// for ALL anchors of a shape at once via erosion / dilation sweeps; the
// contract is bit-identical agreement with the per-anchor covers_shifted /
// intersects_shifted loops they replaced. This suite checks that contract
// two ways: directly on random fabrics, and through the NonOverlap
// propagator's batch delta pruning (random walks and full search vs the
// from-scratch reference engine, which checks every placement per anchor). The online defrag ranking's use of the conflict
// kernel is covered by online_defrag_fuzz_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <vector>

#include "cp/search.hpp"
#include "cp_test_utils.hpp"
#include "geost/anchor_kernel.hpp"
#include "geost/nonoverlap.hpp"
#include "geost/object.hpp"
#include "reference/anchors.hpp"
#include "reference/nonoverlap.hpp"
#include "util/rng.hpp"

namespace rr::geost {
namespace {

constexpr int kClb = 0;
constexpr int kBram = 1;

ShapeFootprint rect_shape(int w, int h, int resource = kClb) {
  std::vector<Point> cells;
  for (int x = 0; x < w; ++x)
    for (int y = 0; y < h; ++y) cells.push_back({x, y});
  return ShapeFootprint::from_typed(
      {TypedCells{resource, CellSet(std::move(cells), false)}});
}

/// 2x2 shape: bottom row BRAM, top row CLB.
ShapeFootprint mixed_shape() {
  return ShapeFootprint::from_typed(
      {TypedCells{kClb, CellSet({{1, 0}, {1, 1}}, false)},
       TypedCells{kBram, CellSet({{0, 0}, {0, 1}}, false)}});
}

/// Random (possibly non-convex) footprint over up to `num_resources`
/// resource types inside a w x h bounding box.
ShapeFootprint random_shape(Rng& rng, int max_w, int max_h,
                            int num_resources) {
  const int w = 1 + static_cast<int>(rng.bounded(
                        static_cast<std::uint64_t>(max_w)));
  const int h = 1 + static_cast<int>(rng.bounded(
                        static_cast<std::uint64_t>(max_h)));
  std::vector<std::vector<Point>> cells(
      static_cast<std::size_t>(num_resources));
  for (int x = 0; x < w; ++x) {
    for (int y = 0; y < h; ++y) {
      if (rng.bounded(100) < 65) {
        cells[rng.bounded(static_cast<std::uint64_t>(num_resources))]
            .push_back({x, y});
      }
    }
  }
  std::vector<TypedCells> groups;
  for (int res = 0; res < num_resources; ++res) {
    if (!cells[static_cast<std::size_t>(res)].empty()) {
      groups.push_back(TypedCells{
          res, CellSet(std::move(cells[static_cast<std::size_t>(res)]),
                       false)});
    }
  }
  if (groups.empty())
    groups.push_back(TypedCells{0, CellSet({{0, 0}}, false)});
  return ShapeFootprint::from_typed(groups);
}

/// Random fabric: each cell offers one random resource type or none
/// (a hole), so availability masks are irregular in every direction.
std::vector<BitMatrix> random_masks(Rng& rng, int width, int height,
                                    int num_resources, int hole_pct) {
  std::vector<BitMatrix> masks(static_cast<std::size_t>(num_resources),
                               BitMatrix(height, width));
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      if (rng.bounded(100) < static_cast<std::uint64_t>(hole_pct)) continue;
      masks[rng.bounded(static_cast<std::uint64_t>(num_resources))].set(y, x,
                                                                        true);
    }
  }
  return masks;
}

// --- Direct kernel-vs-oracle checks ----------------------------------------

TEST(BatchValidAnchors, MatchesScalarOracleOnRandomFabrics) {
  Rng rng(1001);
  // Region widths straddle the 64-bit word edge — the case the erosion
  // sweeps can get wrong.
  for (const int width : {9, 30, 63, 64, 65, 70}) {
    for (int round = 0; round < 8; ++round) {
      const int height = 3 + static_cast<int>(rng.bounded(6));
      const auto masks = random_masks(rng, width, height, 2, 15);
      const ShapeFootprint shape = random_shape(rng, 5, 3, 2);

      const auto batch = compute_valid_anchors(masks, shape);
      const auto scalar = reference::compute_valid_anchors_scalar(masks, shape);
      ASSERT_EQ(batch, scalar)
          << "width=" << width << " round=" << round << " shape\n"
          << shape.mask().to_string();

      // The raw fit bitmap agrees with covers_shifted at EVERY anchor,
      // including ones where the bounding box hangs outside the region.
      const BitMatrix fit = batch_valid_anchors(masks, shape);
      for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) {
          bool want = true;
          for (std::size_t g = 0; g < shape.typed().size(); ++g) {
            const auto res =
                static_cast<std::size_t>(shape.typed()[g].resource);
            want = want && masks[res].covers_shifted(shape.typed_masks()[g],
                                                     y, x);
          }
          ASSERT_EQ(fit.get(y, x), want)
              << "anchor (" << x << "," << y << ") width=" << width;
        }
      }
    }
  }
}

TEST(BatchValidAnchors, UnknownResourceYieldsNoAnchors) {
  Rng rng(1002);
  const auto masks = random_masks(rng, 12, 4, 1, 0);
  const ShapeFootprint shape = mixed_shape();  // demands kBram = resource 1
  EXPECT_EQ(batch_valid_anchors(masks, shape).popcount(), 0u);
  EXPECT_TRUE(compute_valid_anchors(masks, shape).empty());
  EXPECT_TRUE(reference::compute_valid_anchors_scalar(masks, shape).empty());
}

TEST(BatchValidAnchors, ShapeLargerThanRegionHasNone) {
  const std::vector<BitMatrix> masks{BitMatrix(3, 5, true)};
  EXPECT_EQ(batch_valid_anchors(masks, rect_shape(6, 2)).popcount(), 0u);
  EXPECT_EQ(batch_valid_anchors(masks, rect_shape(2, 4)).popcount(), 0u);
}

TEST(AccumulateConflicts, MatchesIntersectsShiftedOracle) {
  Rng rng(1003);
  for (const int width : {10, 63, 64, 65}) {
    for (int round = 0; round < 8; ++round) {
      const int height = 4 + static_cast<int>(rng.bounded(4));
      BitMatrix occ(height, width);
      for (int y = 0; y < height; ++y)
        for (int x = 0; x < width; ++x)
          if (rng.bounded(100) < 30) occ.set(y, x, true);
      const ShapeFootprint shape = random_shape(rng, 4, 3, 1);
      const BitMatrix& shape_mask = shape.mask();

      BitMatrix conflict(height, width);
      accumulate_conflicts(conflict, occ, shape_mask, 0, height);
      for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) {
          ASSERT_EQ(conflict.get(y, x),
                    occ.intersects_shifted(shape_mask, y, x))
              << "anchor (" << x << "," << y << ") width=" << width;
        }
      }
    }
  }
}

TEST(AccumulateConflicts, RespectsRowStripeAndAccumulates) {
  // Rows outside [row_lo, row_hi) must be untouched, and bits already set
  // in the destination must survive (the kernel ORs, never clears).
  Rng rng(1004);
  const int width = 40, height = 8;
  BitMatrix occ(height, width);
  for (int y = 0; y < height; ++y)
    for (int x = 0; x < width; ++x)
      if (rng.bounded(100) < 35) occ.set(y, x, true);
  const ShapeFootprint shape = rect_shape(3, 2);
  const BitMatrix& shape_mask = shape.mask();

  BitMatrix conflict(height, width);
  conflict.set(0, 5, true);  // pre-set sentinel outside the stripe
  conflict.set(4, 7, true);  // pre-set sentinel inside the stripe
  accumulate_conflicts(conflict, occ, shape_mask, 2, 6);
  EXPECT_TRUE(conflict.get(0, 5));
  EXPECT_TRUE(conflict.get(4, 7));
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const bool sentinel = (y == 0 && x == 5) || (y == 4 && x == 7);
      const bool want = (y >= 2 && y < 6)
                            ? occ.intersects_shifted(shape_mask, y, x)
                            : false;
      EXPECT_EQ(conflict.get(y, x), want || sentinel)
          << "(" << x << "," << y << ")";
    }
  }
}

TEST(ErodeFit, MatchesCoversShiftedOracle) {
  Rng rng(1005);
  for (int round = 0; round < 10; ++round) {
    const int width = 20 + static_cast<int>(rng.bounded(50));
    const int height = 3 + static_cast<int>(rng.bounded(5));
    const auto masks = random_masks(rng, width, height, 1, 20);
    const ShapeFootprint shape = random_shape(rng, 6, 3, 1);
    const BitMatrix& shape_mask = shape.mask();

    BitMatrix fit(height, width, /*fill=*/true);
    erode_fit(fit, masks[0], shape_mask, 0, height);
    for (int y = 0; y < height; ++y)
      for (int x = 0; x < width; ++x)
        ASSERT_EQ(fit.get(y, x), masks[0].covers_shifted(shape_mask, y, x))
            << "anchor (" << x << "," << y << ") round=" << round;
  }
}

// --- NonOverlap: batch delta pruning vs the from-scratch reference ----------

/// Masks for a width x height all-CLB region with optional BRAM columns.
std::vector<BitMatrix> region_masks(int width, int height,
                                    const std::vector<int>& bram_columns = {}) {
  std::vector<BitMatrix> masks(2, BitMatrix(height, width));
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const bool is_bram =
          std::find(bram_columns.begin(), bram_columns.end(), x) !=
          bram_columns.end();
      masks[is_bram ? kBram : kClb].set(y, x, true);
    }
  }
  return masks;
}

struct DiffSetup {
  cp::Space space;
  std::vector<GeostObject> objects;
};

/// Four polymorphic objects on an 8x5 region with a BRAM column, under the
/// production engine with its batch path forced on every domain size or
/// (`oracle`) the from-scratch reference engine.
std::unique_ptr<DiffSetup> diff_setup(bool oracle) {
  constexpr int kWidth = 8, kHeight = 5;
  auto setup = std::make_unique<DiffSetup>();
  const auto masks = region_masks(kWidth, kHeight, {3});
  auto shapes = std::make_shared<std::vector<ShapeFootprint>>();
  shapes->push_back(rect_shape(2, 2));
  shapes->push_back(rect_shape(3, 1));
  shapes->push_back(mixed_shape());
  std::vector<std::vector<Point>> anchors;
  for (const ShapeFootprint& shape : *shapes)
    anchors.push_back(compute_valid_anchors(masks, shape));
  for (int i = 0; i < 4; ++i)
    setup->objects.push_back(make_object(setup->space, shapes, anchors));
  NonOverlapOptions options;
  options.compulsory_threshold = 64;  // soft parts everywhere
  options.batch_threshold = 0;  // force the batch path on every domain size
  if (oracle) {
    reference::post_non_overlap_scratch(setup->space, setup->objects, kWidth,
                                        kHeight, options);
  } else {
    post_non_overlap(setup->space, setup->objects, kWidth, kHeight, options);
  }
  return setup;
}

// Random push/assign/remove/pop walks through the batch engine and the
// from-scratch reference side by side: fail verdicts and all domains must
// stay identical at every step.
TEST(NonOverlapBatch, RandomWalksMatchPerAnchorOracle) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    auto batch = diff_setup(/*oracle=*/false);
    auto oracle = diff_setup(/*oracle=*/true);
    Rng rng(seed * 6151 + 3);

    const auto domains_match = [&]() {
      for (std::size_t i = 0; i < batch->objects.size(); ++i) {
        const cp::Domain& da = batch->space.dom(batch->objects[i].var());
        const cp::Domain& db = oracle->space.dom(oracle->objects[i].var());
        if (!(da == db)) return false;
      }
      return true;
    };

    ASSERT_EQ(batch->space.propagate(), oracle->space.propagate());
    ASSERT_TRUE(domains_match()) << "seed " << seed << " at root";

    int depth = 0;
    for (int step = 0; step < 120; ++step) {
      const auto op = rng.bounded(4);
      if (op == 3) {
        if (depth == 0) continue;
        batch->space.pop();
        oracle->space.pop();
        --depth;
        ASSERT_TRUE(domains_match())
            << "seed " << seed << " step " << step << " after pop";
        continue;
      }
      std::vector<std::size_t> open;
      for (std::size_t i = 0; i < batch->objects.size(); ++i)
        if (!batch->space.assigned(batch->objects[i].var())) open.push_back(i);
      if (open.empty()) break;
      const std::size_t obj = open[rng.bounded(open.size())];
      const cp::VarId va = batch->objects[obj].var();
      const cp::VarId vb = oracle->objects[obj].var();
      std::vector<int> values;
      batch->space.dom(va).for_each([&](int v) { values.push_back(v); });
      const int value = values[rng.bounded(values.size())];

      batch->space.push();
      oracle->space.push();
      ++depth;
      if (op == 0) {
        batch->space.assign(va, value);
        oracle->space.assign(vb, value);
      } else {
        batch->space.remove(va, value);
        oracle->space.remove(vb, value);
      }
      const bool ok_a = batch->space.propagate();
      const bool ok_b = oracle->space.propagate();
      ASSERT_EQ(ok_a, ok_b) << "seed " << seed << " step " << step;
      if (!ok_a) {
        batch->space.pop();
        oracle->space.pop();
        --depth;
        continue;
      }
      ASSERT_TRUE(domains_match())
          << "seed " << seed << " step " << step << " value " << value;
    }
  }
}

TEST(NonOverlapBatch, SearchFindsIdenticalSolutionSets) {
  auto batch = diff_setup(/*oracle=*/false);
  auto oracle = diff_setup(/*oracle=*/true);
  std::vector<cp::VarId> vars_a, vars_b;
  for (const GeostObject& o : batch->objects) vars_a.push_back(o.var());
  for (const GeostObject& o : oracle->objects) vars_b.push_back(o.var());
  EXPECT_EQ(cp::testing::solve_all(batch->space, vars_a),
            cp::testing::solve_all(oracle->space, vars_b));
}

}  // namespace
}  // namespace rr::geost
