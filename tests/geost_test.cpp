// geost kernel tests: footprints, resource-aware anchors, placement
// tables, polymorphic objects and the non-overlap propagator.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <random>

#include "cp/search.hpp"
#include "cp_test_utils.hpp"
#include "geost/nonoverlap.hpp"
#include "geost/object.hpp"
#include "reference/nonoverlap.hpp"

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

/// 2x2 shape: left column BRAM, right column CLB.
ShapeFootprint mixed_shape() {
  return ShapeFootprint::from_typed(
      {TypedCells{kClb, CellSet({{1, 0}, {1, 1}}, false)},
       TypedCells{kBram, CellSet({{0, 0}, {0, 1}}, false)}});
}

/// Masks for a width x height all-CLB region, with optional BRAM columns.
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

TEST(ShapeFootprint, JointNormalization) {
  // Groups placed away from the origin normalize jointly, preserving the
  // relative offset between resource groups.
  const ShapeFootprint fp = ShapeFootprint::from_typed(
      {TypedCells{kClb, CellSet({{5, 5}}, false)},
       TypedCells{kBram, CellSet({{6, 5}, {6, 6}}, false)}});
  EXPECT_EQ(fp.bounding_box(), (Rect{0, 0, 2, 2}));
  EXPECT_EQ(fp.area(), 3);
  EXPECT_TRUE(fp.all_cells().contains(Point{0, 0}));   // the CLB
  EXPECT_TRUE(fp.all_cells().contains(Point{1, 0}));
  EXPECT_TRUE(fp.all_cells().contains(Point{1, 1}));
  EXPECT_EQ(fp.demand(kClb), 1);
  EXPECT_EQ(fp.demand(kBram), 2);
  EXPECT_EQ(fp.demand(99), 0);
}

TEST(ShapeFootprint, MergesGroupsOfSameResource) {
  const ShapeFootprint fp = ShapeFootprint::from_typed(
      {TypedCells{kClb, CellSet({{0, 0}})},
       TypedCells{kClb, CellSet({{1, 0}}, false)}});
  EXPECT_EQ(fp.typed().size(), 1u);
  EXPECT_EQ(fp.demand(kClb), 2);
}

TEST(ShapeFootprint, RejectsOverlappingGroups) {
  EXPECT_THROW(ShapeFootprint::from_typed(
                   {TypedCells{kClb, CellSet({{0, 0}})},
                    TypedCells{kBram, CellSet({{0, 0}})}}),
               InvalidInput);
}

TEST(ShapeFootprint, RejectsEmpty) {
  EXPECT_THROW(ShapeFootprint::from_typed({}), InvalidInput);
  EXPECT_THROW(ShapeFootprint::from_typed(
                   {TypedCells{kClb, CellSet(std::vector<Point>{})}}),
               InvalidInput);
}

TEST(ShapeFootprint, MaskMatchesCells) {
  const ShapeFootprint fp = mixed_shape();
  EXPECT_EQ(fp.mask().popcount(), 4u);
  EXPECT_TRUE(fp.mask().get(0, 0));
  EXPECT_TRUE(fp.mask().get(1, 1));
}

TEST(ValidAnchors, HomogeneousRegionGivesFullGrid) {
  const auto masks = region_masks(5, 4);
  const auto anchors = compute_valid_anchors(masks, rect_shape(2, 2));
  // (5-2+1) x (4-2+1) = 12 anchors.
  EXPECT_EQ(anchors.size(), 12u);
  EXPECT_EQ(anchors.front(), (Point{0, 0}));
  EXPECT_EQ(anchors.back(), (Point{3, 2}));
}

TEST(ValidAnchors, ResourceTypesRestrictPlacement) {
  // BRAM column at x=2 in a 6x2 region; the mixed 2x2 shape needs its BRAM
  // column on x=2, so the only anchor is (2,0).
  const auto masks = region_masks(6, 2, {2});
  const auto anchors = compute_valid_anchors(masks, mixed_shape());
  ASSERT_EQ(anchors.size(), 1u);
  EXPECT_EQ(anchors[0], (Point{2, 0}));
}

TEST(ValidAnchors, ClbShapesAvoidBramColumns) {
  const auto masks = region_masks(6, 1, {2});
  const auto anchors = compute_valid_anchors(masks, rect_shape(2, 1));
  // Valid x: 0 (cols 0-1), 3 (3-4), 4 (4-5). x=1,2 touch the BRAM column.
  std::vector<int> xs;
  for (const Point& a : anchors) xs.push_back(a.x);
  EXPECT_EQ(xs, (std::vector<int>{0, 3, 4}));
}

TEST(ValidAnchors, ShapeLargerThanRegionHasNone) {
  const auto masks = region_masks(3, 3);
  EXPECT_TRUE(compute_valid_anchors(masks, rect_shape(4, 1)).empty());
}

TEST(ValidAnchors, UnknownResourceHasNone) {
  const auto masks = region_masks(3, 3);
  EXPECT_TRUE(compute_valid_anchors(masks, rect_shape(1, 1, /*resource=*/7))
                  .empty());
}

TEST(PlacementTable, SortedByExtentThenXThenY) {
  std::vector<ShapeFootprint> shapes{rect_shape(2, 1), rect_shape(1, 2)};
  const std::vector<std::vector<Point>> anchors{
      {{0, 0}, {1, 0}},  // wide shape: extents 2, 3
      {{0, 0}, {0, 1}},  // narrow shape: extent 1
  };
  const auto table = sorted_placement_table(shapes, anchors);
  ASSERT_EQ(table.size(), 4u);
  EXPECT_EQ(table[0].shape, 1);  // extent 1 first
  EXPECT_EQ(table[1].shape, 1);
  EXPECT_EQ(table[0].y, 0);
  EXPECT_EQ(table[1].y, 1);
  EXPECT_EQ(table[2].shape, 0);  // extent 2
  EXPECT_EQ(table[3].shape, 0);  // extent 3
}

TEST(GeostObjectTest, ExtentAndBBox) {
  cp::Space space;
  auto shapes = std::make_shared<std::vector<ShapeFootprint>>();
  shapes->push_back(rect_shape(3, 2));
  const std::vector<std::vector<Point>> anchors{{{1, 2}, {0, 0}}};
  const GeostObject object = make_object(space, shapes, anchors);
  ASSERT_EQ(object.table().size(), 2u);
  EXPECT_EQ(object.extent_x_of(0), 3);  // anchor (0,0)
  EXPECT_EQ(object.extent_x_of(1), 4);  // anchor (1,2)
  EXPECT_EQ(object.bbox_of(1), (Rect{1, 2, 3, 2}));
  EXPECT_EQ(object.extent_table(), (std::vector<int>{3, 4}));
  EXPECT_EQ(object.min_area(), 6);
}

TEST(GeostObjectTest, EmptyTableFailsSpace) {
  cp::Space space;
  auto shapes = std::make_shared<std::vector<ShapeFootprint>>();
  shapes->push_back(rect_shape(2, 2));
  const std::vector<std::vector<Point>> anchors{{}};
  const GeostObject object = make_object(space, shapes, anchors);
  EXPECT_TRUE(object.table().empty());
  EXPECT_TRUE(space.failed());
}

// --- Non-overlap propagator --------------------------------------------------

struct TwoObjects {
  cp::Space space;
  GeostObject a, b;
};

/// Two 2x2 CLB squares on a width x height all-CLB region.
std::unique_ptr<TwoObjects> two_squares(int width, int height,
                                        const NonOverlapOptions& options = {}) {
  auto setup = std::make_unique<TwoObjects>();
  auto shapes = std::make_shared<std::vector<ShapeFootprint>>();
  shapes->push_back(rect_shape(2, 2));
  const auto masks = region_masks(width, height);
  const std::vector<std::vector<Point>> anchors{
      compute_valid_anchors(masks, shapes->front())};
  setup->a = make_object(setup->space, shapes, anchors);
  setup->b = make_object(setup->space, shapes, anchors);
  post_non_overlap(setup->space, {setup->a, setup->b}, width, height, options);
  return setup;
}

TEST(NonOverlap, AssignedObjectPrunesOthers) {
  auto setup = two_squares(4, 2);
  // 3 anchors each: x in {0,1,2}.
  setup->space.assign(setup->a.var(), 0);  // occupies x 0-1
  ASSERT_TRUE(setup->space.propagate());
  // b can only be at x=2 (anchor index 2).
  EXPECT_TRUE(setup->space.assigned(setup->b.var()));
  EXPECT_EQ(setup->space.value(setup->b.var()), 2);
}

TEST(NonOverlap, DetectsAssignedConflict) {
  auto setup = two_squares(4, 2);
  setup->space.assign(setup->a.var(), 1);
  setup->space.assign(setup->b.var(), 1);
  EXPECT_FALSE(setup->space.propagate());
}

TEST(NonOverlap, CompulsoryPartsPruneWithoutAssignment) {
  // Region 5x2; object a restricted to anchors {1, 2}: both placements
  // cover column 2, so its compulsory part is column 2 (both rows).
  auto setup = two_squares(5, 2, {});
  setup->space.remove(setup->a.var(), 0);
  setup->space.set_max(setup->a.var(), 2);  // dom(a) = {1, 2}
  ASSERT_TRUE(setup->space.propagate());
  // b at x=1 or x=2 would touch column 2 -> must be pruned by the
  // compulsory part even though a is unassigned.
  EXPECT_FALSE(setup->space.dom(setup->b.var()).contains(1));
  EXPECT_FALSE(setup->space.dom(setup->b.var()).contains(2));
  EXPECT_TRUE(setup->space.dom(setup->b.var()).contains(0));
  EXPECT_TRUE(setup->space.dom(setup->b.var()).contains(3));
}

TEST(NonOverlap, ForwardCheckingModeSkipsCompulsoryParts) {
  NonOverlapOptions options;
  options.use_compulsory_parts = false;
  auto setup = two_squares(5, 2, options);
  setup->space.remove(setup->a.var(), 0);
  setup->space.set_max(setup->a.var(), 2);
  ASSERT_TRUE(setup->space.propagate());
  // Weaker propagation: b keeps the conflicting values until a is assigned.
  EXPECT_TRUE(setup->space.dom(setup->b.var()).contains(1));
}

TEST(NonOverlap, SearchEnumeratesExactlyNonOverlappingPlacements) {
  // 4x2 region, two 2x2 squares, anchors x in {0,1,2}: valid pairs are
  // (0,2) and (2,0).
  auto setup = two_squares(4, 2);
  const auto solutions = cp::testing::solve_all(
      setup->space, {setup->a.var(), setup->b.var()});
  EXPECT_EQ(solutions.size(), 2u);
  for (const auto& sol : solutions)
    EXPECT_EQ(std::abs(sol[0] - sol[1]), 2);
}

TEST(NonOverlap, PolymorphicShapesChooseCompatibleAlternative) {
  // Region 4x2. Object a fixed 2x2 at x=0. Object b is polymorphic:
  // a 3x1 bar (fits only at y rows but needs x<=1 impossible) or a 2x2
  // square (fits at x=2).
  cp::Space space;
  const auto masks = region_masks(4, 2);
  auto shapes_a = std::make_shared<std::vector<ShapeFootprint>>();
  shapes_a->push_back(rect_shape(2, 2));
  auto shapes_b = std::make_shared<std::vector<ShapeFootprint>>();
  shapes_b->push_back(rect_shape(3, 1));
  shapes_b->push_back(rect_shape(2, 2));
  std::vector<std::vector<Point>> anchors_a{
      compute_valid_anchors(masks, shapes_a->front())};
  std::vector<std::vector<Point>> anchors_b{
      compute_valid_anchors(masks, (*shapes_b)[0]),
      compute_valid_anchors(masks, (*shapes_b)[1])};
  GeostObject a = make_object(space, shapes_a, anchors_a);
  GeostObject b = make_object(space, shapes_b, anchors_b);
  post_non_overlap(space, {a, b}, 4, 2);
  space.assign(a.var(), 0);  // 2x2 at x=0
  ASSERT_TRUE(space.propagate());
  // Every remaining placement of b must be the square shape at x=2.
  space.dom(b.var()).for_each([&](int v) {
    EXPECT_EQ(b.placement(v).shape, 1);
    EXPECT_EQ(b.placement(v).x, 2);
  });
  EXPECT_GT(space.dom(b.var()).size(), 0);
}

// Property sweep: on a W x H all-CLB region, the engine must enumerate
// exactly the set of non-overlapping (a, b) anchor pairs for two 2x2
// squares, for every region size — counted independently by brute force.
class NonOverlapSweepTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(NonOverlapSweepTest, SolutionCountMatchesBruteForce) {
  const auto [width, height] = GetParam();
  auto setup = two_squares(width, height);
  if (setup->space.failed()) {
    // No anchors at all (region smaller than the shape): nothing to check.
    GTEST_SKIP();
  }
  const auto solutions = cp::testing::solve_all(
      setup->space, {setup->a.var(), setup->b.var()});

  // Brute force over anchor pairs.
  const auto& table = setup->a.table();
  std::size_t expected = 0;
  for (const Placement& pa : table) {
    for (const Placement& pb : table) {
      const bool overlap = std::abs(pa.x - pb.x) < 2 &&
                           std::abs(pa.y - pb.y) < 2;
      expected += !overlap;
    }
  }
  EXPECT_EQ(solutions.size(), expected)
      << "region " << width << "x" << height;
}

INSTANTIATE_TEST_SUITE_P(
    Regions, NonOverlapSweepTest,
    ::testing::Values(std::pair{4, 2}, std::pair{5, 2}, std::pair{6, 3},
                      std::pair{4, 4}, std::pair{7, 3}, std::pair{2, 2},
                      std::pair{8, 2}, std::pair{5, 5}),
    [](const auto& info) {
      return std::to_string(info.param.first) + "x" +
             std::to_string(info.param.second);
    });

// --- Differential test: production engine vs from-scratch reference ---------

struct DiffSetup {
  cp::Space space;
  std::vector<GeostObject> objects;
};

/// Four polymorphic objects (square / bar / mixed CLB+BRAM) on an 8x5
/// region with a BRAM column, under the production engine or (`scratch`)
/// the from-scratch reference engine with the given options.
std::unique_ptr<DiffSetup> diff_setup(const NonOverlapOptions& options,
                                      bool scratch) {
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
  if (scratch) {
    reference::post_non_overlap_scratch(setup->space, setup->objects, kWidth,
                                        kHeight, options);
  } else {
    post_non_overlap(setup->space, setup->objects, kWidth, kHeight, options);
  }
  return setup;
}

// Random push/assign/remove/pop walks through both engines side by side:
// at every step the fail verdicts must agree, and whenever neither space
// failed, every domain must be identical. This is the soundness *and*
// completeness check for the incremental kernel — a missed pruning or an
// over-pruning after backtracking both show up as a domain divergence.
// Both modes are walked: kernel mode (compulsory parts everywhere) and the
// forward-checking mode ablation A3 runs (no compulsory parts).
TEST(NonOverlapDifferential, RandomWalksMatchFromScratchOracle) {
  for (std::uint64_t walk = 0; walk < 20; ++walk) {
    const std::uint64_t seed = walk % 10;
    const bool compulsory = walk < 10;
    SCOPED_TRACE(compulsory ? "kernel mode" : "forward-checking mode");
    NonOverlapOptions options;
    options.use_compulsory_parts = compulsory;
    options.compulsory_threshold = 64;  // soft parts everywhere

    auto incr = diff_setup(options, /*scratch=*/false);
    auto scratch = diff_setup(options, /*scratch=*/true);
    std::mt19937 rng(static_cast<unsigned>(seed * 7919 + 1));

    const auto domains_match = [&]() {
      for (std::size_t i = 0; i < incr->objects.size(); ++i) {
        const cp::Domain& da = incr->space.dom(incr->objects[i].var());
        const cp::Domain& db = scratch->space.dom(scratch->objects[i].var());
        if (!(da == db)) return false;
      }
      return true;
    };
    const auto random_value = [&](const cp::Domain& dom) {
      std::vector<int> values;
      dom.for_each([&](int v) { values.push_back(v); });
      return values[rng() % values.size()];
    };

    ASSERT_EQ(incr->space.propagate(), scratch->space.propagate());
    ASSERT_TRUE(domains_match()) << "seed " << seed << " at root";

    int depth = 0;
    for (int step = 0; step < 150; ++step) {
      const unsigned op = rng() % 4;
      if (op == 3) {  // pop
        if (depth == 0) continue;
        incr->space.pop();
        scratch->space.pop();
        --depth;
        ASSERT_TRUE(domains_match())
            << "seed " << seed << " step " << step << " after pop";
        continue;
      }
      // Pick a still-open object (walk ends when everything is assigned).
      std::vector<std::size_t> open;
      for (std::size_t i = 0; i < incr->objects.size(); ++i)
        if (!incr->space.assigned(incr->objects[i].var())) open.push_back(i);
      if (open.empty()) break;
      const std::size_t obj = open[rng() % open.size()];
      const cp::VarId va = incr->objects[obj].var();
      const cp::VarId vb = scratch->objects[obj].var();
      const int value = random_value(incr->space.dom(va));

      incr->space.push();
      scratch->space.push();
      ++depth;
      if (op == 0) {  // assign
        incr->space.assign(va, value);
        scratch->space.assign(vb, value);
      } else {  // remove one value (op 1 and 2: removals twice as likely)
        incr->space.remove(va, value);
        scratch->space.remove(vb, value);
      }
      const bool ok_a = incr->space.propagate();
      const bool ok_b = scratch->space.propagate();
      ASSERT_EQ(ok_a, ok_b)
          << "seed " << seed << " step " << step << " op " << op << " obj "
          << obj << " value " << value;
      if (!ok_a) {
        incr->space.pop();
        scratch->space.pop();
        --depth;
        continue;
      }
      ASSERT_TRUE(domains_match())
          << "seed " << seed << " step " << step << " op " << op << " obj "
          << obj << " value " << value;
    }
  }
}

// Both engines must enumerate the identical solution set under real search.
TEST(NonOverlapDifferential, SearchFindsIdenticalSolutionSets) {
  auto incr = diff_setup({}, /*scratch=*/false);
  auto scratch = diff_setup({}, /*scratch=*/true);
  std::vector<cp::VarId> vars_a, vars_b;
  for (const GeostObject& o : incr->objects) vars_a.push_back(o.var());
  for (const GeostObject& o : scratch->objects) vars_b.push_back(o.var());
  EXPECT_EQ(cp::testing::solve_all(incr->space, vars_a),
            cp::testing::solve_all(scratch->space, vars_b));
}

TEST(NonOverlap, SubsumedWhenAllPlaced) {
  auto setup = two_squares(6, 2);
  setup->space.push();
  setup->space.assign(setup->a.var(), 0);
  setup->space.assign(setup->b.var(), 4);  // x=4? anchors x in 0..4
  ASSERT_TRUE(setup->space.propagate());
  // No direct observable for subsumption; re-propagating must stay happy.
  ASSERT_TRUE(setup->space.propagate());
  setup->space.pop();
  ASSERT_TRUE(setup->space.propagate());
}

}  // namespace
}  // namespace rr::geost
