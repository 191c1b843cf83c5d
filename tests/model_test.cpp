// Module model, design-alternative derivation, the random generator
// (§V.A invariants) and the .mlf library format.
#include <gtest/gtest.h>

#include "model/alternatives.hpp"
#include "model/generator.hpp"
#include "model/library.hpp"

namespace rr::model {
namespace {

constexpr int kClb = static_cast<int>(fpga::ResourceType::kClb);
constexpr int kBram = static_cast<int>(fpga::ResourceType::kBram);

TEST(ModuleTest, ConstructionAndValidation) {
  const ShapeFootprint shape = ShapeFootprint::from_typed(
      {TypedCells{kClb, CellSet({{0, 0}, {1, 0}})}});
  const Module m("alu", {shape});
  EXPECT_EQ(m.name(), "alu");
  EXPECT_EQ(m.shape_count(), 1);
  EXPECT_EQ(m.min_area(), 2);
  EXPECT_THROW(Module("", {shape}), ModelError);
  EXPECT_THROW(Module("x", {}), ModelError);
}

TEST(ModuleTest, WithoutAlternativesKeepsBaseShape) {
  const ShapeFootprint a = ShapeFootprint::from_typed(
      {TypedCells{kClb, CellSet({{0, 0}})}});
  const ShapeFootprint b = ShapeFootprint::from_typed(
      {TypedCells{kClb, CellSet({{0, 0}, {1, 0}})}});
  const Module m("m", {a, b});
  EXPECT_EQ(m.min_area(), 1);
  EXPECT_EQ(m.max_area(), 2);
  const Module base = m.without_alternatives();
  EXPECT_EQ(base.shape_count(), 1);
  EXPECT_EQ(base.shapes().front().area(), 1);
}

TEST(ModuleTest, DemandQueries) {
  const ShapeFootprint mixed = ShapeFootprint::from_typed(
      {TypedCells{kClb, CellSet({{1, 0}}, false)},
       TypedCells{kBram, CellSet({{0, 0}, {0, 1}}, false)}});
  const ShapeFootprint pure = ShapeFootprint::from_typed(
      {TypedCells{kClb, CellSet({{0, 0}, {0, 1}, {0, 2}})}});
  const Module m("m", {mixed, pure});
  EXPECT_EQ(m.demand(0, fpga::ResourceType::kBram), 2);
  EXPECT_EQ(m.demand(1, fpga::ResourceType::kBram), 0);
  EXPECT_EQ(m.min_demand(fpga::ResourceType::kBram), 0);
  EXPECT_EQ(m.min_demand(fpga::ResourceType::kClb), 1);
  EXPECT_THROW((void)m.demand(5, fpga::ResourceType::kClb), InvalidInput);
}

TEST(Alternatives, TransformShapeKeepsGroupsAligned) {
  // BRAM column left of a CLB column; rot180 must move it to the right
  // while preserving the relative offset.
  const ShapeFootprint base = ShapeFootprint::from_typed(
      {TypedCells{kBram, CellSet({{0, 0}, {0, 1}}, false)},
       TypedCells{kClb, CellSet({{1, 0}, {1, 1}}, false)}});
  const ShapeFootprint rotated = transform_shape(base, Transform::kRot180);
  EXPECT_EQ(rotated.bounding_box(), base.bounding_box());
  // After rot180 the BRAM group occupies x=1.
  for (const TypedCells& group : rotated.typed()) {
    for (const Point& p : group.cells.cells()) {
      if (group.resource == kBram) EXPECT_EQ(p.x, 1);
      else EXPECT_EQ(p.x, 0);
    }
  }
  EXPECT_FALSE(same_layout(base, rotated));
  // Full turn restores the original layout.
  EXPECT_TRUE(same_layout(
      base, transform_shape(rotated, Transform::kRot180)));
}

TEST(Alternatives, SameLayoutDetectsEquality) {
  const ShapeFootprint a = ShapeFootprint::from_typed(
      {TypedCells{kClb, CellSet({{0, 0}, {1, 0}})}});
  const ShapeFootprint b = ShapeFootprint::from_typed(
      {TypedCells{kClb, CellSet({{5, 3}, {6, 3}}, false)}});
  EXPECT_TRUE(same_layout(a, b));  // normalization makes them equal
}

TEST(Alternatives, AddUniqueShapeRejectsDuplicates) {
  std::vector<ShapeFootprint> shapes;
  const ShapeFootprint s = ShapeFootprint::from_typed(
      {TypedCells{kClb, CellSet({{0, 0}})}});
  EXPECT_TRUE(add_unique_shape(shapes, s));
  EXPECT_FALSE(add_unique_shape(shapes, s));
  EXPECT_EQ(shapes.size(), 1u);
}

TEST(Alternatives, SymmetryVariantsOfSquareCollapse) {
  const ShapeFootprint square = ShapeFootprint::from_typed(
      {TypedCells{kClb, CellSet({{0, 0}, {1, 0}, {0, 1}, {1, 1}})}});
  const auto variants = symmetry_variants(square, kAllTransforms);
  EXPECT_EQ(variants.size(), 1u);  // fully symmetric
}

TEST(Alternatives, SymmetryVariantsOfLShape) {
  const ShapeFootprint l = ShapeFootprint::from_typed(
      {TypedCells{kClb, CellSet({{0, 0}, {1, 0}, {0, 1}})}});
  const auto variants = symmetry_variants(l, kAllTransforms);
  EXPECT_EQ(variants.size(), 4u);  // L has 4 distinct orientations
}

TEST(Generator, ColumnShapeGeometry) {
  // 10 CLBs, 1 BRAM block of height 2, height 4, memory at column 0:
  // columns: BRAM(2 tall), CLB x4, CLB x4, CLB x2 -> bbox 4x4.
  const ShapeFootprint s =
      ModuleGenerator::make_column_shape(10, 1, 2, 4, 0);
  EXPECT_EQ(s.area(), 12);
  EXPECT_EQ(s.demand(kClb), 10);
  EXPECT_EQ(s.demand(kBram), 2);
  EXPECT_EQ(s.bounding_box(), (Rect{0, 0, 4, 4}));
  EXPECT_TRUE(s.all_cells().contains(Point{0, 0}));
  EXPECT_TRUE(s.all_cells().contains(Point{0, 1}));
  EXPECT_FALSE(s.all_cells().contains(Point{0, 2}));  // BRAM stack is 2 tall
  EXPECT_TRUE(s.all_cells().contains(Point{3, 1}));   // partial last column
  EXPECT_FALSE(s.all_cells().contains(Point{3, 2}));
}

TEST(Generator, ColumnShapeConnected) {
  const ShapeFootprint s =
      ModuleGenerator::make_column_shape(23, 2, 2, 6, 1);
  EXPECT_TRUE(s.all_cells().connected());
}

TEST(Generator, ColumnShapeClampsHeightToBramStack) {
  // Stack of 3 blocks x 2 = 6 exceeds the requested height 4.
  const ShapeFootprint s =
      ModuleGenerator::make_column_shape(4, 3, 2, 4, 0);
  EXPECT_EQ(s.bounding_box().height, 6);
  EXPECT_EQ(s.demand(kBram), 6);
}

TEST(Generator, RejectsInvalidParams) {
  GeneratorParams bad;
  bad.clb_min = 0;
  EXPECT_THROW(ModuleGenerator(bad, 1), InvalidInput);
  GeneratorParams reversed;
  reversed.clb_min = 50;
  reversed.clb_max = 20;
  EXPECT_THROW(ModuleGenerator(reversed, 1), InvalidInput);
  GeneratorParams alt;
  alt.alternatives = 0;
  EXPECT_THROW(ModuleGenerator(alt, 1), InvalidInput);
}

struct GeneratorCase {
  int alternatives;
  int max_width;
  std::uint64_t seed;
};

class GeneratorInvariantTest
    : public ::testing::TestWithParam<GeneratorCase> {};

TEST_P(GeneratorInvariantTest, WorkloadRespectsSpec) {
  const GeneratorCase param = GetParam();
  GeneratorParams params;
  params.clb_min = 20;
  params.clb_max = 100;
  params.bram_blocks_min = 0;
  params.bram_blocks_max = 4;
  params.alternatives = param.alternatives;
  params.max_width = param.max_width;
  ModuleGenerator generator(params, param.seed);
  const auto modules = generator.generate_many(10);
  ASSERT_EQ(modules.size(), 10u);
  for (const Module& m : modules) {
    EXPECT_GE(m.shape_count(), 1);
    EXPECT_LE(m.shape_count(), param.alternatives);
    const int base_clb = m.demand(0, fpga::ResourceType::kClb);
    const int base_bram = m.demand(0, fpga::ResourceType::kBram);
    EXPECT_GE(base_clb, 20);
    EXPECT_LE(base_clb, 100);
    EXPECT_GE(base_bram, 0);
    EXPECT_LE(base_bram, 4 * params.bram_block_height);
    for (int s = 0; s < m.shape_count(); ++s) {
      // Design alternatives provide identical functionality: equal
      // resource demand in this generator (the model allows otherwise).
      EXPECT_EQ(m.demand(s, fpga::ResourceType::kClb), base_clb);
      EXPECT_EQ(m.demand(s, fpga::ResourceType::kBram), base_bram);
      EXPECT_TRUE(m.shapes()[static_cast<std::size_t>(s)]
                      .all_cells()
                      .connected());
      if (param.max_width > 0) {
        EXPECT_LE(m.shapes()[static_cast<std::size_t>(s)]
                      .bounding_box()
                      .width,
                  param.max_width);
      }
    }
    // Shapes are pairwise distinct layouts.
    for (int a = 0; a < m.shape_count(); ++a)
      for (int b = a + 1; b < m.shape_count(); ++b)
        EXPECT_FALSE(same_layout(m.shapes()[static_cast<std::size_t>(a)],
                                 m.shapes()[static_cast<std::size_t>(b)]))
            << m.name() << " shapes " << a << "," << b;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GeneratorInvariantTest,
    ::testing::Values(GeneratorCase{1, 0, 1}, GeneratorCase{2, 0, 2},
                      GeneratorCase{4, 0, 3}, GeneratorCase{4, 11, 4},
                      GeneratorCase{8, 11, 5}, GeneratorCase{4, 7, 6}),
    [](const auto& info) {
      return "alt" + std::to_string(info.param.alternatives) + "_w" +
             std::to_string(info.param.max_width) + "_s" +
             std::to_string(static_cast<int>(info.param.seed));
    });

TEST(Generator, DeterministicPerSeed) {
  GeneratorParams params;
  ModuleGenerator a(params, 42), b(params, 42);
  const auto ma = a.generate_many(5);
  const auto mb = b.generate_many(5);
  for (std::size_t i = 0; i < ma.size(); ++i) {
    ASSERT_EQ(ma[i].shape_count(), mb[i].shape_count());
    for (int s = 0; s < ma[i].shape_count(); ++s)
      EXPECT_TRUE(same_layout(ma[i].shapes()[static_cast<std::size_t>(s)],
                              mb[i].shapes()[static_cast<std::size_t>(s)]));
  }
}

TEST(Generator, FourAlternativesForTypicalModules) {
  GeneratorParams params;
  params.alternatives = 4;
  params.max_width = 11;
  ModuleGenerator generator(params, 2011);
  int with_four = 0;
  const auto modules = generator.generate_many(20);
  for (const Module& m : modules) with_four += m.shape_count() == 4;
  // The vast majority of generated modules must reach 4 distinct layouts.
  EXPECT_GE(with_four, 16);
}

TEST(Mlf, RoundTrip) {
  GeneratorParams params;
  params.max_width = 9;
  ModuleGenerator generator(params, 7);
  const auto modules = generator.generate_many(4);
  const auto parsed = parse_mlf_string(write_mlf_string(modules));
  ASSERT_EQ(parsed.size(), modules.size());
  for (std::size_t i = 0; i < modules.size(); ++i) {
    EXPECT_EQ(parsed[i].name(), modules[i].name());
    ASSERT_EQ(parsed[i].shape_count(), modules[i].shape_count());
    for (int s = 0; s < modules[i].shape_count(); ++s)
      EXPECT_TRUE(
          same_layout(parsed[i].shapes()[static_cast<std::size_t>(s)],
                      modules[i].shapes()[static_cast<std::size_t>(s)]));
  }
}

TEST(Mlf, ParsesHandWrittenModule) {
  const auto modules = parse_mlf_string(
      "# library\n"
      "module decoder\n"
      "shape\n"
      "BC\n"
      "BC\n"
      ".C\n"
      "endshape\n"
      "endmodule\n");
  ASSERT_EQ(modules.size(), 1u);
  const Module& m = modules[0];
  EXPECT_EQ(m.name(), "decoder");
  EXPECT_EQ(m.shapes().front().area(), 5);
  EXPECT_EQ(m.demand(0, fpga::ResourceType::kBram), 2);
  // Top row first: the '.C' row is y=0.
  EXPECT_TRUE(m.shapes().front().all_cells().contains(Point{1, 0}));
  EXPECT_FALSE(m.shapes().front().all_cells().contains(Point{0, 0}));
  EXPECT_TRUE(m.shapes().front().all_cells().contains(Point{0, 1}));
}

class MlfErrorTest : public ::testing::TestWithParam<const char*> {};

TEST_P(MlfErrorTest, RejectsMalformedInput) {
  EXPECT_THROW(parse_mlf_string(GetParam()), InvalidInput);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MlfErrorTest,
    ::testing::Values("module a\n",                        // unterminated
                      "module a\nshape\nCC\n",             // unterminated shape
                      "module a\nendmodule\n",             // no shapes
                      "shape\nC\nendshape\n",              // shape outside module
                      "module a\nshape\nCX\nendshape\nendmodule\n",  // bad char
                      "module a\nshape\nSS\nendshape\nendmodule\n",  // static tile
                      "module a\nshape\nendshape\nendmodule\n",      // empty shape
                      "module a\nmodule b\n",              // nested
                      "endmodule\n",                       // stray end
                      "garbage\n"));                       // unknown directive

// `shape` and `endmodule` take no fields; a stray word is refused at its
// line rather than ignored.
TEST(Mlf, RejectsFieldsAfterShapeAndEndmodule) {
  const auto message = [](const char* text) -> std::string {
    try {
      (void)parse_mlf_string(text);
    } catch (const InvalidInput& e) {
      return e.what();
    }
    return "accepted";
  };
  EXPECT_EQ(message("module a\nshape extra words\nC\nendshape\nendmodule\n"),
            "mlf:2: expected: shape");
  EXPECT_EQ(message("module a\nshape\nC\nendshape\nendmodule trailing\n"),
            "mlf:5: expected: endmodule");
}

TEST(Mlf, FileRoundTrip) {
  GeneratorParams params;
  ModuleGenerator generator(params, 3);
  const auto modules = generator.generate_many(2);
  const std::string path = ::testing::TempDir() + "/rr_modules.mlf";
  save_mlf(path, modules);
  const auto loaded = load_mlf(path);
  EXPECT_EQ(loaded.size(), 2u);
}

TEST(ShapePicture, RendersTopRowFirst) {
  const ShapeFootprint s = ShapeFootprint::from_typed(
      {TypedCells{kClb, CellSet({{0, 0}, {1, 0}}, false)},
       TypedCells{kBram, CellSet({{0, 1}}, false)}});
  EXPECT_EQ(shape_picture(s), "B.\nCC\n");
}

}  // namespace
}  // namespace rr::model
