// Differential fuzz for the maximal-empty-rectangle free-space index.
//
// Three oracle layers, mirroring the PR 2/3/6 pattern:
//   1. FreeSpaceIndex::enumerate against a brute-force maximal-rectangle
//      definition check on small grids.
//   2. The incremental occupy/release/set_available updates against
//      enumerate-from-scratch after every event of random
//      place/remove/fault/repair sequences.
//   3. best_anchor (all three policies, with and without a window) against
//      a per-anchor bitmap reference that knows nothing about rectangles.
// Layer 4 — whole components against the reference admission in
// tests/reference — lives at the end: random traces replayed through the
// production OnlinePlacer and the reference sweep placer must make identical
// decisions, and fault recovery's local re-place must land where the
// per-anchor reference says.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "baseline/online.hpp"
#include "comm/net.hpp"
#include "fpga/builders.hpp"
#include "fpga/fabric.hpp"
#include "fpga/faults.hpp"
#include "fpga/region.hpp"
#include "geo/free_space.hpp"
#include "geost/object.hpp"
#include "model/generator.hpp"
#include "reference/admission.hpp"
#include "runtime/recovery.hpp"
#include "util/bitmatrix.hpp"
#include "util/rng.hpp"

namespace rr {
namespace {

BitMatrix random_bitmap(Rng& rng, int rows, int cols, int fill_pct) {
  BitMatrix m(rows, cols);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      if (rng.bounded(100) < static_cast<std::uint64_t>(fill_pct))
        m.set(r, c, true);
  return m;
}

bool rect_all_free(const BitMatrix& free, const Rect& r) {
  if (r.x < 0 || r.y < 0 || r.right() > free.cols() || r.top() > free.rows())
    return false;
  for (int y = r.y; y < r.top(); ++y)
    for (int x = r.x; x < r.right(); ++x)
      if (!free.get(y, x)) return false;
  return true;
}

/// Brute-force: every maximal free rectangle by definition (free, and no
/// 1-step extension in any direction stays free).
std::set<Rect> brute_maximal_rects(const BitMatrix& free) {
  std::set<Rect> out;
  for (int y = 0; y < free.rows(); ++y) {
    for (int x = 0; x < free.cols(); ++x) {
      if (!free.get(y, x)) continue;
      for (int h = 1; y + h <= free.rows(); ++h) {
        for (int w = 1; x + w <= free.cols(); ++w) {
          const Rect r{x, y, w, h};
          if (!rect_all_free(free, r)) break;
          const bool maximal =
              !rect_all_free(free, Rect{x - 1, y, w + 1, h}) &&
              !rect_all_free(free, Rect{x, y, w + 1, h}) &&
              !rect_all_free(free, Rect{x, y - 1, w, h + 1}) &&
              !rect_all_free(free, Rect{x, y, w, h + 1});
          if (maximal) out.insert(r);
        }
        if (!rect_all_free(free, Rect{x, y, 1, h})) break;
      }
    }
  }
  return out;
}

std::set<Rect> to_set(const std::vector<Rect>& rects) {
  std::set<Rect> out(rects.begin(), rects.end());
  EXPECT_EQ(out.size(), rects.size()) << "duplicate rectangles stored";
  return out;
}

TEST(FreeSpaceEnumerate, MatchesBruteForceOnRandomGrids) {
  Rng rng(0xFEE15ABCULL);
  for (int round = 0; round < 60; ++round) {
    const int rows = 1 + static_cast<int>(rng.bounded(12));
    const int cols = 1 + static_cast<int>(rng.bounded(14));
    const int fill = static_cast<int>(rng.bounded(101));
    const BitMatrix free = random_bitmap(rng, rows, cols, fill);
    EXPECT_EQ(to_set(FreeSpaceIndex::enumerate(free)),
              brute_maximal_rects(free))
        << "round " << round << " grid\n"
        << free.to_string();
  }
}

TEST(FreeSpaceEnumerate, WordEdgeWidths) {
  Rng rng(0x5EED5EEDULL);
  for (const int cols : {63, 64, 65, 127, 128, 130}) {
    const BitMatrix free = random_bitmap(rng, 5, cols, 70);
    EXPECT_EQ(to_set(FreeSpaceIndex::enumerate(free)),
              brute_maximal_rects(free))
        << "cols " << cols;
  }
}

TEST(FreeSpaceEnumerate, FullAndEmpty) {
  const BitMatrix empty(6, 9);
  EXPECT_TRUE(FreeSpaceIndex::enumerate(empty).empty());
  BitMatrix full(6, 9);
  full.fill();
  const auto rects = FreeSpaceIndex::enumerate(full);
  ASSERT_EQ(rects.size(), 1u);
  EXPECT_EQ(rects[0], (Rect{0, 0, 9, 6}));
}

/// A random footprint mask: a union of a few rectangles, guaranteeing at
/// least one set cell, normalized to its bounding box.
BitMatrix random_footprint(Rng& rng, int max_dim) {
  const int rows = 1 + static_cast<int>(rng.bounded(max_dim));
  const int cols = 1 + static_cast<int>(rng.bounded(max_dim));
  BitMatrix m(rows, cols);
  const int blobs = 1 + static_cast<int>(rng.bounded(3));
  for (int b = 0; b < blobs; ++b) {
    const int x = static_cast<int>(rng.bounded(static_cast<std::uint64_t>(cols)));
    const int y = static_cast<int>(rng.bounded(static_cast<std::uint64_t>(rows)));
    const int w = 1 + static_cast<int>(rng.bounded(static_cast<std::uint64_t>(cols - x)));
    const int h = 1 + static_cast<int>(rng.bounded(static_cast<std::uint64_t>(rows - y)));
    for (int yy = y; yy < y + h; ++yy)
      for (int xx = x; xx < x + w; ++xx) m.set(yy, xx, true);
  }
  // Normalize: crop to the bounding box of set cells.
  int x0 = cols, x1 = -1, y0 = rows, y1 = -1;
  for (int y = 0; y < rows; ++y)
    for (int x = 0; x < cols; ++x)
      if (m.get(y, x)) {
        x0 = std::min(x0, x);
        x1 = std::max(x1, x);
        y0 = std::min(y0, y);
        y1 = std::max(y1, y);
      }
  BitMatrix out(y1 - y0 + 1, x1 - x0 + 1);
  for (int y = y0; y <= y1; ++y)
    for (int x = x0; x <= x1; ++x)
      if (m.get(y, x)) out.set(y - y0, x - x0, true);
  return out;
}

TEST(FreeSpaceDecompose, PartsTileTheMask) {
  Rng rng(0xDECC0DEULL);
  for (int round = 0; round < 200; ++round) {
    const BitMatrix mask = random_footprint(rng, 9);
    const std::vector<Rect> parts = decompose_mask(mask);
    BitMatrix cover(mask.rows(), mask.cols());
    long covered = 0;
    for (const Rect& p : parts) {
      ASSERT_GE(p.x, 0);
      ASSERT_GE(p.y, 0);
      ASSERT_LE(p.right(), mask.cols());
      ASSERT_LE(p.top(), mask.rows());
      for (int y = p.y; y < p.top(); ++y)
        for (int x = p.x; x < p.right(); ++x) {
          ASSERT_TRUE(mask.get(y, x)) << "part cell outside mask";
          ASSERT_FALSE(cover.get(y, x)) << "overlapping parts";
          cover.set(y, x, true);
          ++covered;
        }
    }
    EXPECT_EQ(covered, static_cast<long>(mask.popcount()))
        << "parts do not cover mask\n"
        << mask.to_string();
  }
}

/// Checks the stored free bitmap matches `expect_free`, kept independently
/// by the test, and that the index passes its own audit (free-tile count,
/// MER set equal to a from-scratch enumeration).
void expect_index_consistent(const FreeSpaceIndex& index,
                             const BitMatrix& expect_free,
                             const char* context) {
  ASSERT_EQ(index.free_matrix(), expect_free) << context;
  EXPECT_EQ(index.check_invariants(), std::vector<std::string>{})
      << context << " free bitmap:\n"
      << expect_free.to_string();
}

TEST(FreeSpaceIncremental, RandomPlaceRemoveFaultRepairSequences) {
  Rng rng(0x1C4E3E27ULL);
  for (int round = 0; round < 25; ++round) {
    const int rows = 4 + static_cast<int>(rng.bounded(12));
    const int cols = 4 + static_cast<int>(rng.bounded(16));
    // Availability with a few static holes.
    BitMatrix avail(rows, cols, true);
    for (int k = static_cast<int>(rng.bounded(5)); k > 0; --k)
      avail.set(static_cast<int>(rng.bounded(static_cast<std::uint64_t>(rows))),
                static_cast<int>(rng.bounded(static_cast<std::uint64_t>(cols))),
                false);
    FreeSpaceIndex index(avail);
    BitMatrix occupied(rows, cols);
    struct Live {
      BitMatrix mask;
      int x, y;
    };
    std::vector<Live> live;
    BitMatrix faults(rows, cols);  // currently faulted cells
    const auto free_now = [&] {
      BitMatrix f = avail;
      f.clear_shifted(faults, 0, 0);
      f.clear_shifted(occupied, 0, 0);
      return f;
    };
    expect_index_consistent(index, free_now(), "initial");
    for (int step = 0; step < 60; ++step) {
      const std::uint64_t op = rng.bounded(100);
      if (op < 45) {  // try to place a random footprint at a random free spot
        const BitMatrix fp = random_footprint(rng, 5);
        if (fp.rows() > rows || fp.cols() > cols) continue;
        const int x = static_cast<int>(
            rng.bounded(static_cast<std::uint64_t>(cols - fp.cols() + 1)));
        const int y = static_cast<int>(
            rng.bounded(static_cast<std::uint64_t>(rows - fp.rows() + 1)));
        if (!free_now().covers_shifted(fp, y, x)) continue;
        index.occupy(fp, y, x);
        occupied.or_shifted(fp, y, x);
        live.push_back(Live{fp, x, y});
      } else if (op < 70 && !live.empty()) {  // remove
        const std::size_t pick = rng.bounded(live.size());
        const Live victim = live[static_cast<std::size_t>(pick)];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        occupied.clear_shifted(victim.mask, victim.y, victim.x);
        index.release(victim.mask, victim.y, victim.x);
      } else if (op < 85) {  // fault a random small rect
        const int x = static_cast<int>(rng.bounded(static_cast<std::uint64_t>(cols)));
        const int y = static_cast<int>(rng.bounded(static_cast<std::uint64_t>(rows)));
        const int w = 1 + static_cast<int>(rng.bounded(3));
        const int h = 1 + static_cast<int>(rng.bounded(3));
        for (int yy = y; yy < std::min(rows, y + h); ++yy)
          for (int xx = x; xx < std::min(cols, x + w); ++xx)
            faults.set(yy, xx, true);
        BitMatrix now_avail = avail;
        now_avail.clear_shifted(faults, 0, 0);
        index.set_available(now_avail);
      } else {  // repair everything
        faults = BitMatrix(rows, cols);
        index.set_available(avail);
      }
      expect_index_consistent(index, free_now(), "after step");
    }
  }
}

TEST(FreeSpaceQuery, BestAnchorMatchesPerAnchorReference) {
  Rng rng(0xBE57A4C4ULL);
  for (int round = 0; round < 120; ++round) {
    const int rows = 4 + static_cast<int>(rng.bounded(12));
    const int cols = 4 + static_cast<int>(rng.bounded(70));
    const BitMatrix free = random_bitmap(rng, rows, cols, 60);
    FreeSpaceIndex index(free);
    const int n_shapes = 1 + static_cast<int>(rng.bounded(3));
    std::vector<BitMatrix> shapes;
    std::vector<BitMatrix> anchor_maps;
    std::vector<std::vector<Rect>> parts;
    for (int s = 0; s < n_shapes; ++s) {
      shapes.push_back(random_footprint(rng, 5));
      // Random valid-anchor bitmap restricted to in-bounds placements.
      BitMatrix a(rows, cols);
      for (int y = 0; y + shapes.back().rows() <= rows; ++y)
        for (int x = 0; x + shapes.back().cols() <= cols; ++x)
          if (rng.bounded(100) < 80) a.set(y, x, true);
      anchor_maps.push_back(std::move(a));
      parts.push_back(decompose_mask(shapes.back()));
    }
    std::vector<AnchorQuery> queries;
    for (int s = 0; s < n_shapes; ++s)
      queries.push_back(AnchorQuery{&anchor_maps[static_cast<std::size_t>(s)],
                                    parts[static_cast<std::size_t>(s)],
                                    shapes[static_cast<std::size_t>(s)].cols(),
                                    shapes[static_cast<std::size_t>(s)].rows()});
    std::optional<Rect> window;
    if (rng.bounded(2) == 0) {
      const int wx = static_cast<int>(rng.bounded(static_cast<std::uint64_t>(cols)));
      const int wy = static_cast<int>(rng.bounded(static_cast<std::uint64_t>(rows)));
      window = Rect{wx, wy, 1 + static_cast<int>(rng.bounded(static_cast<std::uint64_t>(cols - wx))),
                    1 + static_cast<int>(rng.bounded(static_cast<std::uint64_t>(rows - wy)))};
    }
    for (const AnchorPolicy policy :
         {AnchorPolicy::kFirstFit, AnchorPolicy::kBestFit,
          AnchorPolicy::kBottomLeft}) {
      const auto got = index.best_anchor(queries, policy,
                                         window ? &*window : nullptr);
      const auto want = reference::best_anchor(
          free, shapes, anchor_maps, policy, window ? &*window : nullptr);
      ASSERT_EQ(got.has_value(), want.has_value())
          << "round " << round << " policy " << static_cast<int>(policy);
      if (got.has_value()) {
        EXPECT_EQ(got->shape, want->shape) << "round " << round;
        EXPECT_EQ(got->x, want->x) << "round " << round;
        EXPECT_EQ(got->y, want->y) << "round " << round;
      }
    }
    // kCommCost against a synthetic deterministic cost. Integer division
    // by 3 quantizes the distance so distinct anchors routinely share a
    // cost and the pinned first-fit tie-break has to decide.
    const int tx = static_cast<int>(rng.bounded(static_cast<std::uint64_t>(cols)));
    const int ty = static_cast<int>(rng.bounded(static_cast<std::uint64_t>(rows)));
    const AnchorCost cost = [&](int shape, int x, int y) {
      return static_cast<long>((std::abs(x - tx) + std::abs(y - ty)) / 3 +
                               shape % 2);
    };
    const auto got = index.best_anchor(queries, AnchorPolicy::kCommCost,
                                       window ? &*window : nullptr, &cost);
    const auto want =
        reference::best_anchor(free, shapes, anchor_maps,
                              AnchorPolicy::kCommCost,
                              window ? &*window : nullptr, &cost);
    ASSERT_EQ(got.has_value(), want.has_value()) << "round " << round;
    if (got.has_value()) {
      EXPECT_EQ(got->shape, want->shape) << "round " << round;
      EXPECT_EQ(got->x, want->x) << "round " << round;
      EXPECT_EQ(got->y, want->y) << "round " << round;
    }
    // Null cost: kCommCost must degenerate to exactly kFirstFit.
    const auto ff = index.best_anchor(queries, AnchorPolicy::kFirstFit,
                                      window ? &*window : nullptr);
    const auto null_cost = index.best_anchor(
        queries, AnchorPolicy::kCommCost, window ? &*window : nullptr);
    ASSERT_EQ(ff.has_value(), null_cost.has_value()) << "round " << round;
    if (ff.has_value()) {
      EXPECT_EQ(ff->shape, null_cost->shape) << "round " << round;
      EXPECT_EQ(ff->x, null_cost->x) << "round " << round;
      EXPECT_EQ(ff->y, null_cost->y) << "round " << round;
    }
  }
}

/// Satellite: tie-break audit. Uniform grids where every feasible anchor
/// scores equal under the policy (constant comm cost; identical 1x1 shapes
/// duplicated across queries so even the shape component has to decide)
/// force the pinned tie-break keys to carry the whole decision; index and
/// per-anchor reference must still agree everywhere.
TEST(FreeSpaceQuery, TieBreakingIsPinnedUnderEqualScores) {
  Rng rng(0x71EB4EA8ULL);
  for (int round = 0; round < 40; ++round) {
    const int rows = 3 + static_cast<int>(rng.bounded(8));
    const int cols = 3 + static_cast<int>(rng.bounded(10));
    // Mostly-free grid: large equal-score plateaus with a few holes.
    const BitMatrix free = random_bitmap(rng, rows, cols, 85);
    FreeSpaceIndex index(free);
    // Two identical 1x1 shapes with full anchor maps: every feasible
    // anchor ties on geometry, and the duplicate shape ties on (x, y) so
    // only the shape-index component separates the two queries.
    const BitMatrix unit(1, 1, true);
    BitMatrix anchors(rows, cols, true);
    const std::vector<Rect> unit_parts = decompose_mask(unit);
    std::vector<BitMatrix> shapes(2, unit);
    std::vector<BitMatrix> anchor_maps(2, anchors);
    std::vector<AnchorQuery> queries(
        2, AnchorQuery{&anchor_maps[0], unit_parts, 1, 1});
    queries[1].anchors = &anchor_maps[1];
    const AnchorCost flat = [](int, int, int) { return 7; };
    for (const AnchorPolicy policy :
         {AnchorPolicy::kFirstFit, AnchorPolicy::kBestFit,
          AnchorPolicy::kBottomLeft, AnchorPolicy::kCommCost}) {
      const AnchorCost* cost =
          policy == AnchorPolicy::kCommCost ? &flat : nullptr;
      const auto got = index.best_anchor(queries, policy, nullptr, cost);
      const auto want = reference::best_anchor(free, shapes, anchor_maps,
                                              policy, nullptr, cost);
      ASSERT_EQ(got.has_value(), want.has_value())
          << "round " << round << " policy " << static_cast<int>(policy);
      if (got.has_value()) {
        EXPECT_EQ(got->shape, want->shape) << "round " << round;
        EXPECT_EQ(got->x, want->x) << "round " << round;
        EXPECT_EQ(got->y, want->y) << "round " << round;
        // A duplicated shape can never win: the key's trailing shape
        // component makes the lower query index strictly better.
        EXPECT_EQ(got->shape, 0) << "round " << round;
      }
    }
  }
}

// ---- Layer 4: whole components against the reference admission. ----

/// A column-module library with alternative-rich entries so multi-shape
/// queries and bestfit tie-breaks are exercised.
std::vector<model::Module> differential_library() {
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
  lib.push_back(
      model::Module("s9", {ModuleGenerator::make_column_shape(9, 0, 1, 3, 0)}));
  return lib;
}

/// Nets over the library for the commcost policy: a chain plus an IO
/// terminal, weighted so anchors genuinely reorder relative to first fit.
std::shared_ptr<const comm::NetList> differential_nets() {
  comm::NetList list;
  comm::Net chain;
  chain.weight = 3;
  chain.modules = {"s1", "s4", "s6"};
  list.nets.push_back(std::move(chain));
  comm::Net io;
  io.weight = 2;
  io.modules = {"s9"};
  io.terminals.push_back(Point{0, 4});
  list.nets.push_back(std::move(io));
  return std::make_shared<const comm::NetList>(std::move(list));
}

/// Replays random place/remove/fault/repair traces through the production
/// OnlinePlacer (free-space index) and the reference sweep placer, and
/// requires identical accept/reject decisions and identical chosen anchors
/// at every event, under every anchor policy. This is the
/// "decision_mismatches == 0" contract the free_space bench pins at scale.
TEST(OnlinePlacerDifferential, IndexMatchesSweepOnRandomTraces) {
  const auto fabric = std::make_shared<const fpga::Fabric>(
      fpga::make_homogeneous(14, 8));
  const std::vector<model::Module> library = differential_library();
  const auto nets = differential_nets();
  for (const AnchorPolicy policy :
       {AnchorPolicy::kFirstFit, AnchorPolicy::kBestFit,
        AnchorPolicy::kBottomLeft, AnchorPolicy::kCommCost}) {
    Rng rng(0xD1FFC0DEULL + static_cast<std::uint64_t>(policy) * 97);
    for (int round = 0; round < 5; ++round) {
      fpga::PartialRegion region_index(fabric);
      fpga::PartialRegion region_sweep(fabric);
      baseline::OnlineOptions options;
      options.policy = policy;
      if (policy == AnchorPolicy::kCommCost) {
        options.nets = nets;
        options.comm_weight = 5;
      }
      baseline::OnlinePlacer indexed(region_index, options);
      reference::SweepPlacer swept(region_sweep, options);
      fpga::FaultMap faults(fabric->width(), fabric->height());
      std::vector<int> live;
      int next_id = 0;
      for (int step = 0; step < 110; ++step) {
        const std::uint64_t op = rng.bounded(100);
        if (op < 55) {
          const std::size_t m = rng.bounded(library.size());
          const int id = next_id++;
          const auto a = indexed.place(id, library[m]);
          const auto b = swept.place(id, library[m]);
          ASSERT_EQ(a.has_value(), b.has_value())
              << "policy " << static_cast<int>(policy) << " round " << round
              << " step " << step << " module " << library[m].name();
          if (a.has_value()) {
            ASSERT_EQ(a->shape, b->shape) << "step " << step;
            ASSERT_EQ(a->x, b->x) << "step " << step;
            ASSERT_EQ(a->y, b->y) << "step " << step;
            live.push_back(id);
          }
        } else if (op < 80 && !live.empty()) {
          const std::size_t pick = rng.bounded(live.size());
          const int id = live[pick];
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
          indexed.remove(id);
          swept.remove(id);
        } else {
          // Fault or scrub. Displacement is the recovery layer's business;
          // the admission contract only needs both placers to see the same
          // masks, so the event goes to both regions followed by the
          // mandatory refresh_region() resync.
          fpga::FaultEvent event;
          if (rng.bounded(3) == 0) {
            event.op = fpga::FaultEvent::Op::kRepairTransient;
          } else {
            event.op = fpga::FaultEvent::Op::kTile;
            event.kind = fpga::FaultKind::kTransient;
            event.rect = Rect{
                static_cast<int>(rng.bounded(
                    static_cast<std::uint64_t>(fabric->width()))),
                static_cast<int>(rng.bounded(
                    static_cast<std::uint64_t>(fabric->height()))),
                1, 1};
          }
          faults.apply(event);
          region_index.apply_faults(faults);
          region_sweep.apply_faults(faults);
          indexed.refresh_region();
          swept.refresh_region();
        }
        ASSERT_EQ(indexed.occupied_matrix(), swept.occupied_matrix())
            << "step " << step;
        // The index's free bitmap must track avail ∧ ¬occ.
        BitMatrix expect_free =
            FreeSpaceIndex::union_of(region_index.masks());
        expect_free.clear_shifted(indexed.occupied_matrix(), 0, 0);
        ASSERT_EQ(indexed.free_space().free_matrix(), expect_free)
            << "step " << step;
      }
      EXPECT_EQ(indexed.live_placements(), swept.live_placements());
    }
  }
}

/// Fault recovery's local re-place against the per-anchor reference, on
/// events the test controls. Each round seeds a first-fit layout, then
/// faults one tile under a single-shape instance: the fault displaces
/// exactly that instance, and the in-place swap tier cannot save it (its
/// only shape covers the dead tile wherever it fits in the old bounding
/// box). The instance must then be re-placed at tier kLocalReplace exactly
/// where reference::best_anchor puts it — inside the local window when the
/// window holds a feasible anchor, anywhere otherwise — under kFirstFit
/// and, with nets, kCommCost. Margin 0 shrinks the window to the old
/// bounding box, which the fault rules out, so those rounds take the
/// whole-region query.
TEST(FaultRecoveryDifferential, LocalReplaceMatchesReference) {
  const auto fabric = std::make_shared<const fpga::Fabric>(
      fpga::make_homogeneous(14, 8));
  const std::vector<model::Module> library = differential_library();
  const auto nets = differential_nets();
  for (const bool with_comm : {false, true}) {
    for (const int margin : {6, 0}) {
      Rng rng(0xFA171D1FULL + (with_comm ? 17 : 0) +
              static_cast<std::uint64_t>(margin));
      int in_window = 0;
      int anywhere = 0;
      for (int round = 0; round < 12; ++round) {
        fpga::PartialRegion seed_region(fabric);
        baseline::OnlinePlacer seeder(seed_region);
        std::vector<std::size_t> module_of;  // instance id -> library index
        for (int id = 0; id < 10; ++id) {
          module_of.push_back(rng.bounded(library.size()));
          (void)seeder.place(id, library[module_of.back()]);
        }
        runtime::FaultRecoveryOptions options;
        options.deadline_seconds = 0.0;
        options.seed = 7;
        options.local_window_margin = margin;
        if (with_comm) {
          options.nets = nets;
          options.comm_weight = 5;
        }
        runtime::FaultRecoveryManager manager(fpga::PartialRegion(fabric),
                                              options);
        const std::vector<placer::ModulePlacement> layout =
            seeder.live_placements();
        std::vector<placer::ModulePlacement> single_shape;
        for (const placer::ModulePlacement& p : layout) {
          const model::Module& module = library[module_of[p.module]];
          manager.admit(p.module, module, p.shape, p.x, p.y);
          if (module.shapes().size() == 1) single_shape.push_back(p);
        }
        if (single_shape.empty()) continue;
        const placer::ModulePlacement victim =
            single_shape[rng.bounded(single_shape.size())];
        const model::Module& module = library[module_of[victim.module]];
        const geost::ShapeFootprint& shape = module.shapes().front();
        const Rect box = shape.bounding_box().translated(
            Point{victim.x, victim.y});

        // The event: one permanent dead tile under the victim.
        std::vector<Point> cells;
        for (int y = 0; y < shape.mask().rows(); ++y)
          for (int x = 0; x < shape.mask().cols(); ++x)
            if (shape.mask().get(y, x))
              cells.push_back(Point{victim.x + x, victim.y + y});
        const Point dead = cells[rng.bounded(cells.size())];
        fpga::FaultEvent event;
        event.op = fpga::FaultEvent::Op::kTile;
        event.kind = fpga::FaultKind::kPermanent;
        event.rect = Rect{dead.x, dead.y, 1, 1};

        // Reference inputs: the faulted masks, the survivors' occupancy and
        // pins, and the victim's valid anchors on the faulted region.
        fpga::PartialRegion faulted(fabric);
        fpga::FaultMap faults(fabric->width(), fabric->height());
        faults.apply(event);
        faulted.apply_faults(faults);
        BitMatrix free = FreeSpaceIndex::union_of(faulted.masks());
        std::vector<comm::NamedPin> pins;
        for (const placer::ModulePlacement& p : layout) {
          if (p.module == victim.module) continue;
          const model::Module& other = library[module_of[p.module]];
          const geost::ShapeFootprint& fp =
              other.shapes()[static_cast<std::size_t>(p.shape)];
          free.clear_shifted(fp.mask(), p.y, p.x);
          pins.push_back(comm::NamedPin{
              other.name(), comm::center2(fp.bounding_box(), p.x, p.y)});
        }
        BitMatrix anchors(faulted.height(), faulted.width());
        for (const Point a :
             geost::compute_valid_anchors(faulted.masks(), shape))
          anchors.set(a.y, a.x, true);
        const std::vector<BitMatrix> masks{shape.mask()};
        const std::vector<BitMatrix> anchor_maps{anchors};
        const comm::PinContext context =
            with_comm ? comm::PinContext::build(*nets, module.name(), pins)
                      : comm::PinContext{};
        const AnchorCost cost = [&](int, int x, int y) {
          return context.cost2(comm::center2(shape.bounding_box(), x, y));
        };
        const AnchorPolicy policy = context.empty() ? AnchorPolicy::kFirstFit
                                                    : AnchorPolicy::kCommCost;
        const AnchorCost* cost_ptr = context.empty() ? nullptr : &cost;
        const Rect window =
            Rect{box.x - margin, box.y - margin, box.width + 2 * margin,
                 box.height + 2 * margin}
                .intersection(Rect{0, 0, faulted.width(), faulted.height()});
        std::optional<AnchorPick> want = reference::best_anchor(
            free, masks, anchor_maps, policy, &window, cost_ptr);
        const bool windowed = want.has_value();
        if (!windowed)
          want = reference::best_anchor(free, masks, anchor_maps, policy,
                                        nullptr, cost_ptr);

        const runtime::FaultEventOutcome outcome = manager.on_fault(event);
        ASSERT_EQ(outcome.modules_hit, 1) << "round " << round;
        ASSERT_FALSE(outcome.modules.empty());
        const runtime::ModuleRecovery& recovery = outcome.modules.front();
        ASSERT_EQ(recovery.instance_id, victim.module);
        // No feasible spot at all: a defrag or park matter, not this check.
        if (!want.has_value()) continue;
        ASSERT_TRUE(recovery.recovered) << "round " << round;
        ASSERT_EQ(recovery.tier, runtime::RecoveryTier::kLocalReplace)
            << "round " << round;
        bool found = false;
        for (const placer::ModulePlacement& p : manager.live_placements()) {
          if (p.module != victim.module) continue;
          found = true;
          EXPECT_EQ(p.shape, want->shape) << "round " << round;
          EXPECT_EQ(p.x, want->x) << "round " << round;
          EXPECT_EQ(p.y, want->y) << "round " << round;
        }
        ASSERT_TRUE(found) << "round " << round;
        ++(windowed ? in_window : anywhere);
      }
      // Both query shapes must actually have been checked.
      if (margin == 0) {
        EXPECT_EQ(in_window, 0);
        EXPECT_GT(anywhere, 0);
      } else {
        EXPECT_GT(in_window, 0);
      }
    }
  }
}

}  // namespace
}  // namespace rr
