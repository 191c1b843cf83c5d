// Decision digests for the live-layout state machine: fixed-seed traces
// through baseline::OnlinePlacer (admission + on-reject defragmentation,
// every AnchorPolicy, comm nets, cached and scanned tables, fault resync)
// and runtime::FaultRecoveryManager (fault/repair sequences through every
// recovery tier) hash every decision they make — each placement, each
// recovery tier and spot, and every relocation move (the full live layout
// after each step). The hashes pin exact behaviour, not just invariants:
// a refactor of the shared layout machinery must reproduce them bit for
// bit. Deadlines are generous enough that no defrag pass is ever cut, so
// the traces do not depend on machine speed.
//
// Re-recording: a change that means to alter decisions updates the
// constants below from the failure messages, which print the new digest.
//
// The greedy shake tier is entered only when a wall-clock deadline cuts the
// exact tier, so no digest trace reaches it; LiveLayout::greedy_shake is
// checked directly instead, step by step against reference::best_anchor,
// in both caller modes (online: configured policy, comm pins, cached
// tables; recovery: first fit, no comm, scanned tables).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "baseline/online.hpp"
#include "comm/net.hpp"
#include "fpga/builders.hpp"
#include "fpga/faults.hpp"
#include "fpga/region.hpp"
#include "model/generator.hpp"
#include "placer/model_builder.hpp"
#include "reference/admission.hpp"
#include "runtime/live_layout.hpp"
#include "runtime/recovery.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace rr {
namespace {

using model::Module;

/// FNV-1a over 64-bit words.
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
  void add_layout(const std::vector<placer::ModulePlacement>& placements) {
    add(static_cast<std::int64_t>(placements.size()));
    for (const placer::ModulePlacement& p : placements) {
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

std::vector<Module> generated_pool(std::uint64_t seed, int count) {
  model::GeneratorParams params;
  params.clb_min = 4;
  params.clb_max = 16;
  params.bram_blocks_max = 0;
  params.min_height = 1;
  params.max_height = 6;
  model::ModuleGenerator generator(params, seed);
  return generator.generate_many(count);
}

/// Chain nets over the pool plus an I/O terminal on the first module.
std::shared_ptr<const comm::NetList> chain_nets(std::span<const Module> pool) {
  comm::NetList nets;
  for (std::size_t i = 0; i + 1 < pool.size(); ++i) {
    comm::Net net;
    net.weight = 1 + static_cast<long>(i % 3);
    net.modules = {pool[i].name(), pool[i + 1].name()};
    nets.nets.push_back(std::move(net));
  }
  comm::Net io;
  io.weight = 2;
  io.modules = {pool.front().name()};
  io.terminals.push_back(Point{0, 0});
  nets.nets.push_back(std::move(io));
  return std::make_shared<const comm::NetList>(std::move(nets));
}

fpga::FaultEvent tile_fault(Rng& rng, int width, int height) {
  fpga::FaultEvent event;
  event.op = fpga::FaultEvent::Op::kTile;
  event.kind = fpga::FaultKind::kPermanent;
  event.rect = Rect{rng.uniform_int(0, width - 1),
                    rng.uniform_int(0, height - 1), 1, 1};
  return event;
}

/// Per-module tables prepared on first lookup, the way the service's solve
/// context serves them.
class PreparedTables final : public baseline::ModuleTableSource {
 public:
  PreparedTables(const fpga::PartialRegion& region, bool use_alternatives)
      : region_(region), use_alternatives_(use_alternatives) {}

  const placer::ModuleTables* lookup(const Module& module) override {
    const auto [it, inserted] = tables_.try_emplace(module.name());
    if (inserted)
      it->second = placer::prepare_tables(region_, std::span(&module, 1),
                                          use_alternatives_)
                       .front();
    return &it->second;
  }
  void clear() { tables_.clear(); }

 private:
  const fpga::PartialRegion& region_;
  bool use_alternatives_;
  std::unordered_map<std::string, placer::ModuleTables> tables_;
};

// --- Online admission + defrag ---------------------------------------------

struct OnlineArm {
  AnchorPolicy policy = AnchorPolicy::kFirstFit;
  bool nets = false;
  bool cached_tables = false;
  bool faults = false;
  long relocation_budget_tiles = -1;
  int max_relocations = 4;
};

/// One online place/remove trace (with periodic tile faults handled the way
/// the service tenant does: resync, displace the victims, re-place them).
/// Every decision and the layout after every step go into `digest`; the
/// placer's defrag stats are added into `totals`.
void online_trace(const OnlineArm& arm, std::uint64_t seed, int steps,
                  Digest& digest, baseline::OnlineDefragStats& totals) {
  const auto fabric =
      std::make_shared<const fpga::Fabric>(fpga::make_homogeneous(18, 8));
  fpga::PartialRegion region(fabric);
  region.block(Rect{8, 2, 2, 4});
  fpga::FaultMap faults(*fabric);
  const std::vector<Module> pool = generated_pool(seed, 7);

  baseline::OnlineOptions options;
  options.policy = arm.policy;
  if (arm.nets) {
    options.nets = chain_nets(pool);
    options.comm_weight = 2;
  }
  options.defrag.deadline_seconds = 60.0;
  options.defrag.max_relocations = arm.max_relocations;
  options.defrag.relocation_budget_tiles = arm.relocation_budget_tiles;
  options.defrag.seed = seed;
  baseline::OnlinePlacer placer(region, options);
  PreparedTables tables(region, options.use_alternatives);
  if (arm.cached_tables) placer.set_table_source(&tables);

  std::unordered_map<int, std::size_t> module_of;  // live id -> pool index
  std::vector<int> live_ids;
  Rng rng(seed * 6151 + 7);
  int next_id = 0;
  const auto place = [&](int id, std::size_t m) {
    digest.add(-1);
    digest.add(id);
    if (const auto placed = placer.place(id, pool[m])) {
      module_of[id] = m;
      live_ids.push_back(id);
      digest.add(placed->shape);
      digest.add(placed->x);
      digest.add(placed->y);
    } else {
      digest.add(-1);
    }
  };
  for (int step = 0; step < steps; ++step) {
    if (arm.faults && step % 37 == 36) {
      const fpga::FaultEvent event =
          tile_fault(rng, region.width(), region.height());
      faults.apply(event);
      region.apply_faults(faults);
      placer.refresh_region();
      if (arm.cached_tables) {
        tables.clear();
        placer.set_table_source(&tables);
      }
      std::vector<int> displaced;
      for (const placer::ModulePlacement& p : placer.live_placements()) {
        const Module& module = pool[module_of.at(p.module)];
        if (region.fault_mask().intersects_shifted(
                module.shapes()[static_cast<std::size_t>(p.shape)].mask(),
                p.y, p.x))
          displaced.push_back(p.module);
      }
      digest.add(-3);
      digest.add(static_cast<std::int64_t>(displaced.size()));
      for (const int id : displaced) {
        placer.remove(id);
        std::erase(live_ids, id);
      }
      for (const int id : displaced) {
        const std::size_t m = module_of.at(id);
        module_of.erase(id);
        place(id, m);
      }
    } else if (live_ids.empty() || rng.chance(0.62)) {
      place(next_id++, rng.pick_index(pool));
    } else {
      const std::size_t pick = rng.pick_index(live_ids);
      const int id = live_ids[pick];
      placer.remove(id);
      module_of.erase(id);
      live_ids.erase(live_ids.begin() + static_cast<std::ptrdiff_t>(pick));
      digest.add(-2);
      digest.add(id);
    }
    digest.add_layout(placer.live_placements());
  }
  const baseline::OnlineDefragStats& s = placer.defrag_stats();
  for (const std::uint64_t v :
       {s.attempts, s.successes, s.exact_successes, s.greedy_successes,
        s.relocated_modules, s.relocated_tiles, s.deadline_expiries,
        s.rejects, s.retry_skips, s.budget_skips})
    digest.add(static_cast<std::int64_t>(v));
  digest.add(placer.relocation_cost().tiles_cleared);
  digest.add(placer.relocation_cost().tiles_written);
  totals.attempts += s.attempts;
  totals.successes += s.successes;
  totals.relocated_modules += s.relocated_modules;
  totals.deadline_expiries += s.deadline_expiries;
  totals.rejects += s.rejects;
  totals.retry_skips += s.retry_skips;
  totals.budget_skips += s.budget_skips;
}

std::uint64_t online_digest(const OnlineArm& arm,
                            baseline::OnlineDefragStats& totals) {
  Digest digest;
  for (const std::uint64_t seed : {3u, 5u, 8u})
    online_trace(arm, seed, 200, digest, totals);
  return digest.value();
}

void expect_online_digest(const OnlineArm& arm, std::uint64_t expected) {
  baseline::OnlineDefragStats totals;
  const std::uint64_t digest = online_digest(arm, totals);
  EXPECT_EQ(digest, expected) << "new digest: 0x" << std::hex << digest;
  // The traces must really exercise defrag, and no pass may be cut (a cut
  // would make the digest depend on machine speed).
  EXPECT_GT(totals.successes, 0u);
  EXPECT_GT(totals.relocated_modules, 0u);
  EXPECT_GT(totals.rejects, 0u);
  EXPECT_EQ(totals.deadline_expiries, 0u);
}

TEST(LiveLayoutDigest, OnlineFirstFit) {
  expect_online_digest(OnlineArm{}, 0x7bf65374bff66aedULL);
}

TEST(LiveLayoutRelocation, RefutedSetsLogNoAreaWarnings) {
  // Relocation sets whose filtered tables or total area rule them out are
  // refuted before any model build, so the OnlineFirstFit trace's defrag
  // passes — which refute many such sets — log no capacity warning.
  const LogLevel level = log_level();
  set_log_level(LogLevel::kWarn);
  baseline::OnlineDefragStats totals;
  testing::internal::CaptureStderr();
  (void)online_digest(OnlineArm{}, totals);
  const std::string err = testing::internal::GetCapturedStderr();
  set_log_level(level);
  EXPECT_GT(totals.rejects, 0u);
  std::istringstream lines(err);
  std::size_t warnings = 0;
  for (std::string line; std::getline(lines, line);)
    if (line.find("total module area exceeds region capacity") !=
        std::string::npos)
      ++warnings;
  EXPECT_EQ(warnings, 0u);
}

TEST(LiveLayoutDigest, OnlineBestFitWithCachedTables) {
  OnlineArm arm;
  arm.policy = AnchorPolicy::kBestFit;
  arm.cached_tables = true;
  expect_online_digest(arm, 0xbe32fd7f5854664aULL);
}

TEST(LiveLayoutDigest, OnlineBottomLeftWithFaults) {
  OnlineArm arm;
  arm.policy = AnchorPolicy::kBottomLeft;
  arm.faults = true;
  expect_online_digest(arm, 0x5ab7b0fe168dcdb9ULL);
}

TEST(LiveLayoutDigest, OnlineCommCost) {
  OnlineArm arm;
  arm.policy = AnchorPolicy::kCommCost;
  arm.nets = true;
  expect_online_digest(arm, 0xdb4bdde47e82127fULL);
}

TEST(LiveLayoutDigest, OnlineCommCostCachedWithFaults) {
  OnlineArm arm;
  arm.policy = AnchorPolicy::kCommCost;
  arm.nets = true;
  arm.cached_tables = true;
  arm.faults = true;
  expect_online_digest(arm, 0x3bde90ec7afdd66dULL);
}

TEST(LiveLayoutDigest, OnlineGatedDefrag) {
  // A small relocation set and a lifetime relocation budget: exercises the
  // retry and budget gates on top of the passes.
  OnlineArm arm;
  arm.max_relocations = 2;
  arm.relocation_budget_tiles = 300;
  baseline::OnlineDefragStats totals;
  const std::uint64_t digest = online_digest(arm, totals);
  EXPECT_EQ(digest, 0x7795a94acedde9dbULL)
      << "new digest: 0x" << std::hex << digest;
  EXPECT_GT(totals.budget_skips, 0u);
  EXPECT_EQ(totals.deadline_expiries, 0u);
}

// --- Fault recovery ---------------------------------------------------------

fpga::FaultEvent random_event(Rng& rng, int width, int height) {
  fpga::FaultEvent event;
  const int roll = rng.uniform_int(0, 99);
  event.kind = rng.chance(0.5) ? fpga::FaultKind::kPermanent
                               : fpga::FaultKind::kTransient;
  if (roll < 55) {
    event.op = fpga::FaultEvent::Op::kTile;
    event.rect = Rect{rng.uniform_int(0, width - 1),
                      rng.uniform_int(0, height - 1), 1, 1};
  } else if (roll < 72) {
    event.op = fpga::FaultEvent::Op::kRect;
    const int w = rng.uniform_int(1, 3);
    const int h = rng.uniform_int(1, 3);
    event.rect = Rect{rng.uniform_int(0, width - w),
                      rng.uniform_int(0, height - h), w, h};
  } else if (roll < 80) {
    event.op = fpga::FaultEvent::Op::kColumn;
    event.rect = Rect{rng.uniform_int(0, width - 1), 0, 1, height};
  } else if (roll < 92) {
    event.op = fpga::FaultEvent::Op::kRepairTile;
    event.rect = Rect{rng.uniform_int(0, width - 1),
                      rng.uniform_int(0, height - 1), 1, 1};
  } else {
    event.op = fpga::FaultEvent::Op::kRepairTransient;
  }
  return event;
}

/// One fault/repair sequence against a densely packed layout (filled by a
/// first-fit online placer, then admitted into the manager). Every event's
/// outcome — per-module tier, revival flag — and the layout after it (the
/// recovered spots and every relocation move) go into `digest`.
void recovery_trace(bool with_nets, std::uint64_t seed, int events,
                    Digest& digest, runtime::FaultRecoveryStats& totals) {
  const auto fabric =
      std::make_shared<const fpga::Fabric>(fpga::make_homogeneous(20, 8));
  fpga::PartialRegion region(fabric);
  region.block(Rect{9, 2, 2, 4});
  const std::vector<Module> pool = generated_pool(seed + 100, 8);

  runtime::FaultRecoveryOptions options;
  options.deadline_seconds = 60.0;
  options.retry_backoff_events = 1;
  options.seed = seed;
  if (with_nets) {
    options.nets = chain_nets(pool);
    options.comm_weight = 3;
  }
  runtime::FaultRecoveryManager manager(region, options);
  {
    baseline::OnlinePlacer filler(region);
    int id = 0;
    for (int round = 0; round < 3; ++round) {
      for (const Module& module : pool) {
        if (const auto p = filler.place(id, module)) {
          manager.admit(id, module, p->shape, p->x, p->y);
          ++id;
        }
      }
    }
  }
  digest.add_layout(manager.live_placements());

  Rng rng(seed * 7919 + 1);
  for (int e = 0; e < events; ++e) {
    const runtime::FaultEventOutcome outcome = manager.on_fault(
        random_event(rng, fabric->width(), fabric->height()));
    digest.add(outcome.tiles_faulted);
    digest.add(outcome.tiles_repaired);
    digest.add(outcome.modules_hit);
    digest.add(outcome.recovered);
    digest.add(outcome.parked);
    digest.add(outcome.retry_recoveries);
    digest.add(outcome.deadline_expired ? 1 : 0);
    for (const runtime::ModuleRecovery& m : outcome.modules) {
      digest.add(m.instance_id);
      digest.add(static_cast<std::int64_t>(m.tier));
      digest.add(m.recovered ? 1 : 0);
      digest.add(m.from_parked ? 1 : 0);
    }
    digest.add_layout(manager.live_placements());
    digest.add(manager.parked_count());
  }
  const runtime::FaultRecoveryStats& s = manager.stats();
  for (const std::uint64_t v :
       {s.events, s.tiles_faulted, s.modules_hit, s.recovered,
        s.inplace_swaps, s.local_replaces, s.defrag_recoveries,
        s.greedy_recoveries, s.parked, s.retries, s.retry_recoveries,
        s.abandoned, s.deadline_expiries, s.relocated_modules,
        s.relocated_tiles})
    digest.add(static_cast<std::int64_t>(v));
  digest.add(manager.recovery_cost().tiles_cleared);
  digest.add(manager.recovery_cost().tiles_written);
  digest.add(manager.recovery_cost().modules_loaded);
  totals.inplace_swaps += s.inplace_swaps;
  totals.local_replaces += s.local_replaces;
  totals.defrag_recoveries += s.defrag_recoveries;
  totals.retry_recoveries += s.retry_recoveries;
  totals.relocated_modules += s.relocated_modules;
  totals.parked += s.parked;
  totals.deadline_expiries += s.deadline_expiries;
}

void expect_recovery_digest(bool with_nets, std::uint64_t expected) {
  runtime::FaultRecoveryStats totals;
  Digest digest;
  for (std::uint64_t seed = 1; seed <= 6; ++seed)
    recovery_trace(with_nets, seed, 30, digest, totals);
  EXPECT_EQ(digest.value(), expected)
      << "new digest: 0x" << std::hex << digest.value();
  // Every tier that a generous deadline can reach is exercised.
  EXPECT_GT(totals.inplace_swaps, 0u);
  EXPECT_GT(totals.local_replaces, 0u);
  EXPECT_GT(totals.defrag_recoveries, 0u);
  EXPECT_GT(totals.relocated_modules, 0u);
  EXPECT_GT(totals.parked, 0u);
  EXPECT_GT(totals.retry_recoveries, 0u);
  EXPECT_EQ(totals.deadline_expiries, 0u);
}

TEST(LiveLayoutDigest, RecoveryFirstFit) {
  expect_recovery_digest(false, 0x373c006971c9efc7ULL);
}

TEST(LiveLayoutDigest, RecoveryCommCost) {
  expect_recovery_digest(true, 0x23f75ddaa6439886ULL);
}

// --- Greedy shake -----------------------------------------------------------

struct ShakeMode {
  AnchorPolicy policy = AnchorPolicy::kFirstFit;
  bool cached_tables = false;
};

struct ShakeCounts {
  int planned = 0;  // shakes that produced a plan
  int refused = 0;  // shakes where some step found no spot
};

/// The valid-anchor bitmap of each of `module`'s shapes on `region`.
std::vector<BitMatrix> anchor_maps(const fpga::PartialRegion& region,
                                   const Module& module) {
  std::vector<BitMatrix> maps;
  for (const geost::ShapeFootprint& shape : module.shapes()) {
    BitMatrix& map = maps.emplace_back(region.height(), region.width());
    for (const Point& a : geost::compute_valid_anchors(region.masks(), shape))
      map.set(a.y, a.x, true);
  }
  return maps;
}

/// Fragment a layout with random (not first-fit) placements, then shake
/// every relocation set of a request that fits nowhere and replay the plan
/// against the reference: the request first, then the lifted instances by
/// decreasing area (ties by id), each at reference::best_anchor of the
/// shadow free space under `mode.policy` — pins from the unshaken layout
/// when it is kCommCost — on available, unoccupied tiles only.
void check_shake(const ShakeMode& mode, std::uint64_t seed,
                 ShakeCounts& counts) {
  const auto fabric =
      std::make_shared<const fpga::Fabric>(fpga::make_homogeneous(14, 7));
  fpga::PartialRegion region(fabric);
  region.block(Rect{6, 3, 2, 2});
  const std::vector<Module> pool = generated_pool(seed + 200, 7);
  // Nets are configured in every mode: the recovery mode must ignore them.
  const std::shared_ptr<const comm::NetList> nets = chain_nets(pool);
  runtime::LiveLayout layout(region, true, nets, 2);
  PreparedTables prepared(region, true);
  runtime::ModuleTableSource* source =
      mode.cached_tables ? &prepared : nullptr;

  Rng rng(seed * 31 + 5);
  int next_id = 0;
  for (int attempt = 0; attempt < 40; ++attempt) {
    const Module& module = pool[rng.pick_index(pool)];
    const runtime::LiveLayout::Tables tables =
        layout.tables_of(module, nullptr);
    std::vector<geost::Placement> free_spots;
    for (const geost::Placement& p : tables.table())
      if (layout.index().free_matrix().covers_shifted(
              tables.shapes()[static_cast<std::size_t>(p.shape)].mask(), p.y,
              p.x))
        free_spots.push_back(p);
    if (free_spots.empty()) continue;
    const geost::Placement& p = free_spots[rng.pick_index(free_spots)];
    layout.insert(next_id++, module, p.shape, p.x, p.y);
  }

  const int request_id = next_id;
  for (const Module& request : pool) {
    const runtime::LiveLayout::Tables tables =
        layout.tables_of(request, source);
    const comm::PinContext request_pins =
        layout.pin_context(request.name(), request_id);
    if (layout.fit(layout.index(), tables, mode.policy, &request_pins))
      continue;  // fits without a shake
    const auto sets =
        layout.relocation_candidates(tables, 4, 256, Deadline());
    for (const std::vector<int>& set : sets) {
      const auto plan = layout.greedy_shake(set, request_id, request, tables,
                                            mode.policy, source);

      // The reference replay on a bitmap of the shadow free space.
      BitMatrix free = FreeSpaceIndex::union_of(region.masks());
      std::vector<comm::NamedPin> pins;
      std::vector<int> order;
      for (const placer::ModulePlacement& p : layout.live_placements()) {
        const runtime::LiveLayout::Instance& instance = layout.at(p.module);
        const Rect box = instance.footprint().bounding_box();
        pins.push_back(comm::NamedPin{instance.module.name(),
                                      comm::center2(box, p.x, p.y)});
        if (std::find(set.begin(), set.end(), p.module) != set.end())
          order.push_back(p.module);
        else
          free.clear_shifted(instance.footprint().mask(), p.y, p.x);
      }
      std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return layout.at(a).footprint().area() >
               layout.at(b).footprint().area();
      });
      const auto expected_step =
          [&](const Module& module, int id) -> std::optional<AnchorPick> {
        std::vector<BitMatrix> masks;
        for (const geost::ShapeFootprint& shape : module.shapes())
          masks.push_back(shape.mask());
        std::vector<comm::NamedPin> others;
        for (std::size_t i = 0; i < pins.size(); ++i)
          if (layout.live_placements()[i].module != id)
            others.push_back(pins[i]);
        const comm::PinContext context =
            comm::PinContext::build(*nets, module.name(), others);
        const AnchorCost cost = [&](int s, int x, int y) {
          return context.cost2(comm::center2(
              module.shapes()[static_cast<std::size_t>(s)].bounding_box(), x,
              y));
        };
        const bool priced =
            mode.policy == AnchorPolicy::kCommCost && !context.empty();
        return reference::best_anchor(free, masks,
                                      anchor_maps(region, module),
                                      mode.policy, nullptr,
                                      priced ? &cost : nullptr);
      };
      const auto take = [&](const Module& module, int shape, int x, int y) {
        const BitMatrix& mask =
            module.shapes()[static_cast<std::size_t>(shape)].mask();
        ASSERT_TRUE(free.covers_shifted(mask, y, x))
            << "shake step lands on an occupied or unavailable tile";
        free.clear_shifted(mask, y, x);
      };

      std::optional<AnchorPick> want = expected_step(request, request_id);
      if (!want.has_value()) {
        EXPECT_FALSE(plan.has_value());
        ++counts.refused;
        continue;
      }
      bool reference_refused = false;
      std::vector<runtime::LiveLayout::Move> expected_moves;
      if (plan.has_value()) {
        EXPECT_EQ(plan->request,
                  (geost::Placement{want->shape, want->x, want->y}));
      }
      take(request, want->shape, want->x, want->y);
      for (const int id : order) {
        want = expected_step(layout.at(id).module, id);
        if (!want.has_value()) {
          reference_refused = true;
          break;
        }
        expected_moves.push_back({id, want->shape, want->x, want->y});
        take(layout.at(id).module, want->shape, want->x, want->y);
      }
      if (reference_refused) {
        EXPECT_FALSE(plan.has_value());
        ++counts.refused;
        continue;
      }
      ASSERT_TRUE(plan.has_value());
      ++counts.planned;
      ASSERT_EQ(plan->moves.size(), expected_moves.size());
      for (std::size_t i = 0; i < expected_moves.size(); ++i) {
        EXPECT_EQ(plan->moves[i].instance_id, expected_moves[i].instance_id);
        EXPECT_EQ(plan->moves[i].shape, expected_moves[i].shape);
        EXPECT_EQ(plan->moves[i].x, expected_moves[i].x);
        EXPECT_EQ(plan->moves[i].y, expected_moves[i].y);
      }

      // Committing the plan and admitting the request keeps the state
      // consistent, and leaves the free space the reference replay left.
      runtime::LiveLayout committed = layout;
      (void)committed.commit(*plan);
      committed.insert(request_id, request, plan->request.shape,
                       plan->request.x, plan->request.y);
      EXPECT_EQ(committed.check_invariants(), std::vector<std::string>{});
      EXPECT_EQ(committed.index().free_matrix(), free);
    }
  }
}

TEST(LiveLayoutShake, OnlineModeCommCostCachedTables) {
  ShakeCounts counts;
  for (std::uint64_t seed = 1; seed <= 12; ++seed)
    check_shake({AnchorPolicy::kCommCost, true}, seed, counts);
  EXPECT_GT(counts.planned, 0);
  EXPECT_GT(counts.refused, 0);
}

TEST(LiveLayoutShake, OnlineModeBestFitCachedTables) {
  ShakeCounts counts;
  for (std::uint64_t seed = 1; seed <= 12; ++seed)
    check_shake({AnchorPolicy::kBestFit, true}, seed, counts);
  EXPECT_GT(counts.planned, 0);
  EXPECT_GT(counts.refused, 0);
}

TEST(LiveLayoutShake, RecoveryModeFirstFitScannedTables) {
  ShakeCounts counts;
  for (std::uint64_t seed = 1; seed <= 12; ++seed)
    check_shake({AnchorPolicy::kFirstFit, false}, seed, counts);
  EXPECT_GT(counts.planned, 0);
  EXPECT_GT(counts.refused, 0);
}

// A one-row strip of `width` CLB tiles.
Module clb_strip(const char* name, int width) {
  return Module(name, {model::ModuleGenerator::make_column_shape(width, 0, 1,
                                                                 1, 0)});
}

using Violations = std::vector<std::string>;

TEST(LiveLayoutAudit, NamesAModuleOnAWrongTypeTile) {
  // BRAM columns at x = 2 and 6; every other tile is a CLB. The index tracks
  // union availability, so insert() accepts a CLB strip across column 2 and
  // only the typed check sees it.
  fpga::ColumnarSpec spec;
  spec.bram_period = 4;
  spec.bram_offset = 2;
  spec.dsp_period = 0;
  spec.center_clock_column = false;
  spec.edge_io = false;
  const auto fabric =
      std::make_shared<const fpga::Fabric>(fpga::make_columnar(8, 2, spec));
  const fpga::PartialRegion region(fabric);
  runtime::LiveLayout layout(region, true, nullptr, 0);
  layout.insert(1, clb_strip("a", 2), 0, 0, 0);
  EXPECT_EQ(layout.check_invariants(), Violations{});
  layout.insert(2, clb_strip("b", 2), 0, 2, 1);
  EXPECT_EQ(layout.check_invariants(),
            Violations{"live layout: instance 2 (module 'b' at 2,1) is on "
                       "tiles the region does not offer as resource 0"});
}

TEST(LiveLayoutAudit, NamesAFaultTheIndexWasNotToldAbout) {
  const auto fabric =
      std::make_shared<const fpga::Fabric>(fpga::make_homogeneous(6, 2));
  fpga::PartialRegion region(fabric);
  runtime::LiveLayout layout(region, true, nullptr, 0);
  layout.insert(1, clb_strip("a", 2), 0, 0, 0);
  EXPECT_EQ(layout.check_invariants(), Violations{});

  // A fault under the module, applied to the region without
  // refresh_available(): a module on a faulty tile and a stale index.
  BitMatrix faulty(2, 6);
  faulty.set(0, 1);
  region.set_fault_mask(faulty);
  const std::string on_fault =
      "live layout: instance 1 (module 'a' at 0,0) is on tiles the region "
      "does not offer as resource 0";
  EXPECT_EQ(layout.check_invariants(),
            (Violations{on_fault,
                        "live layout: stale index: availability is not the "
                        "union of the region masks"}));
  // The refresh mends the index; the module stays on the fault until it
  // is moved off.
  layout.refresh_available();
  EXPECT_EQ(layout.check_invariants(), Violations{on_fault});
  layout.erase(1);
  EXPECT_EQ(layout.check_invariants(), Violations{});
}

}  // namespace
}  // namespace rr
