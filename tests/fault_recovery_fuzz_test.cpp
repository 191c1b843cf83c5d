// Randomized oracle test for the fault-recovery pipeline: random fault
// sequences (tiles, rectangles, columns, repairs; transient and permanent)
// are driven through a FaultRecoveryManager whose every intermediate state
// must pass its check_invariants() and match naive reference structures —
// a per-cell fault map replica and a from-scratch region. The invariants:
//   - no live module ever overlaps a faulty, blocked, or static tile, nor
//     another live module; occupancy bitmap, tile accounting and the
//     free-space index are exact (the manager's audit);
//   - live + parked instances always account for every admitted module;
//   - capacity accounting equals a freshly faulted region's availability;
//   - the manager never throws, no matter how degraded the fabric gets.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "baseline/greedy.hpp"
#include "fpga/builders.hpp"
#include "fpga/faults.hpp"
#include "fpga/region.hpp"
#include "model/generator.hpp"
#include "runtime/recovery.hpp"
#include "util/rng.hpp"

namespace rr::runtime {
namespace {

using fpga::FaultEvent;
using fpga::FaultKind;
using model::Module;

constexpr Rect kBlocked{9, 2, 2, 4};

struct Fixture {
  std::shared_ptr<const fpga::Fabric> fabric;
  std::shared_ptr<fpga::PartialRegion> region;
  std::vector<Module> pool;
};

Fixture make_fixture(std::uint64_t seed) {
  Fixture f;
  f.fabric =
      std::make_shared<const fpga::Fabric>(fpga::make_homogeneous(20, 8));
  f.region = std::make_shared<fpga::PartialRegion>(f.fabric);
  // A blocked obstacle so the audit checks region availability, not just
  // fault masking and mutual non-overlap.
  f.region->block(kBlocked);
  model::GeneratorParams params;
  params.clb_min = 4;
  params.clb_max = 16;
  params.bram_blocks_max = 0;
  params.min_height = 1;
  params.max_height = 5;
  model::ModuleGenerator generator(params, seed);
  f.pool = generator.generate_many(6);
  return f;
}

FaultEvent random_event(Rng& rng, int width, int height) {
  FaultEvent event;
  const int roll = rng.uniform_int(0, 99);
  event.kind = rng.chance(0.5) ? FaultKind::kPermanent
                               : FaultKind::kTransient;
  if (roll < 55) {
    event.op = FaultEvent::Op::kTile;
    event.rect = Rect{rng.uniform_int(0, width - 1),
                      rng.uniform_int(0, height - 1), 1, 1};
  } else if (roll < 70) {
    event.op = FaultEvent::Op::kRect;
    const int w = rng.uniform_int(1, 3);
    const int h = rng.uniform_int(1, 3);
    event.rect = Rect{rng.uniform_int(0, width - w),
                      rng.uniform_int(0, height - h), w, h};
  } else if (roll < 80) {
    event.op = FaultEvent::Op::kColumn;
    event.rect = Rect{rng.uniform_int(0, width - 1), 0, 1, height};
  } else if (roll < 92) {
    event.op = FaultEvent::Op::kRepairTile;
    event.rect = Rect{rng.uniform_int(0, width - 1),
                      rng.uniform_int(0, height - 1), 1, 1};
  } else {
    event.op = FaultEvent::Op::kRepairTransient;
  }
  return event;
}

void check_oracle(const FaultRecoveryManager& manager, const Fixture& f,
                  const fpga::FaultMap& reference_map, int admitted) {
  // The manager's fault map must track the reference replica exactly.
  ASSERT_EQ(manager.fault_map(), reference_map);

  ASSERT_EQ(manager.live_count() + manager.parked_count(), admitted);
  ASSERT_EQ(manager.check_invariants(), std::vector<std::string>{});

  // Capacity accounting: equal to a freshly faulted region's availability.
  fpga::PartialRegion fresh(f.fabric);
  fresh.block(kBlocked);
  fresh.apply_faults(reference_map);
  ASSERT_EQ(manager.healthy_available(), fresh.total_available());
}

TEST(FaultRecoveryFuzz, RandomFaultSequencesPreserveAllInvariants) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Fixture f = make_fixture(seed);
    const auto greedy = baseline::place_greedy(*f.region, f.pool);
    ASSERT_TRUE(greedy.solution.feasible) << "seed " << seed;

    FaultRecoveryOptions options;
    options.deadline_seconds = 0.5;
    options.retry_backoff_events = 1;
    options.seed = seed;
    FaultRecoveryManager manager(*f.region, options);
    for (const auto& p : greedy.solution.placements)
      manager.admit(p.module, f.pool[static_cast<std::size_t>(p.module)],
                    p.shape, p.x, p.y);
    const int admitted = manager.live_count();

    fpga::FaultMap reference_map(*f.fabric);
    Rng rng(seed * 7919);
    for (int step = 0; step < 40; ++step) {
      const FaultEvent event =
          random_event(rng, f.fabric->width(), f.fabric->height());
      reference_map.apply(event);
      ASSERT_NO_THROW((void)manager.on_fault(event))
          << "seed " << seed << " step " << step;
      check_oracle(manager, f, reference_map, admitted);
      if (::testing::Test::HasFatalFailure())
        FAIL() << "oracle failed at seed " << seed << " step " << step;
    }
  }
}

// A near-zero deadline must degrade recovery quality, never correctness:
// the pipeline parks what it cannot save in time and every invariant holds.
TEST(FaultRecoveryFuzz, TinyDeadlineNeverBreaksInvariants) {
  const Fixture f = make_fixture(42);
  const auto greedy = baseline::place_greedy(*f.region, f.pool);
  ASSERT_TRUE(greedy.solution.feasible);

  FaultRecoveryOptions options;
  options.deadline_seconds = 1e-9;
  FaultRecoveryManager manager(*f.region, options);
  for (const auto& p : greedy.solution.placements)
    manager.admit(p.module, f.pool[static_cast<std::size_t>(p.module)],
                  p.shape, p.x, p.y);
  const int admitted = manager.live_count();

  fpga::FaultMap reference_map(*f.fabric);
  Rng rng(4242);
  for (int step = 0; step < 60; ++step) {
    const FaultEvent event =
        random_event(rng, f.fabric->width(), f.fabric->height());
    reference_map.apply(event);
    ASSERT_NO_THROW((void)manager.on_fault(event)) << "step " << step;
    check_oracle(manager, f, reference_map, admitted);
  }
}

}  // namespace
}  // namespace rr::runtime
