// Multi-tenant soak: 8 tenants sharded over 4 workers, each driven by its
// own submitter thread with a deterministic churn script (places, removes,
// fault injections, repairs). Verifies the service's concurrency contract:
//
//   1. Responses and final occupancy are bit-identical, per tenant, to a
//      serial replay of that tenant's script through a fresh Tenant (the
//      oracle shares Tenant::apply, so this pins scheduling/batching/cache
//      effects, not the placement policy).
//   2. PlacementService::check_invariants() passes: the accounting
//      identity holds and every tenant's state is consistent — no leaked
//      tiles (occupancy bitmap, occupied-tile counter and live footprints
//      agree exactly) and no stale solve context (no live instance on a
//      faulty tile, the installed context keyed by the current fabric).
//
// Runs under the `concurrent` ctest label, so the TSan CI leg executes it
// with real thread interleavings.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fpga/builders.hpp"
#include "model/generator.hpp"
#include "service/service.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace rr::service {
namespace {

using model::Module;
using model::ModuleGenerator;

constexpr int kTenants = 8;
constexpr int kWorkers = 4;
constexpr int kRequestsPerTenant = 160;
constexpr int kFabricW = 12;
constexpr int kFabricH = 6;

std::vector<Module> soak_library() {
  // Mixed sizes incl. an alternative-rich module so cached tables cover
  // multi-shape lookups too.
  std::vector<Module> lib;
  lib.push_back(Module("s1", {ModuleGenerator::make_column_shape(1, 0, 1, 1, 0)}));
  lib.push_back(Module("s4", {ModuleGenerator::make_column_shape(4, 0, 1, 2, 0),
                              ModuleGenerator::make_column_shape(4, 0, 1, 4, 0)}));
  lib.push_back(Module("s6", {ModuleGenerator::make_column_shape(6, 0, 1, 3, 0),
                              ModuleGenerator::make_column_shape(6, 0, 1, 2, 0)}));
  return lib;
}

Tenant::Config soak_config(const std::shared_ptr<const fpga::Fabric>& fabric,
                           SolveContextCache* cache) {
  Tenant::Config config;
  config.fabric = fabric;
  config.library = soak_library();
  config.cache = cache;
  return config;
}

Request place_request(int tenant, int instance) {
  Request request;
  request.tenant = tenant;
  request.op = RequestOp::kPlace;
  request.instance = instance;
  request.module = 0;  // the 1x1 module: always placeable on a healthy fabric
  return request;
}

/// Deterministic per-tenant churn script. Fault rate is low enough that
/// tenants keep placing between fabric epochs, high enough that every
/// tenant sees several context invalidations.
std::vector<Request> tenant_script(int tenant) {
  Rng rng(0x50AB1E5ULL + static_cast<std::uint64_t>(tenant) * 7919);
  std::vector<Request> script;
  std::vector<int> live;
  int next_instance = 0;
  int faulted_column = -1;
  for (int i = 0; i < kRequestsPerTenant; ++i) {
    Request request;
    request.tenant = tenant;
    if (rng.chance(0.04)) {
      // Fault event: alternate transient tile faults and scrub repairs.
      request.op = RequestOp::kFault;
      if (faulted_column >= 0 && rng.chance(0.5)) {
        request.fault.op = fpga::FaultEvent::Op::kRepairTransient;
        faulted_column = -1;
      } else {
        request.fault.op = fpga::FaultEvent::Op::kTile;
        request.fault.kind = fpga::FaultKind::kTransient;
        const int x = rng.uniform_int(0, kFabricW - 1);
        const int y = rng.uniform_int(0, kFabricH - 1);
        request.fault.rect = Rect{x, y, 1, 1};
        faulted_column = x;
      }
    } else if (!live.empty() && rng.chance(0.45)) {
      request.op = RequestOp::kRemove;
      const std::size_t pick = rng.pick_index(live);
      request.instance = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      request.op = RequestOp::kPlace;
      request.instance = next_instance++;
      request.module = rng.uniform_int(0, 2);
      live.push_back(request.instance);
    }
    script.push_back(request);
  }
  return script;
}

TEST(ServiceSoak, ConcurrentChurnMatchesSerialOracleExactly) {
  const auto fabric = std::make_shared<const fpga::Fabric>(
      fpga::make_homogeneous(kFabricW, kFabricH));

  // Scripts first (deterministic, shared by service run and oracle).
  std::vector<std::vector<Request>> scripts;
  scripts.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) scripts.push_back(tenant_script(t));

  // --- Service run: one submitter thread per tenant.
  std::vector<Tenant::Config> configs;
  configs.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t)
    configs.push_back(soak_config(fabric, nullptr));  // cache set by service
  ServiceOptions options;
  options.workers = kWorkers;
  options.queue_capacity = 32;
  PlacementService service(std::move(configs), options);

  std::vector<std::vector<Response>> responses(kTenants);
  {
    std::vector<std::thread> submitters;
    submitters.reserve(kTenants);
    for (int t = 0; t < kTenants; ++t) {
      submitters.emplace_back([&, t] {
        std::vector<std::future<Response>> futures;
        futures.reserve(scripts[t].size());
        for (const Request& request : scripts[t])
          futures.push_back(service.submit(request));
        responses[t].reserve(futures.size());
        for (auto& future : futures) responses[t].push_back(future.get());
      });
    }
    for (std::thread& thread : submitters) thread.join();
  }
  service.stop();

  // --- Serial oracle: same scripts through fresh tenants, one at a time,
  // without any cache. Cached tables are bit-identical to scanned ones, so
  // any divergence is a service-layer bug (lost/reordered/misrouted
  // requests, stale context, cross-tenant state bleed).
  for (int t = 0; t < kTenants; ++t) {
    Tenant oracle(soak_config(fabric, nullptr));
    ASSERT_EQ(responses[t].size(), scripts[t].size()) << "tenant " << t;
    for (std::size_t i = 0; i < scripts[t].size(); ++i) {
      const Response expected = oracle.apply(scripts[t][i]);
      EXPECT_EQ(responses[t][i], expected)
          << "tenant " << t << " diverged at request " << i;
    }

    const Tenant& served = service.tenant(t);
    EXPECT_EQ(served.placer().live_placements(),
              oracle.placer().live_placements())
        << "tenant " << t;
    EXPECT_EQ(served.placer().occupied_tiles(),
              oracle.placer().occupied_tiles())
        << "tenant " << t;
    EXPECT_EQ(served.faults(), oracle.faults()) << "tenant " << t;
    EXPECT_EQ(served.fabric_epoch(), oracle.fabric_epoch()) << "tenant " << t;
  }

  // --- Structural invariants per tenant.
  EXPECT_EQ(service.check_invariants(), std::vector<std::string>{});

  // The soak must actually exercise the machinery it claims to cover.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests,
            static_cast<std::uint64_t>(kTenants * kRequestsPerTenant));
  EXPECT_GT(stats.placed, 0u);
  EXPECT_GT(stats.removed, 0u);
  EXPECT_GT(stats.fault_events, 0u);
  // (A remove of an instance the fault path lost is a legitimate error
  // response, so no errors == 0 assertion — the oracle match above already
  // pins every response exactly.)
  EXPECT_GT(stats.cache.hits, 0u);
  // Fault churn re-keys contexts instead of eagerly invalidating; the LRU
  // cap alone bounds the entry count.
  EXPECT_EQ(stats.cache.invalidations, 0u);
  EXPECT_LE(stats.cache.entries, SolveContextCache::kDefaultCapacity);
}

TEST(ServiceSoak, ManyClientThreadsOneTenantStaySerial) {
  // Several client threads hammer a single tenant: the shard serializes
  // them, so every placer invariant must hold even though submissions race.
  const auto fabric = std::make_shared<const fpga::Fabric>(
      fpga::make_homogeneous(10, 5));
  std::vector<Tenant::Config> configs;
  configs.push_back(soak_config(fabric, nullptr));
  ServiceOptions options;
  options.workers = 2;
  PlacementService service(std::move(configs), options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  std::vector<std::thread> clients;
  std::vector<std::uint64_t> placed_counts(kThreads, 0);
  for (int c = 0; c < kThreads; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerThread; ++i) {
        Request request;
        request.tenant = 0;
        request.op = RequestOp::kPlace;
        request.instance = c * kPerThread + i;  // distinct ids across threads
        request.module = i % 3;
        const Response response = service.call(request);
        if (response.status == Response::Status::kPlaced) ++placed_counts[c];
        // Remove every other instance to keep churn going.
        if (response.status == Response::Status::kPlaced && i % 2 == 0) {
          Request removal;
          removal.tenant = 0;
          removal.op = RequestOp::kRemove;
          removal.instance = request.instance;
          ASSERT_EQ(service.call(removal).status, Response::Status::kRemoved);
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  service.stop();

  EXPECT_EQ(service.check_invariants(), std::vector<std::string>{});
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_GT(stats.placed, 0u);
}

TEST(ServiceSoak, OverloadedBurstKeepsShedAccountingExact) {
  // Overload soak on a FakeClock: every deadline decision is driven by a
  // manual clock advance, so the test asserts exact shed counts — no real
  // sleeps, no timing margins to flake under TSan — while the submission
  // phase still races real client threads against the admission path.
  FakeClock clock;
  constexpr int kBurstTenants = 4;
  constexpr int kQuota = 6;
  constexpr int kBurst = 10;  // per tenant: kQuota admitted, rest quota-shed
  const auto fabric = std::make_shared<const fpga::Fabric>(
      fpga::make_homogeneous(kFabricW, kFabricH));
  std::vector<Tenant::Config> configs;
  configs.reserve(kBurstTenants);
  for (int t = 0; t < kBurstTenants; ++t)
    configs.push_back(soak_config(fabric, nullptr));
  ServiceOptions options;
  options.workers = 2;
  options.queue_capacity = 64;
  options.tenant_inflight_quota = kQuota;
  options.default_deadline_ms = 5.0;
  options.clock = &clock;
  options.start_paused = true;  // admit the burst before anything executes
  PlacementService service(std::move(configs), options);

  // Phase 1: concurrent burst into the paused service. Per tenant, the
  // first kQuota submissions are admitted and the rest shed on quota; the
  // clock then jumps past every deadline, so the admitted ones shed at
  // dequeue. Deterministic totals, racy interleavings.
  std::vector<std::vector<std::future<Response>>> futures(kBurstTenants);
  {
    std::vector<std::thread> submitters;
    submitters.reserve(kBurstTenants);
    for (int t = 0; t < kBurstTenants; ++t) {
      submitters.emplace_back([&, t] {
        for (int i = 0; i < kBurst; ++i)
          futures[t].push_back(service.submit(place_request(t, i)));
      });
    }
    for (std::thread& thread : submitters) thread.join();
  }
  clock.advance_ms(6);  // past the 5ms default deadline
  service.resume();
  std::uint64_t seen_quota = 0, seen_deadline = 0;
  for (auto& tenant_futures : futures)
    for (auto& future : tenant_futures) {
      const Response::Status status = future.get().status;
      if (status == Response::Status::kShedQuota) ++seen_quota;
      else if (status == Response::Status::kShedDeadline) ++seen_deadline;
      else FAIL() << "unexpected status " << static_cast<int>(status);
    }
  EXPECT_EQ(seen_quota,
            static_cast<std::uint64_t>(kBurstTenants * (kBurst - kQuota)));
  EXPECT_EQ(seen_deadline,
            static_cast<std::uint64_t>(kBurstTenants * kQuota));

  // Phase 2: the frozen clock accrues no queue wait, so with the shed storm
  // drained the same service serves normal traffic — quota slots were all
  // released and no tenant state was touched by shed requests.
  for (int t = 0; t < kBurstTenants; ++t) {
    // Every future has resolved, so the quiesced accessor is race-free.
    EXPECT_EQ(service.tenant_quiesced(t).placer().live_count(), 0)
        << "tenant " << t;
    EXPECT_EQ(service.call(place_request(t, 1000)).status,
              Response::Status::kPlaced);
  }
  service.stop();
  for (int t = 0; t < kBurstTenants; ++t)
    EXPECT_EQ(service.tenant(t).placer().live_count(), 1) << "tenant " << t;

  const ShedCounters shed = service.shed_counters();
  EXPECT_EQ(shed.submitted,
            static_cast<std::uint64_t>(kBurstTenants * (kBurst + 1)));
  EXPECT_EQ(shed.shed_quota, seen_quota);
  EXPECT_EQ(shed.shed_deadline, seen_deadline);
  EXPECT_EQ(shed.completed, static_cast<std::uint64_t>(kBurstTenants));
  EXPECT_EQ(shed.shed_queue, 0u);
  EXPECT_EQ(shed.rejected_stopped, 0u);
  // The accounting identity, exact because every future above resolved.
  EXPECT_EQ(service.check_invariants(), std::vector<std::string>{});
  // Shed requests never reach the latency distribution.
  EXPECT_EQ(service.stats().latency_count,
            static_cast<std::uint64_t>(kBurstTenants));
}

}  // namespace
}  // namespace rr::service
