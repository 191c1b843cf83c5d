// Placement service: queue semantics, content signatures, solve-context
// caching, the Tenant state machine (including fault displacement and the
// stale-context regression), and the end-to-end server.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fpga/builders.hpp"
#include "model/generator.hpp"
#include "service/queue.hpp"
#include "service/service.hpp"
#include "service/solve_context.hpp"
#include "util/clock.hpp"
#include "util/json.hpp"

namespace rr::service {
namespace {

using model::Module;
using model::ModuleGenerator;

std::shared_ptr<const fpga::Fabric> homogeneous_fabric(int w, int h) {
  return std::make_shared<const fpga::Fabric>(fpga::make_homogeneous(w, h));
}

Module rect_module(const std::string& name, int cells, int height) {
  return Module(name, {ModuleGenerator::make_column_shape(cells, 0, 1, height,
                                                          0)});
}

std::vector<Module> small_library() {
  return {rect_module("a", 4, 2), rect_module("b", 2, 2),
          rect_module("c", 1, 1)};
}

Tenant::Config tenant_config(int w, int h, SolveContextCache* cache) {
  Tenant::Config config;
  config.fabric = homogeneous_fabric(w, h);
  config.library = small_library();
  config.cache = cache;
  return config;
}

Request place_req(int tenant, int instance, int module) {
  Request r;
  r.tenant = tenant;
  r.op = RequestOp::kPlace;
  r.instance = instance;
  r.module = module;
  return r;
}

Request remove_req(int tenant, int instance) {
  Request r;
  r.tenant = tenant;
  r.op = RequestOp::kRemove;
  r.instance = instance;
  return r;
}

Request fault_req(int tenant, const fpga::FaultEvent& event) {
  Request r;
  r.tenant = tenant;
  r.op = RequestOp::kFault;
  r.fault = event;
  return r;
}

fpga::FaultEvent tile_fault(int x, int y, fpga::FaultKind kind) {
  fpga::FaultEvent e;
  e.op = fpga::FaultEvent::Op::kTile;
  e.kind = kind;
  e.rect = Rect{x, y, 1, 1};
  return e;
}

TEST(BoundedQueue, FifoAndCloseSemantics) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.push(1));
  EXPECT_TRUE(queue.push(2));
  EXPECT_TRUE(queue.push(3));
  queue.close();
  EXPECT_FALSE(queue.push(4));  // closed: push fails
  // Closed queues drain in order, then signal shutdown.
  EXPECT_EQ(queue.pop(), std::optional<int>(1));
  EXPECT_EQ(queue.pop(), std::optional<int>(2));
  EXPECT_EQ(queue.pop(), std::optional<int>(3));
  EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(BoundedQueue, TryPopIfOnlyTakesMatchingHead) {
  BoundedQueue<int> queue(4);
  ASSERT_TRUE(queue.push(10));
  ASSERT_TRUE(queue.push(21));
  const auto even = [](int v) { return v % 2 == 0; };
  EXPECT_EQ(queue.try_pop_if(even), std::optional<int>(10));
  EXPECT_EQ(queue.try_pop_if(even), std::nullopt);  // head 21 doesn't match
  EXPECT_EQ(queue.pop(), std::optional<int>(21));
  EXPECT_EQ(queue.try_pop_if(even), std::nullopt);  // empty
}

TEST(Signatures, FabricSignatureTracksFaultOverlay) {
  const auto fabric = homogeneous_fabric(8, 4);
  fpga::PartialRegion region(fabric);
  const std::uint64_t healthy = fabric_signature(region);

  fpga::FaultMap faults(*fabric);
  faults.inject(2, 1, fpga::FaultKind::kTransient);
  region.apply_faults(faults);
  const std::uint64_t faulty = fabric_signature(region);
  EXPECT_NE(healthy, faulty);

  // Repairing the transient fault restores the exact healthy signature —
  // the cache entry for the healthy fabric becomes reusable again.
  faults.repair_transient();
  region.apply_faults(faults);
  EXPECT_EQ(fabric_signature(region), healthy);
}

TEST(Signatures, LibrarySignatureIsOrderAndContentSensitive) {
  const std::vector<Module> lib = small_library();
  std::vector<Module> swapped = {lib[1], lib[0], lib[2]};
  EXPECT_NE(library_signature(lib), library_signature(swapped));

  std::vector<Module> renamed = {rect_module("a", 4, 2),
                                 rect_module("b", 2, 2),
                                 rect_module("d", 1, 1)};
  EXPECT_NE(library_signature(lib), library_signature(renamed));
  EXPECT_EQ(library_signature(lib), library_signature(small_library()));
}

TEST(SolveContextCache, HitsMissesAndInvalidation) {
  const auto fabric = homogeneous_fabric(8, 4);
  const fpga::PartialRegion region(fabric);
  const std::vector<Module> lib = small_library();

  SolveContextCache cache;
  const auto first = cache.acquire(region, lib, true);
  const auto second = cache.acquire(region, lib, true);
  EXPECT_EQ(first, second);  // shared entry
  // A different alternatives setting is a different context.
  const auto no_alts = cache.acquire(region, lib, false);
  EXPECT_NE(first, no_alts);
  SolveContextCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 2u);

  cache.invalidate(first->key());
  stats = cache.stats();
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.entries, 1u);
  // Holders keep the old context alive; re-acquire rebuilds (a miss).
  const auto rebuilt = cache.acquire(region, lib, true);
  EXPECT_NE(rebuilt, first);
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(SolveContextCache, LruEvictsLeastRecentlyUsedAtCapacity) {
  const std::vector<Module> lib = small_library();
  // Three distinct fabric signatures.
  const fpga::PartialRegion region_a(homogeneous_fabric(8, 4));
  const fpga::PartialRegion region_b(homogeneous_fabric(9, 4));
  const fpga::PartialRegion region_c(homogeneous_fabric(10, 4));

  SolveContextCache cache(2);
  const auto a = cache.acquire(region_a, lib, true);
  const auto b = cache.acquire(region_b, lib, true);
  EXPECT_EQ(cache.stats().entries, 2u);
  // Touch A so B becomes the least-recently-used entry; inserting C must
  // evict B, not A.
  EXPECT_EQ(cache.acquire(region_a, lib, true), a);
  const auto c = cache.acquire(region_c, lib, true);
  SolveContextCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(cache.acquire(region_a, lib, true), a);  // survived: hit
  EXPECT_NE(cache.acquire(region_b, lib, true), b);  // evicted: rebuild
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 4u);
}

TEST(Tenant, FaultRekeysWithoutFlushingHealthyEntries) {
  // Two tenants share one cache and one fabric state. A fault local to one
  // tenant re-keys only that tenant's context; the healthy-fabric entry the
  // other tenant runs on must stay cached (the flush regression the old
  // last-user eviction used to cause).
  SolveContextCache cache;
  Tenant healthy(tenant_config(8, 4, &cache));
  Tenant faulting(tenant_config(8, 4, &cache));
  EXPECT_EQ(healthy.context(), faulting.context());  // one shared entry
  const std::uint64_t misses_before = cache.stats().misses;

  ASSERT_EQ(faulting
                .apply(fault_req(0, tile_fault(0, 0,
                                               fpga::FaultKind::kPermanent)))
                .status,
            Response::Status::kFaulted);
  EXPECT_NE(faulting.context(), healthy.context());
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // The healthy tenant re-resolves its context: a hit, no rebuild.
  ASSERT_EQ(healthy.apply(place_req(0, 0, 2)).status,
            Response::Status::kPlaced);
  const auto reacquired = cache.acquire(
      healthy.region(), std::vector<Module>(small_library()), true);
  EXPECT_EQ(reacquired, healthy.context());
  EXPECT_EQ(cache.stats().misses, misses_before + 1);  // only the re-key
}

TEST(SolveContext, LookupResolvesLibraryModulesOnly) {
  const auto fabric = homogeneous_fabric(8, 4);
  const fpga::PartialRegion region(fabric);
  const std::vector<Module> lib = small_library();
  SolveContextCache cache;
  const auto context = cache.acquire(region, lib, true);

  ASSERT_NE(context->lookup(lib[1]), nullptr);
  EXPECT_EQ(context->lookup(lib[1]), &(*context->tables())[1]);
  const Module stranger = rect_module("zz", 1, 1);
  EXPECT_EQ(context->lookup(stranger), nullptr);
}

TEST(Tenant, PlaceRemoveAndErrorPaths) {
  SolveContextCache cache;
  Tenant tenant(tenant_config(8, 4, &cache));

  const Response placed = tenant.apply(place_req(0, 1, 0));
  ASSERT_EQ(placed.status, Response::Status::kPlaced);
  EXPECT_EQ(placed.placement.module, 1);  // instance id echoed back

  // Duplicate instance id and out-of-range module are request errors, not
  // crashes.
  EXPECT_EQ(tenant.apply(place_req(0, 1, 0)).status,
            Response::Status::kError);
  EXPECT_EQ(tenant.apply(place_req(0, 2, 99)).status,
            Response::Status::kError);
  EXPECT_EQ(tenant.apply(remove_req(0, 42)).status, Response::Status::kError);

  EXPECT_EQ(tenant.apply(remove_req(0, 1)).status, Response::Status::kRemoved);
  EXPECT_EQ(tenant.placer().live_count(), 0);
}

TEST(Tenant, CachedAndUncachedPlacementsAreBitIdentical) {
  SolveContextCache cache;
  Tenant cached(tenant_config(10, 5, &cache));
  Tenant uncached(tenant_config(10, 5, nullptr));

  // A churn sequence with placements, rejections, and removals.
  const std::vector<Request> script = {
      place_req(0, 0, 0), place_req(0, 1, 1), place_req(0, 2, 2),
      place_req(0, 3, 0), place_req(0, 4, 0), remove_req(0, 1),
      place_req(0, 5, 1), place_req(0, 6, 0), place_req(0, 7, 0),
      place_req(0, 8, 0), place_req(0, 9, 0), place_req(0, 10, 2),
  };
  for (const Request& request : script) {
    const Response a = cached.apply(request);
    const Response b = uncached.apply(request);
    EXPECT_EQ(a, b);
  }
  EXPECT_EQ(cached.placer().live_placements(),
            uncached.placer().live_placements());
  ASSERT_NE(cached.context(), nullptr);
  EXPECT_GE(cache.stats().hits + cache.stats().misses, 1u);
}

TEST(Tenant, FaultDisplacesAndRecoversWithFreshContext) {
  SolveContextCache cache;
  Tenant tenant(tenant_config(4, 1, &cache));
  // 4x1 strip, 1x1 module: deterministic bottom-left placement at (0,0).
  const Response placed = tenant.apply(place_req(0, 7, 2));
  ASSERT_EQ(placed.status, Response::Status::kPlaced);
  EXPECT_EQ(placed.placement.x, 0);
  const SolveContextKey healthy_key = tenant.context()->key();

  // Permanent fault under the instance: it must be displaced and re-placed
  // on a healthy tile — possible only if the solve context was refreshed
  // before the re-place (the stale-context regression this test pins).
  const Response faulted = tenant.apply(
      fault_req(0, tile_fault(0, 0, fpga::FaultKind::kPermanent)));
  ASSERT_EQ(faulted.status, Response::Status::kFaulted);
  EXPECT_EQ(faulted.displaced, 1);
  EXPECT_EQ(faulted.recovered, 1);
  EXPECT_NE(tenant.context()->key(), healthy_key);
  // The fault re-keys the context; the healthy entry stays cached (memory
  // is bounded by the LRU cap, not by eager eviction).
  EXPECT_EQ(cache.stats().invalidations, 0u);
  EXPECT_EQ(cache.stats().entries, 2u);

  const auto live = tenant.placer().live_placements();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_GE(live[0].x, 1);  // off the faulty tile
  EXPECT_EQ(tenant.fabric_epoch(), 1u);
  EXPECT_EQ(tenant.check_invariants(), std::vector<std::string>{});
}

TEST(Tenant, FaultCanLoseUnrecoverableInstances) {
  SolveContextCache cache;
  Tenant tenant(tenant_config(2, 1, &cache));
  ASSERT_EQ(tenant.apply(place_req(0, 0, 2)).status,
            Response::Status::kPlaced);
  ASSERT_EQ(tenant.apply(place_req(0, 1, 2)).status,
            Response::Status::kPlaced);
  // Kill one tile: one instance displaced, nowhere to go (the other tile
  // is occupied), so it is lost and its id is freed.
  const Response faulted = tenant.apply(
      fault_req(0, tile_fault(0, 0, fpga::FaultKind::kPermanent)));
  ASSERT_EQ(faulted.status, Response::Status::kFaulted);
  EXPECT_EQ(faulted.displaced, 1);
  EXPECT_EQ(faulted.recovered, 0);
  EXPECT_EQ(tenant.placer().live_count(), 1);
  // The freed id is reusable (and rejected: no healthy free tile remains).
  EXPECT_EQ(tenant.apply(place_req(0, 0, 2)).status,
            Response::Status::kRejected);
  EXPECT_EQ(tenant.check_invariants(), std::vector<std::string>{});
}

TEST(PlacementService, ServesTenantsAndCountsStats) {
  std::vector<Tenant::Config> configs;
  for (int t = 0; t < 3; ++t) configs.push_back(tenant_config(8, 4, nullptr));
  ServiceOptions options;
  options.workers = 2;
  PlacementService service(std::move(configs), options);

  for (int t = 0; t < 3; ++t) {
    EXPECT_EQ(service.call(place_req(t, 0, 0)).status,
              Response::Status::kPlaced);
    EXPECT_EQ(service.call(place_req(t, 1, 1)).status,
              Response::Status::kPlaced);
    EXPECT_EQ(service.call(remove_req(t, 0)).status,
              Response::Status::kRemoved);
  }
  // A bad request fails its future but not the worker.
  EXPECT_EQ(service.call(place_req(0, 1, 99)).status,
            Response::Status::kError);
  EXPECT_EQ(service.call(place_req(0, 2, 2)).status,
            Response::Status::kPlaced);

  service.stop();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 11u);
  EXPECT_EQ(stats.placed, 7u);
  EXPECT_EQ(stats.removed, 3u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.latency_count, 11u);
  EXPECT_GT(stats.latency_p99_ms, 0.0);
  EXPECT_GE(stats.latency_p99_ms, stats.latency_p50_ms);
  // Shared cache across the service's tenants: same fabric + library
  // signatures, one table preparation, the rest hits.
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_GE(stats.cache.hits, 2u);

  for (int t = 0; t < 3; ++t)
    EXPECT_GE(service.tenant(t).placer().live_count(), 1);
  // Submitting after stop is an overload/lifecycle outcome, not a
  // programming error: a typed response, never a throw (the shutdown-race
  // regression — a client racing stop() used to get InvalidInput).
  EXPECT_EQ(service.submit(place_req(0, 50, 0)).get().status,
            Response::Status::kRejectedStopped);
  EXPECT_EQ(service.shed_counters().rejected_stopped, 1u);
  EXPECT_EQ(service.check_invariants(), std::vector<std::string>{});
}

TEST(PlacementService, RejectsUnknownTenantAndBadOptions) {
  std::vector<Tenant::Config> configs;
  configs.push_back(tenant_config(4, 2, nullptr));
  PlacementService service(std::move(configs));
  EXPECT_THROW((void)service.submit(place_req(9, 0, 0)), InvalidInput);
  EXPECT_THROW((void)service.submit(place_req(-1, 0, 0)), InvalidInput);
  service.stop();

  std::vector<Tenant::Config> empty;
  EXPECT_THROW(PlacementService(std::move(empty)), InvalidInput);
}

TEST(BoundedQueue, TryPushDistinguishesFullFromClosed) {
  BoundedQueue<int> queue(2);
  int value = 7;
  EXPECT_EQ(queue.try_push(value), BoundedQueue<int>::PushResult::kPushed);
  value = 8;
  EXPECT_EQ(queue.try_push(value), BoundedQueue<int>::PushResult::kPushed);
  // Full: the value is NOT consumed — a retrying caller keeps its item.
  value = 9;
  EXPECT_EQ(queue.try_push(value), BoundedQueue<int>::PushResult::kFull);
  EXPECT_EQ(value, 9);
  EXPECT_EQ(queue.pop(), std::optional<int>(7));
  EXPECT_EQ(queue.try_push(value), BoundedQueue<int>::PushResult::kPushed);
  queue.close();
  value = 10;
  EXPECT_EQ(queue.try_push(value), BoundedQueue<int>::PushResult::kClosed);
  // Closed queues still drain.
  EXPECT_EQ(queue.pop(), std::optional<int>(8));
  EXPECT_EQ(queue.pop(), std::optional<int>(9));
  EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(PlacementService, QuotaShedsExcessInflightPerTenant) {
  std::vector<Tenant::Config> configs;
  configs.push_back(tenant_config(8, 4, nullptr));
  configs.push_back(tenant_config(8, 4, nullptr));
  ServiceOptions options;
  options.workers = 1;
  options.tenant_inflight_quota = 2;
  options.start_paused = true;  // nothing drains: inflight counts are exact
  PlacementService service(std::move(configs), options);

  auto a0 = service.submit(place_req(0, 0, 2));
  auto a1 = service.submit(place_req(0, 1, 2));
  // Third in-flight request for tenant 0: over quota, shed synchronously.
  auto a2 = service.submit(place_req(0, 2, 2));
  EXPECT_EQ(a2.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(a2.get().status, Response::Status::kShedQuota);
  // The quota is per tenant: tenant 1 is unaffected.
  auto b0 = service.submit(place_req(1, 0, 2));

  service.resume();
  EXPECT_EQ(a0.get().status, Response::Status::kPlaced);
  EXPECT_EQ(a1.get().status, Response::Status::kPlaced);
  EXPECT_EQ(b0.get().status, Response::Status::kPlaced);
  // Completion released the slots: tenant 0 admits again.
  EXPECT_EQ(service.call(place_req(0, 3, 2)).status,
            Response::Status::kPlaced);
  service.stop();
  const ShedCounters shed = service.shed_counters();
  EXPECT_EQ(shed.submitted, 5u);
  EXPECT_EQ(shed.shed_quota, 1u);
  EXPECT_EQ(shed.completed, 4u);
  EXPECT_EQ(service.check_invariants(), std::vector<std::string>{});
}

TEST(PlacementService, FakeClockDeadlineShedsAtDequeue) {
  FakeClock clock;
  std::vector<Tenant::Config> configs;
  configs.push_back(tenant_config(8, 4, nullptr));
  ServiceOptions options;
  options.workers = 1;
  options.default_deadline_ms = 10.0;
  options.clock = &clock;
  options.start_paused = true;
  PlacementService service(std::move(configs), options);

  // Per-request deadlines override the default; 0 means "use the default".
  Request tight = place_req(0, 0, 2);
  tight.deadline_ms = 5.0;
  auto doomed = service.submit(tight);
  auto surviving = service.submit(place_req(0, 1, 2));
  // 6ms of queue wait: past the 5ms deadline, within the 10ms default.
  clock.advance_ms(6);
  service.resume();
  EXPECT_EQ(doomed.get().status, Response::Status::kShedDeadline);
  EXPECT_EQ(surviving.get().status, Response::Status::kPlaced);

  service.stop();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed.shed_deadline, 1u);
  EXPECT_EQ(stats.shed.completed, 1u);
  // Shed requests never executed, so they stay out of the latency
  // distribution — it describes served traffic only.
  EXPECT_EQ(stats.latency_count, 1u);
  EXPECT_EQ(stats.requests, 1u);
  // The tenant never saw the shed request.
  EXPECT_EQ(service.tenant(0).placer().live_count(), 1);
}

TEST(PlacementService, SubmitRetryBudgetShedsOnFullQueue) {
  std::vector<Tenant::Config> configs;
  configs.push_back(tenant_config(8, 4, nullptr));
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.submit_retry_budget = 2;
  options.backoff_initial_us = 1;  // keep the test fast; pacing only
  options.start_paused = true;     // the queue cannot drain
  PlacementService service(std::move(configs), options);

  auto queued = service.submit(place_req(0, 0, 2));
  // Queue full and frozen: the retry budget burns down, then kShedQueue.
  auto shed = service.submit(place_req(0, 1, 2));
  EXPECT_EQ(shed.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(shed.get().status, Response::Status::kShedQueue);

  service.resume();
  EXPECT_EQ(queued.get().status, Response::Status::kPlaced);
  service.stop();
  const ShedCounters counters = service.shed_counters();
  EXPECT_EQ(counters.shed_queue, 1u);
  EXPECT_EQ(counters.submit_retries, 2u);  // attempt-counted, deterministic
  EXPECT_EQ(service.check_invariants(), std::vector<std::string>{});
}

TEST(ServiceStats, ToJsonCarriesShedSection) {
  std::vector<Tenant::Config> configs;
  configs.push_back(tenant_config(8, 4, nullptr));
  PlacementService service(std::move(configs));
  EXPECT_EQ(service.call(place_req(0, 0, 2)).status,
            Response::Status::kPlaced);
  service.stop();
  (void)service.submit(place_req(0, 1, 2));  // one rejected_stopped

  const json::Value doc = service.stats().to_json();
  ASSERT_TRUE(doc.contains("shed"));
  const json::Value& shed = doc.at("shed");
  for (const char* key : {"submitted", "completed", "deadline", "quota",
                          "queue", "stopped", "submit_retries", "shed_rate"})
    EXPECT_TRUE(shed.contains(key)) << key;
  EXPECT_EQ(shed.at("submitted").as_number(), 2.0);
  EXPECT_EQ(shed.at("completed").as_number(), 1.0);
  EXPECT_EQ(shed.at("stopped").as_number(), 1.0);
  EXPECT_EQ(shed.at("shed_rate").as_number(), 0.5);
}

TEST(PlacementService, WorkerShardingIsStableAndInRange) {
  std::vector<Tenant::Config> configs;
  for (int t = 0; t < 16; ++t) configs.push_back(tenant_config(4, 2, nullptr));
  ServiceOptions options;
  options.workers = 4;
  PlacementService service(std::move(configs), options);
  for (int t = 0; t < 16; ++t) {
    const int w = service.worker_of(t);
    EXPECT_GE(w, 0);
    EXPECT_LT(w, service.worker_count());
    EXPECT_EQ(w, service.worker_of(t));  // stable
  }
  service.stop();
}

}  // namespace
}  // namespace rr::service
