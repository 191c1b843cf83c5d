// Placement-as-a-service: an in-process, multi-tenant placement server.
//
// Each tenant owns an independent reconfigurable fabric (region + fault
// overlay + occupancy) and a fixed module library; clients submit
// place/remove/fault/repair requests and get futures. Concurrency model:
//
//   - Tenants are sharded onto a fixed worker pool by tenant id. All
//     requests of one tenant land on one worker's queue (per-tenant serial
//     execution, no tenant-level locking anywhere), while distinct tenants
//     on distinct workers run fully in parallel.
//   - Each worker consumes its own bounded BoundedQueue; submit() blocks
//     when the shard's queue is full (backpressure instead of unbounded
//     memory).
//   - A worker drains consecutive same-tenant occupancy requests
//     (place/remove) from its queue head into one batch: the tenant's
//     solve context is resolved once per batch, and a fault/repair request
//     — which changes the fabric epoch and thus the context — always
//     starts a new batch.
//   - Solve contexts (per-module placement tables) are cached in a shared
//     SolveContextCache keyed by content signatures; tenants running the
//     same fabric and library share one preparation. See solve_context.hpp
//     for the invalidation rules.
//
// Overload control (all off by default; see ServiceOptions):
//
//   - Admission quotas: a tenant with `tenant_inflight_quota` requests in
//     flight gets kShedQuota immediately — one hog cannot fill the shard
//     queue and starve its neighbours.
//   - Bounded submit: with a non-negative `submit_retry_budget`, a full
//     queue is retried via BoundedQueue::try_push under exponential
//     backoff; when the budget is spent the request is shed with
//     kShedQueue instead of blocking the producer forever.
//   - Deadline shedding: a request carrying a deadline whose queue wait
//     has already consumed it is dropped at dequeue with kShedDeadline —
//     the worker never runs a doomed solve — and the remaining budget (not
//     the full configured budget) caps each defrag/recovery tier of the
//     requests that do run.
//   - Every deadline decision reads the injected Clock, so tests drive
//     shedding deterministically with a FakeClock. (The defrag pass's
//     interior CP search still polls the wall clock for its own cutoff,
//     so *placements* under an active defrag deadline remain
//     timing-dependent; all shed/admission decisions are not.)
//
// Determinism: per-tenant results are bit-identical to a serial replay of
// that tenant's request sequence through a fresh Tenant — the service and
// the oracle run the same Tenant::apply code, requests of one tenant never
// interleave, and cached tables equal freshly scanned ones. (Enable defrag
// with care: its interior deadline is wall-clock bounded, so runs are only
// reproducible with defrag off or an unlimited budget.)
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "baseline/online.hpp"
#include "fpga/faults.hpp"
#include "fpga/region.hpp"
#include "model/module.hpp"
#include "placer/placement.hpp"
#include "service/queue.hpp"
#include "service/solve_context.hpp"
#include "util/clock.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"

namespace rr::service {

enum class RequestOp : std::uint8_t {
  kPlace,   // place library module `module` as instance `instance`
  kRemove,  // remove instance `instance`
  kFault,   // apply `fault` (inject or repair) to the tenant's fabric
};

struct Request {
  int tenant = 0;
  RequestOp op = RequestOp::kPlace;
  int instance = 0;              // kPlace / kRemove
  int module = 0;                // kPlace: index into the tenant's library
  fpga::FaultEvent fault{};      // kFault: injection or repair event
  /// Submit-to-completion budget in milliseconds; <= 0 means "no deadline"
  /// (then ServiceOptions::default_deadline_ms applies, if set). A request
  /// whose queue wait exceeds the budget is shed with kShedDeadline; one
  /// that starts in time hands its *remaining* budget to the defrag tier.
  double deadline_ms = 0.0;

  bool operator==(const Request&) const = default;
};

struct Response {
  enum class Status : std::uint8_t {
    kPlaced,    // placement holds the result
    kRejected,  // no feasible placement (not an error)
    kRemoved,
    kFaulted,   // fault event applied; displaced/recovered filled
    kError,     // invalid request (duplicate instance, bad module, ...)
    // Overload / lifecycle outcomes: the request was *not* executed.
    kShedDeadline,     // queue wait consumed the deadline; solve skipped
    kShedQuota,        // tenant at its inflight quota at submit
    kShedQueue,        // shard queue full through the submit retry budget
    kRejectedStopped,  // service stopped before the request was enqueued
  };

  Status status = Status::kError;
  /// kPlaced: the chosen shape and anchor (module = instance id).
  placer::ModulePlacement placement{};
  /// kFaulted: live instances whose footprint the fault overlay hit ...
  int displaced = 0;
  /// ... and how many of them could be re-placed on the degraded fabric
  /// (the rest are lost and their ids freed).
  int recovered = 0;
  std::string error;  // kError only

  bool operator==(const Response&) const = default;
};

/// One tenant's full placement state: an owned fabric region with a fault
/// overlay, an online placer over it, and the module library. Tenant is a
/// *single-threaded* state machine — the service guarantees per-tenant
/// serial execution by sharding, and the same class replayed serially is
/// the determinism oracle in the tests.
class Tenant {
 public:
  struct Config {
    std::shared_ptr<const fpga::Fabric> fabric;
    /// Region window; nullopt offers the whole fabric.
    std::optional<Rect> window;
    std::vector<model::Module> library;
    baseline::OnlineOptions online{};
    /// Shared context cache; nullptr disables caching (every request pays
    /// the anchor scan — the bench's control arm).
    SolveContextCache* cache = nullptr;
    /// Time source for remaining-budget computation; nullptr = the system
    /// clock. The service wires its own injected clock through here.
    const Clock* clock = nullptr;
  };

  explicit Tenant(Config config);

  Tenant(const Tenant&) = delete;
  Tenant& operator=(const Tenant&) = delete;

  /// Apply one request. Invalid requests yield Status::kError (the service
  /// must not die on a bad client), everything else the matching status.
  ///
  /// `deadline_ns` (in Config::clock time; 0 = none) is the request's
  /// absolute completion deadline: each defrag-capable step — the placement
  /// itself, and every casualty re-place of a fault event — receives only
  /// the budget still remaining when it starts, never the full configured
  /// defrag budget. An already-expired deadline degrades the step to plain
  /// first-fit (the cheap tier always runs; only the expensive defrag pass
  /// is cut). With defrag off the deadline changes nothing, keeping the
  /// serial determinism oracle exact.
  Response apply(const Request& request, std::uint64_t deadline_ns = 0);

  /// Bumped by every fault/repair event; occupancy changes don't count.
  /// Batching uses it to delimit "same fabric epoch".
  [[nodiscard]] std::uint64_t fabric_epoch() const noexcept {
    return fabric_epoch_;
  }

  [[nodiscard]] const fpga::PartialRegion& region() const noexcept {
    return region_;
  }
  [[nodiscard]] const fpga::FaultMap& faults() const noexcept {
    return faults_;
  }
  [[nodiscard]] const baseline::OnlinePlacer& placer() const noexcept {
    return placer_;
  }
  [[nodiscard]] std::span<const model::Module> library() const noexcept {
    return library_;
  }
  /// The context currently installed (null when caching is off).
  [[nodiscard]] const std::shared_ptr<SolveContext>& context() const noexcept {
    return context_;
  }

 private:
  Response apply_place(const Request& request, std::uint64_t deadline_ns);
  Response apply_fault(const Request& request, std::uint64_t deadline_ns);
  Response apply_remove(const Request& request);
  /// Re-resolve the solve context against the current fabric state and
  /// install it as the placer's table source.
  void refresh_context();
  /// Seconds of budget left before `deadline_ns` on the tenant's clock:
  /// 0 when there is no deadline (= uncapped downstream), a tiny positive
  /// epsilon when already expired (= defrag effectively disabled, cheap
  /// tiers still run).
  [[nodiscard]] double remaining_budget_seconds(
      std::uint64_t deadline_ns) const;

  std::vector<model::Module> library_;
  fpga::PartialRegion region_;  // owned; placer_ references it
  fpga::FaultMap faults_;
  baseline::OnlinePlacer placer_;
  SolveContextCache* cache_;
  const Clock* clock_;
  baseline::OnlineOptions online_;
  std::shared_ptr<SolveContext> context_;
  /// The context of the healthy fabric, which faulted contexts derive from.
  std::shared_ptr<SolveContext> fault_free_context_;
  std::unordered_map<int, int> instance_module_;  // instance id → library idx
  std::uint64_t fabric_epoch_ = 0;

 public:
  /// The placer layout's check, the instance map holding exactly the live
  /// ids with their library modules, and an installed context keyed by the
  /// current fabric; empty when consistent. Never throws or asserts.
  [[nodiscard]] std::vector<std::string> check_invariants() const;
};

struct ServiceOptions {
  int workers = 4;
  std::size_t queue_capacity = 256;
  /// Most same-tenant occupancy requests drained into one batch.
  int max_batch = 16;
  /// Solve-context cache LRU capacity (0 = unbounded); see
  /// SolveContextCache.
  std::size_t cache_capacity = SolveContextCache::kDefaultCapacity;

  // --- Overload control (defaults preserve the PR 7 behavior exactly:
  // unlimited quota, blocking submit, no deadlines, system clock).

  /// Max requests one tenant may have in flight (submitted, not yet
  /// completed); further submits get kShedQuota immediately. 0 = unlimited.
  int tenant_inflight_quota = 0;
  /// Deadline applied to requests that carry none (Request::deadline_ms
  /// <= 0); <= 0 = no default deadline.
  double default_deadline_ms = 0.0;
  /// Submit path on a full shard queue. Negative: block until space frees
  /// (backpressure, never sheds). >= 0: non-blocking try_push retried this
  /// many times under exponential backoff, then kShedQueue.
  int submit_retry_budget = -1;
  /// Backoff sleep before the first retry; doubles per retry up to
  /// backoff_max_us. Pacing only — the retry *budget* is attempt-counted,
  /// so shed decisions stay deterministic under a fake clock.
  std::uint64_t backoff_initial_us = 50;
  std::uint64_t backoff_max_us = 2000;
  /// Time source for all deadline/latency logic; nullptr = system_clock().
  /// Must outlive the service.
  const Clock* clock = nullptr;
  /// Construct with parked workers; no request executes until resume().
  /// Lets deterministic tests enqueue, advance a FakeClock past deadlines,
  /// and only then release the workers.
  bool start_paused = false;
};

/// Monotone admission/shed counters, safely readable while the service is
/// running (plain atomics) — the soak auditor's accounting source. The
/// identity `submitted == completed + shed_deadline + shed_quota +
/// shed_queue + rejected_stopped + inflight` holds at every instant;
/// once every submitted future has resolved, inflight is 0 and it is exact.
struct ShedCounters {
  std::uint64_t submitted = 0;         // submit() calls that returned a future
  std::uint64_t completed = 0;         // executed through Tenant::apply
  std::uint64_t shed_deadline = 0;     // kShedDeadline responses
  std::uint64_t shed_quota = 0;        // kShedQuota responses
  std::uint64_t shed_queue = 0;        // kShedQueue responses
  std::uint64_t rejected_stopped = 0;  // kRejectedStopped responses
  std::uint64_t submit_retries = 0;    // try_push attempts beyond the first

  [[nodiscard]] std::uint64_t total_shed() const noexcept {
    return shed_deadline + shed_quota + shed_queue + rejected_stopped;
  }
};

/// Aggregated service telemetry; exact once the service is stopped.
struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t placed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t removed = 0;
  std::uint64_t fault_events = 0;
  std::uint64_t errors = 0;
  std::uint64_t batches = 0;          // dequeue rounds
  std::uint64_t batched_requests = 0; // requests beyond the first in a batch
  /// Admission/shed accounting (shed requests are NOT in `requests` or the
  /// latency distributions — they were never executed).
  ShedCounters shed;
  SolveContextCacheStats cache;
  // Submit-to-completion latency over all requests, split into the time
  // spent inside Tenant::apply (service) and everything else between
  // submit and completion — queue wait plus batching overhead (queue).
  // total = service + queue per request, so the aggregate means add up;
  // the percentiles are per-component and need not.
  std::uint64_t latency_count = 0;
  double latency_mean_ms = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_max_ms = 0.0;
  double latency_service_mean_ms = 0.0;
  double latency_service_p50_ms = 0.0;
  double latency_service_p99_ms = 0.0;
  double latency_service_max_ms = 0.0;
  double latency_queue_mean_ms = 0.0;
  double latency_queue_p50_ms = 0.0;
  double latency_queue_p99_ms = 0.0;
  double latency_queue_max_ms = 0.0;

  /// The `service` stats-json section (counters, cache, latency).
  [[nodiscard]] json::Value to_json() const;
};

/// The server: owns the tenants, the shared context cache, and the worker
/// pool. Submitting is thread-safe from any number of client threads;
/// per-tenant request order is the submission order (per submitting
/// thread). stop() is idempotent and runs in the destructor.
class PlacementService {
 public:
  PlacementService(std::vector<Tenant::Config> tenants,
                   ServiceOptions options = {}, bool cache_enabled = true);
  ~PlacementService();

  PlacementService(const PlacementService&) = delete;
  PlacementService& operator=(const PlacementService&) = delete;

  /// Enqueue a request. Throws InvalidInput only on an unknown tenant id
  /// (a programming error); every overload/lifecycle outcome — quota
  /// exceeded, queue full through the retry budget, deadline expired while
  /// backing off, service stopped — resolves the returned future with the
  /// matching kShed*/kRejectedStopped status instead of throwing. With the
  /// default options a full queue blocks (backpressure) exactly as before.
  [[nodiscard]] std::future<Response> submit(Request request);

  /// submit + wait.
  Response call(Request request);

  /// Drain all queues, join the workers, and fold the worker metric shards
  /// into metrics::process(). Idempotent.
  void stop();

  /// Release workers parked by ServiceOptions::start_paused. Idempotent;
  /// a no-op when the service was not started paused.
  void resume();

  [[nodiscard]] int worker_count() const noexcept {
    return static_cast<int>(workers_.size());
  }
  [[nodiscard]] int tenant_count() const noexcept {
    return static_cast<int>(tenants_.size());
  }
  /// The worker shard serving `tenant` (the sharding function, exposed so
  /// tests can construct colliding/non-colliding tenant sets).
  [[nodiscard]] int worker_of(int tenant) const noexcept;

  /// Post-stop inspection: the tenant's final state (occupancy, faults,
  /// context). Only safe once stop() returned.
  [[nodiscard]] const Tenant& tenant(int id) const;

  /// Mid-run inspection for epoch auditors: safe *only* while the caller
  /// guarantees quiescence — every submitted future has been observed
  /// (future.get() returned) and no thread is submitting concurrently.
  /// Then promise/future synchronization orders all worker writes to the
  /// tenant before this read, and the workers are parked in their queue
  /// waits. The service cannot verify the guarantee; violating it is a
  /// data race.
  [[nodiscard]] const Tenant& tenant_quiesced(int id) const;

  /// Monotone admission/shed counters; thread-safe at any time.
  [[nodiscard]] ShedCounters shed_counters() const;

  [[nodiscard]] const SolveContextCache& cache() const noexcept {
    return cache_;
  }

  /// Exact after stop(); while running it races with the workers, so it
  /// requires a stopped service.
  [[nodiscard]] ServiceStats stats() const;

 private:
  struct Job {
    Request request;
    std::promise<Response> promise;
    std::uint64_t submit_ns = 0;    // clock timestamp at submit
    std::uint64_t deadline_ns = 0;  // absolute completion deadline; 0 = none
  };
  struct Worker {
    explicit Worker(std::size_t queue_capacity) : queue(queue_capacity) {}
    BoundedQueue<Job> queue;
    std::thread thread;
    // Written by the worker thread only; read after join.
    metrics::Registry shard;
    std::vector<std::uint64_t> latency_ns;
    std::vector<std::uint64_t> service_ns;  // inside Tenant::apply
    std::vector<std::uint64_t> queue_ns;    // latency_ns - service_ns
    std::uint64_t requests = 0;
    std::uint64_t placed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t removed = 0;
    std::uint64_t fault_events = 0;
    std::uint64_t errors = 0;
    std::uint64_t batches = 0;
    std::uint64_t batched_requests = 0;
  };

  void worker_loop(Worker& worker);
  void record(Worker& worker, const Response& response);
  /// Resolve `job` with a shed/stopped status, bumping `counter` and
  /// releasing the tenant's inflight slot when `held` says one is held.
  void resolve_shed(Job& job, Response::Status status,
                    std::atomic<std::uint64_t>& counter, bool held);

  ServiceOptions options_;
  const Clock* clock_;  // never null (system_clock() when not injected)
  SolveContextCache cache_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::vector<std::unique_ptr<Worker>> workers_;
  /// Per-tenant inflight request counts (quota enforcement + accounting).
  std::unique_ptr<std::atomic<int>[]> inflight_;
  // Admission/shed counters; see ShedCounters for the identity they keep.
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> shed_deadline_{0};
  std::atomic<std::uint64_t> shed_quota_{0};
  std::atomic<std::uint64_t> shed_queue_{0};
  std::atomic<std::uint64_t> rejected_stopped_{0};
  std::atomic<std::uint64_t> submit_retries_{0};
  // start_paused gate: workers wait on resume_ before their first drain.
  std::mutex pause_mutex_;
  std::condition_variable resume_;
  bool paused_ = false;
  std::atomic<bool> stopped_{false};

 public:
  /// Under the tenant_quiesced() contract (or after stop()): the identity
  /// submitted == completed + total_shed() and every tenant's check, each
  /// message prefixed "tenant <id>: "; empty when consistent.
  [[nodiscard]] std::vector<std::string> check_invariants() const;
};

}  // namespace rr::service
