#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>
#include <utility>

#include "util/error.hpp"

namespace rr::service {
namespace {

fpga::PartialRegion make_region(const Tenant::Config& config) {
  RR_REQUIRE(config.fabric != nullptr, "tenant needs a fabric");
  if (config.window.has_value())
    return fpga::PartialRegion(config.fabric, *config.window);
  return fpga::PartialRegion(config.fabric);
}

double to_ms(std::uint64_t ns) noexcept {
  return static_cast<double>(ns) * 1e-6;
}

/// v must be sorted ascending; nearest-rank percentile in [0, 1].
double percentile_ms(const std::vector<std::uint64_t>& v, double q) noexcept {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return to_ms(v[std::min(rank, v.size() - 1)]);
}

}  // namespace

Tenant::Tenant(Config config)
    : library_(std::move(config.library)),
      region_(make_region(config)),
      faults_(*config.fabric),
      placer_(region_, config.online),
      cache_(config.cache),
      clock_(config.clock != nullptr ? config.clock : &system_clock()),
      online_(config.online) {
  RR_REQUIRE(!library_.empty(), "tenant needs a non-empty module library");
  refresh_context();
}

void Tenant::refresh_context() {
  if (cache_ == nullptr) return;  // uncached: the placer scans per request
  // The first context is acquired before any fault; later ones derive from
  // it on a miss (filtered by the fault overlay, no library rescan).
  context_ = cache_->acquire(region_, library_, online_.use_alternatives,
                             fault_free_context_.get());
  if (fault_free_context_ == nullptr) fault_free_context_ = context_;
  placer_.set_table_source(context_.get());
}

double Tenant::remaining_budget_seconds(std::uint64_t deadline_ns) const {
  if (deadline_ns == 0) return 0.0;  // no deadline: downstream uncapped
  const std::uint64_t now = clock_->now_ns();
  // Expired: a tiny positive budget keeps the cap active (0 would mean
  // "uncapped") while giving the defrag pass no room — it degrades to the
  // plain first-fit tier, which always runs.
  if (now >= deadline_ns) return 1e-9;
  return static_cast<double>(deadline_ns - now) * 1e-9;
}

Response Tenant::apply(const Request& request, std::uint64_t deadline_ns) {
  try {
    switch (request.op) {
      case RequestOp::kPlace:
        return apply_place(request, deadline_ns);
      case RequestOp::kRemove:
        return apply_remove(request);
      case RequestOp::kFault:
        return apply_fault(request, deadline_ns);
    }
    Response response;
    response.error = "unknown request op";
    return response;
  } catch (const std::exception& e) {
    // A bad request (duplicate instance, out-of-range fault rect, ...)
    // must fail that request, not the worker thread.
    Response response;
    response.status = Response::Status::kError;
    response.error = e.what();
    return response;
  }
}

Response Tenant::apply_place(const Request& request,
                             std::uint64_t deadline_ns) {
  Response response;
  if (request.module < 0 ||
      request.module >= static_cast<int>(library_.size())) {
    response.error = "module index out of range";
    return response;
  }
  if (instance_module_.contains(request.instance)) {
    response.error = "instance id already live";
    return response;
  }
  const auto placed = placer_.place(
      request.instance, library_[static_cast<std::size_t>(request.module)],
      remaining_budget_seconds(deadline_ns));
  if (!placed.has_value()) {
    response.status = Response::Status::kRejected;
    return response;
  }
  instance_module_.emplace(request.instance, request.module);
  response.status = Response::Status::kPlaced;
  response.placement = *placed;
  return response;
}

Response Tenant::apply_remove(const Request& request) {
  Response response;
  const auto it = instance_module_.find(request.instance);
  if (it == instance_module_.end()) {
    response.error = "instance id not live";
    return response;
  }
  placer_.remove(request.instance);
  instance_module_.erase(it);
  response.status = Response::Status::kRemoved;
  return response;
}

Response Tenant::apply_fault(const Request& request,
                             std::uint64_t deadline_ns) {
  Response response;
  faults_.apply(request.fault);
  region_.apply_faults(faults_);
  ++fabric_epoch_;

  // Re-sync the placer with the changed availability masks FIRST: the
  // free-space index must diff the new union availability and the
  // installed tables are stale — a casualty re-placed through them could
  // land on a faulty tile (the occupancy bitmap alone cannot catch that).
  // The content-keyed cache makes the context refresh a natural
  // re-acquire; entries this tenant no longer runs age out through the
  // cache's LRU cap, so a tenant-private fault never flushes the
  // healthy-fabric tables other tenants share.
  placer_.refresh_region();
  refresh_context();

  // Displace every live instance whose footprint the fault overlay now
  // hits, then try to re-place each on the degraded fabric (ascending id:
  // deterministic). Unrecoverable instances are lost and their ids freed.
  std::vector<int> displaced;
  const BitMatrix& faulty = region_.fault_mask();
  for (const placer::ModulePlacement& p : placer_.live_placements()) {
    const int library_index = instance_module_.at(p.module);
    const geost::ShapeFootprint& shape =
        library_[static_cast<std::size_t>(library_index)]
            .shapes()[static_cast<std::size_t>(p.shape)];
    if (faulty.intersects_shifted(shape.mask(), p.y, p.x))
      displaced.push_back(p.module);  // p.module is the instance id
  }
  for (const int id : displaced) placer_.remove(id);
  for (const int id : displaced) {
    const int library_index = instance_module_.at(id);
    // Remaining budget, re-read per casualty: each re-place's defrag tier
    // gets only what the earlier casualties left, never the full budget.
    const auto placed = placer_.place(
        id, library_[static_cast<std::size_t>(library_index)],
        remaining_budget_seconds(deadline_ns));
    if (placed.has_value()) {
      ++response.recovered;
    } else {
      instance_module_.erase(id);
    }
  }
  response.displaced = static_cast<int>(displaced.size());
  response.status = Response::Status::kFaulted;
  return response;
}

json::Value ServiceStats::to_json() const {
  json::Value doc = json::Value::object();
  doc.set("requests", json::Value(requests));
  doc.set("placed", json::Value(placed));
  doc.set("rejected", json::Value(rejected));
  doc.set("removed", json::Value(removed));
  doc.set("fault_events", json::Value(fault_events));
  doc.set("errors", json::Value(errors));
  doc.set("batches", json::Value(batches));
  doc.set("batched_requests", json::Value(batched_requests));
  json::Value shed_doc = json::Value::object();
  shed_doc.set("submitted", json::Value(shed.submitted));
  shed_doc.set("completed", json::Value(shed.completed));
  shed_doc.set("deadline", json::Value(shed.shed_deadline));
  shed_doc.set("quota", json::Value(shed.shed_quota));
  shed_doc.set("queue", json::Value(shed.shed_queue));
  shed_doc.set("stopped", json::Value(shed.rejected_stopped));
  shed_doc.set("submit_retries", json::Value(shed.submit_retries));
  shed_doc.set(
      "shed_rate",
      json::Value(shed.submitted > 0
                      ? static_cast<double>(shed.total_shed()) /
                            static_cast<double>(shed.submitted)
                      : 0.0));
  doc.set("shed", std::move(shed_doc));
  json::Value cache_doc = json::Value::object();
  cache_doc.set("hits", json::Value(cache.hits));
  cache_doc.set("misses", json::Value(cache.misses));
  cache_doc.set("invalidations", json::Value(cache.invalidations));
  cache_doc.set("evictions", json::Value(cache.evictions));
  cache_doc.set("entries", json::Value(cache.entries));
  cache_doc.set("hit_rate", json::Value(cache.hit_rate()));
  doc.set("cache", std::move(cache_doc));
  json::Value latency = json::Value::object();
  latency.set("count", json::Value(latency_count));
  latency.set("mean_ms", json::Value(latency_mean_ms));
  latency.set("p50_ms", json::Value(latency_p50_ms));
  latency.set("p99_ms", json::Value(latency_p99_ms));
  latency.set("max_ms", json::Value(latency_max_ms));
  doc.set("latency", std::move(latency));
  json::Value service_lat = json::Value::object();
  service_lat.set("mean_ms", json::Value(latency_service_mean_ms));
  service_lat.set("p50_ms", json::Value(latency_service_p50_ms));
  service_lat.set("p99_ms", json::Value(latency_service_p99_ms));
  service_lat.set("max_ms", json::Value(latency_service_max_ms));
  doc.set("latency_service", std::move(service_lat));
  json::Value queue_lat = json::Value::object();
  queue_lat.set("mean_ms", json::Value(latency_queue_mean_ms));
  queue_lat.set("p50_ms", json::Value(latency_queue_p50_ms));
  queue_lat.set("p99_ms", json::Value(latency_queue_p99_ms));
  queue_lat.set("max_ms", json::Value(latency_queue_max_ms));
  doc.set("latency_queue", std::move(queue_lat));
  return doc;
}

PlacementService::PlacementService(std::vector<Tenant::Config> tenants,
                                   ServiceOptions options, bool cache_enabled)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock : &system_clock()),
      cache_(options.cache_capacity),
      paused_(options.start_paused) {
  RR_REQUIRE(options_.workers >= 1, "service needs at least one worker");
  RR_REQUIRE(options_.max_batch >= 1, "max_batch must be at least 1");
  RR_REQUIRE(!tenants.empty(), "service needs at least one tenant");
  tenants_.reserve(tenants.size());
  inflight_ = std::make_unique<std::atomic<int>[]>(tenants.size());
  for (std::size_t t = 0; t < tenants.size(); ++t)
    inflight_[t].store(0, std::memory_order_relaxed);
  for (Tenant::Config& config : tenants) {
    // cache_enabled = false means NO solve contexts at all — every request
    // pays the per-module anchor scan inside the online placer. That is
    // the pre-service behavior and the benches' control arm.
    config.cache = cache_enabled ? &cache_ : nullptr;
    config.clock = clock_;
    tenants_.push_back(std::make_unique<Tenant>(std::move(config)));
  }
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w)
    workers_.push_back(std::make_unique<Worker>(options_.queue_capacity));
  for (const std::unique_ptr<Worker>& worker : workers_) {
    Worker* raw = worker.get();
    raw->thread = std::thread([this, raw] { worker_loop(*raw); });
  }
}

PlacementService::~PlacementService() { stop(); }

int PlacementService::worker_of(int tenant) const noexcept {
  // splitmix64 finalizer: spreads consecutive tenant ids over the workers
  // so adjacent tenants don't pile onto adjacent shards.
  std::uint64_t x = static_cast<std::uint64_t>(tenant) + 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<int>(x % workers_.size());
}

void PlacementService::resolve_shed(Job& job, Response::Status status,
                                    std::atomic<std::uint64_t>& counter,
                                    bool held) {
  if (held)
    inflight_[static_cast<std::size_t>(job.request.tenant)].fetch_sub(
        1, std::memory_order_acq_rel);
  counter.fetch_add(1, std::memory_order_relaxed);
  Response response;
  response.status = status;
  job.promise.set_value(std::move(response));
}

std::future<Response> PlacementService::submit(Request request) {
  RR_REQUIRE(request.tenant >= 0 &&
                 request.tenant < static_cast<int>(tenants_.size()),
             "unknown tenant id " + std::to_string(request.tenant));
  submitted_.fetch_add(1, std::memory_order_relaxed);
  Job job;
  job.request = request;
  std::future<Response> future = job.promise.get_future();
  job.submit_ns = clock_->now_ns();
  const double deadline_ms = request.deadline_ms > 0.0
                                 ? request.deadline_ms
                                 : options_.default_deadline_ms;
  if (deadline_ms > 0.0)
    job.deadline_ns =
        job.submit_ns + static_cast<std::uint64_t>(deadline_ms * 1e6);

  // Quota admission: CAS so concurrent submitters cannot overshoot. The
  // slot is held until the response resolves (worker or shed path).
  std::atomic<int>& inflight =
      inflight_[static_cast<std::size_t>(request.tenant)];
  if (options_.tenant_inflight_quota > 0) {
    int current = inflight.load(std::memory_order_relaxed);
    for (;;) {
      if (current >= options_.tenant_inflight_quota) {
        resolve_shed(job, Response::Status::kShedQuota, shed_quota_,
                     /*held=*/false);
        return future;
      }
      if (inflight.compare_exchange_weak(current, current + 1,
                                         std::memory_order_acq_rel))
        break;
    }
  } else {
    inflight.fetch_add(1, std::memory_order_acq_rel);
  }

  BoundedQueue<Job>& queue =
      workers_[static_cast<std::size_t>(worker_of(request.tenant))]->queue;
  if (options_.submit_retry_budget < 0) {
    // Backpressure: block while full. A stop() racing this push is benign
    // now — the request resolves kRejectedStopped instead of throwing
    // (push leaves the job, and its promise, intact on failure).
    if (!queue.push(job))
      resolve_shed(job, Response::Status::kRejectedStopped, rejected_stopped_,
                   /*held=*/true);
    return future;
  }

  std::uint64_t backoff_us = options_.backoff_initial_us;
  for (int attempt = 0;; ++attempt) {
    const BoundedQueue<Job>::PushResult pushed = queue.try_push(job);
    if (pushed == BoundedQueue<Job>::PushResult::kPushed) return future;
    if (pushed == BoundedQueue<Job>::PushResult::kClosed) {
      resolve_shed(job, Response::Status::kRejectedStopped, rejected_stopped_,
                   /*held=*/true);
      return future;
    }
    // kFull: shed on an expired deadline, then on a spent retry budget;
    // otherwise back off (real sleep — pacing only; the *decisions* above
    // read the injected clock and an attempt counter, so they are
    // deterministic under a FakeClock).
    if (job.deadline_ns != 0 && clock_->now_ns() >= job.deadline_ns) {
      resolve_shed(job, Response::Status::kShedDeadline, shed_deadline_,
                   /*held=*/true);
      return future;
    }
    if (attempt >= options_.submit_retry_budget) {
      resolve_shed(job, Response::Status::kShedQueue, shed_queue_,
                   /*held=*/true);
      return future;
    }
    submit_retries_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
    backoff_us = std::min(backoff_us * 2, options_.backoff_max_us);
  }
}

Response PlacementService::call(Request request) {
  return submit(request).get();
}

void PlacementService::worker_loop(Worker& worker) {
  // Hot-path metrics land in this worker's shard, contention-free; stop()
  // folds the shards into the process registry.
  const metrics::ThreadShard redirect(worker.shard);
  {
    // start_paused gate: requests may pile up (and FakeClock deadlines
    // expire) before any of them executes.
    std::unique_lock lock(pause_mutex_);
    resume_.wait(lock, [&] { return !paused_; });
  }
  std::vector<Job> batch;
  for (;;) {
    batch.clear();
    // Drain a run of consecutive same-tenant occupancy requests in one
    // queue lock: one batch, one solve-context resolution. A fault request
    // changes the fabric epoch, so it neither starts nor joins a run.
    const std::size_t taken = worker.queue.pop_run(
        [](const Job& first, const Job& next) {
          return first.request.op != RequestOp::kFault &&
                 next.request.op != RequestOp::kFault &&
                 next.request.tenant == first.request.tenant;
        },
        static_cast<std::size_t>(options_.max_batch), batch);
    if (taken == 0) break;
    worker.batched_requests += taken - 1;
    ++worker.batches;
    Tenant& tenant =
        *tenants_[static_cast<std::size_t>(batch.front().request.tenant)];
    for (Job& job : batch) {
      // Deadline shedding at dequeue: a request whose queue wait already
      // consumed its budget would solve for nobody — drop it before
      // touching the tenant. Shed requests stay out of the latency
      // distributions (those describe executed requests).
      if (job.deadline_ns != 0 && clock_->now_ns() >= job.deadline_ns) {
        worker.shard.add("service.shed.deadline");
        resolve_shed(job, Response::Status::kShedDeadline, shed_deadline_,
                     /*held=*/true);
        continue;
      }
      const std::uint64_t service_start = clock_->now_ns();
      Response response = tenant.apply(job.request, job.deadline_ns);
      const std::uint64_t done = clock_->now_ns();
      const std::uint64_t service_ns = done - service_start;
      record(worker, response);
      const std::uint64_t elapsed_ns = done - job.submit_ns;
      const std::uint64_t queue_ns =
          elapsed_ns > service_ns ? elapsed_ns - service_ns : 0;
      worker.latency_ns.push_back(elapsed_ns);
      worker.service_ns.push_back(service_ns);
      worker.queue_ns.push_back(queue_ns);
      worker.shard.record_time("service.request", elapsed_ns);
      worker.shard.record_time("service.request.service", service_ns);
      worker.shard.record_time("service.request.queue", queue_ns);
      ++worker.requests;
      // Order matters for the accounting identity: bump completed_ and
      // release the inflight slot before set_value, so a client that has
      // observed the future also observes the counters it implies.
      completed_.fetch_add(1, std::memory_order_relaxed);
      inflight_[static_cast<std::size_t>(job.request.tenant)].fetch_sub(
          1, std::memory_order_acq_rel);
      job.promise.set_value(std::move(response));
    }
  }
}

void PlacementService::record(Worker& worker, const Response& response) {
  switch (response.status) {
    case Response::Status::kPlaced:
      ++worker.placed;
      break;
    case Response::Status::kRejected:
      ++worker.rejected;
      break;
    case Response::Status::kRemoved:
      ++worker.removed;
      break;
    case Response::Status::kFaulted:
      ++worker.fault_events;
      break;
    case Response::Status::kError:
      ++worker.errors;
      break;
    case Response::Status::kShedDeadline:
    case Response::Status::kShedQuota:
    case Response::Status::kShedQueue:
    case Response::Status::kRejectedStopped:
      break;  // shed responses never come out of Tenant::apply
  }
}

void PlacementService::resume() {
  {
    const std::scoped_lock lock(pause_mutex_);
    paused_ = false;
  }
  resume_.notify_all();
}

void PlacementService::stop() {
  if (stopped_.exchange(true)) return;
  resume();  // a paused service must still drain and join
  for (const std::unique_ptr<Worker>& worker : workers_)
    worker->queue.close();
  for (const std::unique_ptr<Worker>& worker : workers_)
    if (worker->thread.joinable()) worker->thread.join();
  for (const std::unique_ptr<Worker>& worker : workers_)
    metrics::process().merge(worker->shard);
}

const Tenant& PlacementService::tenant(int id) const {
  RR_REQUIRE(stopped_.load(), "tenant inspection requires a stopped service");
  RR_REQUIRE(id >= 0 && id < static_cast<int>(tenants_.size()),
             "unknown tenant id " + std::to_string(id));
  return *tenants_[static_cast<std::size_t>(id)];
}

const Tenant& PlacementService::tenant_quiesced(int id) const {
  // Quiescence (all futures observed, no concurrent submits) is the
  // caller's contract — see the header. Only the id can be checked here.
  RR_REQUIRE(id >= 0 && id < static_cast<int>(tenants_.size()),
             "unknown tenant id " + std::to_string(id));
  return *tenants_[static_cast<std::size_t>(id)];
}

ShedCounters PlacementService::shed_counters() const {
  ShedCounters counters;
  counters.submitted = submitted_.load(std::memory_order_relaxed);
  counters.completed = completed_.load(std::memory_order_relaxed);
  counters.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  counters.shed_quota = shed_quota_.load(std::memory_order_relaxed);
  counters.shed_queue = shed_queue_.load(std::memory_order_relaxed);
  counters.rejected_stopped =
      rejected_stopped_.load(std::memory_order_relaxed);
  counters.submit_retries = submit_retries_.load(std::memory_order_relaxed);
  return counters;
}

ServiceStats PlacementService::stats() const {
  RR_REQUIRE(stopped_.load(), "stats() requires a stopped service");
  ServiceStats stats;
  std::vector<std::uint64_t> latencies;
  std::vector<std::uint64_t> service;
  std::vector<std::uint64_t> queue;
  for (const std::unique_ptr<Worker>& worker : workers_) {
    stats.requests += worker->requests;
    stats.placed += worker->placed;
    stats.rejected += worker->rejected;
    stats.removed += worker->removed;
    stats.fault_events += worker->fault_events;
    stats.errors += worker->errors;
    stats.batches += worker->batches;
    stats.batched_requests += worker->batched_requests;
    latencies.insert(latencies.end(), worker->latency_ns.begin(),
                     worker->latency_ns.end());
    service.insert(service.end(), worker->service_ns.begin(),
                   worker->service_ns.end());
    queue.insert(queue.end(), worker->queue_ns.begin(),
                 worker->queue_ns.end());
  }
  stats.shed = shed_counters();
  stats.cache = cache_.stats();
  stats.latency_count = latencies.size();
  const auto summarize = [](std::vector<std::uint64_t>& v, double* mean,
                            double* p50, double* p99, double* max) {
    if (v.empty()) return;
    std::sort(v.begin(), v.end());
    std::uint64_t total = 0;
    for (const std::uint64_t ns : v) total += ns;
    *mean = to_ms(total) / static_cast<double>(v.size());
    *p50 = percentile_ms(v, 0.50);
    *p99 = percentile_ms(v, 0.99);
    *max = to_ms(v.back());
  };
  summarize(latencies, &stats.latency_mean_ms, &stats.latency_p50_ms,
            &stats.latency_p99_ms, &stats.latency_max_ms);
  summarize(service, &stats.latency_service_mean_ms,
            &stats.latency_service_p50_ms, &stats.latency_service_p99_ms,
            &stats.latency_service_max_ms);
  summarize(queue, &stats.latency_queue_mean_ms, &stats.latency_queue_p50_ms,
            &stats.latency_queue_p99_ms, &stats.latency_queue_max_ms);
  return stats;
}

}  // namespace rr::service
