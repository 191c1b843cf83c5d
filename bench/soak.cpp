// Overload soak: deadline-aware shedding under saturation bursts.
//
// One generated workload trace (sim::WorkloadGenerator, storms disabled so
// latency measures the request path, not fault recovery) replays through
// the PlacementService three times per run:
//   - unloaded   one closed-loop submitter (submit, wait, repeat): no queue
//                wait ever builds, so latency_p99 is the intrinsic service
//                p99 `u` — the yardstick the overloaded arms answer to.
//   - shed       the trace arrives in waves of W requests dumped at once
//                onto `workers` workers (instantaneous saturation factor
//                W/workers >> 2x), with default_deadline_ms = 0.4 * u.
//                Dequeue-time shedding drops requests whose queue wait
//                already spent the budget, so every executed request waited
//                < 0.4u and accepted p99 stays ~ 0.4u + service <= 1.5u.
//   - control    the same waves with no deadline: nothing is shed, every
//                request rides the full wave queue, and p99 grows with
//                W/workers — the unbounded degradation shedding prevents.
// All arms run max_batch = 1: batch drains would execute queued requests
// back-to-back and fold queue wait into whichever request drains last,
// muddying the per-request deadline bound the shed arm demonstrates.
#include <algorithm>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"

namespace {

using rr::service::Request;
using rr::service::Response;
using rr::service::ShedCounters;

struct ArmResult {
  rr::service::ServiceStats stats;
  // Shed statuses observed on the futures, to audit against the counters.
  std::uint64_t seen_deadline = 0;
  std::uint64_t seen_quota = 0;
  std::uint64_t seen_queue = 0;
  std::uint64_t seen_stopped = 0;
  std::uint64_t seen_completed = 0;
  // PlacementService::check_invariants() after stop(): the accounting
  // identity and every tenant's state.
  std::vector<std::string> service_violations;
};

void observe(ArmResult& result, const Response& response) {
  switch (response.status) {
    case Response::Status::kShedDeadline: ++result.seen_deadline; break;
    case Response::Status::kShedQuota: ++result.seen_quota; break;
    case Response::Status::kShedQueue: ++result.seen_queue; break;
    case Response::Status::kRejectedStopped: ++result.seen_stopped; break;
    default: ++result.seen_completed; break;
  }
}

rr::service::PlacementService make_service(
    const std::shared_ptr<const rr::fpga::Fabric>& fabric,
    const std::vector<rr::model::Module>& library, int tenants, int workers,
    std::size_t queue_capacity, double deadline_ms) {
  std::vector<rr::service::Tenant::Config> configs;
  configs.reserve(static_cast<std::size_t>(tenants));
  for (int t = 0; t < tenants; ++t) {
    rr::service::Tenant::Config config;
    config.fabric = fabric;
    config.library = library;
    // All arms run with the solve-context cache off, so every request pays
    // its anchor scan: with cached tables a request costs tens of
    // microseconds and the 1.5x acceptance bound drowns in scheduler
    // wake-up noise. The scan puts the unit of work in the hundreds of
    // microseconds, where queue wait vs deadline is the only thing
    // separating the arms.
    configs.push_back(std::move(config));
  }
  rr::service::ServiceOptions options;
  options.workers = workers;
  options.max_batch = 1;
  options.queue_capacity = queue_capacity;
  options.default_deadline_ms = deadline_ms;
  return rr::service::PlacementService(std::move(configs), options,
                                       /*cache_enabled=*/false);
}

/// Closed loop at capacity: one submitter per worker, each waiting for its
/// request before sending the next, so at most `workers` requests are in
/// flight and no queue builds — but the workers contend for memory and
/// cores exactly as they do under overload. That makes the unloaded p99
/// the fair yardstick: the overloaded arms differ from it only by queue
/// wait, not by a contention factor the closed loop never paid. Tenants
/// are partitioned across submitters, preserving per-tenant order.
ArmResult run_unloaded(const std::shared_ptr<const rr::fpga::Fabric>& fabric,
                       const std::vector<rr::model::Module>& library,
                       const rr::service::ServeTrace& trace, int workers) {
  auto service = make_service(fabric, library, trace.tenants, workers,
                              /*queue_capacity=*/256, /*deadline_ms=*/0.0);
  ArmResult result;
  std::vector<ArmResult> partial(static_cast<std::size_t>(workers));
  {
    std::vector<std::thread> submitters;
    submitters.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      submitters.emplace_back([&, w] {
        for (const Request& request : trace.requests)
          if (request.tenant % workers == w)
            observe(partial[static_cast<std::size_t>(w)],
                    service.submit(request).get());
      });
    }
    for (std::thread& thread : submitters) thread.join();
  }
  for (const ArmResult& part : partial) {
    result.seen_deadline += part.seen_deadline;
    result.seen_quota += part.seen_quota;
    result.seen_queue += part.seen_queue;
    result.seen_stopped += part.seen_stopped;
    result.seen_completed += part.seen_completed;
  }
  service.stop();
  result.stats = service.stats();
  result.service_violations = service.check_invariants();
  return result;
}

/// Wave bursts: dump `wave` requests at once, drain them all, repeat. Each
/// wave is an instantaneous overload of wave/workers x.
ArmResult run_waves(const std::shared_ptr<const rr::fpga::Fabric>& fabric,
                    const std::vector<rr::model::Module>& library,
                    const rr::service::ServeTrace& trace, int workers,
                    std::size_t wave, double deadline_ms) {
  auto service = make_service(fabric, library, trace.tenants, workers,
                              std::max<std::size_t>(256, 2 * wave),
                              deadline_ms);
  ArmResult result;
  std::vector<std::future<Response>> futures;
  futures.reserve(wave);
  std::size_t next = 0;
  while (next < trace.requests.size()) {
    futures.clear();
    const std::size_t end = std::min(next + wave, trace.requests.size());
    for (; next < end; ++next)
      futures.push_back(service.submit(trace.requests[next]));
    for (auto& future : futures) observe(result, future.get());
  }
  service.stop();
  result.stats = service.stats();
  result.service_violations = service.check_invariants();
  return result;
}

/// The service's own audit plus observed-status agreement; exact because
/// every future has resolved and the service is stopped.
long audit(const ArmResult& result, std::uint64_t expected_submitted) {
  for (const std::string& violation : result.service_violations)
    std::cerr << "soak: INVARIANT VIOLATION: " << violation << '\n';
  auto violations = static_cast<long>(result.service_violations.size());
  const ShedCounters& shed = result.stats.shed;
  if (shed.submitted != expected_submitted) ++violations;
  if (shed.shed_deadline != result.seen_deadline) ++violations;
  if (shed.shed_quota != result.seen_quota) ++violations;
  if (shed.shed_queue != result.seen_queue) ++violations;
  if (shed.rejected_stopped != result.seen_stopped) ++violations;
  if (shed.completed != result.seen_completed) ++violations;
  return violations;
}

}  // namespace

int main() {
  using namespace rr;
  const bench::EvalConfig config = bench::EvalConfig::from_env();
  // Queue-depth ratios are noisy, hence the generous bound.
  bench::StatsJsonWriter record("soak", config, /*max_regression_pct=*/60);
  config.print(std::cout);
  const int tenants = env_int("RRPLACE_TENANTS", 4);
  const int workers = env_int("RRPLACE_SERVE_WORKERS", 2);
  const int requests = env_int("RRPLACE_STEPS", 600);
  const std::size_t wave =
      static_cast<std::size_t>(env_int("RRPLACE_SOAK_WAVE", 32));

  const auto region = bench::make_eval_region(config.seed, config.modules);
  const auto fabric = region->fabric_ptr();
  model::ModuleGenerator generator(bench::paper_workload_params(),
                                   config.seed);
  const auto library = generator.generate_many(config.modules);

  sim::WorkloadParams params;
  params.tenants = tenants;
  params.requests = static_cast<long>(requests);
  params.seed = config.seed;
  // No fault storms: a fault event re-keys the solve context and runs
  // displacement recovery, a legitimate cost but one that would own the
  // p99 of every arm equally and wash out the queueing signal.
  params.p_storm_start = 0.0;
  // Deadlines come from ServiceOptions::default_deadline_ms in the shed
  // arm so the identical trace replays deadline-free in the other two.
  params.deadline_base_ms = 0.0;
  sim::WorkloadGenerator workload(params, library, fabric->width(),
                                  fabric->height());
  const service::ServeTrace trace = workload.generate();
  const auto total = static_cast<std::uint64_t>(trace.requests.size());

  RunningStats unloaded_p99, shed_p99, control_p99;
  RunningStats shed_ratio, control_ratio, shed_rate, deadline_used;
  long violations = 0;
  for (int run = 0; run < config.runs; ++run) {
    const ArmResult unloaded = run_unloaded(fabric, library, trace, workers);
    const double u = unloaded.stats.latency_p99_ms;
    // 0.4u of queue-wait budget keeps accepted latency (< budget + service)
    // under the 1.5u acceptance bound; the floor guards tiny-u configs
    // where scheduler wakeup noise alone would shed everything.
    const double deadline_ms = std::max(0.4 * u, 0.05);
    const ArmResult shed =
        run_waves(fabric, library, trace, workers, wave, deadline_ms);
    const ArmResult control =
        run_waves(fabric, library, trace, workers, wave, /*deadline_ms=*/0.0);

    violations += audit(unloaded, total);
    violations += audit(shed, total);
    violations += audit(control, total);

    unloaded_p99.add(u);
    shed_p99.add(shed.stats.latency_p99_ms);
    control_p99.add(control.stats.latency_p99_ms);
    deadline_used.add(deadline_ms);
    if (u > 0.0) {
      shed_ratio.add(shed.stats.latency_p99_ms / u);
      control_ratio.add(control.stats.latency_p99_ms / u);
    }
    if (shed.stats.shed.submitted > 0)
      shed_rate.add(static_cast<double>(shed.stats.shed.total_shed()) /
                    static_cast<double>(shed.stats.shed.submitted));
  }
  // The acceptance bound (mean accepted p99 <= 1.5x unloaded) as a 0/1
  // result: pinned against a baseline of 1, a run that breaks it fails
  // outright instead of by percentage.
  const long within_bound =
      shed_ratio.count() > 0 && shed_ratio.mean() <= 1.5 ? 1 : 0;

  TextTable table({"Arm", "p99 (ms)", "p99 / unloaded"});
  table.add_row({"unloaded closed loop",
                 TextTable::num(unloaded_p99.mean(), 3), "1.00"});
  table.add_row({"shed (deadline = 0.4 x unloaded p99)",
                 TextTable::num(shed_p99.mean(), 3),
                 TextTable::num(shed_ratio.mean(), 2)});
  table.add_row({"control (no deadline)",
                 TextTable::num(control_p99.mean(), 3),
                 TextTable::num(control_ratio.mean(), 2)});
  table.print(std::cout,
              "Overload soak: " + std::to_string(total) + " requests, " +
                  std::to_string(tenants) + " tenants, waves of " +
                  std::to_string(wave) + " on " + std::to_string(workers) +
                  " workers");
  std::cout << "shed rate: " << TextTable::pct(shed_rate.mean())
            << "  deadline: " << TextTable::num(deadline_used.mean(), 3)
            << "ms  within 1.5x bound: " << (within_bound ? "yes" : "NO")
            << "  invariant violations: " << violations << '\n';

  record.add_result("requests", json::Value(total));
  record.add_result("tenants", json::Value(tenants));
  record.add_result("workers", json::Value(workers));
  record.add_result("wave", json::Value(static_cast<long>(wave)));
  record.add_result("deadline_ms", deadline_used);
  record.add_result("unloaded_p99_ms", unloaded_p99);
  record.add_result("shed_p99_ms", shed_p99);
  record.add_result("control_p99_ms", control_p99);
  record.add_result("shed_p99_ratio", shed_ratio);
  // The no-shedding control really does degrade.
  record.add_result("control_p99_ratio", control_ratio);
  record.pin("control_p99_ratio", bench::Better::kHigher);
  // The service actually sheds under 2x+ saturation.
  record.add_result("shed_rate", shed_rate);
  record.pin("shed_rate", bench::Better::kHigher);
  record.add_result("shed_p99_within_bound", json::Value(within_bound));
  record.pin("shed_p99_within_bound", bench::Better::kHigher);
  // check_invariants() passes in every arm, and the statuses clients
  // observed match the service counters.
  record.add_result("invariant_violations", json::Value(violations));
  record.pin("invariant_violations", bench::Better::kLower);
  return violations == 0 ? 0 : 1;
}
