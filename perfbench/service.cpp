// Workloads service_churn and fault_storm: the multi-tenant placement
// service driven closed-loop.
//
// Four tenants share two service workers. One driver thread plays a
// reconfiguration manager per tenant: it submits a tenant's next request
// only after the previous reply arrived, with zero think time, so every
// tenant has exactly one request outstanding and the latency measures
// placement rather than queue depth. The request streams come from
// sim::WorkloadGenerator. The trace runs in epochs of a fixed request
// count; at every epoch boundary the driver drains, audits every tenant
// through tenant_quiesced, samples occupancy and times the drift reference
// kernel. Quality is reported over a fixed number of leading epochs.
//
//   service_churn  548x28 fabric, no faults, defrag off (the production
//                  default): admission through the free-space index.
//   fault_storm    109x28 fabric, fault storms, defrag on (2 relocations,
//                  0.5 s deadline): CP sub-solves inside defrag, context
//                  re-keying and casualty re-placement on the fault path.
//
// Defrag decisions depend on the wall clock only when a deadline expires,
// so every run checks that none did; with that, accept_frac, occupancy
// and recovered_frac over the leading epochs are identical on every run
// of a seed.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <future>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common.hpp"

namespace perfbench {
namespace {

using rr::service::Request;
using rr::service::RequestOp;
using rr::service::Response;
using Status = rr::service::Response::Status;

constexpr int kTenants = 4;
constexpr int kWorkers = 2;
constexpr int kLibraryModules = 24;
constexpr int kSetupRepeats = 5;
/// Largest gap between the traced replay's apply time and the service's
/// own, as a share of the end-to-end mean, that the account accepts.
constexpr double kAccountTolerance = 0.25;

struct Spec {
  bool faults = false;
  int fabric_modules = 0;     // eval-region sizing: width = modules * 128 / 28
  long trace_requests = 0;    // generated stream length (all tenants)
  long epoch_requests = 0;    // requests between audits
  int quality_epochs = 0;     // prefix over which quality is reported
};

Spec spec_for(const std::string& workload) {
  Spec s;
  if (workload == "fault_storm") {
    s.faults = true;
    s.fabric_modules = 24;  // 109 x 28
    s.trace_requests = 60000;
    s.epoch_requests = 1000;
    s.quality_epochs = 8;
  } else {
    s.fabric_modules = 120;  // 548 x 28
    s.trace_requests = 1200000;
    s.epoch_requests = 10000;
    s.quality_epochs = 10;
  }
  return s;
}

struct Inputs {
  std::shared_ptr<const rr::fpga::Fabric> fabric;
  std::vector<rr::model::Module> library;
  rr::service::ServeTrace trace;
};

Inputs make_inputs(const Spec& spec, std::uint64_t seed) {
  Inputs in;
  // The region owns its fabric; the aliasing pointer keeps it alive.
  const auto region =
      rr::bench::make_eval_region(kSystemSeed, spec.fabric_modules);
  in.fabric = std::shared_ptr<const rr::fpga::Fabric>(region, &region->fabric());
  rr::model::ModuleGenerator generator(rr::bench::paper_workload_params(),
                                       kSystemSeed);
  in.library = generator.generate_many(kLibraryModules);
  rr::sim::WorkloadParams params;
  params.tenants = kTenants;
  params.requests = spec.trace_requests;
  params.seed = derive_seed(seed, 1);
  if (spec.faults) {
    params.life_min = 100;
    params.life_max = 2000;
    params.p_storm_start = 0.005;
    // Poisson arrivals at the MMPP's long-run mean rate (0.6 quiet, 6.0
    // burst, 1/9 of ticks bursting): the storms are this workload's bursts,
    // and without arrival squalls on top its defrag load varies far less
    // from seed to seed.
    params.rate_low = params.rate_high = 1.2;
  } else {
    params.life_min = 500;
    params.life_max = 10000;
    params.p_storm_start = 0.0;
  }
  rr::sim::WorkloadGenerator workload(params, in.library, in.fabric->width(),
                                      in.fabric->height());
  in.trace = workload.generate();
  return in;
}

rr::baseline::OnlineOptions online_options(const Spec& spec) {
  rr::baseline::OnlineOptions online;
  if (spec.faults) {
    online.defrag.deadline_seconds = 0.5;
    online.defrag.max_relocations = 2;
  }
  return online;
}

std::unique_ptr<rr::service::PlacementService> make_service(
    const Spec& spec, const Inputs& in) {
  std::vector<rr::service::Tenant::Config> configs;
  for (int t = 0; t < kTenants; ++t) {
    rr::service::Tenant::Config config;
    config.fabric = in.fabric;
    config.library = in.library;
    config.online = online_options(spec);
    configs.push_back(std::move(config));
  }
  rr::service::ServiceOptions options;
  options.workers = kWorkers;
  return std::make_unique<rr::service::PlacementService>(std::move(configs),
                                                         options);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// What the driver knows about one tenant's instances, from the replies.
struct TenantBook {
  std::unordered_map<int, int> module_of;  // instance -> library index
  std::unordered_set<int> live;            // believed placed
  std::unordered_set<int> gone;            // rejected or lost: removes no-op
  long unexplained_losses = 0;  // displaced - recovered not yet attributed
};

/// Quality and exact counts, accumulated per epoch.
struct Tally {
  std::uint64_t placed = 0, rejected = 0, displaced = 0, recovered = 0;
  std::uint64_t noop_removes = 0, requests = 0;
  std::vector<double> occupancy;  // one sample per tenant per epoch
  rr::baseline::OnlineDefragStats defrag{};
};

class Driver {
 public:
  Driver(const Spec& spec, const Inputs& in,
         rr::service::PlacementService& service, Report& report)
      : spec_(spec), in_(in), service_(service), report_(report),
        books_(kTenants), responses_(kTenants), streams_(kTenants) {}

  /// Drives the trace in epochs of a fixed request count until `seconds`
  /// pass, and at least quality_epochs epochs. Each epoch is timed from its
  /// first submit to its last reply, then drained and audited. Between
  /// epochs, while the service is idle, the reference kernel runs on as
  /// many threads as the service keeps busy (the workers and this driver),
  /// so the machine speed it measures includes how the host treats that
  /// many threads. Epochs are fixed request ranges, so every run of a seed
  /// times the same requests, and the quality and exact counts over the
  /// first quality_epochs epochs repeat bit for bit.
  void run(double seconds) {
    const std::size_t total = in_.trace.requests.size();
    rr::Stopwatch budget;
    std::vector<double> before = reference_samples(kWorkers + 1);
    while (next_ < total &&
           (epochs_.size() < static_cast<std::size_t>(spec_.quality_epochs) ||
            budget.seconds() < seconds)) {
      const std::size_t end = std::min(
          total, next_ + static_cast<std::size_t>(spec_.epoch_requests));
      Epoch epoch;
      epoch.requests = end - next_;
      const std::uint64_t begin_ns = now_ns();
      drive(next_, end, static_cast<int>(epochs_.size()));
      epoch.seconds = static_cast<double>(now_ns() - begin_ns) * 1e-9;
      next_ = end;
      audit();
      const std::vector<double> after = reference_samples(kWorkers + 1);
      std::vector<double> around = before;
      around.insert(around.end(), after.begin(), after.end());
      epoch.ref_ms = median(around);
      epochs_.push_back(epoch);
      before = after;
      if (epochs_.size() == static_cast<std::size_t>(spec_.quality_epochs))
        quality_ = tally_;
    }
  }

  [[nodiscard]] const Tally& quality() const { return quality_; }
  [[nodiscard]] const Tally& tally() const { return tally_; }
  /// One timed epoch: its request count, wall time, and the median
  /// reference-kernel time measured just before and just after it.
  struct Epoch {
    std::size_t requests = 0;
    double seconds = 0.0;
    double ref_ms = 0.0;
  };
  [[nodiscard]] const std::vector<Epoch>& epochs() const { return epochs_; }
  /// One timed request: its epoch and its submit-to-reply latency.
  struct Sample {
    int epoch;
    double latency_us;
  };
  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }
  /// Mean submit-to-reply latency over every request of both phases.
  [[nodiscard]] double mean_latency_us() const {
    return latency_sum_us_ / static_cast<double>(std::max<std::uint64_t>(
                                 1, tally_.requests));
  }
  /// Per tenant: the requests sent and the replies received, in order.
  [[nodiscard]] const std::vector<std::vector<Request>>& streams() const {
    return streams_;
  }
  [[nodiscard]] const std::vector<std::vector<Response>>& responses() const {
    return responses_;
  }

 private:
  /// Closed-loop drive of trace requests [begin, end) to the end: each
  /// tenant has one request outstanding and sends its next one as soon as
  /// the reply is seen. Latencies are recorded under `epoch`.
  void drive(std::size_t begin, std::size_t end, int epoch) {
    std::vector<std::vector<std::size_t>> queue(kTenants);
    for (std::size_t i = begin; i < end; ++i)
      queue[static_cast<std::size_t>(in_.trace.requests[i].tenant)].push_back(i);
    struct Slot {
      std::size_t pos = 0;
      bool busy = false;
      std::uint64_t submit_ns = 0;
      std::future<Response> reply;
    };
    std::vector<Slot> slots(kTenants);
    auto submit = [&](int t) {
      Slot& slot = slots[static_cast<std::size_t>(t)];
      const auto& q = queue[static_cast<std::size_t>(t)];
      if (slot.pos >= q.size()) return;
      slot.submit_ns = now_ns();
      const Request& request = in_.trace.requests[q[slot.pos++]];
      slot.busy = true;
      slot.reply = service_.submit(request);
    };
    int busy = 0;
    for (int t = 0; t < kTenants; ++t) {
      submit(t);
      busy += slots[static_cast<std::size_t>(t)].busy ? 1 : 0;
    }
    while (busy > 0) {
      for (int t = 0; t < kTenants; ++t) {
        Slot& slot = slots[static_cast<std::size_t>(t)];
        if (!slot.busy || slot.reply.wait_for(std::chrono::seconds(0)) !=
                              std::future_status::ready)
          continue;
        const std::uint64_t done = now_ns();
        latency_sum_us_ += static_cast<double>(done - slot.submit_ns) * 1e-3;
        samples_.push_back(
            {epoch, static_cast<double>(done - slot.submit_ns) * 1e-3});
        const Request& request =
            in_.trace.requests[queue[static_cast<std::size_t>(t)][slot.pos - 1]];
        absorb(request, slot.reply.get());
        slot.busy = false;
        submit(t);
        if (!slot.busy) --busy;
      }
    }
  }

  /// Check one reply against what the driver knows and book it.
  void absorb(const Request& request, const Response& response) {
    report_.attempt();
    ++tally_.requests;
    const auto t = static_cast<std::size_t>(request.tenant);
    TenantBook& book = books_[t];
    streams_[t].push_back(request);
    responses_[t].push_back(response);
    const int id = request.instance;
    switch (request.op) {
      case RequestOp::kPlace:
        book.module_of[id] = request.module;
        if (response.status == Status::kPlaced) {
          ++tally_.placed;
          book.live.insert(id);
        } else if (response.status == Status::kRejected) {
          ++tally_.rejected;
          book.gone.insert(id);
        } else {
          report_.fail("place request answered with status " +
                       std::to_string(static_cast<int>(response.status)));
        }
        return;
      case RequestOp::kRemove:
        if (response.status == Status::kRemoved && book.live.erase(id) == 1)
          return;
        if (response.status == Status::kError) {
          // The generator removes every instance, admitted or not; a remove
          // of a rejected or lost instance must be refused.
          if (book.gone.erase(id) == 1) {
            ++tally_.noop_removes;
            return;
          }
          if (book.live.contains(id) && book.unexplained_losses > 0) {
            --book.unexplained_losses;
            book.live.erase(id);
            ++tally_.noop_removes;
            return;
          }
        }
        report_.fail("remove of instance " + std::to_string(id) +
                     " answered inconsistently");
        return;
      case RequestOp::kFault:
        if (response.status != Status::kFaulted ||
            response.recovered > response.displaced) {
          report_.fail("fault request answered inconsistently");
          return;
        }
        tally_.displaced += static_cast<std::uint64_t>(response.displaced);
        tally_.recovered += static_cast<std::uint64_t>(response.recovered);
        book.unexplained_losses += response.displaced - response.recovered;
        return;
    }
  }

  /// Epoch drain audit: every future has been observed, so the tenants are
  /// quiescent and may be read.
  void audit() {
    const rr::service::ShedCounters shed = service_.shed_counters();
    if (shed.total_shed() != 0 || shed.submitted != shed.completed ||
        shed.completed != tally_.requests)
      report_.fail("shed accounting identity broken");
    rr::baseline::OnlineDefragStats defrag{};
    for (int t = 0; t < kTenants; ++t) {
      const rr::service::Tenant& tenant = service_.tenant_quiesced(t);
      audit_tenant(t, tenant);
      const auto& d = tenant.placer().defrag_stats();
      defrag.attempts += d.attempts;
      defrag.successes += d.successes;
      defrag.relocated_tiles += d.relocated_tiles;
      defrag.deadline_expiries += d.deadline_expiries;
      tally_.occupancy.push_back(tenant.placer().occupancy());
    }
    tally_.defrag = defrag;
    if (defrag.deadline_expiries > 0)
      report_.fail("a defrag pass hit its deadline: decisions now depend on "
                   "timing");
  }

  void audit_tenant(int t, const rr::service::Tenant& tenant) {
    TenantBook& book = books_[static_cast<std::size_t>(t)];
    const auto& placer = tenant.placer();
    const auto live = placer.live_placements();
    // Instances the tenant dropped since the last audit are the losses.
    std::unordered_set<int> now_live;
    for (const auto& p : live) now_live.insert(p.module);
    long lost = 0;
    for (auto it = book.live.begin(); it != book.live.end();) {
      if (now_live.contains(*it)) {
        ++it;
        continue;
      }
      book.gone.insert(*it);
      it = book.live.erase(it);
      ++lost;
    }
    if (lost != book.unexplained_losses ||
        now_live.size() != book.live.size())
      report_.fail("tenant " + std::to_string(t) +
                   ": live instances disagree with the replies");
    book.unexplained_losses = 0;

    // The live footprints sit inside the region on available tiles of
    // their resource type (the masks exclude faulty tiles), do not overlap,
    // and together are exactly the tenant's occupancy.
    const auto& region = tenant.region();
    rr::BitMatrix grid(region.height(), region.width());
    long tiles = 0;
    for (const auto& p : live) {
      const auto& module = in_.library[static_cast<std::size_t>(
          book.module_of.at(p.module))];
      const auto& shape = module.shapes()[static_cast<std::size_t>(p.shape)];
      for (std::size_t g = 0; g < shape.typed().size(); ++g) {
        const auto& available = region.masks()[static_cast<std::size_t>(
            shape.typed()[g].resource)];
        if (!available.covers_shifted(shape.typed_masks()[g], p.y, p.x))
          report_.fail("live instance on an unavailable or faulty tile");
      }
      if (grid.intersects_shifted(shape.mask(), p.y, p.x))
        report_.fail("live instances overlap");
      grid.or_shifted(shape.mask(), p.y, p.x);
      tiles += shape.area();
    }
    if (tiles != placer.occupied_tiles() || !(grid == placer.occupied_matrix()))
      report_.fail("tenant " + std::to_string(t) +
                   ": occupancy differs from the live footprints");
  }

  const Spec& spec_;
  const Inputs& in_;
  rr::service::PlacementService& service_;
  Report& report_;
  std::vector<TenantBook> books_;
  std::vector<std::vector<Response>> responses_;
  std::vector<std::vector<Request>> streams_;
  std::vector<Epoch> epochs_;
  std::vector<Sample> samples_;
  double latency_sum_us_ = 0.0;
  Tally tally_;
  Tally quality_;
  std::size_t next_ = 0;  // trace position reached so far
};

double frac(std::uint64_t num, std::uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/// Timings of the epochs, each rescaled by drift_scale over the reference
/// samples around its epoch. Throughput, mean latency and p95 are medians
/// over epochs of the per-epoch values, so a stall of the shared host, or
/// an epoch of unusual requests, moves one epoch rather than the result.
/// The p99 pools every request.
struct Timed {
  double throughput_rps = 0.0;
  double mean_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  std::size_t samples = 0;
};

Timed timed_metrics(const Driver& driver) {
  const auto& epochs = driver.epochs();
  std::vector<double> scale, rps, pooled;
  for (const Driver::Epoch& e : epochs) {
    scale.push_back(drift_scale({e.ref_ms}));
    rps.push_back(static_cast<double>(e.requests) / e.seconds / scale.back());
  }
  std::vector<std::vector<double>> latency(epochs.size());
  for (const Driver::Sample& s : driver.samples()) {
    const auto e = static_cast<std::size_t>(s.epoch);
    latency[e].push_back(s.latency_us * scale[e]);
    pooled.push_back(latency[e].back());
  }
  std::vector<double> mean_us, p95_us;
  for (auto& l : latency) {
    mean_us.push_back(mean(l));
    p95_us.push_back(quantile(l, 0.95));
  }
  Timed out;
  out.samples = pooled.size();
  out.throughput_rps = median(rps);
  out.mean_us = median(mean_us);
  out.p95_us = median(p95_us);
  out.p99_us = quantile(pooled, 0.99);
  return out;
}

void print_exact(const Tally& q) {
  std::printf("# exact: placed=%llu rejected=%llu occupancy=%.17g "
              "displaced=%llu recovered=%llu defrag_attempts=%llu "
              "defrag_successes=%llu relocated_tiles=%llu\n",
              static_cast<unsigned long long>(q.placed),
              static_cast<unsigned long long>(q.rejected), mean(q.occupancy),
              static_cast<unsigned long long>(q.displaced),
              static_cast<unsigned long long>(q.recovered),
              static_cast<unsigned long long>(q.defrag.attempts),
              static_cast<unsigned long long>(q.defrag.successes),
              static_cast<unsigned long long>(q.defrag.relocated_tiles));
}

/// Serial replay of every tenant's stream through a fresh Tenant (all
/// sharing one context cache): the determinism oracle and the per-call
/// timing of the tenant layer. Tenants are independent, so kWorkers
/// threads replay disjoint tenant sets, as the service's workers do.
struct Replay {
  std::vector<double> place_us, remove_us, defrag_us, fault_us;
  double apply_s = 0.0;
  double rects_sum = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t mismatches = 0;

  void merge(const Replay& other) {
    for (auto [mine, theirs] :
         {std::pair{&place_us, &other.place_us},
          std::pair{&remove_us, &other.remove_us},
          std::pair{&defrag_us, &other.defrag_us},
          std::pair{&fault_us, &other.fault_us}})
      mine->insert(mine->end(), theirs->begin(), theirs->end());
    apply_s += other.apply_s;
    rects_sum += other.rects_sum;
    calls += other.calls;
    mismatches += other.mismatches;
  }
};

void replay_tenant(const Spec& spec, const Inputs& in, const Driver& driver,
                   int t, rr::service::SolveContextCache& cache, Replay& r) {
  rr::service::Tenant::Config config;
  config.fabric = in.fabric;
  config.library = in.library;
  config.online = online_options(spec);
  config.cache = &cache;
  rr::service::Tenant tenant(std::move(config));
  const auto& requests = driver.streams()[static_cast<std::size_t>(t)];
  const auto& expected = driver.responses()[static_cast<std::size_t>(t)];
  for (std::size_t k = 0; k < requests.size(); ++k) {
    const Request& request = requests[k];
    const std::uint64_t attempts = tenant.placer().defrag_stats().attempts;
    rr::Stopwatch watch;
    const Response response = tenant.apply(request);
    const double seconds = watch.seconds();
    r.apply_s += seconds;
    ++r.calls;
    r.rects_sum += static_cast<double>(
        tenant.placer().free_space().rectangles().size());
    const double us = seconds * 1e6;
    if (request.op == RequestOp::kFault) {
      r.fault_us.push_back(us);
    } else if (request.op == RequestOp::kRemove) {
      if (response.status == Status::kRemoved) r.remove_us.push_back(us);
    } else if (tenant.placer().defrag_stats().attempts != attempts) {
      r.defrag_us.push_back(us);
    } else {
      r.place_us.push_back(us);
    }
    if (!(response == expected[k])) ++r.mismatches;
  }
}

Replay replay(const Spec& spec, const Inputs& in, const Driver& driver,
              Report& report) {
  rr::service::SolveContextCache cache;
  std::vector<Replay> parts(kWorkers);
  std::vector<std::exception_ptr> errors(kWorkers);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w)
    threads.emplace_back([&, w] {
      const auto i = static_cast<std::size_t>(w);
      try {
        for (int t = w; t < kTenants; t += kWorkers)
          replay_tenant(spec, in, driver, t, cache, parts[i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
  Replay r;
  for (const Replay& part : parts) r.merge(part);
  report.attempt(r.calls);
  for (std::uint64_t k = 0; k < r.mismatches; ++k)
    report.fail("a service reply differs from the serial replay");
  return r;
}

}  // namespace

int run_service(const Args& args, Report& report) {
  const Spec spec = spec_for(args.workload);

  // Set-up: library, fabric and trace generation plus service construction
  // (which prepares the shared solve context), repeated for a median.
  Inputs in;
  std::unique_ptr<rr::service::PlacementService> service;
  const double setup_s = median_setup_s(kSetupRepeats, [&] {
    service.reset();
    in = make_inputs(spec, args.seed);
    service = make_service(spec, in);
  });

  Driver driver(spec, in, *service, report);
  // A traced run drives for half the budget, then replays everything the
  // service ran through serial tenants, which takes about as long.
  driver.run(args.trace ? args.seconds / 2 : args.seconds);
  service->stop();
  const Tally& q = driver.quality();
  print_exact(q);
  const Timed timed = timed_metrics(driver);
  std::vector<double> ref_ms;
  for (const Driver::Epoch& e : driver.epochs()) ref_ms.push_back(e.ref_ms);
  std::printf("# samples: %zu timed requests in %zu epochs; ref_ms %.4f\n",
              timed.samples, driver.epochs().size(), median(ref_ms));

  if (!args.trace) {
    report.add("setup_s", setup_s, "s");
    report.add("throughput_rps", timed.throughput_rps, "1/s");
    report.add("latency_mean_us", timed.mean_us, "us");
    report.add("latency_p95_us", timed.p95_us, "us");
    report.add("utilization", mean(q.occupancy), "fraction");
    report.add("accept_frac", frac(q.placed, q.placed + q.rejected),
               "fraction");
    return 0;
  }

  const rr::service::ServiceStats stats = service->stats();
  const auto cache = service->cache().stats();
  const Replay r = replay(spec, in, driver, report);
  const double e2e_mean_us = driver.mean_latency_us();
  const double service_apply_us = stats.latency_service_mean_ms * 1e3;
  const double replay_apply_us =
      r.apply_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, r.calls));
  // dispatch_us is defined as the rest of the end-to-end mean, so the
  // account rests on the apply time, measured twice: inside the service
  // and by the traced serial replay of the same requests. Their gap, as a
  // share of the end-to-end mean, must stay within kAccountTolerance.
  const double gap = std::abs(replay_apply_us - service_apply_us) / e2e_mean_us;
  std::printf("# account: e2e mean %.3f us = dispatch %.3f + in-service "
              "apply %.3f; serial replay apply %.3f us over %llu calls; "
              "gap %.1f%% of e2e (tolerance %.0f%%): %s\n",
              e2e_mean_us, e2e_mean_us - service_apply_us, service_apply_us,
              replay_apply_us, static_cast<unsigned long long>(r.calls),
              gap * 100.0, kAccountTolerance * 100.0,
              gap <= kAccountTolerance ? "ok" : "EXCEEDED");
  auto p = [](std::vector<double> v, double at) { return quantile(v, at); };
  const LayerValues values = {
      {"latency.p99_us", timed.p99_us},
      {"tenant.place_us.p50", p(r.place_us, 0.50)},
      {"tenant.place_us.p99", p(r.place_us, 0.99)},
      {"tenant.remove_us.p50", p(r.remove_us, 0.50)},
      {"tenant.defrag_us.p50", p(r.defrag_us, 0.50)},
      {"tenant.defrag_us.p99", p(r.defrag_us, 0.99)},
      {"tenant.fault_us.p50", p(r.fault_us, 0.50)},
      {"tenant.fault_us.p99", p(r.fault_us, 0.99)},
      {"free_space.rects_mean",
       r.rects_sum / static_cast<double>(std::max<std::uint64_t>(1, r.calls))},
      {"service.apply_us", service_apply_us},
      {"service.dispatch_us", e2e_mean_us - service_apply_us},
      {"service.batch_mean",
       frac(stats.batches + stats.batched_requests, stats.batches)},
      {"defrag.attempts", static_cast<double>(q.defrag.attempts)},
      {"defrag.success_frac", frac(q.defrag.successes, q.defrag.attempts)},
      {"defrag.relocated_tiles", static_cast<double>(q.defrag.relocated_tiles)},
      {"defrag.deadline_expiries",
       static_cast<double>(driver.tally().defrag.deadline_expiries)},
      {"cache.hit_frac", cache.hit_rate()},
      {"cache.misses", static_cast<double>(cache.misses)},
      {"fault.displaced", static_cast<double>(q.displaced)},
      {"fault.recovered", static_cast<double>(q.recovered)},
      {"fault.recovered_frac", frac(q.recovered, q.displaced)},
      {"ops", static_cast<double>(report.attempted())},
      {"failed_ops", static_cast<double>(report.failed())},
      {"noop_removes", static_cast<double>(driver.tally().noop_removes)},
      {"mismatches", static_cast<double>(r.mismatches)},
      {"machine.ref_ms", median(ref_ms)},
      {"trace.overhead_frac", replay_apply_us / service_apply_us - 1.0},
  };
  add_layer_metrics(report, values);
  return 0;
}
}  // namespace perfbench
