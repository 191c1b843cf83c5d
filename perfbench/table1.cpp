// Workload table1_offline: the paper's Table I under fixed fail budgets.
//
// Each run draws kInstances paper-style instances (12 modules on the
// evaluation region) and solves every one twice, with base layouts only and
// with design alternatives, by single-worker branch-and-bound bounded by a
// fail budget instead of a wall-clock limit. The search trees, and with them
// every solution, utilization and node count, are identical on every pass;
// only the engine's speed moves the timings. Passes repeat until the time
// budget is spent, and every pass must reproduce the first one exactly.
#include <cstdio>
#include <string>

#include "common.hpp"

namespace perfbench {
namespace {

constexpr int kInstances = 512;
constexpr int kModules = 12;
constexpr int kPoolModules = 64;
constexpr std::uint64_t kMaxFails = 500;
constexpr int kSetupRepeats = 5;

struct Instance {
  std::shared_ptr<const rr::fpga::PartialRegion> region;
  std::vector<rr::model::Module> modules;
  rr::placer::TablesHandle tables[2];  // [use_alternatives]
  std::uint64_t seed = 0;
};

/// Every instance places kModules distinct modules, drawn by the run seed
/// from a fixed pool of paper-style modules, on the one evaluation region.
std::vector<Instance> make_instances(std::uint64_t seed) {
  const std::shared_ptr<const rr::fpga::PartialRegion> region =
      rr::bench::make_eval_region(kSystemSeed, kModules);
  rr::model::ModuleGenerator generator(rr::bench::paper_workload_params(),
                                       kSystemSeed);
  const std::vector<rr::model::Module> pool =
      generator.generate_many(kPoolModules);
  std::vector<Instance> instances(kInstances);
  for (int i = 0; i < kInstances; ++i) {
    Instance& inst = instances[static_cast<std::size_t>(i)];
    inst.seed = derive_seed(seed, 0x7AB1E000ULL + static_cast<std::uint64_t>(i));
    inst.region = region;
    std::vector<int> order(kPoolModules);
    for (int k = 0; k < kPoolModules; ++k) order[static_cast<std::size_t>(k)] = k;
    rr::Rng rng(inst.seed);
    for (int k = 0; k < kModules; ++k) {
      std::swap(order[static_cast<std::size_t>(k)],
                order[static_cast<std::size_t>(
                    rng.uniform_int(k, kPoolModules - 1))]);
      inst.modules.push_back(pool[static_cast<std::size_t>(
          order[static_cast<std::size_t>(k)])]);
    }
    for (const bool alternatives : {false, true})
      inst.tables[alternatives] = rr::placer::prepare_tables_shared(
          *inst.region, inst.modules, alternatives);
  }
  return instances;
}

rr::placer::PlacerOptions solve_options(const Instance& inst,
                                        bool alternatives) {
  rr::placer::PlacerOptions options;
  options.mode = rr::placer::PlacerMode::kBranchAndBound;
  options.use_alternatives = alternatives;
  options.workers = 1;
  options.time_limit_seconds = 0.0;  // no wall clock: the fail budget binds
  options.max_fails = kMaxFails;
  options.seed = inst.seed;
  return options;
}

/// The exact outcome of one solve; every pass must reproduce it.
struct Exact {
  bool feasible = false;
  bool optimal = false;
  int extent = 0;
  std::uint64_t nodes = 0;
  std::uint64_t fails = 0;
  std::uint64_t propagations = 0;
  double utilization = 0.0;
  bool operator==(const Exact&) const = default;
};

struct Solve {
  Exact exact;
  double seconds = 0.0;
  rr::placer::PlacementOutcome outcome;
};

Solve solve(const Instance& inst, bool alternatives) {
  const rr::placer::Placer placer(*inst.region, inst.modules,
                                  inst.tables[alternatives],
                                  solve_options(inst, alternatives));
  Solve s;
  rr::Stopwatch watch;
  s.outcome = placer.place();
  s.seconds = watch.seconds();
  const auto& outcome = s.outcome;
  s.exact.feasible = outcome.solution.feasible;
  s.exact.optimal = outcome.optimal;
  s.exact.extent = outcome.solution.extent;
  s.exact.nodes = outcome.stats.nodes;
  s.exact.fails = outcome.stats.fails;
  s.exact.propagations = outcome.space_stats.propagations;
  return s;
}

/// Solves every instance both ways, pass after pass, until `seconds`
/// elapse (the first pass always completes). The first pass validates and
/// scores every solution; every later pass must reproduce it exactly.
struct Passes {
  std::vector<Exact> exact[2];  // [use_alternatives][instance], first pass
  /// [use_alternatives][instance]: wall times of every solve of it.
  std::vector<std::vector<double>> instance_s[2];
  std::vector<double> ref_ms;
  std::size_t solves = 0;

  /// [use_alternatives][instance]: median wall time over its passes.
  [[nodiscard]] std::vector<double> instance_medians(bool alternatives) const {
    std::vector<double> out;
    for (const auto& times : instance_s[alternatives])
      out.push_back(median(times));
    return out;
  }
};

Passes run_passes(const std::vector<Instance>& instances, double seconds,
                  Report& report) {
  Passes p;
  for (auto& arm : p.instance_s) arm.resize(instances.size());
  rr::Stopwatch budget;
  for (int pass = 0; pass == 0 || budget.seconds() < seconds; ++pass) {
    for (std::size_t i = 0;
         i < instances.size() && (pass == 0 || budget.seconds() < seconds);
         ++i) {
      const Instance& inst = instances[i];
      for (const bool alternatives : {false, true}) {
        Solve s = solve(inst, alternatives);
        report.attempt();
        ++p.solves;
        p.instance_s[alternatives][i].push_back(s.seconds);
        if (pass > 0) {
          Exact first = p.exact[alternatives][i];
          first.utilization = 0.0;  // scored on the first pass only
          if (!(s.exact == first))
            report.fail("solve " + std::to_string(i) +
                        " differs from the first pass (nondeterminism)");
          continue;
        }
        // A solve may end without a placement when the fail budget runs
        // out first (some base-layout instances are unplaceable); that is
        // an outcome, scored by accept_frac, not an error.
        if (s.exact.feasible) {
          const auto check = rr::placer::validate(*inst.region, inst.modules,
                                                  s.outcome.solution);
          if (!check.ok())
            report.fail("invalid placement: " + check.errors.front());
          s.exact.utilization = rr::placer::spanned_utilization(
              *inst.region, inst.modules, s.outcome.solution);
        }
        p.exact[alternatives].push_back(s.exact);
      }
      p.ref_ms.push_back(reference_kernel_ms());
    }
  }
  return p;
}

/// Mean spanned utilization per arm over the instances both arms placed.
struct Quality {
  double util[2] = {0.0, 0.0};
  int paired = 0;
  int feasible = 0;
};

Quality quality(const Passes& p) {
  Quality q;
  for (std::size_t i = 0; i < p.exact[0].size(); ++i) {
    const Exact& base = p.exact[0][i];
    const Exact& alt = p.exact[1][i];
    q.feasible += (base.feasible ? 1 : 0) + (alt.feasible ? 1 : 0);
    if (!base.feasible || !alt.feasible) continue;
    q.util[0] += base.utilization;
    q.util[1] += alt.utilization;
    ++q.paired;
  }
  for (double& u : q.util) u /= std::max(1, q.paired);
  return q;
}

void print_exact(const Passes& p, const Quality& q) {
  std::uint64_t nodes = 0, fails = 0;
  int proven = 0;
  for (const auto& arm : p.exact)
    for (const Exact& e : arm) {
      nodes += e.nodes;
      fails += e.fails;
      proven += e.optimal ? 1 : 0;
    }
  std::printf("# exact: util_base=%.17g util_alt=%.17g feasible=%d "
              "nodes=%llu fails=%llu proven=%d\n",
              q.util[0], q.util[1], q.feasible,
              static_cast<unsigned long long>(nodes),
              static_cast<unsigned long long>(fails), proven);
}

/// One traced pass over every instance with metrics collection on (which
/// fills the per-propagator-kind buckets). It does what Placer::place does
/// in kBranchAndBound mode with one worker, one layer call at a time, so
/// each layer is timed on its own: table preparation, model build, and the
/// branch-and-bound search under the same fail budget. Every search must
/// reproduce the untraced solve's node and fail counts, feasibility and
/// proof status.
struct Layers {
  double tables_s = 0.0;
  double build_s = 0.0;
  double search_s = 0.0;
  int solves = 0;
  int proven = 0;
  rr::cp::SearchStats search;
  rr::cp::SpaceStats space;
};

Layers traced_pass(const std::vector<Instance>& instances, const Passes& p,
                   Report& report) {
  rr::metrics::set_enabled(true);  // before any Space is built
  Layers layers;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& inst = instances[i];
    for (const bool alternatives : {false, true}) {
      const rr::placer::PlacerOptions options =
          solve_options(inst, alternatives);
      rr::Stopwatch watch;
      const auto tables = rr::placer::prepare_tables_shared(
          *inst.region, inst.modules, alternatives);
      layers.tables_s += watch.seconds();

      rr::placer::BuildOptions build;
      build.use_alternatives = alternatives;
      build.nonoverlap = options.nonoverlap;
      build.element = options.element;
      build.area_bound = options.area_bound;
      watch.restart();
      const auto model =
          rr::placer::build_model_from_tables(*inst.region, *tables, build);
      layers.build_s += watch.seconds();

      Exact traced;
      traced.optimal = model.infeasible;
      if (!model.infeasible) {
        const auto brancher = rr::placer::make_placement_brancher(
            model, options.strategy, options.seed);
        rr::cp::SearchLimits limits;
        limits.max_fails = options.max_fails;
        watch.restart();
        const rr::cp::MinimizeResult result =
            rr::cp::minimize(*model.space, *brancher, model.objective,
                             model.placement_vars, limits);
        layers.search_s += watch.seconds();
        traced.nodes = result.stats.nodes;
        traced.fails = result.stats.fails;
        traced.optimal = result.stats.complete;
        traced.feasible = result.found;
        layers.search.merge(result.stats);
        layers.space.merge(model.space->stats());
      }
      report.attempt();
      const Exact& untraced = p.exact[alternatives][i];
      if (traced.nodes != untraced.nodes || traced.fails != untraced.fails ||
          traced.feasible != untraced.feasible ||
          traced.optimal != untraced.optimal)
        report.fail("traced solve " + std::to_string(i) +
                    " differs from the untraced one");
      ++layers.solves;
      layers.proven += traced.optimal ? 1 : 0;
    }
  }
  rr::metrics::set_enabled(false);
  return layers;
}

}  // namespace

int run_table1(const Args& args, Report& report) {
  // Set-up: instance generation and table preparation, repeated so the
  // reported set-up time is a median.
  std::vector<Instance> instances;
  const double setup_s = median_setup_s(
      kSetupRepeats, [&] { instances = make_instances(args.seed); });

  // A traced run spends half its budget untraced, for the overhead base.
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  const Passes p = run_passes(instances, untraced_s, report);
  const Quality q = quality(p);
  print_exact(p, q);
  // Per-instance solve times (median over its passes): throughput and the
  // percentiles range over distinct instances, each counted once.
  std::vector<double> base_s = p.instance_medians(false);
  std::vector<double> alt_s = p.instance_medians(true);
  double pass_s = 0.0;  // one pass over every instance, both arms
  for (const auto* arm : {&base_s, &alt_s})
    for (const double t : *arm) pass_s += t;
  const double throughput = 2.0 * kInstances / pass_s;
  std::printf("# samples: %zu instances, %zu solves; ref_ms %.4f\n",
              alt_s.size(), p.solves, median(p.ref_ms));

  // The solver is single-threaded, like the reference kernel that runs
  // after every instance: its timings are rescaled by the run's median.
  const double scale = drift_scale(p.ref_ms);
  if (!args.trace) {
    report.add("setup_s", setup_s, "s");
    report.add("throughput_rps", throughput / scale, "1/s");
    report.add("latency_mean_us", mean(alt_s) * 1e6 * scale, "us");
    report.add("latency_p95_us", quantile(alt_s, 0.95) * 1e6 * scale, "us");
    report.add("utilization", q.util[1], "fraction");
    report.add("accept_frac", q.feasible / (2.0 * kInstances), "fraction");
    return 0;
  }

  const Layers layers = traced_pass(instances, p, report);
  const double solve_s = layers.build_s + layers.search_s;
  double prop_s = 0.0;
  for (const auto& bucket : layers.space.by_kind)
    prop_s += static_cast<double>(bucket.time_ns) * 1e-9;
  // Propagation runs inside the search, so its time cannot exceed it.
  if (prop_s > layers.search_s)
    report.fail("propagation time exceeds the search time holding it");
  std::printf("# account: untraced solves %.6f s; traced build %.6f + "
              "search %.6f = %.6f s (overhead %+.1f%%), of which "
              "propagation %.6f s; tables %.6f s\n",
              pass_s, layers.build_s, layers.search_s, solve_s,
              (solve_s / pass_s - 1.0) * 100.0, prop_s, layers.tables_s);
  LayerValues values = {
      {"placer.tables_s", layers.tables_s * scale},
      {"placer.model_build_s", layers.build_s * scale},
      {"cp.search_s", layers.search_s * scale},
      {"cp.nodes", static_cast<double>(layers.search.nodes)},
      {"cp.fails", static_cast<double>(layers.search.fails)},
      {"cp.propagations", static_cast<double>(layers.space.propagations)},
      {"cp.nodes_per_s",
       static_cast<double>(layers.search.nodes) / (layers.search_s)},
      {"cp.proven_frac", layers.proven / static_cast<double>(layers.solves)},
      {"latency.p99_us", quantile(alt_s, 0.99) * 1e6 * scale},
      {"quality.util_base", q.util[0]},
      {"quality.util_gain_pts", (q.util[1] - q.util[0]) * 100.0},
      {"machine.ref_ms", median(p.ref_ms)},
      {"trace.overhead_frac", solve_s / pass_s - 1.0},
  };
  for (int k = 0; k < rr::cp::kNumPropKinds; ++k) {
    const std::string kind =
        rr::cp::prop_kind_name(static_cast<rr::cp::PropKind>(k));
    const auto& bucket = layers.space.by_kind[static_cast<std::size_t>(k)];
    values.push_back({"cp.prop_runs." + kind, static_cast<double>(bucket.runs)});
    values.push_back({"cp.prop_s." + kind,
                      static_cast<double>(bucket.time_ns) * 1e-9 * scale});
    values.push_back(
        {"cp.prop_fail_frac." + kind,
         bucket.runs > 0 ? static_cast<double>(bucket.failures) /
                               static_cast<double>(bucket.runs)
                         : 0.0});
  }
  values.push_back({"ops", static_cast<double>(report.attempted())});
  values.push_back({"failed_ops", static_cast<double>(report.failed())});
  add_layer_metrics(report, values);
  return 0;
}

}  // namespace perfbench
