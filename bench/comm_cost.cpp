// Communication-aware placement: wirelength and acceptance under churn.
//
// The inter-module communication model (src/comm/net) prices a placement by
// the weighted half-perimeter wirelength of its nets. This bench replays
// identical arrival/departure traces through the online placer under the
// area-only first-fit policy and under the commcost anchor policy, and
// reports the live-wirelength reduction the communication term buys and
// what it costs in acceptance.
//
// wirelength_reduction is the headline claim: the comm term buys shorter
// nets at equal-or-better acceptance. Two differential oracles ride along,
// both held at zero:
//   - zero_weight_mismatches: the commcost policy with comm_weight = 0 must
//     take byte-identical decisions to first fit (the zero-weight oracle);
//   - index_sweep_mismatches: the production placer (free-space index) and
//     the reference bitmap-sweep placer of tests/reference must pick
//     identical anchors under the commcost policy (the pinned tie-breaking
//     contract).
#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "reference/admission.hpp"
#include "util/rng.hpp"

namespace {

/// One request's observable outcome; (shape, x, y) only valid if accepted.
struct StepOutcome {
  bool accepted = false;
  int shape = 0;
  int x = 0;
  int y = 0;

  bool operator==(const StepOutcome&) const = default;
};

struct TraceResult {
  std::vector<StepOutcome> steps;
  double acceptance = 0.0;
  double mean_wirelength2 = 0.0;
};

/// Chain nets over the generated pool (m00 -> m01 -> ...), plus every
/// fourth module streaming to a fixed left-edge terminal (an IO pad).
rr::comm::NetList make_nets(const std::vector<rr::model::Module>& pool,
                            int height) {
  rr::comm::NetList nets;
  for (std::size_t i = 0; i + 1 < pool.size(); ++i) {
    rr::comm::Net net;
    net.weight = static_cast<long>(i % 3 + 1);
    net.modules = {pool[i].name(), pool[i + 1].name()};
    nets.nets.push_back(std::move(net));
  }
  for (std::size_t i = 0; i < pool.size(); i += 4) {
    rr::comm::Net net;
    net.weight = 2;
    net.modules = {pool[i].name()};
    net.terminals.push_back(rr::Point{0, height / 2});
    nets.nets.push_back(std::move(net));
  }
  return nets;
}

/// Replay the churn trace derived from `seed` (identical across
/// configurations); wirelength is sampled over the live set after every
/// step.
template <typename Placer>
TraceResult replay_trace(Placer& placer,
                         const std::vector<rr::model::Module>& pool,
                         const rr::comm::NetList& nets, std::uint64_t seed,
                         int steps) {
  rr::Rng rng(seed ^ 0xC0117);
  std::vector<int> live;
  std::unordered_map<int, const rr::model::Module*> live_modules;
  int requests = 0, accepted = 0, next_id = 0;
  rr::RunningStats wirelength;
  TraceResult result;
  for (int step = 0; step < steps; ++step) {
    if (live.empty() || rng.chance(0.55)) {
      ++requests;
      const auto& module = pool[rng.pick_index(pool)];
      const auto placement = placer.place(next_id, module);
      StepOutcome outcome;
      outcome.accepted = placement.has_value();
      if (placement) {
        outcome.shape = placement->shape;
        outcome.x = placement->x;
        outcome.y = placement->y;
        live.push_back(next_id);
        live_modules[next_id] = &module;
        ++accepted;
      }
      result.steps.push_back(outcome);
      ++next_id;
    } else {
      const std::size_t pick = rng.pick_index(live);
      placer.remove(live[pick]);
      live_modules.erase(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    // Positions from the placer (not the admission answer): a defrag pass,
    // when enabled, may have relocated live instances.
    std::vector<rr::comm::NamedPin> pins;
    pins.reserve(live_modules.size());
    for (const auto& p : placer.live_placements()) {
      const rr::model::Module* module = live_modules.at(p.module);
      const rr::Rect box =
          module->shapes()[static_cast<std::size_t>(p.shape)].bounding_box();
      pins.push_back(rr::comm::NamedPin{module->name(),
                                        rr::comm::center2(box, p.x, p.y)});
    }
    wirelength.add(
        static_cast<double>(rr::comm::pins_wirelength2(nets, pins)));
  }
  result.acceptance =
      requests > 0 ? static_cast<double>(accepted) / requests : 0.0;
  result.mean_wirelength2 = wirelength.mean();
  return result;
}

long count_mismatches(const TraceResult& a, const TraceResult& b) {
  if (a.steps.size() != b.steps.size())
    return static_cast<long>(std::max(a.steps.size(), b.steps.size()));
  long mismatches = 0;
  for (std::size_t i = 0; i < a.steps.size(); ++i)
    if (!(a.steps[i] == b.steps[i])) ++mismatches;
  return mismatches;
}

}  // namespace

int main() {
  using namespace rr;
  const bench::EvalConfig config = bench::EvalConfig::from_env();
  bench::StatsJsonWriter record("comm_cost", config, /*max_regression_pct=*/50);
  config.print(std::cout);
  const int steps = env_int("RRPLACE_STEPS", 400);
  const long comm_weight = env_int("RRPLACE_COMM_WEIGHT", 8);

  RunningStats accept_ff, accept_comm, wl_ff, wl_comm, reduction;
  long requests = 0, zero_weight_mismatches = 0, index_sweep_mismatches = 0;
  for (int run = 0; run < config.runs; ++run) {
    const std::uint64_t seed = config.seed + static_cast<std::uint64_t>(run);
    const auto region = bench::make_eval_region(seed, config.modules);
    model::ModuleGenerator generator(bench::paper_workload_params(), seed);
    const auto pool = generator.generate_many(config.modules);
    const auto nets = std::make_shared<const comm::NetList>(
        make_nets(pool, region->height()));

    // Four configurations over the identical trace: area-only first fit,
    // commcost on the production placer and on the reference sweep placer,
    // and commcost at weight zero.
    TraceResult first_fit, comm_index, comm_sweep, zero_weight;
    for (const int variant : {0, 1, 2, 3}) {
      baseline::OnlineOptions options;
      if (variant >= 1) {
        options.policy = AnchorPolicy::kCommCost;
        options.nets = nets;
        options.comm_weight = variant == 3 ? 0 : comm_weight;
      }
      if (variant == 2) {
        reference::SweepPlacer placer(*region, options);
        comm_sweep = replay_trace(placer, pool, *nets, seed, steps);
        continue;
      }
      baseline::OnlinePlacer placer(*region, options);
      TraceResult result = replay_trace(placer, pool, *nets, seed, steps);
      switch (variant) {
        case 0: first_fit = std::move(result); break;
        case 1: comm_index = std::move(result); break;
        case 3: zero_weight = std::move(result); break;
      }
    }
    requests += static_cast<long>(first_fit.steps.size());
    accept_ff.add(first_fit.acceptance);
    accept_comm.add(comm_index.acceptance);
    wl_ff.add(first_fit.mean_wirelength2);
    wl_comm.add(comm_index.mean_wirelength2);
    if (first_fit.mean_wirelength2 > 0.0)
      reduction.add(1.0 -
                    comm_index.mean_wirelength2 / first_fit.mean_wirelength2);
    index_sweep_mismatches += count_mismatches(comm_index, comm_sweep);
    zero_weight_mismatches += count_mismatches(first_fit, zero_weight);
  }

  TextTable table({"Policy", "Acceptance", "Mean live wirelength2"});
  table.add_row({"first fit (area only)", TextTable::pct(accept_ff.mean()),
                 TextTable::num(wl_ff.mean(), 1)});
  table.add_row({"commcost (w=" + std::to_string(comm_weight) + ")",
                 TextTable::pct(accept_comm.mean()),
                 TextTable::num(wl_comm.mean(), 1)});
  table.print(std::cout, "Communication-aware online placement (" +
                             std::to_string(steps) + " steps)");
  std::cout << "wirelength reduction: " << TextTable::pct(reduction.mean())
            << "  zero-weight mismatches: " << zero_weight_mismatches
            << "  index-vs-sweep mismatches: " << index_sweep_mismatches
            << '\n';

  record.add_result("requests", json::Value(requests));
  record.add_result("acceptance_first_fit", accept_ff);
  record.add_result("acceptance_comm", accept_comm);
  record.pin("acceptance_comm", bench::Better::kHigher);
  record.add_result("wirelength2_first_fit", wl_ff);
  record.add_result("wirelength2_comm", wl_comm);
  record.add_result("wirelength_reduction", reduction);
  record.pin("wirelength_reduction", bench::Better::kHigher);
  record.add_result("zero_weight_mismatches",
                    json::Value(zero_weight_mismatches));
  record.pin("zero_weight_mismatches", bench::Better::kLower);
  record.add_result("index_sweep_mismatches",
                    json::Value(index_sweep_mismatches));
  record.pin("index_sweep_mismatches", bench::Better::kLower);
  return 0;
}
