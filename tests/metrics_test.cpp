// Observability layer tests: the JSON document model, the counter/timer
// registry (reset, merge, disabled-mode no-op), and the per-propagator-kind
// instrumentation of Space::propagate.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "cp/brancher.hpp"
#include "cp/constraints.hpp"
#include "cp/search.hpp"
#include "cp/space.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"

namespace rr {
namespace {

/// Restores the global metrics switch when a test exits.
class MetricsSwitchGuard {
 public:
  MetricsSwitchGuard() : was_(metrics::enabled()) {}
  ~MetricsSwitchGuard() { metrics::set_enabled(was_); }

 private:
  bool was_;
};

// --- JSON document model ----------------------------------------------------

TEST(Json, BuildsAndDumpsCompact) {
  json::Value doc = json::Value::object();
  doc.set("n", json::Value(42));
  doc.set("name", json::Value("solver"));
  doc.set("ok", json::Value(true));
  json::Value list = json::Value::array();
  list.push_back(json::Value(1));
  list.push_back(json::Value(2.5));
  doc.set("xs", std::move(list));
  EXPECT_EQ(doc.dump(), R"({"n":42,"name":"solver","ok":true,"xs":[1,2.5]})");
}

TEST(Json, RoundTripsThroughParse) {
  json::Value doc = json::Value::object();
  doc.set("counters", json::Value::object());
  doc["counters"].set("placer.solves", json::Value(3));
  doc.set("text", json::Value("line\n\"quoted\"\ttab"));
  doc.set("negative", json::Value(-17.25));
  doc.set("none", json::Value());

  const json::Value parsed = json::parse(doc.dump(2));
  EXPECT_EQ(parsed.at("counters").at("placer.solves").as_number(), 3.0);
  EXPECT_EQ(parsed.at("text").as_string(), "line\n\"quoted\"\ttab");
  EXPECT_EQ(parsed.at("negative").as_number(), -17.25);
  EXPECT_TRUE(parsed.at("none").is_null());
  // Serialization is stable: dump(parse(dump(x))) == dump(x).
  EXPECT_EQ(parsed.dump(), doc.dump());
}

TEST(Json, ParsesInterchangeForms) {
  const json::Value doc =
      json::parse(R"(  {"a": [true, false, null, 1e3], "b": "A"} )");
  EXPECT_EQ(doc.at("a").size(), 4u);
  EXPECT_TRUE(doc.at("a").at(0).as_bool());
  EXPECT_EQ(doc.at("a").at(3).as_number(), 1000.0);
  EXPECT_EQ(doc.at("b").as_string(), "A");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(json::parse("{"), InvalidInput);
  EXPECT_THROW(json::parse("[1,]"), InvalidInput);
  EXPECT_THROW(json::parse("{\"a\":1} trailing"), InvalidInput);
  EXPECT_THROW(json::parse("nul"), InvalidInput);
  EXPECT_THROW(json::parse("\"unterminated"), InvalidInput);
}

TEST(Json, TypedAccessorsEnforceTypes) {
  const json::Value doc = json::parse(R"({"n": 1})");
  EXPECT_THROW((void)doc.at("n").as_string(), InvalidInput);
  EXPECT_THROW((void)doc.at("missing"), InvalidInput);
  EXPECT_FALSE(doc.contains("missing"));
}

// --- Registry ---------------------------------------------------------------

TEST(MetricsRegistry, CountsAndResets) {
  MetricsSwitchGuard guard;
  metrics::set_enabled(true);
  metrics::Registry registry;
  registry.add("a.counter");
  registry.add("a.counter", 4);
  registry.add("b.counter", 2);
  EXPECT_EQ(registry.counter("a.counter"), 5u);
  EXPECT_EQ(registry.counter("b.counter"), 2u);
  EXPECT_EQ(registry.counter("absent"), 0u);
  registry.reset();
  EXPECT_TRUE(registry.empty());
  EXPECT_EQ(registry.counter("a.counter"), 0u);
}

TEST(MetricsRegistry, DisabledModeIsANoOp) {
  MetricsSwitchGuard guard;
  metrics::set_enabled(false);
  metrics::Registry registry;
  registry.add("a.counter", 100);
  registry.record_time("a.timer", 1000);
  {
    metrics::ScopedTimer timer(registry, "scoped.timer");
  }
  EXPECT_TRUE(registry.empty());
  EXPECT_EQ(registry.timer("a.timer").count, 0u);
}

TEST(MetricsRegistry, MergesAcrossWorkers) {
  MetricsSwitchGuard guard;
  metrics::set_enabled(true);
  // One registry per portfolio worker, folded into a total at the end.
  metrics::Registry worker0;
  metrics::Registry worker1;
  worker0.add("nodes", 10);
  worker0.record_time("solve", 500);
  worker1.add("nodes", 32);
  worker1.add("fails", 7);
  worker1.record_time("solve", 1500);

  metrics::Registry total;
  total.merge(worker0);
  total.merge(worker1);
  EXPECT_EQ(total.counter("nodes"), 42u);
  EXPECT_EQ(total.counter("fails"), 7u);
  EXPECT_EQ(total.timer("solve").count, 2u);
  EXPECT_EQ(total.timer("solve").total_ns, 2000u);
}

TEST(MetricsRegistry, ThreadShardRedirectsGlobal) {
  MetricsSwitchGuard guard;
  metrics::set_enabled(true);
  metrics::Registry shard;
  EXPECT_EQ(&metrics::global(), &metrics::process());
  {
    metrics::ThreadShard redirect(shard);
    EXPECT_EQ(&metrics::global(), &shard);
    metrics::global().add("sharded.counter", 3);
    {
      metrics::Registry inner;
      metrics::ThreadShard nested(inner);
      EXPECT_EQ(&metrics::global(), &inner);
    }
    EXPECT_EQ(&metrics::global(), &shard);  // nesting restores
  }
  EXPECT_EQ(&metrics::global(), &metrics::process());
  EXPECT_EQ(shard.counter("sharded.counter"), 3u);
  EXPECT_EQ(metrics::process().counter("sharded.counter"), 0u);
}

TEST(MetricsRegistry, ConcurrentShardedRecordingIsExact) {
  // The service-worker pattern: each thread records through global() into
  // its own shard; the merged snapshot must account for every event exactly
  // (and TSan must see no race). Deliberately hammers one shared registry
  // from all threads as well — the documented per-call locking contract.
  MetricsSwitchGuard guard;
  metrics::set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kEvents = 2000;
  std::vector<metrics::Registry> shards(kThreads);
  metrics::Registry shared;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      metrics::ThreadShard redirect(shards[static_cast<std::size_t>(t)]);
      for (int i = 0; i < kEvents; ++i) {
        metrics::global().add("worker.events");
        metrics::global().record_time("worker.time", 5);
        shared.add("shared.events");
        shared.record_time("shared.time", 7);
      }
    });
  }
  // Concurrent snapshots must be consistent (never torn) while recording
  // is in flight.
  for (int i = 0; i < 50; ++i) {
    const json::Value snapshot = shared.to_json();
    EXPECT_TRUE(snapshot.at("counters").is_object());
  }
  for (std::thread& thread : threads) thread.join();

  metrics::Registry total;
  for (const metrics::Registry& shard : shards) total.merge(shard);
  EXPECT_EQ(total.counter("worker.events"),
            static_cast<std::uint64_t>(kThreads) * kEvents);
  EXPECT_EQ(total.timer("worker.time").count,
            static_cast<std::uint64_t>(kThreads) * kEvents);
  EXPECT_EQ(total.timer("worker.time").total_ns,
            static_cast<std::uint64_t>(kThreads) * kEvents * 5);
  EXPECT_EQ(shared.counter("shared.events"),
            static_cast<std::uint64_t>(kThreads) * kEvents);
  EXPECT_EQ(shared.timer("shared.time").total_ns,
            static_cast<std::uint64_t>(kThreads) * kEvents * 7);
}

TEST(MetricsRegistry, ScopedTimerRecordsWallTime) {
  MetricsSwitchGuard guard;
  metrics::set_enabled(true);
  metrics::Registry registry;
  {
    metrics::ScopedTimer timer(registry, "scope");
  }
  EXPECT_EQ(registry.timer("scope").count, 1u);
}

TEST(MetricsRegistry, SnapshotJsonHasDocumentedShape) {
  MetricsSwitchGuard guard;
  metrics::set_enabled(true);
  metrics::Registry registry;
  registry.add("z.last", 1);
  registry.add("a.first", 2);
  registry.record_time("t", 2500000000ull);  // 2.5 s

  const json::Value doc = json::parse(registry.to_json().dump());
  EXPECT_EQ(doc.at("counters").at("a.first").as_number(), 2.0);
  EXPECT_EQ(doc.at("counters").at("z.last").as_number(), 1.0);
  // Keys are sorted for stable output.
  EXPECT_EQ(doc.at("counters").members().front().first, "a.first");
  EXPECT_EQ(doc.at("timers").at("t").at("count").as_number(), 1.0);
  EXPECT_NEAR(doc.at("timers").at("t").at("seconds").as_number(), 2.5, 1e-9);
}

// --- Per-propagator-kind space instrumentation ------------------------------

/// x + y == 6, x != y over [0,5]^2; posts linear + rel propagators.
cp::VarId build_small_model(cp::Space& space) {
  const cp::VarId x = space.new_var(0, 5);
  const cp::VarId y = space.new_var(0, 5);
  const std::vector<cp::VarId> vars{x, y};
  const std::vector<int> coeffs{1, 1};
  cp::post_linear(space, coeffs, vars, cp::RelOp::kEq, 6);
  cp::post_rel(space, x, cp::RelOp::kNeq, y);
  return x;
}

TEST(SpaceKindStats, CollectsPerKindCountersWhenEnabled) {
#ifdef RRPLACE_DISABLE_METRICS
  GTEST_SKIP() << "metrics compiled out (RRPLACE_METRICS=OFF)";
#endif
  MetricsSwitchGuard guard;
  metrics::set_enabled(true);
  cp::Space space;  // snapshots the enabled flag now
  const cp::VarId x = build_small_model(space);
  ASSERT_TRUE(space.propagate());
  space.push();
  space.assign(x, 1);
  ASSERT_TRUE(space.propagate());

  const auto& linear =
      space.stats().by_kind[static_cast<int>(cp::PropKind::kLinear)];
  EXPECT_GT(linear.runs, 0u);
  EXPECT_GT(linear.prunings, 0u);  // assigning x forces y = 5
  const auto& rel =
      space.stats().by_kind[static_cast<int>(cp::PropKind::kRel)];
  EXPECT_GT(rel.runs, 0u);
  // Kind totals never exceed the global propagation count.
  std::uint64_t kind_runs = 0;
  for (const auto& bucket : space.stats().by_kind) kind_runs += bucket.runs;
  EXPECT_EQ(kind_runs, space.stats().propagations);
}

TEST(SpaceKindStats, CountsFailures) {
#ifdef RRPLACE_DISABLE_METRICS
  GTEST_SKIP() << "metrics compiled out (RRPLACE_METRICS=OFF)";
#endif
  MetricsSwitchGuard guard;
  metrics::set_enabled(true);
  cp::Space space;
  const cp::VarId x = build_small_model(space);
  ASSERT_TRUE(space.propagate());
  space.push();
  space.assign(x, 3);  // forces y = 3, violating x != y
  EXPECT_FALSE(space.propagate());
  std::uint64_t failures = 0;
  for (const auto& bucket : space.stats().by_kind)
    failures += bucket.failures;
  EXPECT_GE(failures, 1u);
}

TEST(SpaceKindStats, DisabledModeLeavesBucketsEmpty) {
  MetricsSwitchGuard guard;
  metrics::set_enabled(false);
  cp::Space space;
  const cp::VarId x = build_small_model(space);
  ASSERT_TRUE(space.propagate());
  space.push();
  space.assign(x, 1);
  ASSERT_TRUE(space.propagate());
  EXPECT_GT(space.stats().propagations, 0u);  // coarse counters stay on
  for (const auto& bucket : space.stats().by_kind) {
    EXPECT_EQ(bucket.runs, 0u);
    EXPECT_EQ(bucket.time_ns, 0u);
  }
}

TEST(SpaceKindStats, MergeSumsBuckets) {
  cp::SpaceStats a;
  a.propagations = 3;
  a.by_kind[0].runs = 2;
  a.by_kind[0].time_ns = 10;
  cp::SpaceStats b;
  b.propagations = 4;
  b.by_kind[0].runs = 5;
  b.by_kind[0].failures = 1;
  a.merge(b);
  EXPECT_EQ(a.propagations, 7u);
  EXPECT_EQ(a.by_kind[0].runs, 7u);
  EXPECT_EQ(a.by_kind[0].failures, 1u);
  EXPECT_EQ(a.by_kind[0].time_ns, 10u);
}

TEST(SearchStatsMerge, SumsCountersAndOrsComplete) {
  cp::SearchStats a;
  a.nodes = 10;
  a.fails = 2;
  a.max_depth = 3;
  cp::SearchStats b;
  b.nodes = 5;
  b.solutions = 1;
  b.max_depth = 7;
  b.restarts = 2;
  b.complete = true;
  a.merge(b);
  EXPECT_EQ(a.nodes, 15u);
  EXPECT_EQ(a.fails, 2u);
  EXPECT_EQ(a.solutions, 1u);
  EXPECT_EQ(a.max_depth, 7);
  EXPECT_EQ(a.restarts, 2u);
  EXPECT_TRUE(a.complete);
}

TEST(SearchStats, RestartEngineCountsRestarts) {
  // Minimize x subject to x + y == 6 with a tiny fail budget so the
  // geometric schedule needs at least one restart to finish.
  cp::Space space;
  const cp::VarId x = space.new_var(0, 5);
  const cp::VarId y = space.new_var(0, 5);
  const std::vector<cp::VarId> vars{x, y};
  const std::vector<int> coeffs{1, 1};
  cp::post_linear(space, coeffs, vars, cp::RelOp::kEq, 6);
  const auto make_brancher = [&](int) {
    return std::make_unique<cp::BasicBrancher>(
        vars, cp::VarSelect::kInputOrder, cp::ValSelect::kMax);
  };
  const std::vector<cp::VarId> report{x, y};
  const cp::MinimizeResult result = cp::minimize_with_restarts(
      space, make_brancher, x, report, {}, cp::RestartOptions{1, 1.5});
  EXPECT_TRUE(result.found);
  EXPECT_TRUE(result.stats.complete);
  EXPECT_GE(result.stats.restarts, 1u);
}

}  // namespace
}  // namespace rr
