// End-to-end stats document tests: a real solve through the Placer must
// produce an rrplace-stats-v1 document with every documented key, non-zero
// per-kind propagator buckets when metrics are enabled, and a dump that
// survives a parse round trip.
#include <gtest/gtest.h>

#include "cp/constraints.hpp"
#include "cp/space.hpp"
#include "fpga/builders.hpp"
#include "model/generator.hpp"
#include "placer/placer.hpp"
#include "placer/stats_json.hpp"
#include "util/metrics.hpp"

namespace rr::placer {
namespace {

using model::Module;
using model::ModuleGenerator;

std::shared_ptr<fpga::PartialRegion> homogeneous_region(int w, int h) {
  auto fabric =
      std::make_shared<const fpga::Fabric>(fpga::make_homogeneous(w, h));
  return std::make_shared<fpga::PartialRegion>(fabric);
}

Module rect_module(const std::string& name, int w, int h) {
  return Module(name, {ModuleGenerator::make_column_shape(w * h, 0, 1, h, 0)});
}

/// Restores the global metrics switch when a test exits.
class MetricsSwitchGuard {
 public:
  MetricsSwitchGuard() : was_(metrics::enabled()) {}
  ~MetricsSwitchGuard() { metrics::set_enabled(was_); }

 private:
  bool was_;
};

PlacementOutcome solve_sample(const fpga::PartialRegion& region,
                              const std::vector<Module>& modules) {
  PlacerOptions options;
  options.time_limit_seconds = 5.0;
  options.seed = 7;
  Placer placer(region, modules, options);
  return placer.place();
}

TEST(StatsJson, DocumentHasAllDocumentedKeys) {
  MetricsSwitchGuard guard;
  metrics::set_enabled(true);
  const auto region = homogeneous_region(8, 4);
  const std::vector<Module> modules{rect_module("a", 2, 2),
                                    rect_module("b", 3, 2),
                                    rect_module("c", 2, 3)};
  const PlacementOutcome outcome = solve_sample(*region, modules);
  ASSERT_TRUE(outcome.solution.feasible);

  json::Value config = json::Value::object();
  config.set("seed", json::Value(7));
  const json::Value doc =
      solve_stats_json(*region, modules, outcome, "stats_json_test",
                       std::move(config));

  EXPECT_EQ(doc.at("schema").as_string(), "rrplace-stats-v1");
  EXPECT_EQ(doc.at("tool").as_string(), "stats_json_test");
  EXPECT_EQ(doc.at("config").at("seed").as_number(), 7.0);

  const json::Value& search = doc.at("search");
  for (const char* key : {"nodes", "fails", "solutions", "max_depth",
                          "restarts"}) {
    EXPECT_TRUE(search.at(key).is_number()) << key;
  }
  EXPECT_TRUE(search.at("complete").is_bool());
  EXPECT_GT(search.at("nodes").as_number(), 0.0);

  const json::Value& space = doc.at("space");
  EXPECT_GT(space.at("propagations").as_number(), 0.0);
  EXPECT_TRUE(space.at("domain_changes").is_number());

  // Every PropKind gets a bucket, present even at zero.
  const json::Value& propagators = doc.at("propagators");
  EXPECT_EQ(propagators.members().size(),
            static_cast<std::size_t>(cp::kNumPropKinds));
  for (int k = 0; k < cp::kNumPropKinds; ++k) {
    const char* name = cp::prop_kind_name(static_cast<cp::PropKind>(k));
    ASSERT_TRUE(propagators.contains(name)) << name;
    const json::Value& bucket = propagators.at(name);
    for (const char* key : {"runs", "failures", "prunings", "seconds"}) {
      EXPECT_TRUE(bucket.at(key).is_number()) << name << "." << key;
    }
  }
  // The placement model always posts the geost non-overlap propagator and
  // one element constraint per module; with metrics enabled their runs and
  // time must have been attributed to the right buckets — a propagation
  // engine swap must never make a kind's bucket vanish.
#ifndef RRPLACE_DISABLE_METRICS
  EXPECT_GT(propagators.at("geost-nonoverlap").at("runs").as_number(), 0.0);
  EXPECT_GT(propagators.at("element").at("runs").as_number(), 0.0);
  EXPECT_GT(propagators.at("element").at("seconds").as_number(), 0.0);
#endif

  EXPECT_TRUE(doc.at("incumbents").is_array());

  const json::Value& result = doc.at("result");
  EXPECT_TRUE(result.at("feasible").as_bool());
  EXPECT_GT(result.at("extent").as_number(), 0.0);
  EXPECT_TRUE(result.at("optimal").is_bool());
  EXPECT_GE(result.at("seconds").as_number(), 0.0);
  const double utilization = result.at("utilization").as_number();
  EXPECT_GT(utilization, 0.0);
  EXPECT_LE(utilization, 1.0);

  EXPECT_EQ(doc.at("modules").at("count").as_number(), 3.0);
  EXPECT_EQ(doc.at("modules").at("alternatives_per_module").size(), 3u);

  EXPECT_TRUE(doc.at("metrics").at("counters").is_object());
  EXPECT_TRUE(doc.at("metrics").at("timers").is_object());
}

TEST(StatsJson, DumpRoundTripsThroughParse) {
  MetricsSwitchGuard guard;
  metrics::set_enabled(true);
  const auto region = homogeneous_region(6, 4);
  const std::vector<Module> modules{rect_module("a", 2, 2),
                                    rect_module("b", 2, 2)};
  const PlacementOutcome outcome = solve_sample(*region, modules);
  const json::Value doc =
      solve_stats_json(*region, modules, outcome, "stats_json_test");
  const json::Value parsed = json::parse(doc.dump(2));
  EXPECT_EQ(parsed.dump(), doc.dump());
  EXPECT_EQ(parsed.at("schema").as_string(), "rrplace-stats-v1");
  // An omitted config collapses to an empty object, never null.
  EXPECT_TRUE(parsed.at("config").is_object());
}

TEST(StatsJson, DisabledMetricsStillProducesValidDocument) {
  MetricsSwitchGuard guard;
  metrics::set_enabled(false);
  const auto region = homogeneous_region(6, 4);
  const std::vector<Module> modules{rect_module("a", 2, 2)};
  const PlacementOutcome outcome = solve_sample(*region, modules);
  const json::Value doc =
      solve_stats_json(*region, modules, outcome, "stats_json_test");
  // The schema keeps its shape; the per-kind buckets just stay at zero.
  EXPECT_EQ(doc.at("propagators").members().size(),
            static_cast<std::size_t>(cp::kNumPropKinds));
  EXPECT_EQ(doc.at("propagators").at("geost-nonoverlap").at("runs")
                .as_number(),
            0.0);
  EXPECT_GT(doc.at("search").at("nodes").as_number(), 0.0);
  EXPECT_GT(doc.at("space").at("propagations").as_number(), 0.0);
}

// Both engines of the element constraint — post_element and its scanning
// memory-guard fallback — must attribute their work to the same kElement
// bucket: engine choice is never a metrics schema change.
TEST(StatsJson, ElementBucketAttributedByBothEngines) {
#ifndef RRPLACE_DISABLE_METRICS
  MetricsSwitchGuard guard;
  metrics::set_enabled(true);
  for (const bool compact : {false, true}) {
    cp::Space space;
    std::vector<int> table(16);
    for (int i = 0; i < 16; ++i) table[i] = (i * 7) % 11;
    const cp::VarId index = space.new_var(0, 15);
    const cp::VarId result = space.new_var(0, 15);
    if (compact) cp::post_element(space, table, index, result);
    else cp::detail::post_scanning_element(space, table, index, result);
    ASSERT_TRUE(space.propagate());
    space.push();
    space.set_max(result, 5);
    ASSERT_TRUE(space.propagate());

    const json::Value doc = space_stats_json(space.stats());
    const json::Value& element = doc.at("propagators").at("element");
    EXPECT_GT(element.at("runs").as_number(), 0.0) << "compact=" << compact;
    EXPECT_GT(element.at("seconds").as_number(), 0.0)
        << "compact=" << compact;
  }
#endif
}

TEST(StatsJson, SearchStatsJsonMatchesInputs) {
  cp::SearchStats stats;
  stats.nodes = 12;
  stats.fails = 4;
  stats.solutions = 2;
  stats.max_depth = 6;
  stats.restarts = 3;
  stats.complete = true;
  const json::Value doc = search_stats_json(stats);
  EXPECT_EQ(doc.at("nodes").as_number(), 12.0);
  EXPECT_EQ(doc.at("fails").as_number(), 4.0);
  EXPECT_EQ(doc.at("solutions").as_number(), 2.0);
  EXPECT_EQ(doc.at("max_depth").as_number(), 6.0);
  EXPECT_EQ(doc.at("restarts").as_number(), 3.0);
  EXPECT_TRUE(doc.at("complete").as_bool());
}

}  // namespace
}  // namespace rr::placer
