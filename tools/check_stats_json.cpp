// Schema validator for observability output — the CI gate that keeps
// emitted statistics machine-readable.
//
//   check_stats_json <file.json> [...]
//
// Accepts two document families:
//   - rrplace-stats-v1 (rrplace_cli --stats-json, placer::solve_stats_json)
//   - rrplace-bench-v1 (bench harness records, bench_common.hpp)
// Exits 0 when every file parses and carries the documented keys; prints
// the first problem and exits 1 otherwise.
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <sstream>
#include <string>

#include "cp/types.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace {

using rr::json::Value;

void require(bool ok, const std::string& what) {
  if (!ok) throw rr::InvalidInput(what);
}

/// An object of the document and its dotted name ("online.defrag."), so
/// every message locates a missing key by its full path.
struct Section {
  const Value& value;
  std::string path;

  /// The object under `key`.
  Section object(const std::string& key) const {
    require(value.contains(key) && value.at(key).is_object(),
            "missing object key \"" + path + key + "\"");
    return {value.at(key), path + key + "."};
  }

  void numbers(std::initializer_list<const char*> keys) const {
    for (const char* key : keys)
      require(value.contains(key) && value.at(key).is_number(),
              "missing numeric key \"" + path + key + "\"");
  }

  void boolean(const char* key) const {
    require(value.contains(key) && value.at(key).is_bool(),
            "missing bool key \"" + path + key + "\"");
  }

  void string(const char* key) const {
    require(value.contains(key) && value.at(key).is_string(),
            "missing string key \"" + path + key + "\"");
  }
};

Section check_metrics(const Section& doc) {
  const Section metrics = doc.object("metrics");
  metrics.object("counters");
  metrics.object("timers");
  return metrics;
}

void check_stats_v1(const Section& doc) {
  doc.string("tool");
  const Section search = doc.object("search");
  search.numbers({"nodes", "fails", "solutions", "max_depth", "restarts"});
  search.boolean("complete");
  doc.object("space").numbers({"propagations", "domain_changes"});
  const Section kinds = doc.object("propagators");
  for (int k = 0; k < rr::cp::kNumPropKinds; ++k)
    kinds.object(rr::cp::prop_kind_name(static_cast<rr::cp::PropKind>(k)))
        .numbers({"runs", "failures", "prunings", "seconds"});
  require(doc.value.contains("incumbents") &&
              doc.value.at("incumbents").is_array(),
          "missing array key \"incumbents\"");
  const Section result = doc.object("result");
  result.boolean("feasible");
  result.numbers({"extent", "seconds", "utilization"});
  check_metrics(doc);
  // The fault section is optional (rrplace_cli faults only), but
  // when present it must carry the availability-replay contract.
  if (doc.value.contains("fault")) {
    const Section fault = doc.object("fault");
    fault.numbers({"events", "tiles_faulted", "modules_hit", "recovered",
                   "recovered_fraction", "inplace_swaps", "local_replaces",
                   "defrag_recoveries", "greedy_recoveries",
                   "park_transitions", "retries", "retry_recoveries",
                   "abandoned", "deadline_expiries", "relocated_modules",
                   "relocated_tiles", "final_live", "final_parked",
                   "capacity_retained", "utilization"});
    fault.object("recovery_cost")
        .numbers({"tiles_cleared", "tiles_written", "modules_loaded"});
  }
  // The online section is optional (rrplace_cli online only), but when
  // present it must carry the trace-replay contract, defrag telemetry and
  // relocation cost included.
  if (doc.value.contains("online")) {
    const Section online = doc.object("online");
    online.numbers({"places", "removes", "accepted", "rejected",
                    "acceptance_ratio", "final_live", "final_occupancy"});
    online.object("defrag").numbers(
        {"attempts", "successes", "exact_successes", "greedy_successes",
         "relocated_modules", "relocated_tiles", "deadline_expiries",
         "rejects", "retry_skips", "budget_skips"});
    online.object("relocation")
        .numbers({"tiles_cleared", "tiles_written", "modules_moved"});
  }
  // The comm section is optional (rrplace_cli --nets only), but when
  // present it must carry the communication-model contract.
  if (doc.value.contains("comm"))
    doc.object("comm").numbers({"nets", "weight", "wirelength2"});
  // The service section is optional (rrplace_cli serve/soak only), but
  // when present it must carry the multi-tenant replay contract.
  if (doc.value.contains("service")) {
    const Section service = doc.object("service");
    service.numbers({"requests", "placed", "rejected", "removed",
                     "fault_events", "errors", "batches", "batched_requests",
                     "tenants", "workers", "seconds", "throughput_rps"});
    service.object("cache").numbers({"hits", "misses", "invalidations",
                                     "evictions", "entries", "hit_rate"});
    service.object("latency")
        .numbers({"count", "mean_ms", "p50_ms", "p99_ms", "max_ms"});
    // Submit-to-completion latency split: time inside Tenant::apply vs
    // queue wait (total = service + queue per request).
    for (const char* split : {"latency_service", "latency_queue"})
      service.object(split).numbers({"mean_ms", "p50_ms", "p99_ms", "max_ms"});
    // Admission/shed accounting (overload control).
    service.object("shed").numbers({"submitted", "completed", "deadline",
                                    "quota", "queue", "stopped",
                                    "submit_retries", "shed_rate"});
  }
  // The soak section is optional (rrplace_cli soak only), but when
  // present it must carry the invariant-audit contract.
  if (doc.value.contains("soak"))
    doc.object("soak").numbers({"requests", "epochs", "violations",
                                "final_live", "lost",
                                "min_tenant_completed_fraction"});
}

// A bench result is either a plain number or a {count,mean,min,max}
// RunningStats summary with a numeric mean.
void check_result_metric(const Section& results, const std::string& key) {
  require(results.value.contains(key), "results missing key \"" + key + "\"");
  const Value& v = results.value.at(key);
  if (v.is_object()) {
    results.object(key).numbers({"mean"});
  } else {
    require(v.is_number(),
            "results." + key + " must be a number or summary object");
  }
}

// The relocation pipeline's stage metrics (runtime::LiveLayout::relocate):
// optional — records older than them, or taken with metrics compiled out,
// lack them — but each one present has the documented shape.
void check_relocate_stages(const Section& metrics) {
  const Section timers = metrics.object("timers");
  for (const char* stage : {"candidates", "tables", "build", "search"}) {
    const std::string name = std::string("layout.relocate.") + stage;
    if (timers.value.contains(name))
      timers.object(name).numbers({"count", "seconds"});
  }
  const Value& counters = metrics.value.at("counters");
  for (const char* name :
       {"layout.relocate.sets_tried", "layout.relocate.sets_refuted"})
    require(!counters.contains(name) || counters.at(name).is_number(),
            std::string(name) + " must be a number");
}

void check_bench_v1(const Section& doc) {
  doc.string("bench");
  doc.object("config");
  const Section results = doc.object("results");
  const Section metrics = check_metrics(doc);
  // Every pin names a numeric or summary result and a direction.
  const Section gate = doc.object("gate");
  gate.numbers({"max_regression_pct"});
  for (const auto& [key, direction] : gate.object("pins").value.members()) {
    check_result_metric(results, key);
    const std::string dir = direction.is_string() ? direction.as_string() : "";
    require(dir == "higher" || dir == "lower",
            "gate.pins." + key + " must be \"higher\" or \"lower\"");
  }
  check_relocate_stages(metrics);
}

void check_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw rr::InvalidInput("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const Value doc = rr::json::parse(buffer.str());
  require(doc.is_object(), "document root must be an object");
  const std::string schema =
      doc.contains("schema") && doc.at("schema").is_string()
          ? doc.at("schema").as_string()
          : "";
  if (schema == "rrplace-stats-v1") {
    check_stats_v1({doc, ""});
  } else if (schema == "rrplace-bench-v1") {
    check_bench_v1({doc, ""});
  } else {
    throw rr::InvalidInput("unknown or missing \"schema\": \"" + schema +
                           "\"");
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: check_stats_json <file.json> [...]\n";
    return 2;
  }
  int failures = 0;
  for (int i = 1; i < argc; ++i) {
    try {
      check_file(argv[i]);
      std::cout << argv[i] << ": ok\n";
    } catch (const std::exception& e) {
      std::cerr << argv[i] << ": FAIL: " << e.what() << '\n';
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
