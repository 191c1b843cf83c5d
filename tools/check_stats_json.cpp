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

void check_number(const Value& doc, const char* key) {
  require(doc.contains(key) && doc.at(key).is_number(),
          std::string("missing numeric key \"") + key + "\"");
}

void check_search(const Value& search) {
  for (const char* key :
       {"nodes", "fails", "solutions", "max_depth", "restarts"})
    check_number(search, key);
  require(search.contains("complete") && search.at("complete").is_bool(),
          "search.complete must be a bool");
}

void check_propagators(const Value& kinds) {
  require(kinds.is_object(), "\"propagators\" must be an object");
  for (int k = 0; k < rr::cp::kNumPropKinds; ++k) {
    const char* name =
        rr::cp::prop_kind_name(static_cast<rr::cp::PropKind>(k));
    require(kinds.contains(name),
            std::string("propagators missing kind \"") + name + "\"");
    const Value& bucket = kinds.at(name);
    for (const char* key : {"runs", "failures", "prunings", "seconds"})
      check_number(bucket, key);
  }
}

void check_stats_v1(const Value& doc) {
  require(doc.contains("tool") && doc.at("tool").is_string(),
          "missing string key \"tool\"");
  check_search(doc.at("search"));
  const Value& space = doc.at("space");
  check_number(space, "propagations");
  check_number(space, "domain_changes");
  check_propagators(doc.at("propagators"));
  require(doc.at("incumbents").is_array(), "\"incumbents\" must be an array");
  const Value& result = doc.at("result");
  require(result.at("feasible").is_bool(), "result.feasible must be a bool");
  for (const char* key : {"extent", "seconds", "utilization"})
    check_number(result, key);
  const Value& metrics = doc.at("metrics");
  require(metrics.at("counters").is_object(),
          "metrics.counters must be an object");
  require(metrics.at("timers").is_object(),
          "metrics.timers must be an object");
  // The fault section is optional (rrplace_cli faults only), but
  // when present it must carry the availability-replay contract.
  if (doc.contains("fault")) {
    const Value& fault = doc.at("fault");
    require(fault.is_object(), "\"fault\" must be an object");
    for (const char* key :
         {"events", "tiles_faulted", "modules_hit", "recovered",
          "recovered_fraction", "inplace_swaps", "local_replaces",
          "defrag_recoveries", "greedy_recoveries", "park_transitions",
          "retries", "retry_recoveries", "abandoned", "deadline_expiries",
          "relocated_modules", "relocated_tiles", "final_live",
          "final_parked", "capacity_retained", "utilization"})
      check_number(fault, key);
    const Value& cost = fault.at("recovery_cost");
    for (const char* key : {"tiles_cleared", "tiles_written",
                            "modules_loaded"})
      check_number(cost, key);
  }
  // The comm section is optional (rrplace_cli --nets only), but when
  // present it must carry the communication-model contract.
  if (doc.contains("comm")) {
    const Value& comm = doc.at("comm");
    require(comm.is_object(), "\"comm\" must be an object");
    for (const char* key : {"nets", "weight", "wirelength2"})
      check_number(comm, key);
  }
  // The service section is optional (rrplace_cli serve/soak only), but
  // when present it must carry the multi-tenant replay contract.
  if (doc.contains("service")) {
    const Value& service = doc.at("service");
    require(service.is_object(), "\"service\" must be an object");
    for (const char* key :
         {"requests", "placed", "rejected", "removed", "fault_events",
          "errors", "batches", "batched_requests", "tenants", "workers",
          "seconds", "throughput_rps"})
      check_number(service, key);
    const Value& cache = service.at("cache");
    for (const char* key : {"hits", "misses", "invalidations", "evictions",
                            "entries", "hit_rate"})
      check_number(cache, key);
    const Value& latency = service.at("latency");
    for (const char* key : {"count", "mean_ms", "p50_ms", "p99_ms", "max_ms"})
      check_number(latency, key);
    // Submit-to-completion latency split: time inside Tenant::apply vs
    // queue wait (total = service + queue per request).
    for (const char* section : {"latency_service", "latency_queue"}) {
      const Value& split = service.at(section);
      for (const char* key : {"mean_ms", "p50_ms", "p99_ms", "max_ms"})
        check_number(split, key);
    }
    // Admission/shed accounting (overload control).
    const Value& shed = service.at("shed");
    for (const char* key : {"submitted", "completed", "deadline", "quota",
                            "queue", "stopped", "submit_retries", "shed_rate"})
      check_number(shed, key);
  }
  // The soak section is optional (rrplace_cli soak only), but when
  // present it must carry the invariant-audit contract.
  if (doc.contains("soak")) {
    const Value& soak = doc.at("soak");
    require(soak.is_object(), "\"soak\" must be an object");
    for (const char* key :
         {"requests", "epochs", "violations", "final_live", "lost",
          "min_tenant_completed_fraction"})
      check_number(soak, key);
  }
}

// A bench result is either a plain number or a {count,mean,min,max}
// RunningStats summary with a numeric mean.
void check_result_metric(const Value& results, const std::string& key) {
  require(results.contains(key), "results missing key \"" + key + "\"");
  const Value& v = results.at(key);
  if (v.is_object()) {
    check_number(v, "mean");
  } else {
    require(v.is_number(),
            "results." + key + " must be a number or summary object");
  }
}

// The relocation pipeline's stage metrics (runtime::LiveLayout::relocate):
// optional — records older than them, or taken with metrics compiled out,
// lack them — but each one present has the documented shape.
void check_relocate_stages(const Value& metrics) {
  const Value& timers = metrics.at("timers");
  for (const char* stage : {"candidates", "tables", "build", "search"}) {
    const std::string name = std::string("layout.relocate.") + stage;
    if (!timers.contains(name)) continue;
    require(timers.at(name).is_object(), name + " must be a timer object");
    for (const char* key : {"count", "seconds"})
      check_number(timers.at(name), key);
  }
  const Value& counters = metrics.at("counters");
  for (const char* name :
       {"layout.relocate.sets_tried", "layout.relocate.sets_refuted"})
    require(!counters.contains(name) || counters.at(name).is_number(),
            std::string(name) + " must be a number");
}

void check_bench_v1(const Value& doc) {
  require(doc.contains("bench") && doc.at("bench").is_string(),
          "missing string key \"bench\"");
  require(doc.at("config").is_object(), "\"config\" must be an object");
  require(doc.at("results").is_object(), "\"results\" must be an object");
  const Value& metrics = doc.at("metrics");
  require(metrics.at("counters").is_object(),
          "metrics.counters must be an object");
  require(metrics.at("timers").is_object(),
          "metrics.timers must be an object");
  // Every pin names a numeric or summary result and a direction.
  const Value& gate = doc.at("gate");
  check_number(gate, "max_regression_pct");
  require(gate.at("pins").is_object(), "gate.pins must be an object");
  for (const auto& [key, direction] : gate.at("pins").members()) {
    check_result_metric(doc.at("results"), key);
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
    check_stats_v1(doc);
  } else if (schema == "rrplace-bench-v1") {
    check_bench_v1(doc);
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
