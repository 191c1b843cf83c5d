// Benchmark trajectory gate — compare a bench record with its committed
// baseline.
//
//   bench_diff <baseline.json> <current.json>
//
// What is gated comes from the baseline's "gate" object, which the bench
// itself writes (bench::StatsJsonWriter::pin in bench/bench_common.hpp):
//
//   "gate": {"max_regression_pct": 25,
//            "pins": {"speedup": "higher", "mismatches": "lower"}}
//
// Each pin names a key under "results" (a {count,mean,min,max} summary
// resolves to its "mean") and the direction that counts as better. The tool
// prints a comparison table and exits 1 when any pinned metric regressed by
// more than max_regression_pct percent.
//
// A baseline of exactly 0 switches to an absolute check: for "lower" pins
// the current value must stay 0 (a mismatch count may never grow), for
// "higher" pins any value passes.
//
// The records must be comparable, or the tool exits 2 naming the field:
// the same "bench", the same "config" (scale, seed and SIMD dispatch
// level), the same "gate" (so a changed pin set or bound needs a
// re-recorded baseline), and every "results" key of the baseline present in
// the current record.
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "util/error.hpp"
#include "util/json.hpp"

namespace {

using rr::json::Value;

void require(bool ok, const std::string& what) {
  if (!ok) throw rr::InvalidInput(what);
}

Value load(const std::string& path) {
  std::ifstream in(path);
  require(static_cast<bool>(in), "cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Value doc = rr::json::parse(buffer.str());
  require(doc.is_object() && doc.contains("schema") &&
              doc.at("schema").is_string() &&
              doc.at("schema").as_string() == "rrplace-bench-v1",
          path + ": not an rrplace-bench-v1 record");
  for (const char* key : {"bench", "config", "gate", "results"})
    require(doc.contains(key), path + ": missing \"" + key + "\"");
  return doc;
}

/// Throws naming the first field under `field` where the records disagree.
void require_same(const Value& base, const Value& cur,
                  const std::string& field) {
  if (base.is_object() && cur.is_object()) {
    for (const auto& [key, value] : base.members()) {
      require(cur.contains(key),
              field + "." + key + " is missing from the current record");
      require_same(value, cur.at(key), field + "." + key);
    }
    for (const auto& [key, value] : cur.members())
      require(base.contains(key),
              field + "." + key + " is missing from the baseline");
    return;
  }
  const std::string was = base.dump(), now = cur.dump();
  require(was == now, field + " differs: baseline " + was + ", current " + now);
}

/// The pinned value: results.<key>, or its "mean" when it is a summary.
double resolve(const Value& doc, const std::string& key) {
  const Value* node = &doc.at("results").at(key);
  if (node->is_object() && node->contains("mean")) node = &node->at("mean");
  require(node->is_number(), "results." + key + " is not numeric");
  return node->as_number();
}

std::string fmt(double v) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(3) << v;
  return out.str();
}

int run(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    require(argv[i][0] != '-', "unknown flag \"" + std::string(argv[i]) + "\"");
  if (argc != 3) {
    std::cerr << "usage: bench_diff <baseline.json> <current.json>\n";
    return 2;
  }
  const Value baseline = load(argv[1]);
  const Value current = load(argv[2]);
  for (const char* field : {"bench", "config", "gate"})
    require_same(baseline.at(field), current.at(field), field);
  for (const auto& [key, value] : baseline.at("results").members())
    require(current.at("results").contains(key),
            "results." + key + " is missing from the current record");

  const Value& gate = baseline.at("gate");
  require(gate.contains("max_regression_pct") &&
              gate.at("max_regression_pct").is_number(),
          "gate.max_regression_pct must be a number");
  require(gate.contains("pins") && gate.at("pins").size() > 0,
          "gate.pins is empty: nothing to compare");
  const double max_regression_pct = gate.at("max_regression_pct").as_number();

  std::cout << "bench: " << current.at("bench").as_string()
            << "  (max regression " << fmt(max_regression_pct) << "%)\n";
  int regressions = 0;
  for (const auto& [key, direction] : gate.at("pins").members()) {
    const std::string dir = direction.is_string() ? direction.as_string() : "";
    require(dir == "higher" || dir == "lower",
            "gate.pins." + key + " must be \"higher\" or \"lower\"");
    const bool higher_is_better = dir == "higher";
    const double base = resolve(baseline, key);
    const double cur = resolve(current, key);
    bool regressed;
    std::string change;
    if (base == 0.0) {
      regressed = !higher_is_better && cur > 0.0;
      change = "abs";
    } else {
      const double pct = (cur / base - 1.0) * 100.0;
      regressed = (higher_is_better ? -pct : pct) > max_regression_pct;
      change = pct >= 0 ? "+" : "";
      change.append(fmt(pct)).append("%");
    }
    std::cout << "  " << key << " (" << dir << "): " << fmt(base) << " -> "
              << fmt(cur) << "  " << change << "  "
              << (regressed ? "REGRESSED" : "ok") << '\n';
    if (regressed) ++regressions;
  }
  if (regressions > 0) {
    std::cerr << regressions << " pinned metric(s) regressed beyond "
              << fmt(max_regression_pct) << "%\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_diff: " << e.what() << '\n';
    return 2;
  }
}
