// Benchmark trajectory gate — compare two rrplace-bench-v1 records.
//
//   bench_diff <baseline.json> <current.json> [--max-regression PCT]
//              --pin key[:higher|lower] [--pin ...]
//
// Each --pin names a dot-path under the record's "results" object (e.g.
// "element_speedup.mean" or just "element_speedup" — a {count,mean,min,max}
// summary resolves to its "mean") together with the direction that counts
// as better. The tool prints a comparison table and exits 1 when any pinned
// metric regressed by more than --max-regression percent (default 25).
//
// Pin ratio/count metrics (speedups, mismatch counts), not wall-clock
// times: CI machines vary widely in absolute speed, but "compact is N x
// faster than scanning on the same tree" is a machine-independent claim.
//
// A baseline of exactly 0 switches to an absolute check: for "lower" pins
// the current value must stay 0 (a mismatch count may never grow), for
// "higher" pins any value passes.
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"
#include "util/json.hpp"

namespace {

using rr::json::Value;

struct Pin {
  std::string path;          // dot-path under "results"
  bool higher_is_better = true;
};

Value load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw rr::InvalidInput("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Value doc = rr::json::parse(buffer.str());
  if (!doc.is_object() || !doc.contains("schema") ||
      !doc.at("schema").is_string() ||
      doc.at("schema").as_string() != "rrplace-bench-v1")
    throw rr::InvalidInput(path + ": not an rrplace-bench-v1 record");
  return doc;
}

/// Resolve a dot-path under doc["results"]; a {count,mean,...} summary
/// object resolves to its "mean" so pins can name the metric directly.
double resolve(const Value& doc, const std::string& path,
               const std::string& file) {
  const Value* node = &doc.at("results");
  std::size_t start = 0;
  while (start <= path.size()) {
    const std::size_t dot = path.find('.', start);
    const std::string key =
        path.substr(start, dot == std::string::npos ? dot : dot - start);
    if (!node->is_object() || !node->contains(key))
      throw rr::InvalidInput(file + ": results." + path + " not found");
    node = &node->at(key);
    if (dot == std::string::npos) break;
    start = dot + 1;
  }
  if (node->is_object() && node->contains("mean"))
    node = &node->at("mean");
  if (!node->is_number())
    throw rr::InvalidInput(file + ": results." + path + " is not numeric");
  return node->as_number();
}

std::string fmt(double v) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(3) << v;
  return out.str();
}

int run(int argc, char** argv) {
  std::vector<std::string> files;
  std::vector<Pin> pins;
  double max_regression_pct = 25.0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--max-regression") {
      if (++i >= argc)
        throw rr::InvalidInput("--max-regression needs a value");
      max_regression_pct = std::stod(argv[i]);
    } else if (arg == "--pin") {
      if (++i >= argc) throw rr::InvalidInput("--pin needs a value");
      Pin pin;
      std::string spec = argv[i];
      if (const std::size_t colon = spec.rfind(':');
          colon != std::string::npos) {
        const std::string dir = spec.substr(colon + 1);
        if (dir == "higher") {
          pin.higher_is_better = true;
        } else if (dir == "lower") {
          pin.higher_is_better = false;
        } else {
          throw rr::InvalidInput("pin direction must be higher|lower, got \"" +
                                 dir + "\"");
        }
        spec.resize(colon);
      }
      pin.path = std::move(spec);
      pins.push_back(std::move(pin));
    } else if (!arg.empty() && arg.front() == '-') {
      throw rr::InvalidInput("unknown flag \"" + std::string(arg) + "\"");
    } else {
      files.emplace_back(arg);
    }
  }
  if (files.size() != 2 || pins.empty()) {
    std::cerr << "usage: bench_diff <baseline.json> <current.json> "
                 "[--max-regression PCT] --pin key[:higher|lower] [...]\n";
    return 2;
  }

  const Value baseline = load(files[0]);
  const Value current = load(files[1]);
  if (baseline.at("bench").as_string() != current.at("bench").as_string())
    throw rr::InvalidInput("bench name mismatch: " +
                           baseline.at("bench").as_string() + " vs " +
                           current.at("bench").as_string());

  std::cout << "bench: " << current.at("bench").as_string()
            << "  (max regression " << fmt(max_regression_pct) << "%)\n";
  int regressions = 0;
  for (const Pin& pin : pins) {
    const double base = resolve(baseline, pin.path, files[0]);
    const double cur = resolve(current, pin.path, files[1]);
    bool regressed;
    std::string change;
    if (base == 0.0) {
      // Absolute mode: a zero baseline (e.g. mismatches) must stay zero
      // when lower is better; anything passes when higher is better.
      regressed = !pin.higher_is_better && cur > 0.0;
      change = "abs";
    } else {
      const double pct = (cur / base - 1.0) * 100.0;
      const double signed_loss = pin.higher_is_better ? -pct : pct;
      regressed = signed_loss > max_regression_pct;
      change = pct >= 0 ? "+" : "";
      change.append(fmt(pct)).append("%");
    }
    std::cout << "  " << pin.path << " ("
              << (pin.higher_is_better ? "higher" : "lower")
              << "): " << fmt(base) << " -> " << fmt(cur) << "  " << change
              << "  " << (regressed ? "REGRESSED" : "ok") << '\n';
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
