// Workload generator: seeded byte-reproducibility, exact render/parse
// round-trips through the serve-trace grammar, and the adversarial edge
// cases the grammar has to survive (zero-duration instances, deadline
// tokens, storm fault/repair interleavings, malformed input).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "model/generator.hpp"
#include "service/trace.hpp"
#include "sim/workload.hpp"
#include "util/error.hpp"

namespace rr::sim {
namespace {

using model::Module;
using model::ModuleGenerator;
using service::Request;
using service::RequestOp;
using service::ServeTrace;

std::vector<Module> test_library() {
  // Distinct areas so the nearest-area mapping has real choices.
  std::vector<Module> lib;
  lib.push_back(
      Module("tiny", {ModuleGenerator::make_column_shape(1, 0, 1, 1, 0)}));
  lib.push_back(
      Module("mid", {ModuleGenerator::make_column_shape(6, 0, 1, 3, 0)}));
  lib.push_back(
      Module("big", {ModuleGenerator::make_column_shape(16, 0, 1, 4, 0)}));
  return lib;
}

WorkloadParams small_params(std::uint64_t seed) {
  WorkloadParams params;
  params.tenants = 3;
  params.requests = 400;
  params.seed = seed;
  return params;
}

TEST(Workload, SameSeedIsByteIdentical) {
  const std::vector<Module> lib = test_library();
  WorkloadGenerator a(small_params(7), lib, 16, 8);
  WorkloadGenerator b(small_params(7), lib, 16, 8);
  const std::string text_a = a.generate_text();
  const std::string text_b = b.generate_text();
  EXPECT_FALSE(text_a.empty());
  EXPECT_EQ(text_a, text_b);
  // generate() twice off one instance is just as deterministic: the Rng is
  // re-seeded per call, not carried across calls.
  EXPECT_EQ(a.generate_text(), text_a);
}

TEST(Workload, DifferentSeedsDiverge) {
  const std::vector<Module> lib = test_library();
  WorkloadGenerator a(small_params(7), lib, 16, 8);
  WorkloadGenerator b(small_params(8), lib, 16, 8);
  EXPECT_NE(a.generate_text(), b.generate_text());
}

TEST(Workload, RenderParseRoundTripIsExact) {
  const std::vector<Module> lib = test_library();
  WorkloadParams params = small_params(11);
  // Exercise every line kind: deadlines on, storms frequent.
  params.deadline_base_ms = 2.0;
  params.p_storm_start = 0.02;
  WorkloadGenerator generator(params, lib, 16, 8);
  const ServeTrace trace = generator.generate();
  EXPECT_EQ(trace.requests.size(), static_cast<std::size_t>(params.requests));

  const std::string text = WorkloadGenerator::render(trace, lib);
  const ServeTrace parsed =
      service::parse_serve_trace_text(text, "roundtrip", lib, 16, 8);
  EXPECT_EQ(parsed.tenants, trace.tenants);
  ASSERT_EQ(parsed.requests.size(), trace.requests.size());
  for (std::size_t i = 0; i < trace.requests.size(); ++i)
    EXPECT_EQ(parsed.requests[i], trace.requests[i]) << "request " << i;
}

TEST(Workload, ZeroDurationInstancesRemoveImmediately) {
  const std::vector<Module> lib = test_library();
  WorkloadParams params = small_params(3);
  params.life_min = 0;
  params.life_max = 0;     // every instance is zero-duration
  params.p_storm_start = 0.0;  // only places and removes
  WorkloadGenerator generator(params, lib, 16, 8);
  const ServeTrace trace = generator.generate();
  ASSERT_FALSE(trace.requests.empty());
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    const Request& request = trace.requests[i];
    if (request.op != RequestOp::kPlace) continue;
    // The matching remove lands immediately after its place (unless the
    // request budget cut the trace right at the boundary).
    if (i + 1 == trace.requests.size()) break;
    const Request& next = trace.requests[i + 1];
    EXPECT_EQ(next.op, RequestOp::kRemove);
    EXPECT_EQ(next.tenant, request.tenant);
    EXPECT_EQ(next.instance, request.instance);
    ++i;  // the remove is consumed by this pair
  }
}

TEST(Workload, StormsEmitFaultsAndRepairs) {
  const std::vector<Module> lib = test_library();
  WorkloadParams params = small_params(5);
  params.requests = 3000;
  params.p_storm_start = 0.05;  // storm-heavy on purpose
  WorkloadGenerator generator(params, lib, 16, 8);
  const ServeTrace trace = generator.generate();
  long faults = 0, repairs = 0;
  for (const Request& request : trace.requests) {
    if (request.op != RequestOp::kFault) continue;
    if (request.fault.op == fpga::FaultEvent::Op::kRepairTransient ||
        request.fault.op == fpga::FaultEvent::Op::kRepairTile)
      ++repairs;
    else
      ++faults;
  }
  EXPECT_GT(faults, 0);
  EXPECT_GT(repairs, 0);
  // Storm output still round-trips through the grammar exactly.
  const ServeTrace parsed = service::parse_serve_trace_text(
      WorkloadGenerator::render(trace, lib), "storms", lib, 16, 8);
  ASSERT_EQ(parsed.requests.size(), trace.requests.size());
  for (std::size_t i = 0; i < trace.requests.size(); ++i)
    EXPECT_EQ(parsed.requests[i], trace.requests[i]) << "request " << i;
}

TEST(Workload, DeadlineClassesFollowTheMultiplierLadder) {
  const std::vector<Module> lib = test_library();
  WorkloadParams params = small_params(9);
  params.deadline_base_ms = 3.0;
  params.deadline_class_mult = 4.0;
  params.priority_classes = 3;
  WorkloadGenerator generator(params, lib, 16, 8);
  const ServeTrace trace = generator.generate();
  bool saw_deadline = false;
  for (const Request& request : trace.requests) {
    if (request.op != RequestOp::kPlace) continue;
    saw_deadline = saw_deadline || request.deadline_ms > 0.0;
    // ceil(3 * 4^k) for k in {0, 1, 2}.
    EXPECT_TRUE(request.deadline_ms == 3.0 || request.deadline_ms == 12.0 ||
                request.deadline_ms == 48.0)
        << request.deadline_ms;
  }
  EXPECT_TRUE(saw_deadline);
}

TEST(TraceParser, AcceptsDeadlineTokenAndComments) {
  const std::vector<Module> lib = test_library();
  const ServeTrace trace = service::parse_serve_trace_text(
      "# header comment\n"
      "tenants 2\n"
      "place 0 1 tiny 2.5\n"
      "place 1 2 mid\n"
      "remove 0 1\n",
      "inline", lib, 16, 8);
  EXPECT_EQ(trace.tenants, 2);
  ASSERT_EQ(trace.requests.size(), 3u);
  EXPECT_EQ(trace.requests[0].deadline_ms, 2.5);
  EXPECT_EQ(trace.requests[1].deadline_ms, 0.0);  // absent = no deadline
}

TEST(TraceParser, RejectsMalformedDeadlines) {
  const std::vector<Module> lib = test_library();
  // Non-numeric trailing token.
  EXPECT_THROW((void)service::parse_serve_trace_text(
                   "place 0 1 tiny soon\n", "bad", lib, 16, 8),
               InvalidInput);
  // Deadlines must be strictly positive.
  EXPECT_THROW((void)service::parse_serve_trace_text(
                   "place 0 1 tiny -3\n", "bad", lib, 16, 8),
               InvalidInput);
  EXPECT_THROW((void)service::parse_serve_trace_text(
                   "place 0 1 tiny 0\n", "bad", lib, 16, 8),
               InvalidInput);
}

TEST(TraceParser, RejectsLaxLinesWithTheirLocation) {
  const std::vector<Module> lib = test_library();
  // Each probe sits on line 3 of its trace, after a comment and a header.
  for (const char* probe : {"fault 0 tile 1 1 transiet",
                            "fault 0 tile 1 1 transient extra junk",
                            "remove 0 5xyz", "tenants 2 junk",
                            "repair-transient 1 whatever"}) {
    const std::string text = std::string("# probe\ntenants 2\n") + probe;
    try {
      (void)service::parse_serve_trace_text(text, "probe", lib, 16, 8);
      ADD_FAILURE() << "accepted: " << probe;
    } catch (const InvalidInput& e) {
      EXPECT_NE(std::string(e.what()).find("probe:3: "), std::string::npos)
          << probe << " -> " << e.what();
    }
  }
}

TEST(TraceParser, FaultLinesUseTheFaultTraceGrammar) {
  const std::vector<Module> lib = test_library();
  const auto message = [&](const std::string& text) -> std::string {
    try {
      (void)service::parse_serve_trace_text(text, "ev", lib, 16, 8);
    } catch (const InvalidInput& e) {
      return e.what();
    }
    return "accepted";
  };
  EXPECT_EQ(message("fault 0 tile 16 0\n"),
            "ev:1: tile coordinates out of bounds");
  EXPECT_EQ(message("fault 0 rect 0 0 0 2\n"), "ev:1: rect must be non-empty");
  EXPECT_EQ(message("fault 0 column x\n"), "ev:1: x must be an integer");
  EXPECT_EQ(message("repair 0 1\n"), "ev:1: expected: repair <x> <y>");
  EXPECT_EQ(message("fault 0 repair 1 1\n"),
            "ev:1: expected: fault <tenant> tile|column|rect ...");

  // A mid-line '#' starts a comment, as in every other format.
  const ServeTrace trace = service::parse_serve_trace_text(
      "tenants 1 # one tenant\n"
      "fault 0 column 3 transient # scrubbed later\n"
      "repair-transient 0\n",
      "ev", lib, 16, 8);
  ASSERT_EQ(trace.requests.size(), 2u);
  EXPECT_EQ(trace.requests[0].fault.op, fpga::FaultEvent::Op::kColumn);
  EXPECT_EQ(trace.requests[0].fault.kind, fpga::FaultKind::kTransient);
  EXPECT_EQ(trace.requests[0].fault.rect, (Rect{3, 0, 1, 8}));
}

}  // namespace
}  // namespace rr::sim
