#include "service/trace.hpp"

#include <istream>
#include <sstream>
#include <string>

#include "fpga/faults.hpp"
#include "util/strings.hpp"

namespace rr::service {

ServeTrace parse_serve_trace(std::istream& in, std::string_view name,
                             std::span<const model::Module> modules,
                             int fabric_width, int fabric_height) {
  auto module_index = [&](std::string_view module_name) {
    for (std::size_t i = 0; i < modules.size(); ++i)
      if (modules[i].name() == module_name) return static_cast<int>(i);
    return -1;
  };

  ServeTrace trace;
  LineLexer line(in, std::string(name));
  while (line.next()) {
    const std::string_view op = line[0];
    if (op == "tenants") {
      constexpr std::string_view kUsage = "expected: tenants <count >= 1>";
      if (!trace.requests.empty())
        line.fail("tenants header after the first request");
      if (line.size() != 2) line.fail(kUsage);
      trace.tenants = line.integer(1, kUsage, 1);
      continue;
    }
    Request request;
    request.tenant =
        line.integer(1, "expected: " + std::string(op) + " <tenant> ...");
    if (request.tenant < 0 || request.tenant >= trace.tenants)
      line.fail("tenant " + std::to_string(request.tenant) + " outside [0, " +
                std::to_string(trace.tenants) + ")");
    if (op == "place") {
      constexpr std::string_view kUsage =
          "expected: place <tenant> <id> <module> [deadline_ms]";
      if (line.size() != 4 && line.size() != 5) line.fail(kUsage);
      request.op = RequestOp::kPlace;
      request.instance = line.integer(2, kUsage);
      request.module = module_index(line[3]);
      if (request.module < 0)
        line.fail("no module named '" + std::string(line[3]) + "'");
      // Optional trailing deadline. A token that is present but not a
      // positive number is a malformed line, not a silent no-deadline.
      if (line.size() == 5) {
        request.deadline_ms = line.number(4, "deadline_ms must be a number");
        if (!(request.deadline_ms > 0.0))
          line.fail("deadline_ms must be > 0");
      }
    } else if (op == "remove") {
      constexpr std::string_view kUsage = "expected: remove <tenant> <id>";
      if (line.size() != 3) line.fail(kUsage);
      request.op = RequestOp::kRemove;
      request.instance = line.integer(2, kUsage);
    } else if (op == "fault" || op == "repair" || op == "repair-transient") {
      // `fault <tenant> <event>` carries a .fft injection event; the two
      // repairs are .fft events whose op leads the line.
      request.op = RequestOp::kFault;
      const bool inject = op == "fault";
      if (inject && (line.size() < 3 || line[2] == "repair" ||
                     line[2] == "repair-transient"))
        line.fail("expected: fault <tenant> tile|column|rect ...");
      request.fault = fpga::parse_fault_event(
          line, inject ? 2 : 0, inject ? 3 : 2, fabric_width, fabric_height);
    } else {
      line.fail("unknown trace op '" + std::string(op) + "'");
    }
    trace.requests.push_back(request);
  }
  return trace;
}

ServeTrace parse_serve_trace_text(std::string_view text,
                                  std::string_view name,
                                  std::span<const model::Module> modules,
                                  int fabric_width, int fabric_height) {
  std::istringstream in{std::string(text)};
  return parse_serve_trace(in, name, modules, fabric_width, fabric_height);
}

}  // namespace rr::service
