// Serve-trace grammar: the multi-tenant request language shared by
// `rrplace_cli serve`, the workload generator (src/sim, `rrplace_cli gen`),
// and the soak/replay harnesses.
//
//   tenants <n>                       # header; before the first request
//   place <tenant> <id> <module> [deadline_ms]
//   remove <tenant> <id>
//   fault <tenant> tile <x> <y> [permanent|transient]
//   fault <tenant> column <x> [kind]
//   fault <tenant> rect <x> <y> <w> <h> [kind]
//   repair <tenant> <x> <y>
//   repair-transient <tenant>
//   # comment
//
// The optional trailing deadline on `place` (milliseconds, > 0) is a
// backward-compatible extension: absent means "no deadline" and every
// pre-existing trace parses unchanged. Fault and repair lines carry .fft
// events (fpga::parse_fault_event: the same field counts, kinds, bounds
// and messages); every line has an exact field count, and '#' starts a
// comment anywhere on a line.
#pragma once

#include <iosfwd>
#include <span>
#include <string_view>
#include <vector>

#include "model/module.hpp"
#include "service/service.hpp"

namespace rr::service {

/// A parsed serve trace: the tenant count and the request sequence in
/// file order (= submission order).
struct ServeTrace {
  int tenants = 1;
  std::vector<Request> requests;
};

/// Parse a serve trace from `in`. Module names resolve against `modules`
/// (library indices in file order); fault rectangles are validated against
/// the fabric bounds. Malformed input throws InvalidInput with a
/// "<name>:<line>: <what>" message.
[[nodiscard]] ServeTrace parse_serve_trace(std::istream& in,
                                           std::string_view name,
                                           std::span<const model::Module>
                                               modules,
                                           int fabric_width,
                                           int fabric_height);

/// Convenience overload over an in-memory trace (generator round-trip
/// tests, byte-identity checks).
[[nodiscard]] ServeTrace parse_serve_trace_text(
    std::string_view text, std::string_view name,
    std::span<const model::Module> modules, int fabric_width,
    int fabric_height);

}  // namespace rr::service
