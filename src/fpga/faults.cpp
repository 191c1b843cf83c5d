#include "fpga/faults.hpp"

#include <fstream>
#include <sstream>

#include "util/strings.hpp"

namespace rr::fpga {
namespace {

const char* kind_word(FaultKind kind) {
  return kind == FaultKind::kPermanent ? "permanent" : "transient";
}

}  // namespace

FaultMap::FaultMap(int width, int height) : width_(width), height_(height) {
  RR_REQUIRE(width > 0 && height > 0, "fault map dimensions must be positive");
  state_.assign(
      static_cast<std::size_t>(width) * static_cast<std::size_t>(height),
      kHealthy);
}

FaultMap::FaultMap(const Fabric& fabric)
    : FaultMap(fabric.width(), fabric.height()) {}

void FaultMap::inject(int x, int y, FaultKind kind) {
  std::uint8_t& tile = state_[index(x, y)];
  const std::uint8_t next =
      kind == FaultKind::kPermanent ? kPermanentState : kTransientState;
  if (next > tile) tile = next;  // a permanent fault never downgrades
}

void FaultMap::inject_column(int x, FaultKind kind) {
  RR_REQUIRE(x >= 0 && x < width_, "fault column out of bounds");
  for (int y = 0; y < height_; ++y) inject(x, y, kind);
}

void FaultMap::inject_rect(const Rect& rect, FaultKind kind) {
  RR_REQUIRE(!rect.empty() && (Rect{0, 0, width_, height_}.contains(rect)),
             "fault rectangle out of bounds");
  for (int y = rect.y; y < rect.top(); ++y)
    for (int x = rect.x; x < rect.right(); ++x) inject(x, y, kind);
}

void FaultMap::repair(int x, int y) {
  std::uint8_t& tile = state_[index(x, y)];
  if (tile == kTransientState) tile = kHealthy;
}

void FaultMap::repair_transient() {
  for (std::uint8_t& tile : state_)
    if (tile == kTransientState) tile = kHealthy;
}

void FaultMap::apply(const FaultEvent& event) {
  switch (event.op) {
    case FaultEvent::Op::kTile:
      inject_rect(event.rect, event.kind);
      break;
    case FaultEvent::Op::kColumn:
      inject_column(event.rect.x, event.kind);
      break;
    case FaultEvent::Op::kRect:
      inject_rect(event.rect, event.kind);
      break;
    case FaultEvent::Op::kRepairTile:
      RR_REQUIRE(
          !event.rect.empty() &&
              (Rect{0, 0, width_, height_}.contains(event.rect)),
          "repair coordinates out of bounds");
      repair(event.rect.x, event.rect.y);
      break;
    case FaultEvent::Op::kRepairTransient:
      repair_transient();
      break;
  }
}

long FaultMap::faulty_count() const noexcept {
  long count = 0;
  for (const std::uint8_t tile : state_) count += tile != kHealthy;
  return count;
}

long FaultMap::permanent_count() const noexcept {
  long count = 0;
  for (const std::uint8_t tile : state_) count += tile == kPermanentState;
  return count;
}

long FaultMap::transient_count() const noexcept {
  long count = 0;
  for (const std::uint8_t tile : state_) count += tile == kTransientState;
  return count;
}

BitMatrix FaultMap::mask() const {
  BitMatrix out(height_, width_);
  for (int y = 0; y < height_; ++y)
    for (int x = 0; x < width_; ++x)
      if (faulty(x, y)) out.set(y, x, true);
  return out;
}

std::vector<FaultEvent> FaultMap::to_events() const {
  std::vector<FaultEvent> events;
  for (const FaultKind kind : {FaultKind::kPermanent, FaultKind::kTransient}) {
    for (int y = 0; y < height_; ++y) {
      for (int x = 0; x < width_; ++x) {
        if (!faulty(x, y)) continue;
        if ((kind == FaultKind::kPermanent) != permanent(x, y)) continue;
        events.push_back(FaultEvent{FaultEvent::Op::kTile, kind,
                                    Rect{x, y, 1, 1}});
      }
    }
  }
  return events;
}

FaultEvent parse_fault_event(const LineLexer& line, std::size_t op_at,
                             std::size_t args_at, int width, int height) {
  const std::string_view op = line[op_at];
  const std::size_t argc = line.size() - args_at;
  const auto coord = [&](std::size_t i, const char* what) {
    return line.integer(args_at + i, std::string(what) + " must be an integer");
  };
  const auto kind = [&](std::size_t i) {
    if (argc <= i) return FaultKind::kPermanent;
    const std::string_view word = line[args_at + i];
    if (word == "permanent") return FaultKind::kPermanent;
    if (word == "transient") return FaultKind::kTransient;
    line.fail("fault kind must be 'permanent' or 'transient', got '" +
              std::string(word) + "'");
  };

  FaultEvent event;
  const char* located = nullptr;  // what the bounds error names
  if (op == "tile") {
    if (argc != 2 && argc != 3)
      line.fail("expected: tile <x> <y> [permanent|transient]");
    event.op = FaultEvent::Op::kTile;
    event.rect = Rect{coord(0, "x"), coord(1, "y"), 1, 1};
    event.kind = kind(2);
    located = "tile coordinates";
  } else if (op == "column") {
    if (argc != 1 && argc != 2)
      line.fail("expected: column <x> [permanent|transient]");
    event.op = FaultEvent::Op::kColumn;
    event.rect = Rect{coord(0, "x"), 0, 1, height};
    event.kind = kind(1);
    located = "column index";
  } else if (op == "rect") {
    if (argc != 4 && argc != 5)
      line.fail("expected: rect <x> <y> <w> <h> [permanent|transient]");
    event.op = FaultEvent::Op::kRect;
    event.rect = Rect{coord(0, "x"), coord(1, "y"), coord(2, "w"),
                      coord(3, "h")};
    event.kind = kind(4);
    if (event.rect.empty()) line.fail("rect must be non-empty");
    located = "rect";
  } else if (op == "repair") {
    if (argc != 2) line.fail("expected: repair <x> <y>");
    event.op = FaultEvent::Op::kRepairTile;
    event.rect = Rect{coord(0, "x"), coord(1, "y"), 1, 1};
    located = "repair coordinates";
  } else if (op == "repair-transient") {
    if (argc != 0) line.fail("expected: repair-transient");
    event.op = FaultEvent::Op::kRepairTransient;
  } else {
    line.fail("unknown directive '" + std::string(op) + "'");
  }
  if (located != nullptr && !inside_grid(event.rect, width, height))
    line.fail(std::string(located) + " out of bounds");
  return event;
}

FaultTrace parse_fault_trace(std::istream& in) {
  FaultTrace trace;
  LineLexer line(in, "fft");
  bool have_header = false;
  while (line.next()) {
    if (line[0] == "faults") {
      constexpr std::string_view kDims =
          "fault trace dimensions must be positive integers";
      if (have_header) line.fail("duplicate faults header");
      if (line.size() != 3) line.fail("expected: faults <w> <h>");
      trace.width = line.integer(1, kDims, 1);
      trace.height = line.integer(2, kDims, 1);
      have_header = true;
      continue;
    }
    if (!have_header) line.fail("event before faults header");
    trace.events.push_back(
        parse_fault_event(line, 0, 1, trace.width, trace.height));
  }
  if (!have_header) {
    if (line.line() == 0) throw InvalidInput("fft: empty fault trace");
    line.fail("missing faults header");
  }
  return trace;
}

FaultTrace parse_fault_trace_string(const std::string& text) {
  std::istringstream in(text);
  return parse_fault_trace(in);
}

FaultTrace load_fault_trace(const std::string& path) {
  std::ifstream in(path);
  RR_REQUIRE(in.good(), "cannot open fault trace: " + path);
  return parse_fault_trace(in);
}

void write_fault_trace(std::ostream& out, const FaultTrace& trace) {
  out << "# rrplace fault trace\n";
  out << "faults " << trace.width << ' ' << trace.height << '\n';
  for (const FaultEvent& event : trace.events) {
    switch (event.op) {
      case FaultEvent::Op::kTile:
        out << "tile " << event.rect.x << ' ' << event.rect.y << ' '
            << kind_word(event.kind) << '\n';
        break;
      case FaultEvent::Op::kColumn:
        out << "column " << event.rect.x << ' ' << kind_word(event.kind)
            << '\n';
        break;
      case FaultEvent::Op::kRect:
        out << "rect " << event.rect.x << ' ' << event.rect.y << ' '
            << event.rect.width << ' ' << event.rect.height << ' '
            << kind_word(event.kind) << '\n';
        break;
      case FaultEvent::Op::kRepairTile:
        out << "repair " << event.rect.x << ' ' << event.rect.y << '\n';
        break;
      case FaultEvent::Op::kRepairTransient:
        out << "repair-transient\n";
        break;
    }
  }
}

std::string write_fault_trace_string(const FaultTrace& trace) {
  std::ostringstream out;
  write_fault_trace(out, trace);
  return out.str();
}

FaultMap fault_map_from_trace(const FaultTrace& trace) {
  FaultMap map(trace.width, trace.height);
  for (const FaultEvent& event : trace.events) map.apply(event);
  return map;
}

FaultTrace fault_trace_from_map(const FaultMap& map) {
  FaultTrace trace;
  trace.width = map.width();
  trace.height = map.height();
  trace.events = map.to_events();
  return trace;
}

}  // namespace rr::fpga
