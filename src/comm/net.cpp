#include "comm/net.hpp"

#include <algorithm>
#include <climits>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace rr::comm {
namespace {

Point parse_terminal(const LineLexer& line, std::string_view token) {
  // token is "@x,y" with the '@' still attached.
  const std::size_t comma = token.find(',');
  if (comma == std::string_view::npos)
    line.fail("terminal must be @x,y, got \"" + std::string(token) + "\"");
  const auto x = parse_int(token.substr(1, comma - 1));
  const auto y = parse_int(token.substr(comma + 1));
  if (!x || !y || *x < 0 || *y < 0 || *x > INT_MAX || *y > INT_MAX)
    line.fail("terminal coordinates must be non-negative integers in \"" +
              std::string(token) + "\"");
  return Point{static_cast<int>(*x), static_cast<int>(*y)};
}

NetList parse_nets(std::istream& in, std::string source) {
  NetList out;
  LineLexer line(in, std::move(source));
  while (line.next()) {
    if (line[0] != "net")
      line.fail("expected \"net\", got \"" + std::string(line[0]) + "\"");
    if (line.size() < 2) line.fail("missing net weight");
    Net net;
    net.weight = line.integer<long>(
        1, "expected non-negative integer weight, got \"" +
               std::string(line[1]) + "\"", 0);
    for (std::size_t i = 2; i < line.size(); ++i) {
      if (line[i].front() == '@')
        net.terminals.push_back(parse_terminal(line, line[i]));
      else
        net.modules.emplace_back(line[i]);
    }
    if (net.endpoint_count() < 2)
      line.fail("a net needs at least 2 endpoints, got " +
                std::to_string(net.endpoint_count()));
    out.nets.push_back(std::move(net));
  }
  return out;
}

}  // namespace

bool Net::mentions(std::string_view name) const {
  return std::find(modules.begin(), modules.end(), name) != modules.end();
}

bool NetList::mentions(std::string_view name) const {
  return std::any_of(nets.begin(), nets.end(),
                     [&](const Net& n) { return n.mentions(name); });
}

NetList parse_nets(std::string_view text) {
  std::istringstream in{std::string(text)};
  return parse_nets(in, "net");
}

NetList load_nets(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw InvalidInput("cannot open net file " + path);
  return parse_nets(in, path);
}

BoundNets::BoundNets(const NetList& nets,
                     std::span<const model::Module> modules)
    : module_count_(static_cast<int>(modules.size())) {
  std::unordered_map<std::string_view, int> index;
  index.reserve(modules.size());
  for (int i = 0; i < module_count_; ++i) index.emplace(modules[i].name(), i);

  std::vector<bool> used(modules.size(), false);
  for (const Net& net : nets.nets) {
    BoundNet bound;
    bound.weight = net.weight;
    for (const std::string& name : net.modules) {
      const auto it = index.find(name);
      if (it == index.end())
        throw ModelError("net endpoint \"" + name +
                         "\" names no module in the bound module list");
      bound.members.push_back(it->second);
    }
    if (net.weight <= 0) continue;
    for (const Point t : net.terminals)
      bound.terminals.push_back(terminal_center2(t));
    if (bound.members.size() + bound.terminals.size() < 2) continue;
    for (const int m : bound.members) used[m] = true;
    nets_.push_back(std::move(bound));
  }
  for (int i = 0; i < module_count_; ++i)
    if (used[i]) used_.push_back(i);
}

long BoundNets::wirelength2(std::span<const Center2> centers) const {
  RR_ASSERT(static_cast<int>(centers.size()) == module_count_);
  long total = 0;
  for (const BoundNet& net : nets_) {
    int lo_x = INT_MAX, hi_x = INT_MIN, lo_y = INT_MAX, hi_y = INT_MIN;
    const auto fold = [&](Center2 c) {
      lo_x = std::min(lo_x, c.x);
      hi_x = std::max(hi_x, c.x);
      lo_y = std::min(lo_y, c.y);
      hi_y = std::max(hi_y, c.y);
    };
    for (const int m : net.members) fold(centers[m]);
    for (const Center2 t : net.terminals) fold(t);
    total += net.weight *
             (static_cast<long>(hi_x - lo_x) + static_cast<long>(hi_y - lo_y));
  }
  return total;
}

long pins_wirelength2(const NetList& nets, std::span<const NamedPin> pins) {
  long total = 0;
  for (const Net& net : nets.nets) {
    if (net.weight <= 0) continue;
    int lo_x = INT_MAX, hi_x = INT_MIN, lo_y = INT_MAX, hi_y = INT_MIN;
    int present = 0;
    const auto fold = [&](Center2 c) {
      lo_x = std::min(lo_x, c.x);
      hi_x = std::max(hi_x, c.x);
      lo_y = std::min(lo_y, c.y);
      hi_y = std::max(hi_y, c.y);
      ++present;
    };
    for (const NamedPin& pin : pins)
      if (net.mentions(pin.name)) fold(pin.center);
    for (const Point t : net.terminals) fold(terminal_center2(t));
    if (present < 2) continue;
    total += net.weight *
             (static_cast<long>(hi_x - lo_x) + static_cast<long>(hi_y - lo_y));
  }
  return total;
}

PinContext PinContext::build(const NetList& nets, std::string_view name,
                             std::span<const NamedPin> pins) {
  PinContext out;
  for (const Net& net : nets.nets) {
    if (net.weight <= 0 || !net.mentions(name)) continue;
    NetBounds b{net.weight, INT_MAX, INT_MIN, INT_MAX, INT_MIN};
    bool any = false;
    const auto fold = [&](Center2 c) {
      b.lo_x = std::min(b.lo_x, c.x);
      b.hi_x = std::max(b.hi_x, c.x);
      b.lo_y = std::min(b.lo_y, c.y);
      b.hi_y = std::max(b.hi_y, c.y);
      any = true;
    };
    for (const NamedPin& pin : pins)
      if (net.mentions(pin.name)) fold(pin.center);
    for (const Point t : net.terminals) fold(terminal_center2(t));
    if (any) out.bounds_.push_back(b);
  }
  return out;
}

long PinContext::cost2(Center2 c) const noexcept {
  long total = 0;
  for (const NetBounds& b : bounds_) {
    const long dx = std::max(0, std::max(b.lo_x - c.x, c.x - b.hi_x));
    const long dy = std::max(0, std::max(b.lo_y - c.y, c.y - b.hi_y));
    total += b.weight * (dx + dy);
  }
  return total;
}

}  // namespace rr::comm
