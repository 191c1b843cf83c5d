#include "fpga/fdf.hpp"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/strings.hpp"

namespace rr::fpga {
namespace {

/// Largest fabric a header may ask for: far above any device model here,
/// and small enough that a bad header cannot make Fabric allocate
/// gigabytes before a single row is read.
constexpr long kMaxFabricTiles = 1L << 24;

/// Errors are located as `<source>:<line>:`.
Fabric parse(std::istream& in, const std::string& source) {
  LineLexer line(in, source);
  Fabric fabric;
  bool have_header = false;
  std::vector<bool> row_seen;
  std::vector<Rect> static_rects;

  while (line.next()) {
    if (line[0] == "fabric") {
      constexpr std::string_view kDims =
          "fabric dimensions must be positive integers";
      if (have_header) line.fail("duplicate fabric header");
      if (line.size() != 4) line.fail("expected: fabric <name> <w> <h>");
      const int w = line.integer(2, kDims, 1);
      const int h = line.integer(3, kDims, 1);
      if (static_cast<long>(w) * h > kMaxFabricTiles)
        line.fail("fabric of " + std::to_string(w) + "x" + std::to_string(h) +
                  " tiles exceeds the limit of " +
                  std::to_string(kMaxFabricTiles) + " tiles");
      fabric = Fabric(w, h, ResourceType::kClb, std::string(line[1]));
      row_seen.assign(static_cast<std::size_t>(h), false);
      have_header = true;
    } else if (line[0] == "row") {
      if (!have_header) line.fail("row before fabric header");
      if (line.size() != 3) line.fail("expected: row <y> <tiles>");
      const int y = line.integer(1, "row index out of range", 0);
      if (y >= fabric.height()) line.fail("row index out of range");
      const std::string_view tiles = line[2];
      if (static_cast<int>(tiles.size()) != fabric.width())
        line.fail("row must have exactly width tiles");
      if (row_seen[static_cast<std::size_t>(y)])
        line.fail("duplicate row " + std::to_string(y));
      row_seen[static_cast<std::size_t>(y)] = true;
      for (int x = 0; x < fabric.width(); ++x) {
        const char ch = tiles[static_cast<std::size_t>(x)];
        const auto t = resource_from_char(ch);
        if (!t)
          line.fail(std::string("unknown resource character '") + ch +
                    "' (column " + std::to_string(x + 1) + ")");
        fabric.set(x, y, *t);
      }
    } else if (line[0] == "static") {
      // Static-region rectangle: retypes the covered tiles to kStatic after
      // all rows are painted. Out-of-bounds and mutually overlapping
      // rectangles are rejected outright — silently clipping or
      // double-claiming tiles hides floorplan errors.
      constexpr std::string_view kFields =
          "static rectangle fields must be integers";
      if (!have_header) line.fail("static before fabric header");
      if (line.size() != 5) line.fail("expected: static <x> <y> <w> <h>");
      const Rect rect{line.integer(1, kFields), line.integer(2, kFields),
                      line.integer(3, kFields), line.integer(4, kFields)};
      if (rect.empty())
        line.fail("static rectangle dimensions must be positive");
      if (!inside_grid(rect, fabric.width(), fabric.height()))
        line.fail("static rectangle out of bounds");
      for (const Rect& prior : static_rects) {
        if (rect.intersects(prior))
          line.fail("static rectangle overlaps an earlier one");
      }
      static_rects.push_back(rect);
    } else {
      line.fail("unknown directive '" + std::string(line[0]) + "'");
    }
  }
  if (!have_header) {
    // Distinguish "no input at all" from "input without a header": the
    // former gets a message that does not point at a bogus line 0.
    if (line.line() == 0) throw InvalidInput(source + ": empty fabric file");
    line.fail("missing fabric header");
  }
  for (std::size_t y = 0; y < row_seen.size(); ++y) {
    if (!row_seen[y]) line.fail("missing row " + std::to_string(y));
  }
  for (const Rect& rect : static_rects)
    fabric.set_rect(rect, ResourceType::kStatic);
  return fabric;
}

}  // namespace

Fabric parse_fdf(std::istream& in) { return parse(in, "fdf"); }

Fabric parse_fdf_string(const std::string& text) {
  std::istringstream in(text);
  return parse_fdf(in);
}

Fabric load_fdf(const std::string& path) {
  std::ifstream in(path);
  RR_REQUIRE(in.good(), "cannot open fabric file: " + path);
  return parse(in, path);
}

void write_fdf(std::ostream& out, const Fabric& fabric) {
  out << "# rrplace fabric description\n";
  out << "fabric " << (fabric.name().empty() ? "fabric" : fabric.name()) << ' '
      << fabric.width() << ' ' << fabric.height() << '\n';
  for (int y = 0; y < fabric.height(); ++y) {
    out << "row " << y << ' ';
    for (int x = 0; x < fabric.width(); ++x)
      out << resource_char(fabric.at(x, y));
    out << '\n';
  }
}

std::string write_fdf_string(const Fabric& fabric) {
  std::ostringstream out;
  write_fdf(out, fabric);
  return out.str();
}

void save_fdf(const std::string& path, const Fabric& fabric) {
  std::ofstream out(path);
  RR_REQUIRE(out.good(), "cannot write fabric file: " + path);
  write_fdf(out, fabric);
}

}  // namespace rr::fpga
