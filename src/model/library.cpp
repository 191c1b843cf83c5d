#include "model/library.hpp"

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace rr::model {
namespace {

// Errors point at the shape's first line, `start`.
ShapeFootprint shape_from_rows(const std::vector<std::string>& rows,
                               const LineLexer& line, int start) {
  std::map<int, std::vector<Point>> by_resource;
  const int height = static_cast<int>(rows.size());
  for (int i = 0; i < height; ++i) {
    const std::string& row = rows[static_cast<std::size_t>(i)];
    const int y = height - 1 - i;  // top row first in the file
    for (int x = 0; x < static_cast<int>(row.size()); ++x) {
      const char ch = row[static_cast<std::size_t>(x)];
      if (ch == '.') continue;
      const auto t = fpga::resource_from_char(ch);
      if (!t || !fpga::placeable(*t))
        line.fail_at(start,
                     std::string("invalid shape character '") + ch + "'");
      by_resource[static_cast<int>(*t)].push_back(Point{x, y});
    }
  }
  if (by_resource.empty()) line.fail_at(start, "shape has no tiles");
  std::vector<TypedCells> groups;
  for (auto& [resource, cells] : by_resource)
    groups.push_back(TypedCells{resource, CellSet(std::move(cells), false)});
  return ShapeFootprint::from_typed(std::move(groups));
}

/// Errors are located as `<source>:<line>:`.
std::vector<Module> parse(std::istream& in, std::string source) {
  std::vector<Module> modules;
  LineLexer line(in, std::move(source));

  std::string current_name;
  std::vector<ShapeFootprint> current_shapes;
  bool in_module = false;
  bool in_shape = false;
  std::vector<std::string> shape_rows;
  int shape_start_line = 0;

  // Shape pictures are read raw: a blank line or '#' inside one is an
  // error, not a skipped line or a comment.
  while (in_shape ? line.next_raw() : line.next()) {
    if (in_shape) {
      if (line.text() == "endshape") {
        current_shapes.push_back(
            shape_from_rows(shape_rows, line, shape_start_line));
        shape_rows.clear();
        in_shape = false;
      } else if (line.text().empty()) {
        line.fail("blank line inside shape");
      } else {
        shape_rows.emplace_back(line.text());
      }
      continue;
    }
    if (line[0] == "module") {
      if (in_module) line.fail("nested module");
      if (line.size() != 2) line.fail("expected: module <name>");
      current_name = std::string(line[1]);
      current_shapes.clear();
      in_module = true;
    } else if (line[0] == "shape") {
      if (!in_module) line.fail("shape outside module");
      if (line.size() != 1) line.fail("expected: shape");
      in_shape = true;
      shape_start_line = line.line();
    } else if (line[0] == "endmodule") {
      if (!in_module) line.fail("endmodule without module");
      if (line.size() != 1) line.fail("expected: endmodule");
      if (current_shapes.empty()) line.fail("module has no shapes");
      modules.emplace_back(current_name, std::move(current_shapes));
      current_shapes = {};
      in_module = false;
    } else {
      line.fail("unknown directive '" + std::string(line[0]) + "'");
    }
  }
  if (in_shape) line.fail("unterminated shape");
  if (in_module) line.fail("unterminated module");
  return modules;
}

}  // namespace

std::vector<Module> parse_mlf(std::istream& in) { return parse(in, "mlf"); }

std::vector<Module> parse_mlf_string(const std::string& text) {
  std::istringstream in(text);
  return parse_mlf(in);
}

std::vector<Module> load_mlf(const std::string& path) {
  std::ifstream in(path);
  RR_REQUIRE(in.good(), "cannot open module library: " + path);
  return parse(in, path);
}

void write_mlf(std::ostream& out, std::span<const Module> modules) {
  out << "# rrplace module library\n";
  for (const Module& module : modules) {
    out << "module " << module.name() << '\n';
    for (const ShapeFootprint& shape : module.shapes()) {
      out << "shape\n" << shape_picture(shape) << "endshape\n";
    }
    out << "endmodule\n";
  }
}

std::string write_mlf_string(std::span<const Module> modules) {
  std::ostringstream out;
  write_mlf(out, modules);
  return out.str();
}

void save_mlf(const std::string& path, std::span<const Module> modules) {
  std::ofstream out(path);
  RR_REQUIRE(out.good(), "cannot write module library: " + path);
  write_mlf(out, modules);
}

}  // namespace rr::model
