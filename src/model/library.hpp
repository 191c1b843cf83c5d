// Module library format (.mlf) — the textual stand-in for the module
// specification (unplaced netlists + bounding boxes) of Fig. 2.
//
//   # comment
//   module <name>
//   shape
//   CCB.
//   CCB.
//   CC..
//   endshape
//   [more shapes...]
//   endmodule
//
// Shape rows are printed top row first; '.' marks cells outside the shape;
// other characters are resource chars (resource_char). Every shape of a
// module is one design alternative. '#' starts a comment anywhere on a
// directive line; shape rows are read raw, so '#' inside a shape is an error.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "model/module.hpp"

namespace rr::model {

[[nodiscard]] std::vector<Module> parse_mlf(std::istream& in);
[[nodiscard]] std::vector<Module> parse_mlf_string(const std::string& text);
[[nodiscard]] std::vector<Module> load_mlf(const std::string& path);

void write_mlf(std::ostream& out, std::span<const Module> modules);
[[nodiscard]] std::string write_mlf_string(std::span<const Module> modules);
void save_mlf(const std::string& path, std::span<const Module> modules);

}  // namespace rr::model
