// Fabric description format (.fdf) — the textual stand-in for the partial
// region specification a floorplanning tool would emit (Fig. 2).
//
//   # comment
//   fabric <name> <width> <height>
//   row <y> <width characters, one resource char per tile>
//   static <x> <y> <w> <h>
//   ...
//
// Every row 0..height-1 must appear exactly once; resource characters are
// those of resource_char(). Rows may appear in any order. `static`
// rectangles retype the covered tiles to kStatic after all rows are
// painted; a rectangle reaching outside the fabric or overlapping another
// static rectangle is rejected with a line-numbered error ("<path>:<line>:"
// from load_fdf, "fdf:<line>:" from parse_fdf); '#' starts a comment
// anywhere on a line. A header may ask for at most 2^24 tiles (width times
// height); a larger one is rejected before any tile is allocated.
#pragma once

#include <iosfwd>
#include <string>

#include "fpga/fabric.hpp"

namespace rr::fpga {

/// Parse a fabric; throws rr::InvalidInput with a line-numbered message on
/// malformed input.
[[nodiscard]] Fabric parse_fdf(std::istream& in);
[[nodiscard]] Fabric parse_fdf_string(const std::string& text);
[[nodiscard]] Fabric load_fdf(const std::string& path);

/// Serialize; parse_fdf(write_fdf(f)) == f.
void write_fdf(std::ostream& out, const Fabric& fabric);
[[nodiscard]] std::string write_fdf_string(const Fabric& fabric);
void save_fdf(const std::string& path, const Fabric& fabric);

}  // namespace rr::fpga
