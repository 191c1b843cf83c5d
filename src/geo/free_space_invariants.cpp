// FreeSpaceIndex::check_invariants, in a translation unit of its own so
// that binaries which never audit do not link it.
#include <algorithm>
#include <string>

#include "geo/free_space.hpp"

namespace rr {

std::vector<std::string> FreeSpaceIndex::check_invariants() const {
  std::vector<std::string> out;
  BitMatrix expect = avail_;
  expect.clear_shifted(occ_, 0, 0);
  if (!(expect == free_))
    out.emplace_back("free-space index: free is not available - occupied");
  if (free_tiles_ != static_cast<long>(free_.popcount()))
    out.push_back(std::string("free-space index: free_tiles() ")
                      .append(std::to_string(free_tiles_))
                      .append(" != popcount ")
                      .append(std::to_string(free_.popcount())));
  // enumerate() yields each maximal empty rectangle once, so set equality
  // covers emptiness, maximality, completeness and duplicates.
  std::vector<Rect> stored = mers_;
  std::vector<Rect> want = enumerate(free_);
  std::sort(stored.begin(), stored.end());
  std::sort(want.begin(), want.end());
  if (stored != want)
    out.emplace_back(
        "free-space index: the stored rectangles are not the maximal empty "
        "rectangles of the free bitmap");
  return out;
}

}  // namespace rr
