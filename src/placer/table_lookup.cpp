// The table lookup behind incumbent and seed placements (compaction,
// phase freezing, the annealing seed). Its own translation unit: the
// solve paths that only build from tables do not link it.
#include <algorithm>

#include "placer/model_builder.hpp"

namespace rr::placer {

int find_placement(const ModuleTables& tables, int shape, int x, int y) {
  const auto it = std::find_if(
      tables.table.begin(), tables.table.end(),
      [&](const geost::Placement& p) {
        return p.shape == shape && p.x == x && p.y == y;
      });
  return it == tables.table.end()
             ? -1
             : static_cast<int>(it - tables.table.begin());
}

}  // namespace rr::placer
