// LiveLayout::check_invariants, in a translation unit of its own so that
// binaries which never audit do not link it.
#include <sstream>

#include "runtime/live_layout.hpp"

namespace rr::runtime {

std::vector<std::string> LiveLayout::check_invariants() const {
  std::vector<std::string> out;
  const auto report = [&out](const auto&... parts) {
    std::ostringstream message;
    message << "live layout: ";
    (message << ... << parts);
    out.push_back(message.str());
  };
  const std::vector<BitMatrix>& masks = region_->masks();
  BitMatrix footprints(occupied_.rows(), occupied_.cols());
  long area = 0;
  for (const auto& [id, instance] : live_) {
    const std::size_t shapes = instance.module.shapes().size();
    if (instance.shape < 0 ||
        static_cast<std::size_t>(instance.shape) >= shapes) {
      report("instance ", id, " has shape ", instance.shape, " of ", shapes);
      continue;
    }
    const geost::ShapeFootprint& footprint = instance.footprint();
    for (std::size_t k = 0; k < footprint.typed().size(); ++k) {
      const auto resource =
          static_cast<std::size_t>(footprint.typed()[k].resource);
      if (resource >= masks.size() ||
          !masks[resource].covers_shifted(footprint.typed_masks()[k],
                                          instance.y, instance.x))
        report("instance ", id, " (module '", instance.module.name(),
               "' at ", instance.x, ",", instance.y,
               ") is on tiles the region does not offer as resource ",
               resource);
    }
    const BitMatrix& mask = footprint.mask();
    area += footprint.area();
    // or_shifted asserts on cells outside the grid (reported above).
    if (instance.x < 0 || instance.y < 0 ||
        instance.x + mask.cols() > footprints.cols() ||
        instance.y + mask.rows() > footprints.rows())
      continue;
    if (footprints.intersects_shifted(mask, instance.y, instance.x))
      report("instance ", id, " overlaps another instance");
    footprints.or_shifted(mask, instance.y, instance.x);
  }
  if (!(footprints == occupied_))
    report("occupancy bitmap is not the union of the footprints");
  const auto popcount = static_cast<long>(occupied_.popcount());
  if (occupied_tiles_ != area || occupied_tiles_ != popcount)
    report("occupied_tiles() ", occupied_tiles_, " != footprint area ", area,
           " or popcount ", popcount);
  if (!(index_.available_matrix() == FreeSpaceIndex::union_of(masks)))
    report("stale index: availability is not the union of the region masks");
  BitMatrix free = index_.available_matrix();
  free.clear_shifted(occupied_, 0, 0);
  if (!(index_.free_matrix() == free))
    report("index occupancy does not mirror the layout's");
  for (std::string& violation : index_.check_invariants())
    out.push_back(std::move(violation));
  return out;
}

}  // namespace rr::runtime
