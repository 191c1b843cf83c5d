// Tenant::check_invariants and PlacementService::check_invariants, in a
// translation unit of their own so that binaries which never audit do not
// link them.
#include <sstream>

#include "service/service.hpp"

namespace rr::service {
namespace {

template <typename... Parts>
std::string concat(const Parts&... parts) {
  std::ostringstream message;
  (message << ... << parts);
  return message.str();
}

}  // namespace

std::vector<std::string> Tenant::check_invariants() const {
  const runtime::LiveLayout& layout = placer_.layout();
  std::vector<std::string> out = layout.check_invariants();
  // Every recorded id live with its library module, and no other live id.
  for (const auto& [id, index] : instance_module_)
    if (!layout.contains(id) || index < 0 ||
        index >= static_cast<int>(library_.size()) ||
        layout.at(id).module.name() !=
            library_[static_cast<std::size_t>(index)].name())
      out.push_back(concat("instance ", id, " (library module ", index,
                           ") is not live with that module"));
  if (instance_module_.size() != layout.instances().size())
    out.push_back(concat(instance_module_.size(), " instances recorded, ",
                         layout.instances().size(), " live"));
  if (context_ != nullptr &&
      context_->key().fabric != fabric_signature(region_))
    out.emplace_back("stale solve context: keyed by another fabric");
  return out;
}

std::vector<std::string> PlacementService::check_invariants() const {
  std::vector<std::string> out;
  const ShedCounters c = shed_counters();
  if (c.submitted != c.completed + c.total_shed())
    out.push_back(concat("accounting: submitted ", c.submitted,
                         " != completed ", c.completed, " + shed ",
                         c.total_shed()));
  for (std::size_t t = 0; t < tenants_.size(); ++t)
    for (const std::string& violation : tenants_[t]->check_invariants())
      out.push_back(concat("tenant ", t, ": ", violation));
  return out;
}

}  // namespace rr::service
