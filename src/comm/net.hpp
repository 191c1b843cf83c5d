// Inter-module communication model: weighted nets between modules and to
// fixed IO/bus attachment points.
//
// Ahmadinia et al. show communication cost belongs in the online placement
// decision itself; Deak et al. use the same weighted half-perimeter
// wirelength (HPWL) formulation for PR floorplanning. A net connects two or
// more endpoints — module names and/or fixed fabric terminals — and costs
// `weight * HPWL(endpoint centers)`.
//
// All arithmetic uses *doubled* coordinates so module centers stay integral:
// a module placed at anchor (x, y) whose chosen shape has bounding box
// (w, h) has doubled center (2x + w, 2y + h); a terminal tile (tx, ty) has
// doubled center (2tx + 1, 2ty + 1). A doubled HPWL of `d` is `d / 2` tiles
// of real wirelength.
//
// The zero-weight oracle: every consumer gates its comm machinery on
// "a net list is present AND the configured weight is positive AND at least
// one net survives binding". When any of those fail, the consumer must run
// byte-for-byte the area-only code path (same variables, same propagators,
// same RNG draws), so `--comm-weight 0` is differentially testable against
// builds that never heard of src/comm.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "geo/point.hpp"
#include "geo/rect.hpp"
#include "model/module.hpp"

namespace rr::comm {

/// Relative scale of the extent term when a combined objective mixes area
/// and wirelength: cost = kExtentScale * extent + comm_weight * HPWL2.
/// One tile of horizontal extent trades against kExtentScale / (2 * weight)
/// tiles of wirelength.
inline constexpr long kExtentScale = 16;

/// One weighted net: >= 2 endpoints drawn from module names and fixed
/// fabric terminals.
struct Net {
  long weight = 1;
  std::vector<std::string> modules;
  std::vector<Point> terminals;

  [[nodiscard]] bool mentions(std::string_view name) const;
  [[nodiscard]] std::size_t endpoint_count() const noexcept {
    return modules.size() + terminals.size();
  }
};

struct NetList {
  std::vector<Net> nets;

  [[nodiscard]] bool empty() const noexcept { return nets.empty(); }
  [[nodiscard]] bool mentions(std::string_view name) const;
};

/// Parse the `.net` text format:
///
///   # comment (blank lines ignored; '#' also ends a line early)
///   net <weight> <endpoint> <endpoint> [...]
///
/// where an endpoint is a module name or `@x,y` (a fixed fabric terminal).
/// Weights must be non-negative integers; every net needs >= 2 endpoints.
/// Errors throw InvalidInput located as "net:<line>: <what>".
[[nodiscard]] NetList parse_nets(std::string_view text);

/// parse_nets over a file; errors are prefixed with `path:line`.
[[nodiscard]] NetList load_nets(const std::string& path);

/// Doubled-coordinate center (see file comment).
struct Center2 {
  int x = 0;
  int y = 0;

  friend constexpr bool operator==(Center2, Center2) noexcept = default;
};

/// Doubled center of a shape bounding box anchored at (x, y).
[[nodiscard]] constexpr Center2 center2(const Rect& bbox, int x,
                                        int y) noexcept {
  return Center2{2 * x + bbox.width, 2 * y + bbox.height};
}

/// Doubled center of a terminal tile.
[[nodiscard]] constexpr Center2 terminal_center2(Point t) noexcept {
  return Center2{2 * t.x + 1, 2 * t.y + 1};
}

/// A net list bound against a fixed module list: module names resolved to
/// indices, zero-weight and degenerate (< 2 endpoint) nets dropped. Binding
/// throws ModelError on a net naming a module absent from the list.
class BoundNets {
 public:
  struct BoundNet {
    long weight = 1;
    std::vector<int> members;        ///< indices into the bound module list
    std::vector<Center2> terminals;  ///< pre-doubled fixed endpoints
  };

  BoundNets() = default;
  BoundNets(const NetList& nets, std::span<const model::Module> modules);

  /// True when no net survived binding — consumers must then take the
  /// area-only path (the zero-weight oracle).
  [[nodiscard]] bool empty() const noexcept { return nets_.empty(); }
  [[nodiscard]] const std::vector<BoundNet>& nets() const noexcept {
    return nets_;
  }
  [[nodiscard]] int module_count() const noexcept { return module_count_; }
  /// Sorted unique indices of modules mentioned by any surviving net.
  [[nodiscard]] const std::vector<int>& used_modules() const noexcept {
    return used_;
  }

  /// Weighted doubled HPWL of a full assignment: `centers[i]` is the doubled
  /// center of module i (size must equal module_count()).
  [[nodiscard]] long wirelength2(std::span<const Center2> centers) const;

 private:
  std::vector<BoundNet> nets_;
  std::vector<int> used_;
  int module_count_ = 0;
};

/// A placed instance pin, for evaluating partial configurations where the
/// same module may be instantiated zero or more times (online traces).
struct NamedPin {
  std::string_view name;
  Center2 center;
};

/// Weighted doubled HPWL of a pin set: each net folds the centers of every
/// pin whose name it mentions plus its terminals; nets with fewer than two
/// present endpoints contribute 0.
[[nodiscard]] long pins_wirelength2(const NetList& nets,
                                    std::span<const NamedPin> pins);

/// Per-request ranking context: the fixed partner pins of every net that
/// mentions one module, folded to bounding intervals so candidate anchors
/// score in O(nets mentioning the module).
///
/// Nets where the module is the only present endpoint are dropped (every
/// anchor would cost the same), so an empty() context means communication
/// cannot distinguish anchors and callers must fall back to the area-only
/// policy — again the zero-weight oracle.
class PinContext {
 public:
  struct NetBounds {
    long weight = 1;
    int lo_x = 0;
    int hi_x = 0;
    int lo_y = 0;
    int hi_y = 0;
  };

  PinContext() = default;

  /// Context for placing one instance of module `name` given the currently
  /// placed pins (the caller excludes the moving instance itself).
  [[nodiscard]] static PinContext build(const NetList& nets,
                                        std::string_view name,
                                        std::span<const NamedPin> pins);

  [[nodiscard]] bool empty() const noexcept { return bounds_.empty(); }
  [[nodiscard]] const std::vector<NetBounds>& bounds() const noexcept {
    return bounds_;
  }

  /// Weighted doubled HPWL contribution of placing the module at doubled
  /// center `c`: sum over nets of weight * (span growth to include c).
  [[nodiscard]] long cost2(Center2 c) const noexcept;

 private:
  std::vector<NetBounds> bounds_;
};

}  // namespace rr::comm
