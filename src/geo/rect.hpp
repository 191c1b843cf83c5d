// Axis-aligned integer rectangle, half-open in neither direction: a Rect
// covers cells [x, x+width) x [y, y+height).
#pragma once

#include <algorithm>
#include <compare>

#include "geo/point.hpp"

namespace rr {

struct Rect {
  int x = 0;
  int y = 0;
  int width = 0;
  int height = 0;

  [[nodiscard]] constexpr int right() const noexcept { return x + width; }
  [[nodiscard]] constexpr int top() const noexcept { return y + height; }
  [[nodiscard]] constexpr long area() const noexcept {
    return static_cast<long>(width) * height;
  }
  [[nodiscard]] constexpr bool empty() const noexcept {
    return width <= 0 || height <= 0;
  }

  [[nodiscard]] constexpr bool contains(Point p) const noexcept {
    return p.x >= x && p.x < right() && p.y >= y && p.y < top();
  }

  [[nodiscard]] constexpr bool contains(const Rect& other) const noexcept {
    return other.x >= x && other.right() <= right() && other.y >= y &&
           other.top() <= top();
  }

  [[nodiscard]] constexpr bool intersects(const Rect& other) const noexcept {
    return !empty() && !other.empty() && x < other.right() &&
           other.x < right() && y < other.top() && other.y < top();
  }

  /// Intersection rectangle (empty Rect when disjoint).
  [[nodiscard]] constexpr Rect intersection(const Rect& other) const noexcept {
    const int nx = std::max(x, other.x);
    const int ny = std::max(y, other.y);
    const int nr = std::min(right(), other.right());
    const int nt = std::min(top(), other.top());
    if (nr <= nx || nt <= ny) return Rect{};
    return Rect{nx, ny, nr - nx, nt - ny};
  }

  /// Smallest rectangle containing both (treats empty as identity).
  [[nodiscard]] constexpr Rect bounding_union(const Rect& other) const noexcept {
    if (empty()) return other;
    if (other.empty()) return *this;
    const int nx = std::min(x, other.x);
    const int ny = std::min(y, other.y);
    const int nr = std::max(right(), other.right());
    const int nt = std::max(top(), other.top());
    return Rect{nx, ny, nr - nx, nt - ny};
  }

  [[nodiscard]] constexpr Rect translated(Point d) const noexcept {
    return Rect{x + d.x, y + d.y, width, height};
  }

  constexpr auto operator<=>(const Rect&) const noexcept = default;
};

/// True when `r` is non-empty and lies inside the `width` x `height` grid
/// anchored at the origin. No field sum is formed, so input parsers can
/// test raw coordinates of any magnitude with it.
[[nodiscard]] constexpr bool inside_grid(const Rect& r, int width,
                                         int height) noexcept {
  return r.x >= 0 && r.y >= 0 && r.width > 0 && r.height > 0 &&
         r.width <= width - r.x && r.height <= height - r.y;
}

}  // namespace rr
