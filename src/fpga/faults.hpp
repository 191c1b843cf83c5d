// Fabric fault model: per-tile healthy/faulty state layered over a Fabric.
//
// Runtime reconfigurable systems degrade in the field: single-event upsets
// flip configuration memory (transient faults, repairable by scrubbing or
// reconfiguration) and silicon defects kill tiles, columns, or clusters
// permanently. A FaultMap records that state *beside* the Fabric — the
// fabric stays the design-time description, the fault map is the runtime
// overlay — and PartialRegion::apply_faults() folds it into the
// availability masks every placer consumes, so a faulty tile is simply
// never offered as an anchor.
//
// Fault *traces* (.fft files) serialize timed injection/repair event
// sequences in the .fdf directive style:
//
//   # comment
//   faults <width> <height>
//   tile <x> <y> [permanent|transient]
//   column <x> [permanent|transient]
//   rect <x> <y> <w> <h> [permanent|transient]
//   repair <x> <y>
//   repair-transient
//
// The header is mandatory and every event is validated against it with a
// line-numbered error ("fft:<line>:"); '#' starts a comment anywhere on a
// line. A FaultMap round-trips through a trace of its
// surviving injections (write_fault_map / parse order-independent state).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fpga/fabric.hpp"
#include "util/bitmatrix.hpp"
#include "util/strings.hpp"

namespace rr::fpga {

enum class FaultKind : std::uint8_t {
  kTransient,  // SEU-style: repairable
  kPermanent,  // defect: never repairable
};

/// One timed fault-injection or repair event.
struct FaultEvent {
  enum class Op : std::uint8_t {
    kTile,             // rect is 1x1 at (x, y)
    kColumn,           // rect is column x, full height
    kRect,             // rectangular cluster
    kRepairTile,       // clear a transient fault at (x, y); rect is 1x1
    kRepairTransient,  // clear every transient fault
  };

  Op op = Op::kTile;
  FaultKind kind = FaultKind::kPermanent;
  Rect rect{};

  bool operator==(const FaultEvent&) const = default;
};

/// A parsed .fft file: fabric dimensions plus the event sequence.
struct FaultTrace {
  int width = 0;
  int height = 0;
  std::vector<FaultEvent> events;
};

/// Per-tile fault state over a width x height grid (fabric coordinates).
class FaultMap {
 public:
  FaultMap() = default;
  FaultMap(int width, int height);
  explicit FaultMap(const Fabric& fabric);

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int height() const noexcept { return height_; }

  [[nodiscard]] bool faulty(int x, int y) const noexcept {
    return state_[index(x, y)] != kHealthy;
  }
  /// True when (x, y) carries a permanent (unrepairable) fault.
  [[nodiscard]] bool permanent(int x, int y) const noexcept {
    return state_[index(x, y)] == kPermanentState;
  }

  /// Inject one fault. A permanent fault overrides a transient one on the
  /// same tile; a transient injection never downgrades a permanent fault.
  void inject(int x, int y, FaultKind kind);
  void inject_column(int x, FaultKind kind);
  /// The rectangle must lie fully inside the grid.
  void inject_rect(const Rect& rect, FaultKind kind);

  /// Clear a transient fault at (x, y); a permanent fault stays (repairing
  /// a defect is physically impossible), a healthy tile is a no-op.
  void repair(int x, int y);
  /// Clear every transient fault (configuration scrubbing).
  void repair_transient();

  /// Apply one event (dispatch over FaultEvent::Op).
  void apply(const FaultEvent& event);

  [[nodiscard]] long faulty_count() const noexcept;
  [[nodiscard]] long permanent_count() const noexcept;
  [[nodiscard]] long transient_count() const noexcept;

  /// Faulty-tile bitmap, rows by y and columns by x — the shape
  /// PartialRegion::apply_faults() consumes.
  [[nodiscard]] BitMatrix mask() const;

  /// The surviving state as injection events (permanent then transient,
  /// row-major): applying them to a fresh map reproduces *this.
  [[nodiscard]] std::vector<FaultEvent> to_events() const;

  bool operator==(const FaultMap& other) const noexcept = default;

 private:
  static constexpr std::uint8_t kHealthy = 0;
  static constexpr std::uint8_t kTransientState = 1;
  static constexpr std::uint8_t kPermanentState = 2;

  [[nodiscard]] std::size_t index(int x, int y) const noexcept {
    RR_ASSERT(x >= 0 && x < width_ && y >= 0 && y < height_);
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
           static_cast<std::size_t>(x);
  }

  int width_ = 0;
  int height_ = 0;
  std::vector<std::uint8_t> state_;
};

/// Parse the .fft event on the lexer's current line: the op is field
/// `op_at`, its arguments run from field `args_at` to the end. Field
/// counts, the kind and the bounds of a `width` x `height` fabric are
/// checked; errors fail through the lexer. Serve traces embed these events.
[[nodiscard]] FaultEvent parse_fault_event(const LineLexer& line,
                                           std::size_t op_at,
                                           std::size_t args_at, int width,
                                           int height);

/// Parse a fault trace; throws rr::InvalidInput with a line-numbered
/// message on malformed input (unknown op, missing header, out-of-bounds
/// coordinates, bad fault kind).
[[nodiscard]] FaultTrace parse_fault_trace(std::istream& in);
[[nodiscard]] FaultTrace parse_fault_trace_string(const std::string& text);
[[nodiscard]] FaultTrace load_fault_trace(const std::string& path);

/// Serialize; parse_fault_trace(write_fault_trace(t)) == t.
void write_fault_trace(std::ostream& out, const FaultTrace& trace);
[[nodiscard]] std::string write_fault_trace_string(const FaultTrace& trace);

/// Replay a whole trace into a map (dimensions from the trace header).
[[nodiscard]] FaultMap fault_map_from_trace(const FaultTrace& trace);
/// The map's surviving state as a trace; fault_map_from_trace() inverts it.
[[nodiscard]] FaultTrace fault_trace_from_map(const FaultMap& map);

}  // namespace rr::fpga
