// Solver observability: a process-wide registry of named counters and
// timers, plus the global collection switch.
//
// Design goals, in order:
//   1. Zero cost when disabled. Collection is off by default; every
//      recording call starts with one relaxed atomic-bool load (or compiles
//      away entirely under -DRRPLACE_DISABLE_METRICS). The hot solver loops
//      additionally cache the flag at Space construction so they pay
//      nothing per propagation.
//   2. Machine readable. Snapshots serialize to JSON (util/json) and feed
//      `rrplace_cli <cmd> --stats-json`, the BENCH_*.json records and the CI
//      benchmark artifacts.
//   3. Mergeable. Portfolio workers and LNS iterations record into local
//      registries or stat structs and merge into one document at the end.
//
// Naming convention: dot-separated paths, coarse component first —
// "placer.lns.iterations", "placer.validator.rejections",
// "placer.build_seconds". Counters are monotone event counts; timers
// accumulate (count, total seconds) pairs.
//
// Threading contract:
//   - Every Registry method is individually thread-safe (one mutex per
//     registry; merge() copies the source under its lock, then folds under
//     the destination lock, so no call ever holds two locks at once).
//   - global() resolves to the process-wide registry unless the calling
//     thread installed a ThreadShard redirect, in which case it resolves to
//     that thread's shard. Concurrent engines (portfolio workers, service
//     workers) each install a shard so hot-path recording never contends on
//     the process mutex, every event lands in exactly one shard, and a
//     merge-on-snapshot yields totals identical to a serial run.
//   - Snapshots (counter()/timer()/to_json()) copy under the lock: a
//     snapshot taken while other threads record sees a consistent
//     (point-in-time) view and sorted keys, never a torn entry.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"
#include "util/stopwatch.hpp"

namespace rr::metrics {

/// Process-wide collection switch. Initialized once from $RRPLACE_METRICS
/// (unset/0 = off); flip programmatically with set_enabled — the CLI and
/// bench harnesses do this when asked for stats output.
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// One timer's accumulated state.
struct TimerStat {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;

  [[nodiscard]] double seconds() const noexcept {
    return static_cast<double>(total_ns) * 1e-9;
  }
};

/// Named counters + timers. Thread-safe; recording takes one mutex, so
/// keep per-event recording out of inner solver loops (those use the
/// per-Space counters instead) and record phase-level events here.
class Registry {
 public:
  Registry() = default;

  /// Add `delta` to counter `name` (created on first use). No-op while
  /// collection is disabled.
  void add(std::string_view name, std::uint64_t delta = 1);

  /// Record one timed interval under timer `name`. No-op while disabled.
  void record_time(std::string_view name, std::uint64_t elapsed_ns);

  /// Current counter value (0 when absent).
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;

  /// Current timer state (zeros when absent).
  [[nodiscard]] TimerStat timer(std::string_view name) const;

  /// Fold another registry into this one (summing counters and timers).
  /// Merging ignores the enabled() switch: data already collected is never
  /// dropped.
  void merge(const Registry& other);

  /// Drop all counters and timers.
  void reset();

  [[nodiscard]] bool empty() const;

  /// Snapshot as {"counters": {...}, "timers": {name: {count, seconds}}},
  /// keys sorted so output is stable across runs.
  [[nodiscard]] json::Value to_json() const;

 private:
  mutable std::mutex mutex_;
  // Flat sorted-on-demand vectors: the registry holds tens of entries, and
  // snapshots are rare next to updates.
  std::vector<std::pair<std::string, std::uint64_t>> counters_;
  std::vector<std::pair<std::string, TimerStat>> timers_;
};

/// The registry every component records into by default: the process-wide
/// registry, unless the calling thread is inside a ThreadShard scope (see
/// below), in which case its shard.
[[nodiscard]] Registry& global();

/// The process-wide registry itself, ignoring any thread redirect — the
/// snapshot/merge target for emitters.
[[nodiscard]] Registry& process();

/// RAII redirect: while alive, global() on *this thread* resolves to
/// `shard` instead of the process registry. Worker threads of concurrent
/// engines install one over a worker-local registry so deep-stack
/// RR_METRIC_* recording is contention-free and per-worker attributable;
/// the owner merges the shards into process() (or a result document) when
/// the workers are done. Scopes nest; each restores the previous target.
class ThreadShard {
 public:
  explicit ThreadShard(Registry& shard) noexcept;
  ~ThreadShard();

  ThreadShard(const ThreadShard&) = delete;
  ThreadShard& operator=(const ThreadShard&) = delete;

 private:
  Registry* previous_;
};

/// RAII timer: records the scope's wall time into `registry` under `name`.
/// Decides at construction; ~free when collection is disabled (no name
/// copy, one clock read).
class ScopedTimer {
 public:
  ScopedTimer(Registry& registry, std::string_view name)
      : registry_(enabled() ? &registry : nullptr),
        name_(registry_ != nullptr ? name : std::string_view()) {}
  explicit ScopedTimer(std::string_view name) : ScopedTimer(global(), name) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (registry_ != nullptr) {
      registry_->record_time(
          name_, static_cast<std::uint64_t>(watch_.elapsed().count()));
    }
  }

 private:
  Registry* registry_;
  std::string name_;
  Stopwatch watch_;
};

}  // namespace rr::metrics

// Compile-time kill switch: -DRRPLACE_DISABLE_METRICS turns the recording
// macros into no-ops (the registry itself stays linkable so cold paths
// like the JSON emitters still compile).
#ifdef RRPLACE_DISABLE_METRICS
#define RR_METRIC_ADD(name, delta) \
  do {                             \
  } while (false)
#define RR_METRIC_COUNT(name) \
  do {                        \
  } while (false)
#else
#define RR_METRIC_ADD(name, delta)                        \
  do {                                                    \
    if (::rr::metrics::enabled())                         \
      ::rr::metrics::global().add((name), (delta));       \
  } while (false)
#define RR_METRIC_COUNT(name) RR_METRIC_ADD(name, 1)
#endif
