// Solve-context caching for the placement service.
//
// The expensive part of serving a placement request is not the first-fit
// scan — it is preparing the per-module placement tables (anchor
// correlation of every shape against the region's availability masks).
// Those tables depend only on (fabric availability, module library,
// alternatives setting), all of which are stable across many requests, so
// the service caches them: a SolveContext bundles the shared tables for one
// (fabric signature, library signature) pair and plugs into
// baseline::OnlinePlacer as its ModuleTableSource; the SolveContextCache
// deduplicates contexts across tenants that run the same fabric and
// library.
//
// Invalidation: signatures are content hashes over the availability masks
// and shape layouts, so any fault or repair changes the fabric signature
// and a re-acquire naturally builds (or finds) the right context — a stale
// context cannot be returned for a changed fabric. A faulted fabric's
// context is derived from the fault-free one by filtering its tables with
// the fault mask (placer::filter_tables), never by rescanning. Memory is
// bounded by an LRU cap: when an insert would exceed the capacity, the
// least-recently-acquired entry is evicted, so fabric states nobody runs
// anymore age out while hot shared entries (healthy-fabric tables several
// tenants run on) survive any one tenant's fault churn. Occupancy changes
// (place/remove/defrag) never invalidate: the tables encode availability,
// not occupancy.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "baseline/online.hpp"
#include "fpga/region.hpp"
#include "model/module.hpp"
#include "placer/model_builder.hpp"

namespace rr::service {

/// Content hash of a region's placement-relevant state: dimensions plus the
/// per-resource availability masks (which already fold in static tiles,
/// blocks, and the fault overlay). Two regions with equal signatures yield
/// identical anchor tables for any module.
[[nodiscard]] std::uint64_t fabric_signature(const fpga::PartialRegion& region);

/// Content hash of a module library: names, shape order, and per-shape
/// typed layouts. Order-sensitive — the cached tables are indexed by
/// library position.
[[nodiscard]] std::uint64_t library_signature(
    std::span<const model::Module> modules);

struct SolveContextKey {
  std::uint64_t fabric = 0;
  std::uint64_t library = 0;
  bool use_alternatives = true;

  auto operator<=>(const SolveContextKey&) const = default;
};

/// Immutable solve state for one (fabric, library) pair: the shared
/// placement tables plus a name index for ModuleTableSource lookups.
/// Everything is built in the constructor and never mutated, so one context
/// may be installed in placers on several worker threads at once.
class SolveContext final : public baseline::ModuleTableSource {
 public:
  SolveContext(SolveContextKey key, const fpga::PartialRegion& region,
               std::span<const model::Module> library);

  /// The context of `base`'s library on `base`'s fabric with the cells of
  /// `blocked` (region-shaped) also unavailable — a fault overlay, say:
  /// every table is `base`'s filtered by placer::filter_tables, equal to
  /// a fresh preparation on the reduced fabric without rescanning it.
  SolveContext(SolveContextKey key, const SolveContext& base,
               const BitMatrix& blocked);

  [[nodiscard]] const SolveContextKey& key() const noexcept { return key_; }

  /// Tables over the whole library, library order — the handle to inject
  /// into runtime::ReconfigurationManager::set_pool_tables or a Placer.
  [[nodiscard]] const placer::TablesHandle& tables() const noexcept {
    return tables_;
  }

  /// ModuleTableSource: resolve by module name. Within one library names
  /// are unique and pin the content (the library signature covers shapes),
  /// so a name match is a content match. Thread-safe (pure read).
  [[nodiscard]] const placer::ModuleTables* lookup(
      const model::Module& module) override;

 private:
  SolveContextKey key_;
  placer::TablesHandle tables_;
  std::unordered_map<std::string, std::size_t> index_;  // name → library pos
};

struct SolveContextCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t evictions = 0;  // LRU-cap evictions (not invalidate() calls)
  std::size_t entries = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                     : 0.0;
  }
};

/// Shared, thread-safe context cache. acquire() is the only build path, so
/// concurrent tenants with the same fabric and library share one table
/// preparation. The service benches' uncached control arm hands tenants no
/// cache at all (PlacementService's `cache_enabled = false`).
class SolveContextCache {
 public:
  /// Default LRU capacity: comfortably above the distinct (fabric, library)
  /// states a typical tenant mix runs at once, small enough that dead
  /// fabric states cannot accumulate tables without bound.
  static constexpr std::size_t kDefaultCapacity = 32;

  /// `capacity` caps the entry count (LRU eviction on overflow); 0 means
  /// unbounded.
  explicit SolveContextCache(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// The context for (region, library, use_alternatives): cached when the
  /// signatures match an entry, built (and inserted) otherwise. A miss
  /// with a `fault_free` context — same library and alternatives setting,
  /// built on this region before its fault overlay — derives the new
  /// context from it by filtering with region.fault_mask() instead of
  /// rescanning the library.
  [[nodiscard]] std::shared_ptr<SolveContext> acquire(
      const fpga::PartialRegion& region,
      std::span<const model::Module> library, bool use_alternatives,
      const SolveContext* fault_free = nullptr);

  /// Drop the entry for `key`, if present. Holders keep their shared_ptr
  /// alive; the next acquire for the same signatures rebuilds (a miss).
  void invalidate(const SolveContextKey& key);

  [[nodiscard]] SolveContextCacheStats stats() const;

 private:
  struct Entry {
    std::shared_ptr<SolveContext> context;
    std::uint64_t last_used = 0;  // recency tick of the latest acquire
  };

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::map<SolveContextKey, Entry> entries_;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t invalidations_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace rr::service
