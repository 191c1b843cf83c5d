#include "service/solve_context.hpp"

#include "util/error.hpp"
#include "util/metrics.hpp"

namespace rr::service {
namespace {

// FNV-1a, 64-bit: tiny, deterministic across platforms, and collisions are
// a performance concern only (a false mismatch rebuilds tables; a false
// match cannot happen between the fabrics of one process because acquire()
// compares nothing but these hashes — so the word streams below must cover
// every input the tables depend on).
constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void mix(std::uint64_t& hash, std::uint64_t value) noexcept {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (byte * 8)) & 0xFFU;
    hash *= kFnvPrime;
  }
}

void mix_matrix(std::uint64_t& hash, const BitMatrix& m) {
  mix(hash, static_cast<std::uint64_t>(m.rows()));
  mix(hash, static_cast<std::uint64_t>(m.cols()));
  for (int r = 0; r < m.rows(); ++r)
    for (const std::uint64_t word : m.row_span(r)) mix(hash, word);
}

}  // namespace

std::uint64_t fabric_signature(const fpga::PartialRegion& region) {
  std::uint64_t hash = kFnvOffset;
  mix(hash, static_cast<std::uint64_t>(region.width()));
  mix(hash, static_cast<std::uint64_t>(region.height()));
  // The per-resource availability masks are the whole placement-relevant
  // state: static tiles, blocks, and the fault overlay are already folded
  // in, so faults/repairs change this signature and nothing else needs to.
  for (const BitMatrix& mask : region.masks()) mix_matrix(hash, mask);
  return hash;
}

std::uint64_t library_signature(std::span<const model::Module> modules) {
  std::uint64_t hash = kFnvOffset;
  mix(hash, static_cast<std::uint64_t>(modules.size()));
  for (const model::Module& module : modules) {
    mix(hash, static_cast<std::uint64_t>(module.name().size()));
    for (const char c : module.name())
      mix(hash, static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    mix(hash, static_cast<std::uint64_t>(module.shape_count()));
    for (const geost::ShapeFootprint& shape : module.shapes()) {
      // resource + normalized per-resource bitmap pins the typed layout.
      mix(hash, static_cast<std::uint64_t>(shape.typed().size()));
      for (std::size_t g = 0; g < shape.typed().size(); ++g) {
        mix(hash, static_cast<std::uint64_t>(shape.typed()[g].resource));
        mix_matrix(hash, shape.typed_masks()[g]);
      }
    }
  }
  return hash;
}

SolveContext::SolveContext(SolveContextKey key,
                           const fpga::PartialRegion& region,
                           std::span<const model::Module> library)
    : key_(key),
      tables_(placer::prepare_tables_shared(region, library,
                                            key.use_alternatives)) {
  index_.reserve(library.size());
  for (std::size_t i = 0; i < library.size(); ++i) {
    const bool fresh = index_.emplace(library[i].name(), i).second;
    RR_REQUIRE(fresh, "module library has duplicate name '" +
                          library[i].name() + "'");
  }
}

SolveContext::SolveContext(SolveContextKey key, const SolveContext& base,
                           const BitMatrix& blocked)
    : key_(key), index_(base.index_) {
  auto tables = std::make_shared<std::vector<placer::ModuleTables>>();
  tables->reserve(base.tables_->size());
  for (const placer::ModuleTables& entry : *base.tables_)
    tables->push_back(placer::filter_tables(entry, blocked));
  tables_ = std::move(tables);
}

const placer::ModuleTables* SolveContext::lookup(const model::Module& module) {
  const auto it = index_.find(module.name());
  if (it == index_.end()) return nullptr;
  return &(*tables_)[it->second];
}

std::shared_ptr<SolveContext> SolveContextCache::acquire(
    const fpga::PartialRegion& region, std::span<const model::Module> library,
    bool use_alternatives, const SolveContext* fault_free) {
  const SolveContextKey key{fabric_signature(region),
                            library_signature(library), use_alternatives};
  {
    const std::scoped_lock lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      it->second.last_used = ++tick_;
      ++hits_;
      RR_METRIC_COUNT("service.cache.hits");
      return it->second.context;
    }
  }
  // Build outside the lock: table preparation is the expensive part, and
  // two workers racing to build the same context is rarer (and cheaper)
  // than serializing every build behind one mutex.
  const BitMatrix& faults = region.fault_mask();
  const bool derive = fault_free != nullptr &&
                      fault_free->key().library == key.library &&
                      fault_free->key().use_alternatives == use_alternatives;
  std::shared_ptr<SolveContext> context;
  if (derive)
    context = std::make_shared<SolveContext>(key, *fault_free, faults);
  else
    context = std::make_shared<SolveContext>(key, region, library);
  const std::scoped_lock lock(mutex_);
  const auto [it, inserted] = entries_.emplace(key, Entry{context, ++tick_});
  ++misses_;
  RR_METRIC_COUNT("service.cache.misses");
  if (inserted && capacity_ > 0 && entries_.size() > capacity_) {
    // LRU cap: drop the least-recently-acquired entry (never the one just
    // inserted — its tick is the freshest). Holders keep their shared_ptr.
    auto lru = entries_.begin();
    for (auto cur = entries_.begin(); cur != entries_.end(); ++cur)
      if (cur->second.last_used < lru->second.last_used) lru = cur;
    entries_.erase(lru);
    ++evictions_;
    RR_METRIC_COUNT("service.cache.evictions");
  }
  return inserted ? context : it->second.context;
}

void SolveContextCache::invalidate(const SolveContextKey& key) {
  const std::scoped_lock lock(mutex_);
  if (entries_.erase(key) > 0) {
    ++invalidations_;
    RR_METRIC_COUNT("service.cache.invalidations");
  }
}

SolveContextCacheStats SolveContextCache::stats() const {
  const std::scoped_lock lock(mutex_);
  SolveContextCacheStats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.invalidations = invalidations_;
  stats.evictions = evictions_;
  stats.entries = entries_.size();
  return stats;
}

}  // namespace rr::service
