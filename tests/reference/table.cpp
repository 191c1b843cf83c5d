#include "reference/table.hpp"

#include <algorithm>
#include <bit>
#include <memory>

#include "cp/sparse_bitset.hpp"
#include "util/error.hpp"

namespace rr::reference {
namespace {

using cp::Domain;
using cp::ModEvent;
using cp::PropKind;
using cp::PropPriority;
using cp::PropStatus;
using cp::Propagator;
using cp::ReversibleSparseBitSet;
using cp::Space;
using cp::VarId;
using cp::kOnDomain;

/// Positive table constraint with straight support scanning: a tuple is
/// live iff every component is still in its variable's domain; a value
/// survives iff some live tuple uses it. O(#tuples x arity) per run.
/// The differential-testing oracle for CompactTable.
class ScanningTable final : public Propagator {
 public:
  ScanningTable(std::vector<VarId> vars, std::vector<std::vector<int>> tuples)
      : Propagator(PropPriority::kLinear, PropKind::kTable),
        vars_(std::move(vars)),
        tuples_(std::move(tuples)) {}

  void attach(Space& space, int self) override {
    for (VarId v : vars_) space.subscribe(v, self, kOnDomain);
  }

  PropStatus propagate(Space& space) override {
    const std::size_t arity = vars_.size();
    // Supported values per variable, collected from live tuples.
    std::vector<std::vector<int>> supported(arity);
    bool any_live = false;
    for (const std::vector<int>& tuple : tuples_) {
      bool live = true;
      for (std::size_t i = 0; i < arity && live; ++i)
        live = space.dom(vars_[i]).contains(tuple[i]);
      if (!live) continue;
      any_live = true;
      for (std::size_t i = 0; i < arity; ++i)
        supported[i].push_back(tuple[i]);
    }
    if (!any_live) return PropStatus::kFail;
    bool all_assigned = true;
    for (std::size_t i = 0; i < arity; ++i) {
      if (space.intersect(vars_[i],
                          Domain::from_values(std::move(supported[i]))) ==
          ModEvent::kFail)
        return PropStatus::kFail;
      all_assigned = all_assigned && space.assigned(vars_[i]);
    }
    return all_assigned ? PropStatus::kSubsumed : PropStatus::kFix;
  }

 private:
  std::vector<VarId> vars_;
  std::vector<std::vector<int>> tuples_;
};

void or_into(std::span<std::uint64_t> acc,
             std::span<const std::uint64_t> src) noexcept {
  for (std::size_t w = 0; w < acc.size(); ++w) acc[w] |= src[w];
}

/// Compact-table propagation (Demeulenaere et al., CP 2016): the set of
/// live tuples is a reversible sparse bitset; per-(var,value) support masks
/// are precomputed at post time. A propagation run
///   1. drains the dirty-variable set recorded by modified(), turning each
///      variable's domain delta (known-values bitset minus current domain)
///      into one word-parallel AND-NOT (or AND, whichever side is smaller)
///      on the live set — supports of one variable position partition the
///      tuple set, so the delta update is exact and needs no reset path;
///   2. re-checks supports only when the live set actually changed
///      (version stamp), probing each value's last witness word first
///      (residue) and pruning via Space::keep_masked.
/// Steady-state runs (delta was a no-op) touch nothing and allocate
/// nothing.
class CompactTable final : public Propagator {
 public:
  CompactTable(std::vector<VarId> vars, std::vector<std::vector<int>> tuples)
      : Propagator(PropPriority::kLinear, PropKind::kTable),
        vars_(std::move(vars)),
        tuples_(std::move(tuples)),
        tuple_words_(static_cast<std::size_t>(ReversibleSparseBitSet::words_for(
            static_cast<long>(tuples_.size())))) {
    const std::size_t arity = vars_.size();
    info_.resize(arity);
    std::size_t support_offset = 0;
    std::size_t residue_offset = 0;
    std::size_t max_words = 0;
    for (std::size_t i = 0; i < arity; ++i) {
      int lo = tuples_[0][i];
      int hi = lo;
      for (const std::vector<int>& t : tuples_) {
        lo = std::min(lo, t[i]);
        hi = std::max(hi, t[i]);
      }
      VarInfo& vi = info_[i];
      vi.base = lo;
      vi.nvals = hi - lo + 1;
      vi.mask_words = static_cast<std::size_t>(
          ReversibleSparseBitSet::words_for(vi.nvals));
      vi.support_offset = support_offset;
      vi.residue_offset = residue_offset;
      support_offset += static_cast<std::size_t>(vi.nvals) * tuple_words_;
      residue_offset += static_cast<std::size_t>(vi.nvals);
      max_words = std::max(max_words, vi.mask_words);
    }
    support_words_.assign(support_offset, 0);
    residues_.assign(residue_offset, -1);
    for (std::size_t t = 0; t < tuples_.size(); ++t) {
      for (std::size_t i = 0; i < arity; ++i) {
        support(i, tuples_[t][i])[t >> 6] |= std::uint64_t{1} << (t & 63u);
      }
    }
    dom_scratch_.resize(max_words);
    removed_scratch_.resize(max_words);
    keep_scratch_.resize(max_words);
    tuple_scratch_.resize(tuple_words_);
    in_dirty_.assign(arity, false);
    dirty_.reserve(arity);
  }

  [[nodiscard]] bool advised() const noexcept override { return true; }

  void attach(Space& space, int self) override {
    for (std::size_t i = 0; i < vars_.size(); ++i)
      space.subscribe(vars_[i], self, kOnDomain, static_cast<int>(i));
    // Initialize known-value sets and the live-tuple set from the current
    // (root) domains; later changes arrive through modified().
    for (VarInfo& vi : info_) {
      auto dmask = dom_mask(space, vi);
      vi.known.init_from_mask(dmask, vi.nvals);
    }
    std::fill(tuple_scratch_.begin(), tuple_scratch_.end(), 0);
    for (std::size_t t = 0; t < tuples_.size(); ++t) {
      bool live = true;
      for (std::size_t i = 0; i < vars_.size() && live; ++i) {
        const VarInfo& vi = info_[i];
        live = vi.known.test(tuples_[t][i] - vi.base);
      }
      if (live) tuple_scratch_[t >> 6] |= std::uint64_t{1} << (t & 63u);
    }
    live_.init_from_mask(tuple_scratch_, static_cast<long>(tuples_.size()));
  }

  void modified(Space& /*space*/, VarId /*var*/, int data) override {
    const auto i = static_cast<std::size_t>(data);
    if (!in_dirty_[i]) {
      in_dirty_[i] = true;
      dirty_.push_back(data);
    }
  }

  void level_pushed(Space& /*space*/) override {
    live_.push_level();
    for (VarInfo& vi : info_) vi.known.push_level();
  }

  void level_popped(Space& /*space*/) override {
    live_.pop_level();
    for (VarInfo& vi : info_) vi.known.pop_level();
  }

  PropStatus propagate(Space& space) override {
    if (space.failed()) return PropStatus::kFail;
    // Phase 1: fold each dirty variable's removed values into the live set.
    while (!dirty_.empty()) {
      const auto i = static_cast<std::size_t>(dirty_.back());
      dirty_.pop_back();
      in_dirty_[i] = false;
      VarInfo& vi = info_[i];
      auto dmask = dom_mask(space, vi);
      const auto known = vi.known.words();
      auto removed =
          std::span<std::uint64_t>(removed_scratch_).first(vi.mask_words);
      long removed_cnt = 0;
      long stay_cnt = 0;
      for (std::size_t w = 0; w < vi.mask_words; ++w) {
        removed[w] = known[w] & ~dmask[w];
        removed_cnt += std::popcount(removed[w]);
        stay_cnt += std::popcount(known[w] & dmask[w]);
      }
      if (removed_cnt == 0) continue;
      // Supports of one position partition the tuples, so masking with the
      // union of either side is exact; build the cheaper union.
      std::fill(tuple_scratch_.begin(), tuple_scratch_.end(), 0);
      if (removed_cnt <= stay_cnt) {
        for_each_value(removed, vi,
                       [&](int v) { or_into(tuple_scratch_, support(i, v)); });
        live_.and_not_mask(tuple_scratch_);
      } else {
        for (std::size_t w = 0; w < vi.mask_words; ++w)
          removed[w] = known[w] & dmask[w];
        for_each_value(removed, vi,
                       [&](int v) { or_into(tuple_scratch_, support(i, v)); });
        live_.and_mask(tuple_scratch_);
      }
      vi.known.and_mask(dmask);
      if (live_.empty()) return PropStatus::kFail;
    }
    // Phase 2: support check. If the live set has not changed since the
    // last full check, no value can have lost its support.
    if (!force_full_ && live_.version() == checked_version_)
      return PropStatus::kFix;
    force_full_ = false;
    bool all_assigned = true;
    for (std::size_t i = 0; i < vars_.size(); ++i) {
      VarInfo& vi = info_[i];
      auto dmask = dom_mask(space, vi);
      const auto known = vi.known.words();
      auto keep = std::span<std::uint64_t>(keep_scratch_).first(vi.mask_words);
      std::fill(keep.begin(), keep.end(), 0);
      bool all_supported = true;
      for (std::size_t w = 0; w < vi.mask_words; ++w) {
        std::uint64_t word = known[w] & dmask[w];
        while (word != 0) {
          const int b = std::countr_zero(word);
          word &= word - 1;
          const std::size_t off = w * 64 + static_cast<std::size_t>(b);
          if (live_.intersects(support(i, vi.base + static_cast<int>(off)),
                               residues_[vi.residue_offset + off])) {
            keep[w] |= std::uint64_t{1} << static_cast<unsigned>(b);
          } else {
            all_supported = false;
          }
        }
      }
      const Domain& dom = space.dom(vars_[i]);
      const bool outside_window =
          dom.min() < vi.base || dom.max() >= vi.base + vi.nvals;
      if (!all_supported || outside_window) {
        if (space.keep_masked(vars_[i], vi.base, keep) == ModEvent::kFail)
          return PropStatus::kFail;
      }
      all_assigned = all_assigned && space.dom(vars_[i]).assigned();
    }
    checked_version_ = live_.version();
    return all_assigned ? PropStatus::kSubsumed : PropStatus::kFix;
  }

 private:
  struct VarInfo {
    int base = 0;   // smallest value any tuple uses at this position
    int nvals = 0;  // value-window span
    std::size_t mask_words = 0;
    std::size_t support_offset = 0;
    std::size_t residue_offset = 0;
    ReversibleSparseBitSet known;  // values not yet folded out of live_
  };

  [[nodiscard]] std::span<std::uint64_t> support(std::size_t i,
                                                 int v) noexcept {
    const VarInfo& vi = info_[i];
    return {support_words_.data() + vi.support_offset +
                static_cast<std::size_t>(v - vi.base) * tuple_words_,
            tuple_words_};
  }

  /// Current domain of vi's variable as a bitmask over its value window
  /// (filled into dom_scratch_).
  std::span<std::uint64_t> dom_mask(const Space& space, const VarInfo& vi) {
    auto dmask = std::span<std::uint64_t>(dom_scratch_).first(vi.mask_words);
    space.dom(vars_[&vi - info_.data()]).fill_words(vi.base, dmask);
    return dmask;
  }

  template <typename F>
  void for_each_value(std::span<const std::uint64_t> mask, const VarInfo& vi,
                      F&& fn) {
    for (std::size_t w = 0; w < mask.size(); ++w) {
      std::uint64_t word = mask[w];
      while (word != 0) {
        const int b = std::countr_zero(word);
        word &= word - 1;
        fn(vi.base + static_cast<int>(w * 64) + b);
      }
    }
  }

  std::vector<VarId> vars_;
  std::vector<std::vector<int>> tuples_;
  std::size_t tuple_words_;
  std::vector<VarInfo> info_;
  std::vector<std::uint64_t> support_words_;  // flattened per-(var,value)
  std::vector<int> residues_;  // last witness word per (var,value)
  ReversibleSparseBitSet live_;

  // Scratch buffers sized once in the constructor — propagate() allocates
  // nothing.
  std::vector<std::uint64_t> dom_scratch_;
  std::vector<std::uint64_t> removed_scratch_;
  std::vector<std::uint64_t> keep_scratch_;
  std::vector<std::uint64_t> tuple_scratch_;

  std::vector<int> dirty_;
  std::vector<bool> in_dirty_;
  bool force_full_ = true;
  std::uint64_t checked_version_ = 0;
};

/// Memory guard for the dense support tables: fall back to scanning when a
/// value window is huge or the total support storage would be excessive.
constexpr long kMaxValueSpan = 1 << 16;
constexpr std::size_t kMaxSupportWords = std::size_t{1} << 22;  // 32 MiB

bool compact_feasible(std::span<const VarId> vars,
                      const std::vector<std::vector<int>>& tuples) {
  if (tuples.empty()) return false;
  const std::size_t tuple_words = static_cast<std::size_t>(
      ReversibleSparseBitSet::words_for(static_cast<long>(tuples.size())));
  std::size_t total_words = 0;
  for (std::size_t i = 0; i < vars.size(); ++i) {
    int lo = tuples[0][i];
    int hi = lo;
    for (const std::vector<int>& t : tuples) {
      lo = std::min(lo, t[i]);
      hi = std::max(hi, t[i]);
    }
    const long span = static_cast<long>(hi) - lo + 1;
    if (span > kMaxValueSpan) return false;
    total_words += static_cast<std::size_t>(span) * tuple_words;
    if (total_words > kMaxSupportWords) return false;
  }
  return true;
}

}  // namespace

int post_table(Space& space, std::span<const VarId> vars,
               std::vector<std::vector<int>> tuples, TableEngine engine) {
  RR_REQUIRE(!vars.empty(), "table: needs at least one variable");
  for (const std::vector<int>& tuple : tuples) {
    RR_REQUIRE(tuple.size() == vars.size(),
               "table: tuple arity must match variable count");
  }
  std::vector<VarId> var_vec(vars.begin(), vars.end());
  if (engine == TableEngine::kCompact && compact_feasible(vars, tuples)) {
    return space.post(std::make_unique<CompactTable>(std::move(var_vec),
                                                     std::move(tuples)));
  }
  return space.post(std::make_unique<ScanningTable>(std::move(var_vec),
                                                    std::move(tuples)));
}

}  // namespace rr::reference
