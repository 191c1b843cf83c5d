#include <algorithm>
#include <memory>
#include <vector>

#include "cp/constraints.hpp"
#include "cp/sparse_bitset.hpp"

namespace rr::cp {
namespace {

/// result == table[index], domain consistent in both directions.
///
/// The placer uses this to tie a placement-index variable to the x-extent
/// each placement would occupy, so pruning the extent (by the B&B cut)
/// immediately prunes placements and vice versa.
///
/// Scanning implementation: one for_each pass over dom(index) per run.
/// post_element's fallback when compact support masks would be too large,
/// and the differential-testing oracle for CompactElement.
class ScanningElement final : public Propagator {
 public:
  ScanningElement(std::vector<int> table, VarId index, VarId result)
      : Propagator(PropPriority::kLinear, PropKind::kElement),
        table_(std::move(table)),
        index_(index),
        result_(result) {}

  void attach(Space& space, int self) override {
    space.subscribe(index_, self, kOnDomain);
    space.subscribe(result_, self, kOnDomain);
    // Restrict the index to the table range once.
    space.set_min(index_, 0);
    space.set_max(index_, static_cast<int>(table_.size()) - 1);
  }

  PropStatus propagate(Space& space) override {
    if (space.failed()) return PropStatus::kFail;
    // Supported results and unsupported indices in one pass over dom(index).
    std::vector<int> supported;
    std::vector<int> dead_indices;
    const Domain& rdom = space.dom(result_);
    space.dom(index_).for_each([&](int i) {
      const int entry = table_[static_cast<std::size_t>(i)];
      if (rdom.contains(entry)) supported.push_back(entry);
      else dead_indices.push_back(i);
    });
    if (supported.empty()) return PropStatus::kFail;
    if (!dead_indices.empty()) {
      if (space.remove_values_sorted(index_, dead_indices) == ModEvent::kFail)
        return PropStatus::kFail;
    }
    if (space.intersect(result_, Domain::from_values(std::move(supported))) ==
        ModEvent::kFail)
      return PropStatus::kFail;
    if (space.assigned(index_)) {
      if (space.assign(result_,
                       table_[static_cast<std::size_t>(space.value(index_))]) ==
          ModEvent::kFail)
        return PropStatus::kFail;
      return PropStatus::kSubsumed;
    }
    return PropStatus::kFix;
  }

 private:
  std::vector<int> table_;
  VarId index_;
  VarId result_;
};

void or_into(std::span<std::uint64_t> acc,
             std::span<const std::uint64_t> src) noexcept {
  for (std::size_t w = 0; w < acc.size(); ++w) acc[w] |= src[w];
}

/// Compact-table element: a binary table whose tuples are (i, table[i]).
/// The live set is a reversible sparse bitset over table indices; per
/// result-value support masks (value -> indices mapping to it) are built at
/// construction. Index-side deltas are one word-parallel AND of the index
/// domain into the live set; result-side deltas (e.g. B&B objective cuts on
/// the extent variable) turn into AND-NOT with the union of the removed
/// values' support masks — no per-value contains() probes. Index pruning
/// hands the live words straight to Space::keep_masked; result pruning
/// probes each value's last witness word first (residue). Steady-state runs
/// allocate nothing and touch no domains (cp_alloc_test pins this).
class CompactElement final : public Propagator {
 public:
  CompactElement(std::vector<int> table, VarId index, VarId result)
      : Propagator(PropPriority::kLinear, PropKind::kElement),
        table_(std::move(table)),
        index_(index),
        result_(result),
        index_words_(static_cast<std::size_t>(ReversibleSparseBitSet::words_for(
            static_cast<long>(table_.size())))) {
    int lo = table_[0];
    int hi = lo;
    for (int v : table_) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    rbase_ = lo;
    rnvals_ = hi - lo + 1;
    rwords_ = static_cast<std::size_t>(
        ReversibleSparseBitSet::words_for(rnvals_));
    support_words_.assign(static_cast<std::size_t>(rnvals_) * index_words_, 0);
    residues_.assign(static_cast<std::size_t>(rnvals_), -1);
    for (std::size_t i = 0; i < table_.size(); ++i)
      support(table_[i])[i >> 6] |= std::uint64_t{1} << (i & 63u);
    index_scratch_.resize(index_words_);
    result_scratch_.resize(rwords_);
    removed_scratch_.resize(rwords_);
    keep_scratch_.resize(rwords_);
  }

  [[nodiscard]] bool advised() const noexcept override { return true; }

  void attach(Space& space, int self) override {
    space.subscribe(index_, self, kOnDomain, 0);
    space.subscribe(result_, self, kOnDomain, 1);
    // Restrict the index to the table range once.
    space.set_min(index_, 0);
    space.set_max(index_, static_cast<int>(table_.size()) - 1);
    // Initialize from the current (root) domains: known result values, and
    // the live indices — in domain AND mapping to an in-domain entry.
    space.dom(result_).fill_words(rbase_, result_scratch_);
    known_result_.init_from_mask(result_scratch_, rnvals_);
    space.dom(index_).fill_words(0, index_scratch_);
    for (std::size_t i = 0; i < table_.size(); ++i) {
      if (!known_result_.test(table_[i] - rbase_))
        index_scratch_[i >> 6] &= ~(std::uint64_t{1} << (i & 63u));
    }
    live_.init_from_mask(index_scratch_, static_cast<long>(table_.size()));
    index_dirty_ = false;
    result_dirty_ = false;
  }

  void modified(Space& /*space*/, VarId /*var*/, int data) override {
    if (data == 0) index_dirty_ = true;
    else result_dirty_ = true;
  }

  void level_pushed(Space& /*space*/) override {
    live_.push_level();
    known_result_.push_level();
  }

  void level_popped(Space& /*space*/) override {
    live_.pop_level();
    known_result_.pop_level();
  }

  PropStatus propagate(Space& space) override {
    if (space.failed()) return PropStatus::kFail;
    // Phase 1: fold domain deltas into the live index set.
    if (index_dirty_) {
      index_dirty_ = false;
      space.dom(index_).fill_words(0, index_scratch_);
      live_.and_mask(index_scratch_);
      if (live_.empty()) return PropStatus::kFail;
    }
    if (result_dirty_) {
      result_dirty_ = false;
      space.dom(result_).fill_words(rbase_, result_scratch_);
      const auto known = known_result_.words();
      long removed_cnt = 0;
      long stay_cnt = 0;
      for (std::size_t w = 0; w < rwords_; ++w) {
        removed_scratch_[w] = known[w] & ~result_scratch_[w];
        removed_cnt += std::popcount(removed_scratch_[w]);
        stay_cnt += std::popcount(known[w] & result_scratch_[w]);
      }
      if (removed_cnt != 0) {
        // Result-value supports partition the indices, so masking with the
        // cheaper side's union is exact.
        std::fill(index_scratch_.begin(), index_scratch_.end(), 0);
        if (removed_cnt <= stay_cnt) {
          for_each_value(removed_scratch_,
                         [&](int v) { or_into(index_scratch_, support(v)); });
          live_.and_not_mask(index_scratch_);
        } else {
          for (std::size_t w = 0; w < rwords_; ++w)
            removed_scratch_[w] = known[w] & result_scratch_[w];
          for_each_value(removed_scratch_,
                         [&](int v) { or_into(index_scratch_, support(v)); });
          live_.and_mask(index_scratch_);
        }
        known_result_.and_mask(result_scratch_);
        if (live_.empty()) return PropStatus::kFail;
      }
    }
    // Phase 2: pruning, skipped when the live set is unchanged since the
    // last full check (then no value can have lost its support).
    if (force_full_ || live_.version() != checked_version_) {
      force_full_ = false;
      // The live words are exactly the indices to keep. live is a subset
      // of dom(index) (phase 1 intersects it with every index delta), so
      // equal cardinality means equal sets — skip the mutator call and its
      // trail snapshot when there is nothing to prune.
      if (live_.count() <
              static_cast<long long>(space.dom(index_).size()) &&
          space.keep_masked(index_, 0, live_.words()) == ModEvent::kFail)
        return PropStatus::kFail;
      space.dom(result_).fill_words(rbase_, result_scratch_);
      const auto known = known_result_.words();
      std::fill(keep_scratch_.begin(), keep_scratch_.end(), 0);
      bool all_supported = true;
      for (std::size_t w = 0; w < rwords_; ++w) {
        std::uint64_t word = known[w] & result_scratch_[w];
        while (word != 0) {
          const int b = std::countr_zero(word);
          word &= word - 1;
          const std::size_t off = w * 64 + static_cast<std::size_t>(b);
          if (live_.intersects(support(rbase_ + static_cast<int>(off)),
                               residues_[off])) {
            keep_scratch_[w] |= std::uint64_t{1} << static_cast<unsigned>(b);
          } else {
            all_supported = false;
          }
        }
      }
      const Domain& rdom = space.dom(result_);
      const bool outside_window =
          rdom.min() < rbase_ || rdom.max() >= rbase_ + rnvals_;
      if (!all_supported || outside_window) {
        if (space.keep_masked(result_, rbase_, keep_scratch_) ==
            ModEvent::kFail)
          return PropStatus::kFail;
      }
      checked_version_ = live_.version();
    }
    if (space.assigned(index_)) {
      if (space.assign(result_,
                       table_[static_cast<std::size_t>(space.value(index_))]) ==
          ModEvent::kFail)
        return PropStatus::kFail;
      return PropStatus::kSubsumed;
    }
    return PropStatus::kFix;
  }

 private:
  [[nodiscard]] std::span<std::uint64_t> support(int v) noexcept {
    return {support_words_.data() +
                static_cast<std::size_t>(v - rbase_) * index_words_,
            index_words_};
  }

  template <typename F>
  void for_each_value(std::span<const std::uint64_t> mask, F&& fn) {
    for (std::size_t w = 0; w < mask.size(); ++w) {
      std::uint64_t word = mask[w];
      while (word != 0) {
        const int b = std::countr_zero(word);
        word &= word - 1;
        fn(rbase_ + static_cast<int>(w * 64) + b);
      }
    }
  }

  std::vector<int> table_;
  VarId index_;
  VarId result_;
  std::size_t index_words_;
  int rbase_ = 0;    // smallest table entry
  int rnvals_ = 0;   // result value-window span
  std::size_t rwords_ = 0;
  std::vector<std::uint64_t> support_words_;  // per result value
  std::vector<int> residues_;                 // last witness word per value
  ReversibleSparseBitSet live_;          // indices still feasible
  ReversibleSparseBitSet known_result_;  // values not yet folded out

  // Scratch buffers sized once in the constructor — propagate() allocates
  // nothing.
  std::vector<std::uint64_t> index_scratch_;
  std::vector<std::uint64_t> result_scratch_;
  std::vector<std::uint64_t> removed_scratch_;
  std::vector<std::uint64_t> keep_scratch_;

  bool index_dirty_ = false;
  bool result_dirty_ = false;
  bool force_full_ = true;
  std::uint64_t checked_version_ = 0;
};

/// Memory guard: fall back to scanning for degenerate value ranges.
constexpr long kMaxResultSpan = 1 << 20;
constexpr std::size_t kMaxSupportWords = std::size_t{1} << 22;  // 32 MiB

bool compact_feasible(std::span<const int> table) {
  const auto [lo, hi] = std::minmax_element(table.begin(), table.end());
  const long span = static_cast<long>(*hi) - *lo + 1;
  if (span > kMaxResultSpan) return false;
  const std::size_t index_words = static_cast<std::size_t>(
      ReversibleSparseBitSet::words_for(static_cast<long>(table.size())));
  return static_cast<std::size_t>(span) * index_words <= kMaxSupportWords;
}

}  // namespace

int post_element(Space& space, std::span<const int> table, VarId index,
                 VarId result) {
  RR_REQUIRE(!table.empty(), "element: table must be non-empty");
  if (!compact_feasible(table))
    return detail::post_scanning_element(space, table, index, result);
  return space.post(std::make_unique<CompactElement>(
      std::vector<int>(table.begin(), table.end()), index, result));
}

int detail::post_scanning_element(Space& space, std::span<const int> table,
                                  VarId index, VarId result) {
  RR_REQUIRE(!table.empty(), "element: table must be non-empty");
  return space.post(std::make_unique<ScanningElement>(
      std::vector<int>(table.begin(), table.end()), index, result));
}

}  // namespace rr::cp
