// Differential fuzz for cp::Domain against a std::set<int> reference.
//
// The domain has two storage representations (range list and word-block
// bitset) and silently switches between them mid-mutation; every mutator
// therefore has four paths (ranges->ranges, ranges->words, words->words,
// and the initial pack). This test drives long seeded random mutation
// sequences through both the Domain and a set<int> model, checking full
// value-level equality plus every query helper after each step — so a
// divergence pinpoints the first bad op. CI runs it under ASan/UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "cp/domain.hpp"
#include "util/rng.hpp"

namespace rr::cp {
namespace {

std::vector<int> domain_values(const Domain& d) {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(d.size()));
  d.for_each([&](int v) { out.push_back(v); });
  return out;
}

void expect_matches(const Domain& d, const std::set<int>& ref,
                    const std::string& context) {
  ASSERT_EQ(d.empty(), ref.empty()) << context;
  ASSERT_EQ(d.size(), static_cast<long>(ref.size())) << context;
  if (ref.empty()) return;
  ASSERT_EQ(d.min(), *ref.begin()) << context;
  ASSERT_EQ(d.max(), *ref.rbegin()) << context;
  ASSERT_EQ(d.assigned(), ref.size() == 1) << context;

  const std::vector<int> values = domain_values(d);
  ASSERT_TRUE(std::equal(values.begin(), values.end(), ref.begin(),
                         ref.end()))
      << context << ": value lists diverge";

  // Spot-check the query helpers on a few probes around the bounds.
  Rng probe_rng(static_cast<std::uint64_t>(ref.size() * 2654435761u));
  for (int probe = 0; probe < 8; ++probe) {
    const int v = probe_rng.uniform_int(d.min() - 2, d.max() + 2);
    ASSERT_EQ(d.contains(v), ref.count(v) == 1) << context << " v=" << v;
    int next = 0;
    const auto it = ref.lower_bound(v);
    ASSERT_EQ(d.next_geq(v, next), it != ref.end()) << context << " v=" << v;
    if (it != ref.end()) {
      ASSERT_EQ(next, *it) << context << " v=" << v;
    }
  }
  const long k = static_cast<long>(
      probe_rng.bounded(static_cast<std::uint64_t>(ref.size())));
  ASSERT_EQ(d.nth_value(k), *std::next(ref.begin(), k))
      << context << " k=" << k;
}

/// One full random trajectory: start from a dense interval, mutate until
/// empty or the op budget runs out. `span` controls how hard the sequence
/// leans on the word-block representation (packing needs a fragmented
/// domain over a wide span).
void run_trajectory(std::uint64_t seed, int span, int ops) {
  Rng rng(seed);
  const int lo = rng.uniform_int(-span / 3, span / 3);
  Domain d(lo, lo + span);
  std::set<int> ref;
  for (int v = lo; v <= lo + span; ++v) ref.insert(v);
  expect_matches(d, ref, "init");

  for (int op = 0; op < ops && !ref.empty(); ++op) {
    const std::string context =
        "seed=" + std::to_string(seed) + " op=" + std::to_string(op);
    const int min = *ref.begin();
    const int max = *ref.rbegin();
    const std::vector<int> before = domain_values(d);
    bool changed = false;
    switch (rng.uniform_int(0, 7)) {
      case 0: {  // remove_below
        const int v = rng.uniform_int(min - 1, max + 1);
        changed = d.remove_below(v);
        ref.erase(ref.begin(), ref.lower_bound(v));
        break;
      }
      case 1: {  // remove_above
        const int v = rng.uniform_int(min - 1, max + 1);
        changed = d.remove_above(v);
        ref.erase(ref.upper_bound(v), ref.end());
        break;
      }
      case 2: {  // remove one value
        const int v = rng.uniform_int(min - 1, max + 1);
        changed = d.remove(v);
        ref.erase(v);
        break;
      }
      case 3: {  // remove_range
        const int a = rng.uniform_int(min - 1, max + 1);
        const int b = a + rng.uniform_int(0, span / 4);
        changed = d.remove_range(a, b);
        ref.erase(ref.lower_bound(a), ref.upper_bound(b));
        break;
      }
      case 4: {  // remove_values_sorted: scattered batch
        std::set<int> batch;
        const int n = rng.uniform_int(1, span / 2 + 1);
        for (int i = 0; i < n; ++i)
          batch.insert(rng.uniform_int(min - 1, max + 1));
        const std::vector<int> sorted(batch.begin(), batch.end());
        changed = d.remove_values_sorted(sorted);
        for (int v : sorted) ref.erase(v);
        break;
      }
      case 5: {  // intersect with a random sparse domain
        std::vector<int> keep;
        for (int v : ref)
          if (rng.uniform_int(0, 3) != 0) keep.push_back(v);
        // A few values outside ref so `other` is not a subset.
        for (int i = 0; i < 4; ++i)
          keep.push_back(rng.uniform_int(min - 3, max + 3));
        std::sort(keep.begin(), keep.end());
        keep.erase(std::unique(keep.begin(), keep.end()), keep.end());
        const Domain other = Domain::from_values(std::move(keep));
        changed = d.intersect(other);
        for (auto it = ref.begin(); it != ref.end();)
          it = other.contains(*it) ? std::next(it) : ref.erase(it);
        break;
      }
      case 6: {  // keep_masked over a random window
        const int base = rng.uniform_int(min - 70, min + span / 4);
        const std::size_t words = static_cast<std::size_t>(
            rng.uniform_int(1, (span + 63) / 64 + 1));
        std::vector<std::uint64_t> mask(words);
        for (std::uint64_t& w : mask)
          w = rng() | rng();  // ~75% bit density
        changed = d.keep_masked(base, mask);
        const long long hi =
            static_cast<long long>(base) + static_cast<long long>(words) * 64;
        for (auto it = ref.begin(); it != ref.end();) {
          const int v = *it;
          const bool kept =
              v >= base && v < hi &&
              (mask[static_cast<std::size_t>(v - base) / 64] >>
                   (static_cast<unsigned>(v - base) % 64) &
               1) != 0;
          it = kept ? std::next(it) : ref.erase(it);
        }
        break;
      }
      case 7: {  // assign to a present or absent value
        const int v = rng.uniform_int(min, max);
        changed = d.assign_value(v);
        const bool present = ref.count(v) == 1;
        ref.clear();
        if (present) ref.insert(v);
        break;
      }
    }
    ASSERT_EQ(changed, domain_values(d) != before)
        << context << ": change flag disagrees with effect";
    expect_matches(d, ref, context);
  }
}

TEST(DomainFuzz, SmallSpansStayOnRangeLists) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed)
    run_trajectory(seed, /*span=*/40, /*ops=*/60);
}

TEST(DomainFuzz, WideSpansCrossIntoWordBlocks) {
  for (std::uint64_t seed = 100; seed <= 120; ++seed)
    run_trajectory(seed, /*span=*/1500, /*ops=*/80);
}

TEST(DomainFuzz, HugeSparseDomains) {
  for (std::uint64_t seed = 200; seed <= 206; ++seed)
    run_trajectory(seed, /*span=*/20000, /*ops=*/50);
}

// Equality must hold across representations: the same value set reached
// via different mutation orders (one side packed, one not) compares equal.
TEST(DomainFuzz, EqualityIsRepresentationIndependent) {
  Rng rng(42);
  for (int round = 0; round < 20; ++round) {
    std::vector<int> values;
    const int n = rng.uniform_int(1, 400);
    for (int i = 0; i < n; ++i) values.push_back(rng.uniform_int(0, 3000));
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());

    const Domain as_ranges = Domain::from_values(values);
    // Same set via the word path: wide interval, then keep_masked.
    Domain as_words(0, 3000);
    std::vector<std::uint64_t> mask((3000 + 64) / 64, 0);
    for (int v : values)
      mask[static_cast<std::size_t>(v) / 64] |=
          std::uint64_t{1} << (static_cast<unsigned>(v) % 64);
    as_words.keep_masked(0, mask);

    ASSERT_EQ(as_ranges.size(), as_words.size()) << "round=" << round;
    ASSERT_TRUE(as_ranges == as_words) << "round=" << round;
    ASSERT_TRUE(as_words == as_ranges) << "round=" << round;
    ASSERT_EQ(domain_values(as_ranges), domain_values(as_words))
        << "round=" << round;
  }
}

}  // namespace
}  // namespace rr::cp
