// Unit tests for src/util: rng, stats, bitmatrix, strings, table, env.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <map>
#include <set>
#include <sstream>

#include "util/bitmatrix.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace rr {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a() == b();
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(3);
  std::set<int> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BoundedIsRoughlyUniform) {
  Rng rng(5);
  std::map<std::uint64_t, int> histogram;
  const int trials = 30000;
  for (int i = 0; i < trials; ++i) ++histogram[rng.bounded(5)];
  for (const auto& [value, count] : histogram) {
    EXPECT_LT(value, 5u);
    EXPECT_NEAR(count, trials / 5, trials / 25);
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(42);
  Rng child = a.split();
  Rng b(42);
  // The child must not replay the parent seed's stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += child() == b();
  EXPECT_LT(same, 4);
}

TEST(RunningStats, MeanAndStddev) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_half_width(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all, left, right;
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform01() * 10;
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(Summary, OrderStatistics) {
  const std::vector<double> sample{5, 1, 4, 2, 3};
  const Summary s = summarize(sample);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p25, 2.0);
  EXPECT_DOUBLE_EQ(s.p75, 4.0);
}

TEST(Summary, PercentileInterpolates) {
  const std::vector<double> sorted{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 1.0), 10.0);
}

TEST(BitMatrix, SetGetClear) {
  BitMatrix m(4, 70);  // cols straddle a word boundary
  EXPECT_FALSE(m.get(2, 65));
  m.set(2, 65, true);
  EXPECT_TRUE(m.get(2, 65));
  EXPECT_EQ(m.popcount(), 1u);
  m.set(2, 65, false);
  EXPECT_EQ(m.popcount(), 0u);
}

TEST(BitMatrix, FillRespectsTailBits) {
  BitMatrix m(3, 70);
  m.fill();
  EXPECT_EQ(m.popcount(), 3u * 70u);
  EXPECT_EQ(m.row_popcount(1), 70u);
}

TEST(BitMatrix, IntersectsShifted) {
  BitMatrix big(8, 8);
  big.set(3, 3, true);
  BitMatrix small(2, 2);
  small.set(0, 0, true);
  EXPECT_TRUE(big.intersects_shifted(small, 3, 3));
  EXPECT_FALSE(big.intersects_shifted(small, 0, 0));
  EXPECT_TRUE(big.intersects_shifted(small, 2, 2) == false);
  small.set(1, 1, true);
  EXPECT_TRUE(big.intersects_shifted(small, 2, 2));
}

TEST(BitMatrix, IntersectsShiftedIgnoresOutOfRange) {
  BitMatrix big(4, 4);
  big.fill();
  BitMatrix small(2, 2);
  small.fill();
  EXPECT_TRUE(big.intersects_shifted(small, 3, 3));   // partial overlap
  EXPECT_FALSE(big.intersects_shifted(small, 4, 4));  // fully outside
  EXPECT_TRUE(big.intersects_shifted(small, -1, -1)); // partial, negative
  EXPECT_FALSE(big.intersects_shifted(small, -2, -2));
}

TEST(BitMatrix, CoversShifted) {
  BitMatrix big(6, 6);
  for (int r = 1; r <= 3; ++r)
    for (int c = 1; c <= 3; ++c) big.set(r, c, true);
  BitMatrix shape(2, 2);
  shape.fill();
  EXPECT_TRUE(big.covers_shifted(shape, 1, 1));
  EXPECT_TRUE(big.covers_shifted(shape, 2, 2));
  EXPECT_FALSE(big.covers_shifted(shape, 3, 3));
  EXPECT_FALSE(big.covers_shifted(shape, 0, 0));
  EXPECT_FALSE(big.covers_shifted(shape, 5, 5));  // out of range
}

TEST(BitMatrix, OrAndClearShifted) {
  BitMatrix grid(5, 5);
  BitMatrix shape(2, 3);
  shape.fill();
  grid.or_shifted(shape, 1, 2);
  EXPECT_EQ(grid.popcount(), 6u);
  EXPECT_TRUE(grid.get(1, 2));
  EXPECT_TRUE(grid.get(2, 4));
  grid.clear_shifted(shape, 1, 2);
  EXPECT_EQ(grid.popcount(), 0u);
}

TEST(BitMatrix, AndWithOrWith) {
  BitMatrix a(2, 2), b(2, 2);
  a.set(0, 0, true);
  a.set(1, 1, true);
  b.set(1, 1, true);
  BitMatrix c = a;
  c.and_with(b);
  EXPECT_EQ(c.popcount(), 1u);
  EXPECT_TRUE(c.get(1, 1));
  c.or_with(a);
  EXPECT_EQ(c.popcount(), 2u);
}

TEST(BitMatrix, ToStringPicture) {
  BitMatrix m(2, 3);
  m.set(0, 1, true);
  EXPECT_EQ(m.to_string(), ".#.\n...\n");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(Strings, SplitWs) {
  const auto parts = split_ws("  one\ttwo   three ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "two");
}

TEST(Strings, ParseInt) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int(" -7 "), -7);
  EXPECT_FALSE(parse_int("12x").has_value());
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("4.5").has_value());
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(*parse_double("2.5"), 2.5);
  EXPECT_FALSE(parse_double("abc").has_value());
}

std::string lexer_error(const std::function<void()>& f) {
  try {
    f();
  } catch (const InvalidInput& e) {
    return e.what();
  }
  return "accepted";
}

TEST(LineLexer, SkipsCommentsAndBlankLinesAndCountsEveryLine) {
  std::istringstream in("a b # c\n\n  # only\r\nx\t12 # 3\r\n");
  LineLexer line(in, "src");
  ASSERT_TRUE(line.next());
  EXPECT_EQ(line.line(), 1);
  ASSERT_EQ(line.size(), 2u);
  EXPECT_EQ(line[0], "a");
  EXPECT_EQ(line[1], "b");
  ASSERT_TRUE(line.next());
  EXPECT_EQ(line.line(), 4);
  EXPECT_EQ(line.text(), "x\t12");
  ASSERT_EQ(line.size(), 2u);
  EXPECT_FALSE(line.next());
  EXPECT_EQ(line.line(), 4);  // end of input keeps the last line number
  EXPECT_EQ(line.size(), 0u);
  EXPECT_EQ(lexer_error([&] { line.fail("at end"); }), "src:4: at end");
}

TEST(LineLexer, RawLinesKeepBlanksAndHashes) {
  std::istringstream in("shape\r\n C#C \n\nend");
  LineLexer line(in, "mlf");
  ASSERT_TRUE(line.next());
  ASSERT_TRUE(line.next_raw());
  EXPECT_EQ(line.text(), "C#C");
  ASSERT_TRUE(line.next_raw());
  EXPECT_EQ(line.text(), "");
  EXPECT_EQ(line.line(), 3);
  ASSERT_TRUE(line.next_raw());
  EXPECT_EQ(line.text(), "end");
  EXPECT_FALSE(line.next_raw());
  EXPECT_EQ(lexer_error([&] { line.fail_at(2, "in block"); }),
            "mlf:2: in block");
}

TEST(LineLexer, CheckedNumericFieldsFailAtTheLine) {
  std::istringstream in("\nx 12 99999999999 1.5 inf 4y\n");
  LineLexer line(in, "src");
  ASSERT_TRUE(line.next());
  EXPECT_EQ(line.integer(1, "bad"), 12);
  EXPECT_EQ(line.integer<long>(2, "bad"), 99999999999L);
  EXPECT_DOUBLE_EQ(line.number(3, "bad"), 1.5);
  EXPECT_EQ(lexer_error([&] { (void)line.integer(2, "too big"); }),
            "src:2: too big");
  EXPECT_EQ(lexer_error([&] { (void)line.integer(5, "trailing"); }),
            "src:2: trailing");
  EXPECT_EQ(lexer_error([&] { (void)line.integer(0, "word"); }),
            "src:2: word");
  EXPECT_EQ(lexer_error([&] { (void)line.number(4, "not finite"); }),
            "src:2: not finite");
  EXPECT_EQ(lexer_error([&] { (void)line.integer(9, "missing"); }),
            "src:2: missing");
}

TEST(TextTable, RendersAlignedAndCsv) {
  TextTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22"});
  const std::string text = table.to_string();
  EXPECT_NE(text.find("| alpha | 1  "), std::string::npos);
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("name,value\nalpha,1\nb,22\n"), std::string::npos);
}

TEST(TextTable, CsvEscapesCommas) {
  TextTable table({"a"});
  table.add_row({"x,y"});
  EXPECT_NE(table.to_csv().find("\"x,y\""), std::string::npos);
}

TEST(TextTable, RejectsArityMismatch) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only one"}), InvalidInput);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::pct(0.6543, 1), "65.4%");
}

TEST(Env, FallbacksAndParsing) {
  ::unsetenv("RRPLACE_TEST_ENV");
  EXPECT_EQ(env_int("RRPLACE_TEST_ENV", 5), 5);
  ::setenv("RRPLACE_TEST_ENV", "12", 1);
  EXPECT_EQ(env_int("RRPLACE_TEST_ENV", 5), 12);
  ::setenv("RRPLACE_TEST_ENV", "oops", 1);
  EXPECT_EQ(env_int("RRPLACE_TEST_ENV", 5), 5);
  ::setenv("RRPLACE_TEST_ENV", "2.5", 1);
  EXPECT_DOUBLE_EQ(env_double("RRPLACE_TEST_ENV", 0.0), 2.5);
  EXPECT_EQ(env_string("RRPLACE_TEST_ENV", "d"), "2.5");
  ::unsetenv("RRPLACE_TEST_ENV");
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch w;
  EXPECT_GE(w.seconds(), 0.0);
}

TEST(Deadline, UnlimitedNeverExpires) {
  Deadline d;
  EXPECT_TRUE(d.unlimited());
  EXPECT_FALSE(d.expired());
}

TEST(Deadline, ZeroBudgetMeansUnlimited) {
  Deadline d(0.0);
  EXPECT_TRUE(d.unlimited());
}

TEST(Deadline, TinyBudgetExpires) {
  Deadline d(1e-9);
  // Allow the clock a moment to pass the deadline.
  while (!d.expired()) {
  }
  EXPECT_TRUE(d.expired());
}

TEST(Deadline, HugeBudgetDoesNotOverflowIntoThePast) {
  // Regression: duration_cast from a double-seconds budget overflowed the
  // clock representation, wrapping end_ into the past so the deadline was
  // born expired. Saturating budgets must behave like "practically
  // unlimited" instead.
  for (const double budget : {1e12, 1e18, 1e30, 4e17 /* ~2^62 ns */}) {
    Deadline d(budget);
    EXPECT_FALSE(d.unlimited()) << budget;
    EXPECT_FALSE(d.expired()) << budget;
    EXPECT_GT(d.remaining_seconds(), 1e6) << budget;
  }
}

TEST(Deadline, ModerateBudgetStillExact) {
  Deadline d(3600.0);
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_seconds(), 3590.0);
  EXPECT_LT(d.remaining_seconds(), 3601.0);
}

}  // namespace
}  // namespace rr
