// Search engine tests: DFS completeness, branch-and-bound optimality,
// limits, branchers and the parallel portfolio.
#include <gtest/gtest.h>

#include <atomic>

#include "cp/constraints.hpp"
#include "cp/portfolio.hpp"
#include "cp_test_utils.hpp"

namespace rr::cp {
namespace {

using testing::solve_all;

/// n-queens model; returns the column variables.
std::vector<VarId> queens(Space& s, int n) {
  std::vector<VarId> cols;
  for (int i = 0; i < n; ++i) cols.push_back(s.new_var(0, n - 1));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      // cols[i] != cols[j] and cols[i] != cols[j] +/- (j - i)
      post_rel(s, cols[i], RelOp::kNeq, cols[j]);
      post_rel(s, cols[i], RelOp::kNeq, cols[j], j - i);
      post_rel(s, cols[i], RelOp::kNeq, cols[j], i - j);
    }
  }
  return cols;
}

TEST(Search, CountsAllNQueensSolutions) {
  // Known counts: n=6 -> 4, n=7 -> 40, n=8 -> 92.
  const std::vector<std::pair<int, std::size_t>> expected{
      {6, 4}, {7, 40}, {8, 92}};
  for (const auto& [n, count] : expected) {
    Space s;
    const auto cols = queens(s, n);
    EXPECT_EQ(solve_all(s, cols).size(), count) << "n=" << n;
  }
}

TEST(Search, SolutionAtRootWithoutBranching) {
  Space s;
  const VarId x = s.new_var(3, 3);
  BasicBrancher brancher({x}, VarSelect::kInputOrder, ValSelect::kMin);
  Search search(s, brancher, {});
  EXPECT_TRUE(search.next());
  EXPECT_EQ(s.value(x), 3);
  EXPECT_FALSE(search.next());
  EXPECT_TRUE(search.stats().complete);
  EXPECT_EQ(search.stats().solutions, 1u);
}

TEST(Search, InfeasibleAtRoot) {
  Space s;
  const VarId x = s.new_var(0, 1);
  post_rel_const(s, x, RelOp::kGt, 5);
  BasicBrancher brancher({x}, VarSelect::kInputOrder, ValSelect::kMin);
  Search search(s, brancher, {});
  EXPECT_FALSE(search.next());
  EXPECT_TRUE(search.stats().complete);
}

TEST(Search, NodeLimitStopsEarly) {
  Space s;
  const auto cols = queens(s, 8);
  BasicBrancher brancher(cols, VarSelect::kInputOrder, ValSelect::kMin);
  Search::Options options;
  options.limits.max_nodes = 5;
  Search search(s, brancher, options);
  int found = 0;
  while (search.next()) ++found;
  EXPECT_FALSE(search.stats().complete);
  EXPECT_LE(search.stats().nodes, 6u);
  EXPECT_EQ(found, 0);
}

TEST(Search, FailLimitStopsEarly) {
  Space s;
  const auto cols = queens(s, 8);
  BasicBrancher brancher(cols, VarSelect::kInputOrder, ValSelect::kMin);
  Search::Options options;
  options.limits.max_fails = 3;
  Search search(s, brancher, options);
  while (search.next()) {
  }
  EXPECT_FALSE(search.stats().complete);
}

TEST(Search, ResumableAfterLimit) {
  // Raising the node limit step by step must still find every solution
  // exactly once (the engine resumes where it stopped).
  Space s;
  const auto cols = queens(s, 6);
  BasicBrancher brancher(cols, VarSelect::kInputOrder, ValSelect::kMin);
  Search::Options options;
  options.limits.max_nodes = 1;  // will be bumped via a fresh engine below
  Search search(s, brancher, {});
  // Without limits, enumerate all; this also exercises next() resumption
  // across solutions.
  int found = 0;
  while (search.next()) ++found;
  EXPECT_EQ(found, 4);
  EXPECT_TRUE(search.stats().complete);
}

TEST(BranchAndBound, FindsOptimumAndProvesIt) {
  // Minimize z = max(x, y) with x + y >= 7: optimum is 4 (x=3,y=4 or 4,3).
  Space s;
  const VarId x = s.new_var(0, 10);
  const VarId y = s.new_var(0, 10);
  const VarId z = s.new_var(0, 10);
  post_linear(s, std::vector<int>{1, 1}, std::vector<VarId>{x, y},
              RelOp::kGeq, 7);
  post_max(s, z, std::vector<VarId>{x, y});
  BasicBrancher brancher({x, y}, VarSelect::kInputOrder, ValSelect::kMin);
  const MinimizeResult result =
      minimize(s, brancher, z, std::vector<VarId>{x, y});
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.objective, 4);
  EXPECT_TRUE(result.stats.complete);
  ASSERT_EQ(result.assignment.size(), 2u);
  EXPECT_GE(result.assignment[0] + result.assignment[1], 7);
  EXPECT_EQ(std::max(result.assignment[0], result.assignment[1]), 4);
}

TEST(BranchAndBound, ImprovingSolutionsAreMonotone) {
  Space s;
  const VarId x = s.new_var(0, 20);
  const VarId z = s.new_var(0, 20);
  post_rel(s, z, RelOp::kEq, x);
  BasicBrancher brancher({x}, VarSelect::kInputOrder, ValSelect::kMax);
  Search::Options options;
  options.objective = z;
  Search search(s, brancher, options);
  long last = kNoBound;
  int solutions = 0;
  while (search.next()) {
    const long value = s.min(z);
    EXPECT_LT(value, last);
    last = value;
    ++solutions;
  }
  EXPECT_TRUE(search.stats().complete);
  EXPECT_EQ(last, 0);
  EXPECT_GT(solutions, 1);
}

TEST(BranchAndBound, InfeasibleReportsNotFound) {
  Space s;
  const VarId x = s.new_var(0, 3);
  post_rel_const(s, x, RelOp::kGt, 9);
  BasicBrancher brancher({x}, VarSelect::kInputOrder, ValSelect::kMin);
  const MinimizeResult result =
      minimize(s, brancher, x, std::vector<VarId>{x});
  EXPECT_FALSE(result.found);
  EXPECT_TRUE(result.stats.complete);
}

TEST(BranchAndBound, SharedBoundPrunesImmediately) {
  Space s;
  const VarId x = s.new_var(0, 10);
  BasicBrancher brancher({x}, VarSelect::kInputOrder, ValSelect::kMax);
  std::atomic<long> bound{4};  // someone already found 4
  Search::Options options;
  options.objective = x;
  options.shared_bound = &bound;
  Search search(s, brancher, options);
  ASSERT_TRUE(search.next());
  EXPECT_LT(s.value(x), 4);
}

TEST(Brancher, FirstFailPicksSmallestDomain) {
  Space s;
  const VarId wide = s.new_var(0, 9);
  const VarId narrow = s.new_var(0, 1);
  BasicBrancher brancher({wide, narrow}, VarSelect::kFirstFail,
                         ValSelect::kMin);
  const auto choice = brancher.choose(s);
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(choice->var, narrow);
  EXPECT_EQ(choice->value, 0);
}

TEST(Brancher, ValSelectMax) {
  Space s;
  const VarId x = s.new_var(2, 6);
  BasicBrancher brancher({x}, VarSelect::kInputOrder, ValSelect::kMax);
  EXPECT_EQ(brancher.choose(s)->value, 6);
}

TEST(Brancher, RandomValueIsInDomain) {
  Space s;
  const VarId x = s.new_var(Domain::from_values({1, 5, 9}));
  BasicBrancher brancher({x}, VarSelect::kRandom, ValSelect::kRandom, 3);
  for (int i = 0; i < 50; ++i) {
    const auto choice = brancher.choose(s);
    ASSERT_TRUE(choice.has_value());
    EXPECT_TRUE(s.dom(x).contains(choice->value));
  }
}

TEST(Brancher, ReturnsNulloptWhenAllAssigned) {
  Space s;
  const VarId x = s.new_var(4, 4);
  BasicBrancher brancher({x}, VarSelect::kFirstFail, ValSelect::kMin);
  EXPECT_FALSE(brancher.choose(s).has_value());
}

TEST(FunctionBrancherTest, DrivesSearch) {
  Space s;
  const VarId x = s.new_var(0, 3);
  FunctionBrancher brancher([&](const Space& space) -> std::optional<Choice> {
    if (space.assigned(x)) return std::nullopt;
    return Choice{x, space.dom(x).max()};
  });
  Search search(s, brancher, {});
  ASSERT_TRUE(search.next());
  EXPECT_EQ(s.value(x), 3);
}

TEST(RestartingSearch, FindsAndProvesOptimum) {
  Space s;
  const VarId x = s.new_var(0, 10);
  const VarId y = s.new_var(0, 10);
  const VarId z = s.new_var(0, 10);
  post_linear(s, std::vector<int>{1, 1}, std::vector<VarId>{x, y},
              RelOp::kGeq, 7);
  post_max(s, z, std::vector<VarId>{x, y});
  int restarts = 0;
  const MinimizeResult result = minimize_with_restarts(
      s,
      [&](int restart) {
        return std::make_unique<BasicBrancher>(
            std::vector<VarId>{x, y}, VarSelect::kInputOrder,
            restart == 0 ? ValSelect::kMin : ValSelect::kRandom,
            static_cast<std::uint64_t>(restart) + 1);
      },
      z, std::vector<VarId>{x, y}, {}, RestartOptions{}, &restarts);
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.objective, 4);
  EXPECT_TRUE(result.stats.complete);
  EXPECT_GE(restarts, 1);
}

TEST(RestartingSearch, TinyBudgetForcesManyRestarts) {
  Space s;
  const auto cols = queens(s, 8);
  int restarts = 0;
  RestartOptions restart_options;
  restart_options.base_fails = 2;
  restart_options.growth = 1.2;
  SearchLimits limits;
  limits.max_fails = 200;  // global cap so the test terminates quickly
  const VarId objective = cols[0];
  const MinimizeResult result = minimize_with_restarts(
      s,
      [&](int restart) {
        return std::make_unique<BasicBrancher>(
            cols, VarSelect::kInputOrder, ValSelect::kRandom,
            static_cast<std::uint64_t>(restart) + 7);
      },
      objective, cols, limits, restart_options, &restarts);
  EXPECT_GT(restarts, 3);
  // Either a solution was found or the global fail cap fired; both fine.
  if (result.stats.complete) {
    EXPECT_TRUE(result.found);
  }
}

TEST(RestartingSearch, GlobalFailBudgetIsNeverExceeded) {
  // Regression: each restart used to receive min(max_fails, restart_fails)
  // afresh, without subtracting fails already spent, so the total could
  // overshoot the global budget by nearly a full restart — and Search
  // itself overshot inside backtrack(), which counted failed right
  // branches without consulting the limits. The global cap must bound the
  // *recorded* total exactly, across every restart combined.
  for (const std::uint64_t max_fails : {1u, 7u, 25u, 60u}) {
    Space s;
    const auto cols = queens(s, 8);
    RestartOptions restart_options;
    restart_options.base_fails = 50;  // restarts larger than some budgets
    restart_options.growth = 1.5;
    SearchLimits limits;
    limits.max_fails = max_fails;
    const MinimizeResult result = minimize_with_restarts(
        s,
        [&](int restart) {
          return std::make_unique<BasicBrancher>(
              cols, VarSelect::kInputOrder, ValSelect::kRandom,
              static_cast<std::uint64_t>(restart) + 3);
        },
        cols[0], cols, limits, restart_options);
    EXPECT_LE(result.stats.fails, max_fails) << "budget " << max_fails;
  }
}

TEST(SearchTest, FailLimitIsExactInsideBacktrack) {
  // A single Search must stop exactly at max_fails even when the limit is
  // crossed while unwinding exhausted right branches.
  for (const std::uint64_t max_fails : {1u, 3u, 10u, 33u}) {
    Space s;
    const auto cols = queens(s, 7);
    BasicBrancher brancher(cols, VarSelect::kInputOrder, ValSelect::kMin);
    Search::Options options;
    options.limits.max_fails = max_fails;
    Search search(s, brancher, options);
    while (search.next()) {
    }
    EXPECT_LE(search.stats().fails, max_fails) << "budget " << max_fails;
    // Enumerating all of 7-queens needs far more fails than any budget
    // here, so the search must have stopped on the limit, not exhaustion.
    EXPECT_FALSE(search.stats().complete) << "budget " << max_fails;
  }
}

PortfolioModel make_bab_model(int /*worker*/) {
  PortfolioModel model;
  model.space = std::make_unique<Space>();
  const VarId x = model.space->new_var(0, 10);
  const VarId y = model.space->new_var(0, 10);
  const VarId z = model.space->new_var(0, 20);
  post_linear(*model.space, std::vector<int>{1, 1}, std::vector<VarId>{x, y},
              RelOp::kGeq, 9);
  post_max(*model.space, z, std::vector<VarId>{x, y});
  model.brancher = std::make_unique<BasicBrancher>(
      std::vector<VarId>{x, y}, VarSelect::kInputOrder, ValSelect::kMin);
  model.objective = z;
  model.report = {x, y};
  return model;
}

TEST(Portfolio, SingleWorkerMatchesSequential) {
  const PortfolioResult result = minimize_portfolio(make_bab_model, 1, {});
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.objective, 5);  // ceil(9/2)
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.winner, 0);
}

TEST(Portfolio, MultiWorkerFindsSameOptimum) {
  const PortfolioResult result = minimize_portfolio(make_bab_model, 4, {});
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.objective, 5);
  EXPECT_TRUE(result.complete);
  ASSERT_EQ(result.assignment.size(), 2u);
  EXPECT_GE(result.assignment[0] + result.assignment[1], 9);
}

TEST(Portfolio, RejectsZeroWorkers) {
  EXPECT_THROW(minimize_portfolio(make_bab_model, 0, {}), InvalidInput);
}

}  // namespace
}  // namespace rr::cp
