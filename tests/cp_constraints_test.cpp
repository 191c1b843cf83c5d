// Constraint correctness: every constraint's full solution set is compared
// against a brute-force reference on small domains (soundness AND
// completeness), plus targeted propagation-strength checks.
#include <gtest/gtest.h>

#include "cp/constraints.hpp"
#include "cp_test_utils.hpp"

namespace rr::cp {
namespace {

using testing::Assignment;
using testing::brute_force;
using testing::solve_all;

TEST(RelConstraint, UnaryOps) {
  Space s;
  const VarId x = s.new_var(0, 10);
  post_rel_const(s, x, RelOp::kGeq, 3);
  post_rel_const(s, x, RelOp::kLt, 8);
  post_rel_const(s, x, RelOp::kNeq, 5);
  ASSERT_TRUE(s.propagate());
  EXPECT_EQ(s.dom(x).values(), (std::vector<int>{3, 4, 6, 7}));
  post_rel_const(s, x, RelOp::kEq, 6);
  ASSERT_TRUE(s.propagate());
  EXPECT_EQ(s.value(x), 6);
}

class BinaryRelTest : public ::testing::TestWithParam<RelOp> {};

TEST_P(BinaryRelTest, MatchesBruteForce) {
  const RelOp op = GetParam();
  Space s;
  const VarId x = s.new_var(0, 4);
  const VarId y = s.new_var(1, 3);
  post_rel(s, x, op, y, /*offset=*/1);  // x op y + 1
  const auto expected = brute_force(
      {{0, 4}, {1, 3}}, [&](const Assignment& a) {
        const int rhs = a[1] + 1;
        switch (op) {
          case RelOp::kEq: return a[0] == rhs;
          case RelOp::kNeq: return a[0] != rhs;
          case RelOp::kLeq: return a[0] <= rhs;
          case RelOp::kGeq: return a[0] >= rhs;
          case RelOp::kLt: return a[0] < rhs;
          case RelOp::kGt: return a[0] > rhs;
        }
        return false;
      });
  EXPECT_EQ(solve_all(s, {x, y}), expected);
}

INSTANTIATE_TEST_SUITE_P(AllOps, BinaryRelTest,
                         ::testing::Values(RelOp::kEq, RelOp::kNeq,
                                           RelOp::kLeq, RelOp::kGeq,
                                           RelOp::kLt, RelOp::kGt),
                         [](const auto& info) {
                           switch (info.param) {
                             case RelOp::kEq: return "Eq";
                             case RelOp::kNeq: return "Neq";
                             case RelOp::kLeq: return "Leq";
                             case RelOp::kGeq: return "Geq";
                             case RelOp::kLt: return "Lt";
                             case RelOp::kGt: return "Gt";
                           }
                           return "?";
                         });

TEST(RelConstraint, EqChannelsHoles) {
  Space s;
  const VarId x = s.new_var(Domain::from_values({1, 3, 5}));
  const VarId y = s.new_var(0, 10);
  post_rel(s, x, RelOp::kEq, y);
  ASSERT_TRUE(s.propagate());
  EXPECT_EQ(s.dom(y).values(), (std::vector<int>{1, 3, 5}));
}

class LinearOpTest : public ::testing::TestWithParam<RelOp> {};

TEST_P(LinearOpTest, MatchesBruteForce) {
  const RelOp op = GetParam();
  Space s;
  const VarId x = s.new_var(0, 3);
  const VarId y = s.new_var(0, 3);
  const VarId z = s.new_var(-2, 2);
  const std::vector<int> coeffs{2, 3, -1};
  const std::vector<VarId> vars{x, y, z};
  post_linear(s, coeffs, vars, op, 6);
  const auto expected = brute_force(
      {{0, 3}, {0, 3}, {-2, 2}}, [&](const Assignment& a) {
        const int sum = 2 * a[0] + 3 * a[1] - a[2];
        switch (op) {
          case RelOp::kEq: return sum == 6;
          case RelOp::kLeq: return sum <= 6;
          case RelOp::kGeq: return sum >= 6;
          default: return false;
        }
      });
  EXPECT_EQ(solve_all(s, {x, y, z}), expected);
}

INSTANTIATE_TEST_SUITE_P(EqLeqGeq, LinearOpTest,
                         ::testing::Values(RelOp::kEq, RelOp::kLeq,
                                           RelOp::kGeq),
                         [](const auto& info) {
                           switch (info.param) {
                             case RelOp::kEq: return "Eq";
                             case RelOp::kLeq: return "Leq";
                             case RelOp::kGeq: return "Geq";
                             default: return "?";
                           }
                         });

TEST(LinearConstraint, PropagatesBoundsWithoutSearch) {
  Space s;
  const VarId x = s.new_var(0, 100);
  const VarId y = s.new_var(0, 100);
  // x + y <= 10 must clip both to [0, 10] immediately.
  post_linear(s, std::vector<int>{1, 1}, std::vector<VarId>{x, y},
              RelOp::kLeq, 10);
  ASSERT_TRUE(s.propagate());
  EXPECT_EQ(s.max(x), 10);
  EXPECT_EQ(s.max(y), 10);
}

TEST(LinearConstraint, RejectsBadArity) {
  Space s;
  const VarId x = s.new_var(0, 1);
  EXPECT_THROW(post_linear(s, std::vector<int>{1, 2},
                           std::vector<VarId>{x}, RelOp::kEq, 0),
               InvalidInput);
}

TEST(MaxConstraint, MatchesBruteForce) {
  Space s;
  const VarId a = s.new_var(0, 3);
  const VarId b = s.new_var(1, 4);
  const VarId z = s.new_var(0, 5);
  post_max(s, z, std::vector<VarId>{a, b});
  const auto expected = brute_force(
      {{0, 3}, {1, 4}, {0, 5}},
      [](const Assignment& v) { return v[2] == std::max(v[0], v[1]); });
  EXPECT_EQ(solve_all(s, {a, b, z}), expected);
}

TEST(MinConstraint, MatchesBruteForce) {
  Space s;
  const VarId a = s.new_var(0, 3);
  const VarId b = s.new_var(1, 4);
  const VarId z = s.new_var(-1, 5);
  post_min(s, z, std::vector<VarId>{a, b});
  const auto expected = brute_force(
      {{0, 3}, {1, 4}, {-1, 5}},
      [](const Assignment& v) { return v[2] == std::min(v[0], v[1]); });
  EXPECT_EQ(solve_all(s, {a, b, z}), expected);
}

TEST(MaxConstraint, BoundsPropagation) {
  Space s;
  const VarId a = s.new_var(0, 3);
  const VarId b = s.new_var(0, 7);
  const VarId z = s.new_var(0, 100);
  post_max(s, z, std::vector<VarId>{a, b});
  ASSERT_TRUE(s.propagate());
  EXPECT_EQ(s.max(z), 7);
  // Lowering z's max clips every operand.
  s.set_max(z, 5);
  ASSERT_TRUE(s.propagate());
  EXPECT_EQ(s.max(b), 5);
  // Raising z's min above all-but-one operand's max forces that operand.
  s.set_min(z, 4);
  ASSERT_TRUE(s.propagate());
  EXPECT_EQ(s.min(b), 4);  // a caps at 3, so b must reach z
}

TEST(ElementConstraint, MatchesBruteForce) {
  Space s;
  const std::vector<int> table{4, 7, 4, 9};
  const VarId index = s.new_var(-2, 10);  // out-of-range pruned by post
  const VarId result = s.new_var(0, 10);
  post_element(s, table, index, result);
  const auto expected = brute_force(
      {{0, 3}, {0, 10}}, [&](const Assignment& a) {
        return table[static_cast<std::size_t>(a[0])] == a[1];
      });
  EXPECT_EQ(solve_all(s, {index, result}), expected);
}

TEST(ElementConstraint, DomainConsistentBothWays) {
  Space s;
  const std::vector<int> table{4, 7, 4, 9};
  const VarId index = s.new_var(0, 3);
  const VarId result = s.new_var(0, 10);
  post_element(s, table, index, result);
  ASSERT_TRUE(s.propagate());
  EXPECT_EQ(s.dom(result).values(), (std::vector<int>{4, 7, 9}));
  s.remove(result, 4);
  ASSERT_TRUE(s.propagate());
  EXPECT_EQ(s.dom(index).values(), (std::vector<int>{1, 3}));
  s.assign(index, 3);
  ASSERT_TRUE(s.propagate());
  EXPECT_EQ(s.value(result), 9);
}

}  // namespace
}  // namespace rr::cp
