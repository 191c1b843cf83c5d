// Reified relations and the positive table constraint (the reference
// library's compact-table engine), cross-checked against brute force like
// the rest of the constraint library.
#include <gtest/gtest.h>

#include "cp/constraints.hpp"
#include "cp_test_utils.hpp"
#include "reference/table.hpp"

namespace rr::cp {
namespace {

using reference::post_table;
using testing::Assignment;
using testing::brute_force;
using testing::solve_all;

class ReifiedOpTest : public ::testing::TestWithParam<RelOp> {};

TEST_P(ReifiedOpTest, MatchesBruteForce) {
  const RelOp op = GetParam();
  Space s;
  const VarId x = s.new_var(0, 5);
  const VarId b = s.new_var(0, 1);
  post_rel_reified(s, x, op, 3, b);
  const auto expected = brute_force(
      {{0, 5}, {0, 1}}, [&](const Assignment& a) {
        bool truth = false;
        switch (op) {
          case RelOp::kEq: truth = a[0] == 3; break;
          case RelOp::kNeq: truth = a[0] != 3; break;
          case RelOp::kLeq: truth = a[0] <= 3; break;
          case RelOp::kGeq: truth = a[0] >= 3; break;
          case RelOp::kLt: truth = a[0] < 3; break;
          case RelOp::kGt: truth = a[0] > 3; break;
        }
        return (a[1] == 1) == truth;
      });
  EXPECT_EQ(solve_all(s, {x, b}), expected);
}

INSTANTIATE_TEST_SUITE_P(AllOps, ReifiedOpTest,
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

TEST(ReifiedRel, ForwardDirection) {
  Space s;
  const VarId x = s.new_var(0, 9);
  const VarId b = s.new_var(0, 1);
  post_rel_reified(s, x, RelOp::kLeq, 4, b);
  s.assign(b, 1);
  ASSERT_TRUE(s.propagate());
  EXPECT_EQ(s.max(x), 4);
}

TEST(ReifiedRel, NegativeDirection) {
  Space s;
  const VarId x = s.new_var(0, 9);
  const VarId b = s.new_var(0, 1);
  post_rel_reified(s, x, RelOp::kLeq, 4, b);
  s.assign(b, 0);
  ASSERT_TRUE(s.propagate());
  EXPECT_EQ(s.min(x), 5);
}

TEST(ReifiedRel, EntailmentDecidesB) {
  Space s;
  const VarId x = s.new_var(0, 9);
  const VarId b = s.new_var(0, 1);
  post_rel_reified(s, x, RelOp::kGeq, 3, b);
  s.set_min(x, 5);
  ASSERT_TRUE(s.propagate());
  EXPECT_TRUE(s.assigned(b));
  EXPECT_EQ(s.value(b), 1);
}

TEST(ReifiedRel, RefutationDecidesB) {
  Space s;
  const VarId x = s.new_var(0, 9);
  const VarId b = s.new_var(0, 1);
  post_rel_reified(s, x, RelOp::kEq, 7, b);
  s.remove(x, 7);
  ASSERT_TRUE(s.propagate());
  EXPECT_EQ(s.value(b), 0);
}

TEST(ReifiedRel, BClippedToBool) {
  Space s;
  const VarId x = s.new_var(0, 9);
  const VarId b = s.new_var(-5, 5);
  post_rel_reified(s, x, RelOp::kEq, 1, b);
  ASSERT_TRUE(s.propagate());
  EXPECT_GE(s.min(b), 0);
  EXPECT_LE(s.max(b), 1);
}

TEST(TableConstraint, MatchesBruteForce) {
  Space s;
  const VarId x = s.new_var(0, 3);
  const VarId y = s.new_var(0, 3);
  const VarId z = s.new_var(0, 3);
  const std::vector<std::vector<int>> tuples{
      {0, 1, 2}, {1, 2, 3}, {2, 0, 1}, {0, 1, 3}, {3, 3, 3}};
  post_table(s, std::vector<VarId>{x, y, z}, tuples);
  const auto expected = brute_force(
      {{0, 3}, {0, 3}, {0, 3}}, [&](const Assignment& a) {
        for (const auto& t : tuples)
          if (t[0] == a[0] && t[1] == a[1] && t[2] == a[2]) return true;
        return false;
      });
  EXPECT_EQ(solve_all(s, {x, y, z}), expected);
  EXPECT_EQ(expected.size(), 5u);
}

TEST(TableConstraint, PropagatesGac) {
  Space s;
  const VarId x = s.new_var(0, 3);
  const VarId y = s.new_var(0, 3);
  post_table(s, std::vector<VarId>{x, y},
             {{0, 1}, {1, 2}, {2, 1}});
  ASSERT_TRUE(s.propagate());
  EXPECT_EQ(s.dom(x).values(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(s.dom(y).values(), (std::vector<int>{1, 2}));
  s.remove(y, 2);  // kills tuple {1,2}
  ASSERT_TRUE(s.propagate());
  EXPECT_EQ(s.dom(x).values(), (std::vector<int>{0, 2}));
}

TEST(TableConstraint, FailsWhenNoTupleLives) {
  Space s;
  const VarId x = s.new_var(5, 9);
  const VarId y = s.new_var(0, 3);
  post_table(s, std::vector<VarId>{x, y}, {{0, 0}, {1, 1}});
  EXPECT_FALSE(s.propagate());
}

TEST(TableConstraint, EmptyTupleSetIsInfeasible) {
  Space s;
  const VarId x = s.new_var(0, 3);
  post_table(s, std::vector<VarId>{x}, {});
  EXPECT_FALSE(s.propagate());
}

TEST(TableConstraint, RejectsArityMismatch) {
  Space s;
  const VarId x = s.new_var(0, 3);
  EXPECT_THROW(post_table(s, std::vector<VarId>{x}, {{1, 2}}), InvalidInput);
}

}  // namespace
}  // namespace rr::cp
