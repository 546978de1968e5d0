// Tests for OPB parsing/serialization and solving through the native PB
// layer, including objective handling and negative-coefficient algebra.

#include <gtest/gtest.h>

#include <sstream>

#include "pb/opb.hpp"
#include "pb/propagator.hpp"
#include "sat/solver.hpp"

namespace optalloc::pb {
namespace {

using sat::LBool;

OpbProblem parse(const std::string& text) {
  std::istringstream in(text);
  return parse_opb(in);
}

TEST(Opb, ParsesHeaderAndConstraints) {
  const OpbProblem p = parse(
      "* #variable= 4 #constraint= 2\n"
      "+1 x1 +2 x2 +3 x3 >= 3 ;\n"
      "-2 x1 +4 x4 = 2 ;\n");
  EXPECT_EQ(p.num_vars, 4);
  ASSERT_EQ(p.constraints.size(), 2u);
  EXPECT_EQ(p.constraints[0].relation, OpbConstraint::Relation::kGe);
  EXPECT_EQ(p.constraints[0].rhs, 3);
  ASSERT_EQ(p.constraints[0].terms.size(), 3u);
  EXPECT_EQ(p.constraints[1].relation, OpbConstraint::Relation::kEq);
  EXPECT_EQ(p.constraints[1].terms[0].coef, -2);
}

TEST(Opb, ParsesNegatedLiterals) {
  const OpbProblem p = parse(
      "* #variable= 2 #constraint= 1\n"
      "+1 ~x1 +1 x2 >= 1 ;\n");
  EXPECT_TRUE(p.constraints[0].terms[0].lit.sign());
  EXPECT_EQ(p.constraints[0].terms[0].lit.var(), 0);
}

TEST(Opb, ParsesObjective) {
  // A ';' may touch the right-hand side.
  const OpbProblem p = parse(
      "* #variable= 2 #constraint= 1\n"
      "min: +1 x1 +2 x2 ;\n"
      "+1 x1 +1 x2 >= 1;\n");
  ASSERT_TRUE(p.objective.has_value());
  EXPECT_EQ(p.objective->size(), 2u);
  ASSERT_EQ(p.constraints.size(), 1u);
  EXPECT_EQ(p.constraints[0].rhs, 1);
}

TEST(Opb, RejectsMissingHeader) {
  EXPECT_THROW(parse("+1 x1 >= 1 ;\n"), std::runtime_error);
}

TEST(Opb, RejectsOutOfRangeVariable) {
  // A count past sat::kMaxVars is rejected, not truncated (2^32 + 2 -> 2).
  EXPECT_THROW(parse("* #variable= 4294967298 #constraint= 1\n"
                     "+1 x2 >= 1 ;\n"),
               std::runtime_error);
  EXPECT_THROW(parse("* #variable= -1\n"), std::runtime_error);
  // A bad or out-of-range number is a runtime_error, never
  // invalid_argument / out_of_range, and never a prefix read.
  for (const char* line : {
           "+1 x5 >= 1 ;", "+1 x >= 1 ;", "+1 x99999999999999999999 >= 1 ;",
           "+1 x1x >= 1 ;", "+1 x+1 >= 1 ;", "abc x1 >= 1 ;",
           "+99999999999999999999 x1 >= 1 ;",
           "+1 x1 >= 99999999999999999999 ;", "+1 x1 >= 1e3 ;"}) {
    EXPECT_THROW(parse(std::string("* #variable= 2\n") + line + "\n"),
                 std::runtime_error)
        << line;
  }
}

TEST(Opb, RejectsMissingRelation) {
  EXPECT_THROW(parse("* #variable= 1 #constraint= 1\n+1 x1 ;\n"),
               std::runtime_error);
}

TEST(Opb, RoundTrip) {
  OpbProblem p;
  p.num_vars = 3;
  p.objective = std::vector<Term>{{2, sat::pos(0)}, {-1, sat::neg(2)}};
  OpbConstraint c1;
  c1.terms = {{1, sat::pos(0)}, {3, sat::neg(1)}};
  c1.relation = OpbConstraint::Relation::kLe;
  c1.rhs = 2;
  p.constraints = {c1};
  std::ostringstream out;
  write_opb(out, p);
  const OpbProblem q = parse(out.str());
  EXPECT_EQ(q.num_vars, p.num_vars);
  ASSERT_TRUE(q.objective.has_value());
  EXPECT_EQ((*q.objective)[0].coef, 2);
  EXPECT_EQ((*q.objective)[1].lit, sat::neg(2));
  ASSERT_EQ(q.constraints.size(), 1u);
  EXPECT_EQ(q.constraints[0].relation, OpbConstraint::Relation::kLe);
  EXPECT_EQ(q.constraints[0].rhs, 2);
}

TEST(Opb, SolveSatisfiableSystem) {
  const OpbProblem p = parse(
      "* #variable= 3 #constraint= 2\n"
      "+1 x1 +1 x2 +1 x3 >= 2 ;\n"
      "+1 x1 +1 x2 <= 1 ;\n");
  sat::Solver solver;
  PbPropagator pbp(solver);
  ASSERT_TRUE(load_into(p, solver, pbp));
  ASSERT_EQ(solver.solve(), LBool::kTrue);
  // x3 must be true: at most one of x1/x2 but two in total.
  EXPECT_EQ(solver.model_value(sat::Var{2}), LBool::kTrue);
}

TEST(Opb, SolveUnsatisfiableSystem) {
  const OpbProblem p = parse(
      "* #variable= 2 #constraint= 2\n"
      "+1 x1 +1 x2 >= 2 ;\n"
      "+1 x1 +1 x2 <= 1 ;\n");
  sat::Solver solver;
  PbPropagator pbp(solver);
  const bool loaded = load_into(p, solver, pbp);
  EXPECT_TRUE(!loaded || solver.solve() == LBool::kFalse);
}

TEST(Opb, EqualityRelation) {
  const OpbProblem p = parse(
      "* #variable= 3 #constraint= 1\n"
      "+1 x1 +1 x2 +1 x3 = 2 ;\n");
  sat::Solver solver;
  PbPropagator pbp(solver);
  ASSERT_TRUE(load_into(p, solver, pbp));
  ASSERT_EQ(solver.solve(), LBool::kTrue);
  int count = 0;
  for (sat::Var v = 0; v < 3; ++v) {
    count += solver.model_value(v) == LBool::kTrue;
  }
  EXPECT_EQ(count, 2);
}

}  // namespace
}  // namespace optalloc::pb
