// Unit tests for the CDCL solver: basic satisfiability, unit propagation,
// conflict handling, incremental solving under assumptions, unsat cores,
// model correctness, pigeonhole instances, and DIMACS round-tripping.

#include <gtest/gtest.h>

#include <sstream>

#include "sat/dimacs.hpp"
#include "sat/solver.hpp"

namespace optalloc::sat {
namespace {

TEST(Solver, EmptyFormulaIsSat) {
  Solver s;
  EXPECT_EQ(s.solve(), LBool::kTrue);
}

TEST(Solver, SingleUnit) {
  Solver s;
  const Var v = s.new_var();
  ASSERT_TRUE(s.add_unit(pos(v)));
  EXPECT_EQ(s.solve(), LBool::kTrue);
  EXPECT_EQ(s.model_value(v), LBool::kTrue);
}

TEST(Solver, ContradictoryUnits) {
  Solver s;
  const Var v = s.new_var();
  ASSERT_TRUE(s.add_unit(pos(v)));
  EXPECT_FALSE(s.add_unit(neg(v)));
  EXPECT_EQ(s.solve(), LBool::kFalse);
}

TEST(Solver, BinaryImplicationChain) {
  // x0 -> x1 -> ... -> x9, with x0 forced true: all must be true.
  Solver s;
  std::vector<Var> vars;
  for (int i = 0; i < 10; ++i) vars.push_back(s.new_var());
  for (int i = 0; i + 1 < 10; ++i) {
    ASSERT_TRUE(s.add_binary(neg(vars[i]), pos(vars[i + 1])));
  }
  ASSERT_TRUE(s.add_unit(pos(vars[0])));
  ASSERT_EQ(s.solve(), LBool::kTrue);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(s.model_value(vars[i]), LBool::kTrue) << "var " << i;
  }
}

TEST(Solver, SimpleUnsatTriangle) {
  // (a|b) & (~a|b) & (a|~b) & (~a|~b) is unsatisfiable.
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  ASSERT_TRUE(s.add_binary(pos(a), pos(b)));
  ASSERT_TRUE(s.add_binary(neg(a), pos(b)));
  ASSERT_TRUE(s.add_binary(pos(a), neg(b)));
  s.add_binary(neg(a), neg(b));
  EXPECT_EQ(s.solve(), LBool::kFalse);
}

TEST(Solver, ModelSatisfiesAllClauses) {
  // A moderately sized satisfiable instance; verify the model by hand.
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 20; ++i) v.push_back(s.new_var());
  std::vector<std::vector<Lit>> clauses;
  for (int i = 0; i < 20; ++i) {
    clauses.push_back({pos(v[i]), pos(v[(i + 3) % 20]), neg(v[(i + 7) % 20])});
  }
  for (const auto& c : clauses) ASSERT_TRUE(s.add_clause(c));
  ASSERT_EQ(s.solve(), LBool::kTrue);
  for (const auto& c : clauses) {
    bool satisfied = false;
    for (const Lit l : c) satisfied |= (s.model_value(l) == LBool::kTrue);
    EXPECT_TRUE(satisfied);
  }
}

TEST(Solver, AssumptionsRestrictModels) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  ASSERT_TRUE(s.add_binary(pos(a), pos(b)));
  ASSERT_EQ(s.solve({neg(a)}), LBool::kTrue);
  EXPECT_EQ(s.model_value(a), LBool::kFalse);
  EXPECT_EQ(s.model_value(b), LBool::kTrue);
  // Solver stays reusable with different assumptions.
  ASSERT_EQ(s.solve({neg(b)}), LBool::kTrue);
  EXPECT_EQ(s.model_value(a), LBool::kTrue);
  ASSERT_EQ(s.solve({neg(a), neg(b)}), LBool::kFalse);
  // And without assumptions it is still satisfiable.
  EXPECT_EQ(s.solve(), LBool::kTrue);
}

TEST(Solver, ConflictCoreMentionsOnlyRelevantAssumptions) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
  ASSERT_TRUE(s.add_binary(neg(a), pos(b)));  // a -> b
  ASSERT_EQ(s.solve({pos(a), neg(b), pos(c)}), LBool::kFalse);
  // The core must not mention c.
  for (const Lit l : s.conflict_core()) EXPECT_NE(l.var(), c);
  EXPECT_FALSE(s.conflict_core().empty());
}

TEST(Solver, IncrementalAddClausesBetweenSolves) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  ASSERT_TRUE(s.add_binary(pos(a), pos(b)));
  ASSERT_EQ(s.solve(), LBool::kTrue);
  ASSERT_TRUE(s.add_unit(neg(a)));
  ASSERT_EQ(s.solve(), LBool::kTrue);
  EXPECT_EQ(s.model_value(b), LBool::kTrue);
  s.add_unit(neg(b));
  EXPECT_EQ(s.solve(), LBool::kFalse);
}

// Pigeonhole principle PHP(n+1, n): n+1 pigeons into n holes, UNSAT.
// Classic hard instance for resolution; n=6 stays fast but forces real
// conflict analysis, learning, restarts and clause deletion to kick in.
void add_pigeonhole(Solver& s, int pigeons, int holes,
                    std::vector<std::vector<Var>>& grid) {
  grid.assign(pigeons, std::vector<Var>(holes));
  for (auto& row : grid) {
    for (auto& var : row) var = s.new_var();
  }
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> at_least_one;
    for (int h = 0; h < holes; ++h) at_least_one.push_back(pos(grid[p][h]));
    ASSERT_TRUE(s.add_clause(at_least_one));
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        s.add_binary(neg(grid[p1][h]), neg(grid[p2][h]));
      }
    }
  }
}

TEST(Solver, PigeonholeUnsat) {
  Solver s;
  std::vector<std::vector<Var>> grid;
  add_pigeonhole(s, 7, 6, grid);
  EXPECT_EQ(s.solve(), LBool::kFalse);
  EXPECT_GT(s.stats().conflicts, 0u);
}

TEST(Solver, PigeonholeSatWhenEnoughHoles) {
  Solver s;
  std::vector<std::vector<Var>> grid;
  add_pigeonhole(s, 6, 6, grid);
  ASSERT_EQ(s.solve(), LBool::kTrue);
  // Verify it is a valid assignment: each pigeon in >=1 hole, no sharing.
  for (int h = 0; h < 6; ++h) {
    int occupants = 0;
    for (int p = 0; p < 6; ++p) {
      occupants += (s.model_value(grid[p][h]) == LBool::kTrue);
    }
    EXPECT_LE(occupants, 1);
  }
}

TEST(Solver, ConflictBudgetReturnsUndef) {
  Solver s;
  std::vector<std::vector<Var>> grid;
  add_pigeonhole(s, 10, 9, grid);
  const LBool r = s.solve({}, Budget{.conflicts = 5});
  EXPECT_EQ(r, LBool::kUndef);
}

TEST(Solver, TimeBudgetReturnsUndefOnHardInstance) {
  Solver s;
  std::vector<std::vector<Var>> grid;
  add_pigeonhole(s, 13, 12, grid);  // way beyond a 10ms budget
  const LBool r = s.solve({}, Budget{.seconds = 0.01});
  EXPECT_EQ(r, LBool::kUndef);
}

TEST(Solver, TautologicalClauseIgnored) {
  Solver s;
  const Var a = s.new_var();
  ASSERT_TRUE(s.add_binary(pos(a), neg(a)));
  EXPECT_EQ(s.num_clauses(), 0);
  EXPECT_EQ(s.solve(), LBool::kTrue);
}

TEST(Solver, DuplicateLiteralsDeduplicated) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  ASSERT_TRUE(s.add_clause({pos(a), pos(a), pos(b)}));
  ASSERT_TRUE(s.add_unit(neg(b)));
  ASSERT_EQ(s.solve(), LBool::kTrue);
  EXPECT_EQ(s.model_value(a), LBool::kTrue);
}

TEST(Solver, NonDecisionVarNeverBranchedOn) {
  // A variable marked non-decision with no constraints stays unassigned;
  // the solver must still report SAT (it only branches on decision vars).
  Solver s;
  const Var a = s.new_var(/*decision=*/false);
  const Var b = s.new_var();
  ASSERT_TRUE(s.add_binary(pos(b), pos(a)));
  // b picks up the clause; solver can satisfy with b=true without touching a.
  EXPECT_EQ(s.solve(), LBool::kTrue);
}

TEST(Solver, StatsAccumulate) {
  Solver s;
  std::vector<std::vector<Var>> grid;
  add_pigeonhole(s, 7, 6, grid);
  ASSERT_EQ(s.solve(), LBool::kFalse);
  const auto& st = s.stats();
  EXPECT_GT(st.decisions, 0u);
  EXPECT_GT(st.propagations, 0u);
  EXPECT_GT(st.conflicts, 0u);
}

TEST(Dimacs, ParseAndSolve) {
  std::istringstream in(
      "c a comment\n"
      "p cnf 3 4\n"
      "1 2 0\n"
      "-1 2 0\n"
      "1 -2 0\n"
      "3 0\n");
  const DimacsProblem p = parse_dimacs(in);
  EXPECT_EQ(p.num_vars, 3);
  EXPECT_EQ(p.clauses.size(), 4u);
  Solver s;
  ASSERT_TRUE(load_into(p, s));
  ASSERT_EQ(s.solve(), LBool::kTrue);
  EXPECT_EQ(s.model_value(Var{0}), LBool::kTrue);
  EXPECT_EQ(s.model_value(Var{1}), LBool::kTrue);
  EXPECT_EQ(s.model_value(Var{2}), LBool::kTrue);
}

TEST(Dimacs, RoundTrip) {
  DimacsProblem p;
  p.num_vars = 4;
  p.clauses = {{pos(0), neg(1)}, {pos(2), pos(3), neg(0)}};
  std::ostringstream out;
  write_dimacs(out, p);
  std::istringstream in(out.str());
  const DimacsProblem q = parse_dimacs(in);
  EXPECT_EQ(q.num_vars, p.num_vars);
  ASSERT_EQ(q.clauses.size(), p.clauses.size());
  for (std::size_t i = 0; i < p.clauses.size(); ++i) {
    EXPECT_EQ(q.clauses[i], p.clauses[i]);
  }
}

TEST(Dimacs, RejectsMalformedHeader) {
  for (const char* text : {"p dnf 3 1\n1 0\n", "p cnf -1 0\n",
                           "p cnf 1 -1\n",
                           "p cnf 1073741825 0\n"}) {  // > sat::kMaxVars
    std::istringstream in(text);
    EXPECT_THROW(parse_dimacs(in), std::runtime_error) << text;
  }
}

TEST(Dimacs, RejectsOutOfRangeLiteral) {
  // A literal is range-checked before any narrowing cast (2^32 + 1 must
  // not wrap onto x1), and a token that is not an integer is rejected
  // rather than ending the line and merging the rest of its clause into
  // the next line's (SATLIB's `%` + `0` trailer must not become an empty
  // clause).
  for (const char* text :
       {"p cnf 2 1\n3 0\n", "p cnf 1 1\n4294967297 0\n",
        "p cnf 1 1\n-4294967297 0\n", "p cnf 1 1\n-9223372036854775808 0\n",
        "p cnf 2 2\n1 -2x 0\n2 0\n", "p cnf 2 1\n1 2 0\n%\n0\n"}) {
    std::istringstream in(text);
    EXPECT_THROW(parse_dimacs(in), std::runtime_error) << text;
  }
}

TEST(Lit, EncodingInvariants) {
  const Lit l = pos(5);
  EXPECT_EQ(l.var(), 5);
  EXPECT_FALSE(l.sign());
  EXPECT_TRUE((~l).sign());
  EXPECT_EQ((~l).var(), 5);
  EXPECT_EQ(~~l, l);
  EXPECT_EQ(l ^ true, ~l);
  EXPECT_EQ(l ^ false, l);
  EXPECT_EQ(neg(3), ~pos(3));
}

TEST(LBoolOps, NegationTable) {
  EXPECT_EQ(~LBool::kTrue, LBool::kFalse);
  EXPECT_EQ(~LBool::kFalse, LBool::kTrue);
  EXPECT_EQ(~LBool::kUndef, LBool::kUndef);
  EXPECT_EQ(xor_sign(LBool::kTrue, true), LBool::kFalse);
  EXPECT_EQ(xor_sign(LBool::kUndef, true), LBool::kUndef);
}

}  // namespace
}  // namespace optalloc::sat
