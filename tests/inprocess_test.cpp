// Unit tests for the inprocessing engine (sat/inprocess.hpp): the
// subsumption matrix, self-subsuming resolution, vivification shrinking,
// bounded variable elimination with model reconstruction, the
// frozen-variable contract, proof certification of inprocessed UNSAT
// runs, and the arena's shrink/wasted/GC accounting the engine relies on.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "alloc/encoder.hpp"
#include "alloc/io.hpp"
#include "check/drat.hpp"
#include "sat/clause.hpp"
#include "sat/inprocess.hpp"
#include "sat/proof.hpp"
#include "sat/solver.hpp"
#include "workload/tindell.hpp"

namespace optalloc::sat {
namespace {

/// True iff the solver's (reconstructed) model satisfies the clause.
bool model_satisfies(const Solver& s, const std::vector<Lit>& c) {
  for (const Lit l : c) {
    if (s.model_value(l) == LBool::kTrue) return true;
  }
  return false;
}

TEST(Inprocess, BackwardSubsumptionRemovesSuperset) {
  // (a|b) subsumes (a|b|c): one clause disappears, satisfiability and
  // models are untouched.
  Solver s;
  const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
  ASSERT_TRUE(s.add_binary(pos(a), pos(b)));
  ASSERT_TRUE(s.add_ternary(pos(a), pos(b), pos(c)));

  Inprocessor pass(s);
  ASSERT_TRUE(pass.run());
  EXPECT_EQ(s.stats().subsumed_clauses, 1u);
  EXPECT_EQ(s.solve(), LBool::kTrue);
  EXPECT_TRUE(model_satisfies(s, {pos(a), pos(b)}));
}

TEST(Inprocess, SelfSubsumingResolutionStrengthens) {
  // (a|b) self-subsumes (~a|b|c): resolving on `a` yields (b|c), which
  // subsumes the original — so (~a|b|c) is strengthened in place.
  Solver s;
  const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
  ASSERT_TRUE(s.add_binary(pos(a), pos(b)));
  ASSERT_TRUE(s.add_ternary(neg(a), pos(b), pos(c)));

  Inprocessor pass(s);
  ASSERT_TRUE(pass.run());
  EXPECT_GE(s.stats().strengthened_clauses, 1u);
  EXPECT_EQ(s.solve(), LBool::kTrue);
  EXPECT_TRUE(model_satisfies(s, {pos(a), pos(b)}));
  EXPECT_TRUE(model_satisfies(s, {neg(a), pos(b), pos(c)}));
}

TEST(Inprocess, SubsumptionMatrix) {
  // The pairwise cases subsumption must and must not fire on. Each row:
  // {C, D, expected subsumed count, expected strengthened count}.
  struct Case {
    const char* name;
    std::vector<std::vector<int>> clauses;  ///< DIMACS-style, 1-based
    std::uint64_t subsumed;
    std::uint64_t strengthened;
  };
  const std::vector<Case> cases = {
      {"duplicate", {{1, 2}, {1, 2}}, 1, 0},
      {"strict superset", {{1, 2}, {1, 2, 3}}, 1, 0},
      {"one flipped literal", {{1, 2}, {-1, 2, 3}}, 0, 1},
      {"two flipped literals", {{1, 2}, {-1, -2, 3}}, 0, 0},
      {"disjoint", {{1, 2}, {3, 4}}, 0, 0},
      {"overlap but no subsumption", {{1, 2, 3}, {1, 2, 4}}, 0, 0},
  };
  for (const Case& tc : cases) {
    Solver s;
    int max_var = 0;
    for (const auto& c : tc.clauses) {
      for (const int l : c) max_var = std::max(max_var, std::abs(l));
    }
    for (int v = 0; v < max_var; ++v) s.new_var();
    for (const auto& c : tc.clauses) {
      std::vector<Lit> lits;
      for (const int l : c) {
        lits.push_back(Lit(static_cast<Var>(std::abs(l) - 1), l < 0));
      }
      ASSERT_TRUE(s.add_clause(lits)) << tc.name;
    }
    // Subsumption only: no vivification effect at level 0 anyway, but
    // keep BVE from eliminating the instance out from under the check.
    InprocessLimits limits;
    limits.bve_occ_max = 0;
    Inprocessor pass(s, limits);
    ASSERT_TRUE(pass.run()) << tc.name;
    EXPECT_EQ(s.stats().subsumed_clauses, tc.subsumed) << tc.name;
    EXPECT_EQ(s.stats().strengthened_clauses, tc.strengthened) << tc.name;
    EXPECT_EQ(s.solve(), LBool::kTrue) << tc.name;
  }
}

TEST(Inprocess, VivificationShrinksClause) {
  // Vivifying (a|b|c) under F = {(a|~b)}: asserting ~a propagates ~b
  // through (a|~b), so `b` is false in every extension — the clause
  // strengthens to (a|c). Subsumption is disabled to isolate the stage
  // (it would reach the same clause via self-subsuming resolution).
  Solver s;
  const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
  ASSERT_TRUE(s.add_binary(pos(a), neg(b)));
  ASSERT_TRUE(s.add_ternary(pos(a), pos(b), pos(c)));

  InprocessLimits limits;
  limits.subsume_clause_max = 0;  // disable subsumption
  limits.bve_occ_max = 0;         // disable elimination
  limits.vivify_irredundant = true;
  Inprocessor pass(s, limits);
  ASSERT_TRUE(pass.run());
  EXPECT_EQ(s.stats().strengthened_clauses, 1u);
  EXPECT_EQ(s.stats().subsumed_clauses, 0u);
  EXPECT_EQ(s.solve(), LBool::kTrue);
  EXPECT_TRUE(model_satisfies(s, {pos(a), neg(b)}));
  EXPECT_TRUE(model_satisfies(s, {pos(a), pos(b), pos(c)}));
}

TEST(Inprocess, BveEliminatesAndReconstructsModel) {
  // F = {(a|v), (~v|b)}: eliminating v produces the single resolvent
  // (a|b). The reduced formula knows nothing about v — the model the
  // caller sees must still satisfy the ORIGINAL clauses, which is the
  // reconstruction stack's job.
  Solver s;
  const Var a = s.new_var(), v = s.new_var(), b = s.new_var();
  ASSERT_TRUE(s.add_binary(pos(a), pos(v)));
  ASSERT_TRUE(s.add_binary(neg(v), pos(b)));

  Inprocessor pass(s);
  ASSERT_TRUE(pass.run());
  EXPECT_GE(s.stats().eliminated_vars, 1u);
  EXPECT_EQ(s.solve(), LBool::kTrue);
  EXPECT_TRUE(model_satisfies(s, {pos(a), pos(v)}));
  EXPECT_TRUE(model_satisfies(s, {neg(v), pos(b)}));
}

TEST(Inprocess, BveGrowthCapVetoesElimination) {
  // `v` has 2 positive and 2 negative occurrences and all 4 resolvents
  // are non-tautological: eliminating it would grow the database (4 > 4
  // is false — so allow it with grow 0; tighten the cap by occurrence
  // limit instead). With bve_occ_max = 1 the variable is not even a
  // candidate and must survive.
  Solver s;
  const Var a = s.new_var(), b = s.new_var(), v = s.new_var(),
            x = s.new_var(), y = s.new_var();
  ASSERT_TRUE(s.add_binary(pos(a), pos(v)));
  ASSERT_TRUE(s.add_binary(pos(b), pos(v)));
  ASSERT_TRUE(s.add_binary(neg(v), pos(x)));
  ASSERT_TRUE(s.add_binary(neg(v), pos(y)));

  InprocessLimits limits;
  limits.bve_occ_max = 1;
  Inprocessor pass(s, limits);
  ASSERT_TRUE(pass.run());
  EXPECT_FALSE(s.is_eliminated(v));
  EXPECT_EQ(s.solve(), LBool::kTrue);
}

TEST(Inprocess, FrozenVariablesAreNeverEliminated) {
  // Same instance as the elimination test, but everything is frozen —
  // the pass must leave all variables in place.
  Solver s;
  const Var a = s.new_var(), v = s.new_var(), b = s.new_var();
  s.set_frozen(a);
  s.set_frozen(v);
  s.set_frozen(b);
  ASSERT_TRUE(s.add_binary(pos(a), pos(v)));
  ASSERT_TRUE(s.add_binary(neg(v), pos(b)));

  Inprocessor pass(s);
  ASSERT_TRUE(pass.run());
  EXPECT_EQ(s.stats().eliminated_vars, 0u);
  EXPECT_FALSE(s.is_eliminated(a));
  EXPECT_FALSE(s.is_eliminated(v));
  EXPECT_FALSE(s.is_eliminated(b));
  EXPECT_EQ(s.solve(), LBool::kTrue);
}

TEST(Inprocess, AssumptionOverEliminatedVariableRestores) {
  // Incremental inprocessing: assuming a literal of an eliminated
  // variable restores it — the removed clauses come back, the
  // reconstruction entries go away, and both polarities answer
  // correctly ever after.
  Solver s;
  const Var a = s.new_var(), v = s.new_var(), b = s.new_var();
  ASSERT_TRUE(s.add_binary(pos(a), pos(v)));
  ASSERT_TRUE(s.add_binary(neg(v), pos(b)));

  Inprocessor pass(s);
  ASSERT_TRUE(pass.run());
  ASSERT_TRUE(s.is_eliminated(v));

  ASSERT_EQ(s.solve({pos(v)}), LBool::kTrue);
  EXPECT_FALSE(s.is_eliminated(v));
  EXPECT_TRUE(s.is_frozen(v));  // reused -> never eliminated again
  EXPECT_EQ(s.stats().restored_vars, 1u);
  EXPECT_EQ(s.model_value(v), LBool::kTrue);
  EXPECT_EQ(s.model_value(b), LBool::kTrue);  // (~v | b) is back

  ASSERT_EQ(s.solve({neg(v)}), LBool::kTrue);
  EXPECT_EQ(s.model_value(v), LBool::kFalse);
  // a itself was never reused, so it stays eliminated and model
  // reconstruction must still satisfy its removed clause (a | v).
  EXPECT_EQ(s.model_value(a), LBool::kTrue);
}

TEST(Inprocess, IncrementalClauseOverEliminatedVariableRestores) {
  // The add_clause direction, with a proof riding along: after v is
  // eliminated, new clauses force ~v and ~a, which together with the
  // restored original (a | v) are unsatisfiable. Without restoration the
  // solver would answer SAT from the reduced formula. The proof stays
  // checkable because elimination never logged the removed clauses'
  // deletions.
  Solver s;
  ProofLog log;
  s.set_proof(&log);
  // v is created first so the elimination sweep reaches it while it still
  // has its occurrence: v is pure, so elimination removes (a | v) with
  // zero resolvents and the reduced formula forgets about a entirely.
  const Var v = s.new_var(), a = s.new_var(), b = s.new_var();
  ASSERT_TRUE(s.add_binary(pos(a), pos(v)));

  Inprocessor pass(s);
  ASSERT_TRUE(pass.run());
  ASSERT_TRUE(s.is_eliminated(v));

  ASSERT_TRUE(s.add_binary(neg(v), pos(b)));  // mentions v: restores it
  EXPECT_FALSE(s.is_eliminated(v));
  EXPECT_GE(s.stats().restored_vars, 1u);
  ASSERT_EQ(s.solve(), LBool::kTrue);

  // ~b forces ~v, and with (a | v) restored, ~a closes the formula.
  // Without restoration the solver would answer SAT here.
  ASSERT_TRUE(s.add_clause(std::vector<Lit>{neg(b)}));
  s.add_clause(std::vector<Lit>{neg(a)});  // may already derive UNSAT
  EXPECT_EQ(s.solve(), LBool::kFalse);
  const check::DratResult res = check::check_proof_all(log);
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(Inprocess, ProofHintsSurviveEliminationAndRestore) {
  // Every lemma of this run carries hints, through eliminations and a
  // cascading restore: a resolvent lists its parents, and a restored
  // clause is re-attached under the step ID it was logged with, so later
  // chains can name it. Strict checking must then verify every lemma by
  // its chain, none by RUP.
  Solver s;
  ProofLog log;
  s.set_proof(&log);
  const Var v = s.new_var(), a = s.new_var(), b = s.new_var(),
            c = s.new_var();
  ASSERT_TRUE(s.add_binary(pos(a), pos(v)));
  ASSERT_TRUE(s.add_binary(pos(b), neg(v)));  // resolvent on v: (a | b)

  Inprocessor pass(s);
  ASSERT_TRUE(pass.run());
  ASSERT_TRUE(s.is_eliminated(v));

  ASSERT_TRUE(s.add_binary(neg(v), pos(c)));  // mentions v: restores it
  ASSERT_FALSE(s.is_eliminated(v));
  s.add_clause(std::vector<Lit>{neg(c)});     // ~c forces ~v, then a
  s.add_clause(std::vector<Lit>{neg(a)});     // contradicts a
  EXPECT_EQ(s.solve(), LBool::kFalse);

  const check::DratResult res = check::check_proof_all(log);
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_GT(res.hinted_checked, 0u);
  EXPECT_EQ(res.rup_checked, 0u);
}

TEST(Inprocess, FirstSolveAutoFreezesAssumptions) {
  // The other direction of the contract: assumptions passed to solve()
  // are frozen on entry, so the preprocessing pass inside that very
  // call cannot eliminate them, and later queries still work.
  Solver s;
  const Var a = s.new_var(), v = s.new_var(), b = s.new_var();
  ASSERT_TRUE(s.add_binary(pos(a), pos(v)));
  ASSERT_TRUE(s.add_binary(neg(v), pos(b)));

  ASSERT_EQ(s.solve({pos(v)}), LBool::kTrue);
  EXPECT_FALSE(s.is_eliminated(v));
  EXPECT_TRUE(s.is_frozen(v));
  EXPECT_EQ(s.model_value(v), LBool::kTrue);
  EXPECT_EQ(s.solve({neg(v)}), LBool::kTrue);
  EXPECT_EQ(s.model_value(v), LBool::kFalse);
}

TEST(Inprocess, UnsatWithInprocessingProducesCheckableProof) {
  // Pigeonhole PHP(4,3) — 4 pigeons, 3 holes — forced through a pass at
  // every restart: subsumption/strengthening/elimination lemmas land in
  // the same DRAT stream as search lemmas, and the independent checker
  // must accept the whole thing.
  Solver s;
  ProofLog log;
  s.set_proof(&log);
  s.inprocess_interval = 1;
  const int pigeons = 4, holes = 3;
  std::vector<std::vector<Var>> in(pigeons, std::vector<Var>(holes));
  for (int p = 0; p < pigeons; ++p) {
    for (int h = 0; h < holes; ++h) in[p][h] = s.new_var();
  }
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> c;
    for (int h = 0; h < holes; ++h) c.push_back(pos(in[p][h]));
    ASSERT_TRUE(s.add_clause(c));
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        ASSERT_TRUE(s.add_binary(neg(in[p1][h]), neg(in[p2][h])));
      }
    }
  }
  ASSERT_EQ(s.solve(), LBool::kFalse);
  EXPECT_GE(s.stats().inprocess_passes, 1u);
  const check::DratResult res = check::check_proof_all(log);
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(Inprocess, PassCountersAndBackoffAdvance) {
  // A satisfiable instance big enough to conflict a few times, interval
  // 1: at least one pass must fire and the words-reclaimed counter must
  // be consistent (reclaimed only grows).
  Solver s;
  s.inprocess_interval = 1;
  const int n = 12;
  std::vector<Var> vars;
  for (int i = 0; i < n; ++i) vars.push_back(s.new_var());
  for (int i = 0; i + 2 < n; ++i) {
    ASSERT_TRUE(s.add_ternary(pos(vars[i]), neg(vars[i + 1]),
                              pos(vars[i + 2])));
    ASSERT_TRUE(s.add_ternary(neg(vars[i]), pos(vars[i + 1]),
                              neg(vars[i + 2])));
  }
  ASSERT_EQ(s.solve(), LBool::kTrue);
  EXPECT_GE(s.stats().inprocess_passes, 1u);
}

TEST(Inprocess, VivifiedClausesCarryHints) {
  // Each way vivification shortens a clause is logged with a hint chain,
  // so strict checking verifies every lemma of the run by its chain and
  // none by RUP:
  //   (a|b|x):  probing ~a, ~b makes x false through (a|b|~x) — only false
  //             literals drop, and the chain closes on the clause itself;
  //   (p|q|r):  probing ~p makes q true through (p|q) — the chain closes
  //             on q's reason;
  //   (e|f|g):  probing ~e conflicts on (e|y), (e|~y) — the chain closes
  //             on the conflict, and the result is the unit e.
  Solver s;
  ProofLog log;
  s.set_proof(&log);
  const Var a = s.new_var(), b = s.new_var(), x = s.new_var();
  const Var p = s.new_var(), q = s.new_var(), r = s.new_var();
  const Var e = s.new_var(), f = s.new_var(), g = s.new_var(),
            y = s.new_var();
  ASSERT_TRUE(s.add_ternary(pos(a), pos(b), pos(x)));
  ASSERT_TRUE(s.add_ternary(pos(a), pos(b), neg(x)));
  ASSERT_TRUE(s.add_ternary(pos(p), pos(q), pos(r)));
  ASSERT_TRUE(s.add_binary(pos(p), pos(q)));
  ASSERT_TRUE(s.add_ternary(pos(e), pos(f), pos(g)));
  ASSERT_TRUE(s.add_binary(pos(e), pos(y)));
  ASSERT_TRUE(s.add_binary(pos(e), neg(y)));

  InprocessLimits limits;
  limits.subsume_clause_max = 0;  // disable subsumption
  limits.bve_occ_max = 0;         // disable elimination
  limits.vivify_irredundant = true;
  Inprocessor pass(s, limits);
  ASSERT_TRUE(pass.run());
  // (a|b|~x) stays: the first probes moved its watches, so it is probed
  // from ~x and keeps all three literals.
  EXPECT_EQ(s.stats().strengthened_clauses, 3u);
  EXPECT_EQ(s.value(pos(e)), LBool::kTrue);

  s.add_clause(std::vector<Lit>{neg(a)});
  s.add_clause(std::vector<Lit>{neg(b)});  // falsifies (a|b)
  EXPECT_EQ(s.solve(), LBool::kFalse);
  const check::DratResult res = check::check_proof_all(log);
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_GT(res.hinted_checked, 0u);
  EXPECT_EQ(res.rup_checked, 0u);
}

TEST(Inprocess, ManyRestoresThroughAssumptions) {
  // Hundreds of eliminated variables come back through assumptions on one
  // solver. Each chain (a|m), (~m|b), (~a|~b|c) loses its middle variable
  // m (a, b and c are frozen), and every model after the restores must
  // still satisfy each original clause — the restored ones and those
  // whose variables stay eliminated — while the proof of the final UNSAT
  // answer checks.
  Solver s;
  ProofLog log;
  s.set_proof(&log);
  constexpr int kChains = 400;
  std::vector<std::vector<Lit>> original;
  std::vector<Var> middle;
  for (int i = 0; i < kChains; ++i) {
    const Var a = s.new_var(), m = s.new_var(), b = s.new_var(),
              c = s.new_var();
    s.set_frozen(a);
    s.set_frozen(b);
    s.set_frozen(c);
    middle.push_back(m);
    original.push_back({pos(a), pos(m)});
    original.push_back({neg(m), pos(b)});
    original.push_back({neg(a), neg(b), pos(c)});
  }
  for (const auto& c : original) ASSERT_TRUE(s.add_clause(c));

  Inprocessor pass(s);
  ASSERT_TRUE(pass.run());
  for (const Var m : middle) ASSERT_TRUE(s.is_eliminated(m));

  auto check_model = [&] {
    for (const auto& c : original) {
      ASSERT_TRUE(model_satisfies(s, c));
    }
  };
  // Restore three quarters of them, alternating polarities.
  constexpr std::size_t kRestored = 3 * kChains / 4;
  std::vector<Lit> assumptions;
  for (std::size_t i = 0; i < kRestored; ++i) {
    assumptions.push_back(i % 2 == 0 ? pos(middle[i]) : neg(middle[i]));
  }
  ASSERT_EQ(s.solve(assumptions), LBool::kTrue);
  EXPECT_EQ(s.stats().restored_vars, kRestored);
  check_model();
  for (std::size_t i = 0; i < middle.size(); ++i) {
    EXPECT_EQ(s.is_eliminated(middle[i]), i >= kRestored);
  }
  // A second round over the same variables restores nothing more.
  for (Lit& l : assumptions) l = ~l;
  ASSERT_EQ(s.solve(assumptions), LBool::kTrue);
  EXPECT_EQ(s.stats().restored_vars, kRestored);
  check_model();

  // A unit over a still-eliminated variable restores it too; then the
  // units ~a0 and ~m0 falsify the restored (a0 | m0).
  s.add_clause(std::vector<Lit>{neg(middle.back())});
  EXPECT_FALSE(s.is_eliminated(middle.back()));
  s.add_clause(std::vector<Lit>{neg(original[0][0].var())});
  s.add_clause(std::vector<Lit>{neg(middle[0])});
  EXPECT_EQ(s.solve(), LBool::kFalse);
  const check::DratResult res = check::check_proof_all(log);
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(Inprocess, PaperEncodingPassIsStable) {
  // One pass over the encoding of the 8-task Tindell prefix. Which
  // variables BVE eliminates and which clauses survive decide the search
  // that follows, so any rewrite of the pass's data structures must
  // reproduce these counts exactly; the state it leaves must also pass
  // the auditor (every watcher names a live clause watched on its first
  // two literals).
  const alloc::Problem problem = workload::tindell_prefix(8);
  alloc::AllocEncoder enc(problem, alloc::parse_objective("trt:0"));
  ASSERT_TRUE(enc.build());
  Solver& s = enc.solver();
  Inprocessor pass(s);
  ASSERT_TRUE(pass.run());
  EXPECT_EQ(s.stats().eliminated_vars, 5035u);
  EXPECT_EQ(s.stats().subsumed_clauses, 297u);
  EXPECT_EQ(s.stats().strengthened_clauses, 191u);
  EXPECT_EQ(s.num_clauses(), 25342);
  EXPECT_EQ(s.num_literals(), 78171u);
  std::vector<std::string> problems;
  EXPECT_TRUE(s.audit(&problems))
      << (problems.empty() ? std::string() : problems.front());
}

// -- Arena accounting -----------------------------------------------------

TEST(ClauseArena, ShrinkCreditsWastedAndSurvivesReloc) {
  // The accounting bug the GC trigger depends on: shrinking a clause must
  // credit the dropped words to wasted() (Clause::shrink alone does not),
  // and a subsequent relocation GC must compact them away while keeping
  // the surviving literals intact.
  ClauseArena arena;
  const std::vector<Lit> wide = {Lit(0, false), Lit(1, false), Lit(2, false),
                                 Lit(3, false)};
  const std::vector<Lit> other = {Lit(4, false), Lit(5, true)};
  const CRef r1 = arena.alloc(wide, /*learnt=*/false);
  const CRef r2 = arena.alloc(other, /*learnt=*/true);
  EXPECT_EQ(arena.wasted(), 0u);
  EXPECT_EQ(arena.size(), (3u + 4u) + (3u + 2u));

  // Strengthen r1 from 4 literals to 2: two words become garbage.
  arena.shrink_clause(r1, 2);
  EXPECT_EQ(arena.deref(r1).size(), 2u);
  EXPECT_EQ(arena.wasted(), 2u);

  // Free r2 entirely: header (3 words) + 2 literals join the garbage.
  arena.free_clause(r2);
  EXPECT_EQ(arena.wasted(), 2u + 5u);

  // Compaction: relocate the live clause into a fresh arena. The new
  // arena holds exactly the shrunk clause, no wasted words.
  ClauseArena to;
  const CRef nr1 = arena.reloc(r1, to);
  EXPECT_EQ(to.size(), 3u + 2u);
  EXPECT_EQ(to.wasted(), 0u);
  const Clause& moved = to.deref(nr1);
  ASSERT_EQ(moved.size(), 2u);
  EXPECT_EQ(moved[0], wide[0]);
  EXPECT_EQ(moved[1], wide[1]);
  // Idempotent forwarding for already-moved clauses.
  EXPECT_EQ(arena.reloc(r1, to), nr1);
}

TEST(ClauseArena, SolverGcCompactsShrunkClauses) {
  // End to end through the solver: strengthen via inprocessing, then
  // check a garbage collection reclaims the arena words (the pass GCs
  // itself when wasted*2 > size; force comparison via stats).
  Solver s;
  const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
  ASSERT_TRUE(s.add_binary(pos(a), pos(b)));
  ASSERT_TRUE(s.add_ternary(neg(a), pos(b), pos(c)));
  InprocessLimits limits;
  limits.bve_occ_max = 0;  // keep the strengthened clause around
  Inprocessor pass(s, limits);
  ASSERT_TRUE(pass.run());
  ASSERT_GE(s.stats().strengthened_clauses, 1u);
  EXPECT_GE(s.stats().inprocess_reclaimed_words, 1u);
  EXPECT_EQ(s.solve(), LBool::kTrue);
}

}  // namespace
}  // namespace optalloc::sat
