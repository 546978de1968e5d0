// Tests for the certification subsystem (src/check): proof-log round
// trips, the backward RUP checker on hand-built and solver-produced
// proofs, fault injection (corrupted learnt clauses must be rejected),
// theory-lemma weakening checks, solver-state invariant auditing, and
// end-to-end certified optimization through alloc::optimize.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "alloc/optimizer.hpp"
#include "check/drat.hpp"
#include "check/invariants.hpp"
#include "check/model.hpp"
#include "pb/propagator.hpp"
#include "sat/proof.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace optalloc {
namespace {

using sat::Lit;
using sat::neg;
using sat::pos;
using sat::ProofLog;
using sat::Var;

using LitVec = std::vector<Lit>;

// -- Proof log serialization ----------------------------------------------

TEST(ProofLog, TextRoundTrip) {
  ProofLog log;
  const std::vector<sat::ProofPbTerm> axiom = {{2, pos(0)}, {1, pos(1)},
                                               {1, neg(2)}};
  log.add_pb_ge(axiom, 2);
  log.add_input(LitVec{pos(0), neg(1)});
  log.add_theory(LitVec{pos(0), pos(1)});
  log.add_lemma(LitVec{pos(0)});
  log.add_delete(LitVec{pos(0), neg(1)});
  log.add_lemma(LitVec{});  // empty clause

  std::ostringstream os;
  log.write_text(os);

  ProofLog parsed;
  std::string error;
  std::istringstream is(os.str());
  ASSERT_TRUE(parsed.parse_text(is, &error)) << error;

  ASSERT_EQ(parsed.num_steps(), log.num_steps());
  for (std::size_t s = 0; s < log.num_steps(); ++s) {
    EXPECT_EQ(parsed.step(s).kind, log.step(s).kind) << "step " << s;
    const auto a = log.lits(log.step(s));
    const auto b = parsed.lits(parsed.step(s));
    ASSERT_EQ(a.size(), b.size()) << "step " << s;
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
  ASSERT_EQ(parsed.pb_constraints().size(), 1u);
  EXPECT_EQ(parsed.pb_constraints()[0].rhs, 2);
  ASSERT_EQ(parsed.pb_constraints()[0].terms.size(), 3u);
  EXPECT_EQ(parsed.pb_constraints()[0].terms[0].coef, 2);
  EXPECT_EQ(parsed.pb_constraints()[0].terms[2].lit, neg(2));
  EXPECT_EQ(parsed.num_lemmas(), 2u);
}

TEST(ProofLog, ParseRejectsGarbage) {
  ProofLog log;
  std::string error;
  std::istringstream is("1 2 frog 0\n");
  EXPECT_FALSE(log.parse_text(is, &error));
  EXPECT_FALSE(error.empty());
}

// -- RUP checker on hand-built proofs -------------------------------------

TEST(DratCheck, AcceptsResolutionChain) {
  // (x|y)(~x|y)(x|~y)(~x|~y) |- y |- {} : the classic 2-variable core.
  ProofLog log;
  log.add_input(LitVec{pos(0), pos(1)});
  log.add_input(LitVec{neg(0), pos(1)});
  log.add_input(LitVec{pos(0), neg(1)});
  log.add_input(LitVec{neg(0), neg(1)});
  log.add_lemma(LitVec{pos(1)});
  log.add_lemma(LitVec{});

  const check::DratResult res = check::check_proof(log);
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_GE(res.lemmas_checked, 2u);
  const check::DratResult strict = check::check_proof_all(log);
  EXPECT_TRUE(strict.ok) << strict.error;
}

TEST(DratCheck, RejectsUnsupportedLemma) {
  // (x|y) does not entail x: asserting ~x propagates y and halts.
  ProofLog log;
  log.add_input(LitVec{pos(0), pos(1)});
  log.add_lemma(LitVec{pos(0)});
  const check::DratResult res = check::check_proof(log);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("not RUP"), std::string::npos) << res.error;
}

TEST(DratCheck, DefaultTargetIsLastLemmaWhenNoneEmpty) {
  ProofLog log;
  log.add_input(LitVec{pos(0)});
  log.add_input(LitVec{neg(0), pos(1)});
  log.add_lemma(LitVec{pos(1)});  // last (and only) lemma, RUP
  const check::DratResult res = check::check_proof(log);
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.lemmas_checked, 1u);
}

TEST(DratCheck, DeletionRemovesClauseFromLaterChecks) {
  // The lemma is RUP only through the input deleted before it: backward
  // checking must respect the [add, delete) liveness window and fail.
  ProofLog log;
  log.add_input(LitVec{pos(0)});
  log.add_input(LitVec{neg(0), pos(1)});
  log.add_delete(LitVec{pos(0)});
  log.add_lemma(LitVec{pos(1)});
  const check::DratResult res = check::check_proof(log);
  EXPECT_FALSE(res.ok);
}

TEST(DratCheck, TheoryLemmaWeakening) {
  // Axiom 2a + b + c >= 2: falsifying {a, b} caps the LHS at 1 < 2, so
  // (a|b) is a valid clausal weakening; (b) alone is not (2a + c = 3 >= 2).
  ProofLog good;
  const std::vector<sat::ProofPbTerm> axiom = {{2, pos(0)}, {1, pos(1)},
                                               {1, pos(2)}};
  good.add_pb_ge(axiom, 2);
  good.add_theory(LitVec{pos(0), pos(1)});
  EXPECT_TRUE(check::check_proof_all(good).ok)
      << check::check_proof_all(good).error;

  ProofLog bad;
  bad.add_pb_ge(axiom, 2);
  bad.add_theory(LitVec{pos(1)});
  const check::DratResult res = check::check_proof_all(bad);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("weakening"), std::string::npos) << res.error;
}

// -- Solver-produced proofs -----------------------------------------------

/// Pigeonhole PHP(p, h): p pigeons into h holes, UNSAT when p > h. Small
/// but requires genuine clause learning.
void add_pigeonhole(sat::Solver& s, int pigeons, int holes) {
  auto var = [&](int p, int h) { return static_cast<Var>(p * holes + h); };
  for (int i = 0; i < pigeons * holes; ++i) s.new_var();
  for (int p = 0; p < pigeons; ++p) {
    LitVec some;
    for (int h = 0; h < holes; ++h) some.push_back(pos(var(p, h)));
    s.add_clause(some);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p = 0; p < pigeons; ++p) {
      for (int q = p + 1; q < pigeons; ++q) {
        s.add_clause(LitVec{neg(var(p, h)), neg(var(q, h))});
      }
    }
  }
}

TEST(DratCheck, SolverProofOnPigeonholeVerifies) {
  sat::Solver s;
  ProofLog log;
  s.set_proof(&log);
  add_pigeonhole(s, 4, 3);
  ASSERT_EQ(s.solve(), sat::LBool::kFalse);
  ASSERT_GT(log.num_lemmas(), 0u);

  const check::DratResult res = check::check_proof(log);
  EXPECT_TRUE(res.ok) << res.error;
  // Strict mode: every learnt clause the solver ever derived is RUP at its
  // derivation point, so the full log passes too.
  const check::DratResult strict = check::check_proof_all(log);
  EXPECT_TRUE(strict.ok) << strict.error;
  EXPECT_GE(strict.lemmas_checked, res.lemmas_checked);
}

TEST(DratCheck, CorruptedLearntClauseIsRejected) {
  // Fault injection: drop the last literal of the N-th learnt clause (in
  // both the solver's database and the log). The strengthened clause is in
  // general no longer implied by the formula, so strict checking must
  // refuse the proof — even though the final verdict may not depend on it.
  // Random 3-SAT near the phase transition gives instances loose enough
  // that the injected clause excludes actual models; on this fixed seed
  // the checker catches several of the 128 injected corruptions, while
  // every healthy log verifies.
  Rng rng(0xBADC0DE);
  int rejected = 0;
  int rejected_default = 0;
  for (int round = 0; round < 40; ++round) {
    std::vector<LitVec> cs;
    for (int i = 0; i < 34; ++i) {
      std::vector<Var> pool;
      for (Var v = 0; v < 8; ++v) pool.push_back(v);
      LitVec c;
      for (int j = 0; j < 3; ++j) {
        const std::size_t k = rng.index(pool.size());
        c.push_back(Lit(pool[k], rng.chance(0.5)));
        pool[k] = pool.back();
        pool.pop_back();
      }
      cs.push_back(c);
    }
    auto run = [&cs](std::uint64_t corrupt, ProofLog& log) {
      sat::Solver s;
      s.set_proof(&log);
      s.test_corrupt_learnt = corrupt;
      for (int v = 0; v < 8; ++v) s.new_var();
      bool ok = true;
      for (const auto& c : cs) ok = s.add_clause(c) && ok;
      if (ok) (void)s.solve();
    };
    ProofLog healthy;
    run(0, healthy);
    const check::DratResult base = check::check_proof_all(healthy);
    ASSERT_TRUE(base.ok) << "healthy log rejected in round " << round << ": "
                         << base.error;
    for (std::uint64_t n = 1; n <= healthy.num_lemmas(); ++n) {
      ProofLog corrupted;
      run(n, corrupted);  // verdict itself is untrusted under injection
      if (!check::check_proof_all(corrupted).ok) ++rejected;
      if (!check::check_proof(corrupted).ok) ++rejected_default;
    }
  }
  EXPECT_GT(rejected, 0)
      << "no injected corruption was caught by the strict checker";
  // Default mode checks only what the final lemma depends on; the
  // corrupted clause sits in the solver's database, so later derivations
  // that use it name it as a hint and pull it into the check.
  EXPECT_GT(rejected_default, 0)
      << "no injected corruption was caught by the default checker";
}

// -- Hinted lemmas ----------------------------------------------------------

/// (x|y)(~x|y)(x|~y)(~x|~y) |- y |- {} with hints: under ~y, step 0 is
/// unit on x and step 1 falsified; under the empty lemma's negation, the
/// unit y (step 4) assigns y, step 2 assigns x, step 3 is falsified.
ProofLog hinted_core(const std::vector<sat::ProofId>& y_hints) {
  ProofLog log;
  log.add_input(LitVec{pos(0), pos(1)});
  log.add_input(LitVec{neg(0), pos(1)});
  log.add_input(LitVec{pos(0), neg(1)});
  log.add_input(LitVec{neg(0), neg(1)});
  log.add_lemma(LitVec{pos(1)}, y_hints);
  const std::vector<sat::ProofId> empty_hints = {4, 2, 3};
  log.add_lemma(LitVec{}, empty_hints);
  return log;
}

TEST(DratCheck, HintedChainVerifiesWithoutRup) {
  const ProofLog log = hinted_core({0, 1});
  for (const check::DratResult& res :
       {check::check_proof(log), check::check_proof_all(log)}) {
    EXPECT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.hinted_checked, 2u);
    EXPECT_EQ(res.rup_checked, 0u);
    EXPECT_EQ(res.lemmas_checked, 2u);
  }
}

/// Every corrupted chain must be rejected in both modes, naming the lemma
/// at step index 4 (text ID 5) and containing `why`.
void expect_rejected(const ProofLog& log, const std::string& why) {
  for (const check::DratResult& res :
       {check::check_proof(log), check::check_proof_all(log)}) {
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("lemma at step 5"), std::string::npos)
        << res.error;
    EXPECT_NE(res.error.find(why), std::string::npos) << res.error;
  }
}

TEST(DratCheck, HintNamingALaterStepIsRejected) {
  expect_rejected(hinted_core({0, 5}), "step 6 is not an earlier step");
}

TEST(DratCheck, HintNamingADeletedClauseIsRejected) {
  ProofLog log;
  log.add_input(LitVec{pos(0), pos(1)});
  log.add_input(LitVec{neg(0), pos(1)});
  log.add_input(LitVec{pos(0), neg(1)});
  log.add_delete(sat::ProofId{1});  // step 3 deletes step 1 (text ID 2)
  log.add_lemma(LitVec{pos(1)}, std::vector<sat::ProofId>{0, 1});
  expect_rejected(log, "step 2 was deleted at step 4");
}

TEST(DratCheck, HintNamingAnUnrelatedClauseIsRejected) {
  // Step 2, (x|~y), is satisfied once ~y is asserted: not unit.
  expect_rejected(hinted_core({0, 2}), "step 3 is satisfied");
  // A clause over other variables keeps two literals unassigned.
  ProofLog log;
  log.add_input(LitVec{pos(0), pos(1)});
  log.add_input(LitVec{neg(0), pos(1)});
  log.add_input(LitVec{pos(2), pos(3)});
  log.add_input(LitVec{neg(2)});
  log.add_lemma(LitVec{pos(1)}, std::vector<sat::ProofId>{0, 2});
  expect_rejected(log, "step 3 is not unit");
}

TEST(DratCheck, DroppedHintIsRejected) {
  // Without step 1 the chain stops at x: no conflict, and no RUP fallback
  // (the lemma is RUP, so a fallback would have accepted it).
  expect_rejected(hinted_core({0}), "ends without a conflict");
}

TEST(DratCheck, HintedRoundTripKeepsVerdictAndCounts) {
  sat::Solver s;
  ProofLog log;
  s.set_proof(&log);
  add_pigeonhole(s, 5, 4);
  ASSERT_EQ(s.solve(), sat::LBool::kFalse);

  std::ostringstream os;
  log.write_text(os);
  ProofLog parsed;
  std::string error;
  std::istringstream is(os.str());
  ASSERT_TRUE(parsed.parse_text(is, &error)) << error;
  ASSERT_EQ(parsed.num_steps(), log.num_steps());
  for (std::size_t i = 0; i < log.num_steps(); ++i) {
    const sat::ProofStep& a = log.step(i);
    const sat::ProofStep& b = parsed.step(i);
    ASSERT_EQ(a.kind, b.kind) << "step " << i;
    ASSERT_TRUE(std::ranges::equal(log.lits(a), parsed.lits(b))) << i;
    ASSERT_TRUE(std::ranges::equal(log.hints(a), parsed.hints(b))) << i;
  }

  for (const bool strict : {false, true}) {
    const check::DratResult a =
        strict ? check::check_proof_all(log) : check::check_proof(log);
    const check::DratResult b =
        strict ? check::check_proof_all(parsed) : check::check_proof(parsed);
    ASSERT_TRUE(a.ok) << a.error;
    EXPECT_EQ(b.ok, a.ok) << b.error;
    EXPECT_GT(a.hinted_checked, 0u);
    EXPECT_EQ(b.lemmas_checked, a.lemmas_checked);
    EXPECT_EQ(b.hinted_checked, a.hinted_checked);
    EXPECT_EQ(b.rup_checked, a.rup_checked);
    EXPECT_EQ(b.theory_checked, a.theory_checked);
    EXPECT_EQ(b.db_clauses, a.db_clauses);
  }
}

TEST(DratCheck, LegacyHintFreeTextStillVerifies) {
  // A plain DRAT-style log: no hints, literal deletions (one matching a
  // clause, one matching none). Every lemma takes the RUP path.
  ProofLog log;
  std::string error;
  std::istringstream is(
      "i 1 2 0\ni -1 2 0\ni 1 -2 0\ni -1 -2 0\n"
      "2 0\nd -1 2 0\nd 3 4 0\n0\n");
  ASSERT_TRUE(log.parse_text(is, &error)) << error;
  EXPECT_EQ(log.deleted(log.step(5)), sat::kNoProofId);
  const check::DratResult res = check::check_proof_all(log);
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.hinted_checked, 0u);
  EXPECT_EQ(res.rup_checked, 2u);
}

TEST(ProofLog, ParseRejectsMalformedHints) {
  for (const char* text : {"1 0 2\n", "1 0 -2 0\n", "i 1 0 1 0\n",
                           "d 1 0 1 2 0\n", "1 0 1 0 7\n"}) {
    ProofLog log;
    std::string error;
    std::istringstream is(text);
    EXPECT_FALSE(log.parse_text(is, &error)) << text;
  }
}

// -- Invariant auditing ---------------------------------------------------

TEST(Audit, CleanSolverPasses) {
  sat::Solver s;
  add_pigeonhole(s, 3, 3);  // SAT variant: leaves a populated trail
  ASSERT_EQ(s.solve(), sat::LBool::kTrue);
  std::vector<std::string> violations;
  EXPECT_TRUE(s.audit(&violations));
  EXPECT_TRUE(violations.empty());
}

TEST(Audit, PeriodicHookRunsCleanThroughSearch) {
  // audit_period=1 re-audits at every conflict; a healthy solver must
  // never trip it (the hook throws std::logic_error on violation).
  sat::Solver s;
  s.audit_period = 1;
  add_pigeonhole(s, 4, 3);
  EXPECT_NO_THROW({ EXPECT_EQ(s.solve(), sat::LBool::kFalse); });
}

TEST(Audit, AggregateReportCoversPbPropagator) {
  sat::Solver s;
  pb::PbPropagator pb(s);
  for (int i = 0; i < 4; ++i) s.new_var();
  ASSERT_TRUE(pb.add_ge(
      std::vector<pb::Term>{{2, pos(0)}, {1, pos(1)}, {1, pos(2)}}, 2));
  ASSERT_TRUE(pb.add_le(
      std::vector<pb::Term>{{1, pos(0)}, {1, pos(3)}}, 1));
  ASSERT_EQ(s.solve(), sat::LBool::kTrue);
  const check::AuditReport report = check::audit_solver_state(s, &pb);
  EXPECT_TRUE(report.ok) << report.summary();
}

// -- End-to-end certified optimization ------------------------------------

alloc::Problem tiny_problem() {
  alloc::Problem p;
  p.arch.num_ecus = 2;
  rt::Medium m;
  m.name = "ring";
  m.type = rt::MediumType::kTokenRing;
  m.ecus = {0, 1};
  m.ring_byte_ticks = 1;
  m.slot_min = 1;
  m.slot_max = 8;
  p.arch.media = {m};
  auto task = [](const char* name, rt::Ticks period,
                 std::vector<rt::Ticks> wcet) {
    rt::Task t;
    t.name = name;
    t.period = period;
    t.deadline = period;
    t.wcet = std::move(wcet);
    return t;
  };
  p.tasks.tasks = {task("a", 100, {10, 14}), task("b", 100, {12, 8}),
                   task("c", 200, {20, 30})};
  p.tasks.tasks[0].messages.push_back({1, 2, 60, 0});
  return p;
}

/// tiny_problem with the communicating pair forced apart: the message must
/// cross the ring, which pushes the optimum above the interval's naive
/// lower bound — so the binary search must answer at least one UNSAT
/// query, exercising the proof-checking path.
alloc::Problem separated_problem() {
  alloc::Problem p = tiny_problem();
  p.tasks.tasks[0].separated_from = {1};
  p.tasks.tasks[1].separated_from = {0};
  return p;
}

TEST(CertifiedOptimize, IncrementalOptimumIsCertified) {
  alloc::OptimizeOptions opts;
  opts.certify = true;
  const alloc::OptimizeResult res =
      alloc::optimize(separated_problem(), alloc::Objective::sum_trt(), opts);
  ASSERT_EQ(res.status, alloc::OptimizeResult::Status::kOptimal);
  EXPECT_TRUE(res.certified) << res.certify_error;
  EXPECT_TRUE(res.certify_error.empty()) << res.certify_error;
  EXPECT_GT(res.stats.sat_calls_unsat, 0);
  EXPECT_GT(res.stats.models_certified, 0);
  EXPECT_GT(res.stats.proofs_certified, 0);
  EXPECT_GT(res.stats.proof_lemmas_checked, 0u);
}

TEST(CertifiedOptimize, ScratchModeIsCertified) {
  alloc::OptimizeOptions opts;
  opts.certify = true;
  opts.incremental = false;
  const alloc::OptimizeResult res =
      alloc::optimize(separated_problem(), alloc::Objective::sum_trt(), opts);
  ASSERT_EQ(res.status, alloc::OptimizeResult::Status::kOptimal);
  EXPECT_TRUE(res.certified) << res.certify_error;
  EXPECT_GT(res.stats.models_certified, 0);
  EXPECT_GT(res.stats.proofs_certified, 0);
}

TEST(CertifiedOptimize, CertifiedCostMatchesUncertified) {
  const alloc::Problem p = tiny_problem();
  alloc::OptimizeOptions plain;
  alloc::OptimizeOptions certifying;
  certifying.certify = true;
  const auto a = alloc::optimize(p, alloc::Objective::sum_trt(), plain);
  const auto b = alloc::optimize(p, alloc::Objective::sum_trt(), certifying);
  ASSERT_EQ(a.status, alloc::OptimizeResult::Status::kOptimal);
  ASSERT_EQ(b.status, alloc::OptimizeResult::Status::kOptimal);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_FALSE(a.certified);  // certification is opt-in
  EXPECT_TRUE(b.certified) << b.certify_error;
}

TEST(CertifiedOptimize, InfeasibleAnswerIsCertified) {
  alloc::Problem p = tiny_problem();
  // Mutual separation across three tasks on two ECUs is impossible.
  p.tasks.tasks[0].separated_from = {1, 2};
  p.tasks.tasks[1].separated_from = {0, 2};
  p.tasks.tasks[2].separated_from = {0, 1};
  alloc::OptimizeOptions opts;
  opts.certify = true;
  const alloc::OptimizeResult res =
      alloc::optimize(p, alloc::Objective::sum_trt(), opts);
  ASSERT_EQ(res.status, alloc::OptimizeResult::Status::kInfeasible);
  EXPECT_TRUE(res.certified) << res.certify_error;
}

TEST(CertifiedOptimize, ExternalProofLogIsPopulated) {
  sat::ProofLog log;
  alloc::OptimizeOptions opts;
  opts.proof = &log;  // proof capture without certification
  const alloc::OptimizeResult res =
      alloc::optimize(tiny_problem(), alloc::Objective::sum_trt(), opts);
  ASSERT_EQ(res.status, alloc::OptimizeResult::Status::kOptimal);
  EXPECT_FALSE(res.certified);
  EXPECT_GT(log.num_steps(), 0u);
  // The captured log must hold up under the standalone strict checker.
  const check::DratResult strict = check::check_proof_all(log);
  EXPECT_TRUE(strict.ok) << strict.error;
}

}  // namespace
}  // namespace optalloc
