// Optimizer-level tests: agreement of all search strategies, backends and
// modes on the same optimum; the max-utilization objective; task release
// jitter end-to-end; warm-start semantics; anytime/budget behavior and
// cooperative cancellation.

#include <gtest/gtest.h>

#include <atomic>

#include "alloc/cost.hpp"
#include "alloc/optimizer.hpp"
#include "heur/annealing.hpp"
#include "heur/exhaustive.hpp"
#include "inc/session.hpp"
#include "rt/verify.hpp"
#include "util/rng.hpp"
#include "workload/tindell.hpp"

namespace optalloc::alloc {
namespace {

using rt::Medium;
using rt::MediumType;
using rt::Task;
using rt::Ticks;

Task make_task(std::string name, Ticks period, Ticks deadline,
               std::vector<Ticks> wcet) {
  Task t;
  t.name = std::move(name);
  t.period = period;
  t.deadline = deadline;
  t.wcet = std::move(wcet);
  return t;
}

Medium make_ring(std::vector<int> ecus, Ticks slot_max = 8) {
  Medium m;
  m.name = "ring";
  m.type = MediumType::kTokenRing;
  m.ecus = std::move(ecus);
  m.ring_byte_ticks = 1;
  m.slot_min = 1;
  m.slot_max = slot_max;
  return m;
}

Problem random_problem(Rng& rng) {
  Problem p;
  const int num_ecus = static_cast<int>(rng.uniform(2, 3));
  p.arch.num_ecus = num_ecus;
  std::vector<int> all;
  for (int e = 0; e < num_ecus; ++e) all.push_back(e);
  p.arch.media = {make_ring(all)};
  const int num_tasks = static_cast<int>(rng.uniform(3, 5));
  for (int i = 0; i < num_tasks; ++i) {
    const Ticks period = 50 * rng.uniform(2, 6);
    std::vector<Ticks> wcet;
    for (int e = 0; e < num_ecus; ++e) wcet.push_back(rng.uniform(5, 25));
    p.tasks.tasks.push_back(
        make_task("T" + std::to_string(i), period, period, wcet));
  }
  if (rng.chance(0.6)) {
    p.tasks.tasks[0].messages.push_back(
        {1, rng.uniform(1, 4), rng.uniform(30, 80), 0});
  }
  if (rng.chance(0.3)) {
    p.tasks.tasks[0].separated_from = {1};
    p.tasks.tasks[1].separated_from = {0};
  }
  return p;
}

TEST(Strategies, AllVariantsAgreeOnTheOptimum) {
  Rng rng(0x517A7);
  int checked = 0;
  for (int round = 0; round < 15; ++round) {
    const Problem p = random_problem(rng);
    const Objective obj = Objective::ring_trt(0);

    OptimizeOptions bisect;  // defaults
    OptimizeOptions descend;
    descend.strategy = SearchStrategy::kDescending;
    OptimizeOptions scratch;
    scratch.incremental = false;
    OptimizeOptions pbmix;
    pbmix.encoder.backend = encode::Backend::kPbMixed;
    OptimizeOptions warm;
    const auto sa = heur::anneal(p, obj, {.seed = 5, .iterations = 1500});
    if (sa.feasible) warm.warm_start = sa.allocation;

    const OptimizeResult a = optimize(p, obj, bisect);
    const OptimizeResult b = optimize(p, obj, descend);
    const OptimizeResult c = optimize(p, obj, scratch);
    const OptimizeResult d = optimize(p, obj, pbmix);
    const OptimizeResult e = optimize(p, obj, warm);
    inc::Session session(p, obj);  // zero edits: one guarded-encoding solve
    const inc::SessionResult f = session.solve();
    ASSERT_EQ(a.status, b.status) << "round " << round;
    ASSERT_EQ(a.status, c.status) << "round " << round;
    ASSERT_EQ(a.status, d.status) << "round " << round;
    ASSERT_EQ(a.status, e.status) << "round " << round;
    ASSERT_EQ(a.status, f.status) << "round " << round;
    if (a.status == OptimizeResult::Status::kOptimal) {
      EXPECT_EQ(a.cost, b.cost) << "round " << round;
      EXPECT_EQ(a.cost, c.cost) << "round " << round;
      EXPECT_EQ(a.cost, d.cost) << "round " << round;
      EXPECT_EQ(a.cost, e.cost) << "round " << round;
      EXPECT_EQ(a.cost, f.cost) << "round " << round;
      ++checked;
    }
  }
  EXPECT_GT(checked, 8);
}

TEST(MaxUtilization, BalancesLoadAcrossEcus) {
  // Four identical tasks of utilization 0.25 on two ECUs: balanced
  // optimum = 2 per ECU -> 500; any 3-1 split gives 750.
  Problem p;
  for (int i = 0; i < 4; ++i) {
    p.tasks.tasks.push_back(
        make_task("T" + std::to_string(i), 100, 100, {25, 25}));
  }
  p.arch.num_ecus = 2;
  p.arch.media = {make_ring({0, 1})};
  const OptimizeResult res = optimize(p, Objective::max_utilization());
  ASSERT_EQ(res.status, OptimizeResult::Status::kOptimal);
  EXPECT_EQ(res.cost, 500);
  EXPECT_EQ(objective_value(p, Objective::max_utilization(),
                            res.allocation),
            500);
  const auto report = rt::verify(p.tasks, p.arch, res.allocation);
  EXPECT_TRUE(report.feasible);
}

TEST(MaxUtilization, RespectsPlacementRestrictions) {
  // Three tasks, one pinned: the pinned ECU carries at least its load.
  Problem p;
  p.tasks.tasks.push_back(
      make_task("pinned", 100, 100, {60, rt::kForbidden}));
  p.tasks.tasks.push_back(make_task("a", 100, 100, {30, 30}));
  p.tasks.tasks.push_back(make_task("b", 100, 100, {30, 30}));
  p.arch.num_ecus = 2;
  p.arch.media = {make_ring({0, 1})};
  const OptimizeResult res = optimize(p, Objective::max_utilization());
  ASSERT_EQ(res.status, OptimizeResult::Status::kOptimal);
  // Optimal: pinned alone (600), a+b together (600).
  EXPECT_EQ(res.cost, 600);
}

TEST(MaxUtilization, MatchesExhaustiveOnRandomInstances) {
  Rng rng(0xDA7);
  int checked = 0;
  for (int round = 0; round < 12; ++round) {
    Problem p = random_problem(rng);
    for (Task& t : p.tasks.tasks) t.messages.clear();  // pure placement
    const auto truth =
        heur::exhaustive_search(p, Objective::max_utilization());
    ASSERT_TRUE(truth.has_value());
    const OptimizeResult res = optimize(p, Objective::max_utilization());
    if (truth->feasible && truth->exact) {
      ASSERT_EQ(res.status, OptimizeResult::Status::kOptimal);
      EXPECT_EQ(res.cost, truth->cost) << "round " << round;
      ++checked;
    }
  }
  EXPECT_GT(checked, 8);
}

TEST(ReleaseJitter, TightensTaskFeasibility) {
  // r = 40 on the only ECU; deadline 50. Jitter 5 still fits (40 <= 45),
  // jitter 15 does not (40 > 35).
  Problem p;
  p.tasks.tasks.push_back(make_task("J", 100, 50, {40}));
  p.arch.num_ecus = 1;
  p.arch.media = {make_ring({0})};

  p.tasks.tasks[0].release_jitter = 5;
  EXPECT_EQ(optimize(p, Objective::feasibility()).status,
            OptimizeResult::Status::kOptimal);
  p.tasks.tasks[0].release_jitter = 15;
  EXPECT_EQ(optimize(p, Objective::feasibility()).status,
            OptimizeResult::Status::kInfeasible);
}

TEST(ReleaseJitter, IncreasesInterferenceOnLowerPriority) {
  // hp task: C=10, T=60, D=45, jitter 30 (own bound: 10 <= 45-30 ok).
  // lp task: C=25, D=44. Sharing an ECU:
  //   r_lp = 25 + ceil((r+30)/60)*10 -> 35 -> ceil(65/60)=2 -> 45 ->
  //   ceil(75/60)=2 -> 45 > 44: infeasible together; feasible split.
  Problem p;
  Task hp = make_task("hp", 60, 45, {10, 10});
  hp.release_jitter = 30;
  Task lp = make_task("lp", 100, 44, {25, 25});
  p.tasks.tasks = {hp, lp};
  p.arch.num_ecus = 2;
  p.arch.media = {make_ring({0, 1})};
  const OptimizeResult res = optimize(p, Objective::feasibility());
  ASSERT_EQ(res.status, OptimizeResult::Status::kOptimal);
  EXPECT_NE(res.allocation.task_ecu[0], res.allocation.task_ecu[1]);
  const auto report = rt::verify(p.tasks, p.arch, res.allocation);
  EXPECT_TRUE(report.feasible);

  // Single-ECU variant is infeasible under the jitter.
  Problem single = p;
  single.tasks.tasks[0].wcet = {10};
  single.tasks.tasks[1].wcet = {25};
  single.arch.num_ecus = 1;
  single.arch.media = {make_ring({0})};
  EXPECT_EQ(optimize(single, Objective::feasibility()).status,
            OptimizeResult::Status::kInfeasible);
}

TEST(ReleaseJitter, VerifierAgreesWithEncoder) {
  // The encoder and the verifier must agree on jittered instances.
  Rng rng(0x117);
  for (int round = 0; round < 10; ++round) {
    Problem p = random_problem(rng);
    for (Task& t : p.tasks.tasks) {
      t.messages.clear();
      t.release_jitter = rng.uniform(0, 15);
    }
    const OptimizeResult res = optimize(p, Objective::feasibility());
    if (res.status == OptimizeResult::Status::kOptimal) {
      const auto report = rt::verify(p.tasks, p.arch, res.allocation);
      EXPECT_TRUE(report.feasible)
          << "round " << round << ": "
          << (report.violations.empty() ? "" : report.violations[0]);
    }
  }
}

TEST(WarmStart, InfeasibleHintIsIgnored) {
  // A deliberately infeasible warm start must not corrupt the result.
  Problem p;
  p.tasks.tasks.push_back(make_task("A", 100, 50, {10, 10}));
  p.tasks.tasks.push_back(make_task("B", 100, 100, {10, 10}));
  p.arch.num_ecus = 2;
  p.arch.media = {make_ring({0, 1})};
  rt::Allocation bogus;
  bogus.task_ecu = {0, 5};  // ECU out of range
  bogus.msg_route = {};
  bogus.msg_local_deadline = {};
  OptimizeOptions opts;
  opts.warm_start = bogus;
  const OptimizeResult res = optimize(p, Objective::ring_trt(0), opts);
  ASSERT_EQ(res.status, OptimizeResult::Status::kOptimal);
  EXPECT_EQ(res.cost, 2);
}

TEST(Budget, TimeLimitedRunReportsBounds) {
  const Problem p = workload::tindell_prefix(20);
  OptimizeOptions opts;
  opts.time_limit_s = 0.05;  // far too little for 20 tasks
  const OptimizeResult res = optimize(p, Objective::ring_trt(0), opts);
  EXPECT_EQ(res.status, OptimizeResult::Status::kBudgetExhausted);
}

TEST(Budget, WarmStartGivesAnytimeAnswerUnderTinyBudget) {
  const Problem p = workload::tindell_prefix(20);
  const auto sa =
      heur::anneal(p, Objective::ring_trt(0), {.seed = 2, .iterations = 3000});
  ASSERT_TRUE(sa.feasible);
  OptimizeOptions opts;
  opts.time_limit_s = 0.05;
  opts.warm_start = sa.allocation;
  const OptimizeResult res = optimize(p, Objective::ring_trt(0), opts);
  EXPECT_EQ(res.status, OptimizeResult::Status::kBudgetExhausted);
  ASSERT_TRUE(res.has_allocation);  // the SA seed is the anytime answer
  EXPECT_EQ(res.cost, sa.cost);
}

TEST(Portfolio, StopFlagCancelsOptimizer) {
  // A pre-set stop flag must make a single optimize() return promptly
  // with budget-exhausted (anytime semantics).
  std::atomic<bool> stop{true};
  OptimizeOptions opts;
  opts.stop = &stop;
  const Problem p = workload::tindell_prefix(20);
  const OptimizeResult res = optimize(p, Objective::ring_trt(0), opts);
  EXPECT_EQ(res.status, OptimizeResult::Status::kBudgetExhausted);
}

TEST(ObjectiveApi, DescribeStrings) {
  EXPECT_EQ(Objective::feasibility().describe(), "feasibility");
  EXPECT_EQ(Objective::ring_trt(2).describe(), "min TRT(medium 2)");
  EXPECT_EQ(Objective::sum_trt().describe(), "min sum of TRTs");
  EXPECT_EQ(Objective::can_load(0).describe(), "min U_CAN(medium 0)");
  EXPECT_EQ(Objective::max_utilization().describe(),
            "min max per-ECU utilization");
}

TEST(ObjectiveApi, InvalidMediumThrows) {
  Problem p;
  p.tasks.tasks.push_back(make_task("A", 100, 100, {10}));
  p.arch.num_ecus = 1;
  p.arch.media = {make_ring({0})};
  AllocEncoder enc_bad_can(p, Objective::can_load(0));  // ring, not CAN
  EXPECT_THROW(enc_bad_can.build(), std::invalid_argument);
  AllocEncoder enc_bad_trt(p, Objective::ring_trt(7));
  EXPECT_THROW(enc_bad_trt.build(), std::invalid_argument);
}

}  // namespace
}  // namespace optalloc::alloc
