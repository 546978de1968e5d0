// Tests for the heuristic allocators (simulated annealing, exhaustive
// search) and the central optimality cross-check: on random small
// instances the SAT optimizer must (a) agree exactly with exhaustive
// search where the latter is exact, (b) never be beaten by annealing,
// and (c) always produce verifier-approved allocations.

#include <gtest/gtest.h>

#include "alloc/cost.hpp"
#include "alloc/optimizer.hpp"
#include "heur/annealing.hpp"
#include "heur/common.hpp"
#include "heur/exhaustive.hpp"
#include "rt/verify.hpp"
#include "util/rng.hpp"

namespace optalloc::heur {
namespace {

using alloc::Objective;
using alloc::Problem;
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

Medium make_ring(std::string name, std::vector<int> ecus, Ticks slot_min = 1,
                 Ticks slot_max = 8) {
  Medium m;
  m.name = std::move(name);
  m.type = MediumType::kTokenRing;
  m.ecus = std::move(ecus);
  m.ring_byte_ticks = 1;
  m.slot_min = slot_min;
  m.slot_max = slot_max;
  return m;
}

Problem small_ring_problem() {
  Problem p;
  Task a = make_task("A", 100, 50, {10, 12});
  Task b = make_task("B", 100, 100, {20, 25});
  Task c = make_task("C", 200, 150, {15, 15});
  a.messages.push_back({1, 3, 60, 0});
  p.tasks.tasks = {a, b, c};
  p.arch.num_ecus = 2;
  p.arch.media = {make_ring("ring", {0, 1})};
  return p;
}

TEST(Common, CompleteAllocationBuildsRoutesAndSlots) {
  const Problem p = small_ring_problem();
  const net::PathClosures closures(p.arch);
  const auto alloc = complete_allocation(p, closures, {0, 1, 0});
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ(alloc->msg_route[0], (std::vector<int>{0}));
  // Single leg: the whole end-to-end deadline becomes the local budget.
  EXPECT_EQ(alloc->msg_local_deadline[0], (std::vector<Ticks>{60}));
  // Sender's slot grows to the message size (3 bytes -> 3 ticks).
  EXPECT_EQ(alloc->slots[0][0], 3);
  EXPECT_EQ(alloc->slots[0][1], 1);
}

TEST(Common, CompleteAllocationIntraEcuMessage) {
  const Problem p = small_ring_problem();
  const net::PathClosures closures(p.arch);
  const auto alloc = complete_allocation(p, closures, {0, 0, 1});
  ASSERT_TRUE(alloc.has_value());
  EXPECT_TRUE(alloc->msg_route[0].empty());
  EXPECT_EQ(alloc->slots[0][0], 1);  // no bus traffic at all
}

TEST(Common, ObjectiveValueMatchesDefinition) {
  const Problem p = small_ring_problem();
  const net::PathClosures closures(p.arch);
  const auto completed = complete_allocation(p, closures, {0, 1, 0});
  ASSERT_TRUE(completed.has_value());
  EXPECT_EQ(alloc::objective_value(p, Objective::ring_trt(0), *completed), 4);
  EXPECT_EQ(alloc::objective_value(p, Objective::sum_trt(), *completed), 4);
}

TEST(Annealing, FindsFeasibleAllocationDeterministically) {
  const Problem p = small_ring_problem();
  AnnealingOptions opts;
  opts.seed = 42;
  opts.iterations = 3000;
  const AnnealingResult r1 = anneal(p, Objective::ring_trt(0), opts);
  const AnnealingResult r2 = anneal(p, Objective::ring_trt(0), opts);
  ASSERT_TRUE(r1.feasible);
  EXPECT_EQ(r1.cost, r2.cost);
  const auto report = rt::verify(p.tasks, p.arch, r1.allocation);
  EXPECT_TRUE(report.feasible);
}

TEST(Annealing, ReachesTheOptimumOnTinyInstance) {
  // Optimal TRT = 2 (co-locate, all slots minimal); SA should find it.
  Problem p;
  Task a = make_task("A", 100, 50, {10, 12});
  Task b = make_task("B", 100, 100, {20, 25});
  a.messages.push_back({1, 4, 60, 0});
  p.tasks.tasks = {a, b};
  p.arch.num_ecus = 2;
  p.arch.media = {make_ring("ring", {0, 1})};
  AnnealingOptions opts;
  opts.seed = 7;
  opts.iterations = 4000;
  const AnnealingResult res = anneal(p, Objective::ring_trt(0), opts);
  ASSERT_TRUE(res.feasible);
  EXPECT_EQ(res.cost, 2);
}

TEST(Exhaustive, MatchesHandComputedOptimum) {
  Problem p = small_ring_problem();
  p.tasks.tasks[0].separated_from = {1};
  const auto res = exhaustive_search(p, Objective::ring_trt(0));
  ASSERT_TRUE(res.has_value());
  ASSERT_TRUE(res->feasible);
  EXPECT_TRUE(res->exact);
  EXPECT_EQ(res->cost, 4);  // sender slot 3 + other slot 1
}

TEST(Exhaustive, DetectsInfeasibility) {
  Problem p;
  p.tasks.tasks = {make_task("A", 10, 10, {8}),
                   make_task("B", 10, 10, {8})};
  p.arch.num_ecus = 1;
  p.arch.media = {make_ring("ring", {0})};
  const auto res = exhaustive_search(p, Objective::feasibility());
  ASSERT_TRUE(res.has_value());
  EXPECT_FALSE(res->feasible);
}

TEST(Exhaustive, RefusesOversizedGrids) {
  Problem p;
  for (int i = 0; i < 30; ++i) {
    p.tasks.tasks.push_back(make_task("T" + std::to_string(i), 100, 100,
                                      std::vector<Ticks>(8, 5)));
  }
  p.arch.num_ecus = 8;
  p.arch.media = {make_ring("ring", {0, 1, 2, 3, 4, 5, 6, 7})};
  ExhaustiveOptions opts;
  opts.max_combinations = 1000;
  EXPECT_FALSE(exhaustive_search(p, Objective::feasibility(), opts)
                   .has_value());
}

// ---------------------------------------------------------------------
// The central property: SAT optimizer vs ground truth on random instances.
// ---------------------------------------------------------------------

Problem random_problem(Rng& rng, bool with_messages) {
  Problem p;
  const int num_ecus = static_cast<int>(rng.uniform(1, 3));
  const int num_tasks = static_cast<int>(rng.uniform(2, 4));
  p.arch.num_ecus = num_ecus;
  std::vector<int> all;
  for (int e = 0; e < num_ecus; ++e) all.push_back(e);
  p.arch.media = {make_ring("ring", all, 1, 6)};

  for (int i = 0; i < num_tasks; ++i) {
    const Ticks period = 50 * rng.uniform(2, 6);
    const Ticks deadline = std::max<Ticks>(20, period - 50 * rng.uniform(0, 2));
    std::vector<Ticks> wcet;
    for (int e = 0; e < num_ecus; ++e) {
      wcet.push_back(rng.chance(0.15) ? rt::kForbidden
                                      : rng.uniform(5, 30));
    }
    bool any = false;
    for (const Ticks c : wcet) any |= (c != rt::kForbidden);
    if (!any) wcet[0] = 10;
    p.tasks.tasks.push_back(make_task("T" + std::to_string(i), period,
                                      deadline, wcet));
  }
  if (with_messages && num_tasks >= 2) {
    const int num_msgs = static_cast<int>(rng.uniform(1, 2));
    for (int m = 0; m < num_msgs; ++m) {
      const int from = static_cast<int>(rng.index(p.tasks.tasks.size()));
      int to = from;
      while (to == from) {
        to = static_cast<int>(rng.index(p.tasks.tasks.size()));
      }
      const Ticks deadline = rng.uniform(20, 80);
      p.tasks.tasks[static_cast<std::size_t>(from)].messages.push_back(
          {to, rng.uniform(1, 4), deadline, 0});
    }
  }
  if (num_tasks >= 2 && rng.chance(0.3)) {
    p.tasks.tasks[0].separated_from = {1};
    p.tasks.tasks[1].separated_from = {0};
  }
  // Occasional memory budgets and release jitter widen the constraint mix.
  if (rng.chance(0.3)) {
    p.arch.ecu_memory.assign(static_cast<std::size_t>(num_ecus), 0);
    p.arch.ecu_memory[0] = rng.uniform(5, 15);
    for (auto& t : p.tasks.tasks) t.memory = rng.uniform(1, 6);
  }
  if (rng.chance(0.25)) {
    p.tasks.tasks[rng.index(p.tasks.tasks.size())].release_jitter =
        rng.uniform(0, 10);
  }
  return p;
}

class OptimalityFuzz : public ::testing::TestWithParam<bool> {};

TEST_P(OptimalityFuzz, SatOptimumMatchesGroundTruth) {
  const bool with_messages = GetParam();
  Rng rng(with_messages ? 0x5A71 : 0x5A70);
  int optimal_seen = 0, infeasible_seen = 0, exact_checked = 0;
  for (int round = 0; round < 30; ++round) {
    const Problem p = random_problem(rng, with_messages);
    const auto truth = exhaustive_search(p, Objective::ring_trt(0));
    ASSERT_TRUE(truth.has_value()) << "grid unexpectedly large";
    const auto sat_res =
        alloc::optimize(p, Objective::ring_trt(0));
    if (!truth->feasible && truth->exact) {
      EXPECT_EQ(sat_res.status,
                alloc::OptimizeResult::Status::kInfeasible)
          << "round " << round;
      ++infeasible_seen;
      continue;
    }
    if (!truth->feasible) {
      // Heuristic completion failed but SAT may still find something; if
      // it does, it must verify.
      if (sat_res.status == alloc::OptimizeResult::Status::kOptimal) {
        const auto report = rt::verify(p.tasks, p.arch, sat_res.allocation);
        EXPECT_TRUE(report.feasible) << "round " << round;
      }
      continue;
    }
    ASSERT_EQ(sat_res.status, alloc::OptimizeResult::Status::kOptimal)
        << "round " << round
        << ": exhaustive found a feasible allocation, SAT did not";
    const auto report = rt::verify(p.tasks, p.arch, sat_res.allocation);
    ASSERT_TRUE(report.feasible)
        << "round " << round << ": "
        << (report.violations.empty() ? "" : report.violations[0]);
    // SAT optimum can never be worse than any feasible point.
    EXPECT_LE(sat_res.cost, truth->cost) << "round " << round;
    if (truth->exact) {
      EXPECT_EQ(sat_res.cost, truth->cost) << "round " << round;
      ++exact_checked;
    }
    ++optimal_seen;
  }
  EXPECT_GT(optimal_seen, 5);
  if (!with_messages) {
    EXPECT_GT(exact_checked, 5);
  }
  (void)infeasible_seen;
}

INSTANTIATE_TEST_SUITE_P(Sweep, OptimalityFuzz, ::testing::Bool());

TEST(Baselines, SatNeverLosesToHeuristics) {
  Rng rng(0xB111);
  for (int round = 0; round < 10; ++round) {
    const Problem p = random_problem(rng, true);
    const auto sat_res = alloc::optimize(p, Objective::ring_trt(0));
    if (sat_res.status != alloc::OptimizeResult::Status::kOptimal) continue;
    AnnealingOptions opts;
    opts.seed = 1000 + static_cast<std::uint64_t>(round);
    opts.iterations = 2000;
    const AnnealingResult sa = anneal(p, Objective::ring_trt(0), opts);
    if (sa.feasible) {
      EXPECT_LE(sat_res.cost, sa.cost) << "round " << round;
    }
  }
}

}  // namespace
}  // namespace optalloc::heur
