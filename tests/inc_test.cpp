// Tests for the incremental re-solve subsystem: the patch language
// (parse + apply semantics), the group delta computation, session
// solve/revise behaviour against the batch optimizer, unsat-core
// explanations for infeasible edits, and a randomized edit-chain
// differential — the incremental session and a certified cold solve must
// agree on verdict and optimum after every edit.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc/cost.hpp"
#include "alloc/io.hpp"
#include "alloc/optimizer.hpp"
#include "inc/delta.hpp"
#include "inc/patch.hpp"
#include "inc/session.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "workload/generator.hpp"

namespace optalloc::inc {
namespace {

// The svc_test ring system: 2 ECUs, 3 tasks, 2 messages, one separation.
// Small enough that a cold certified solve takes milliseconds.
constexpr const char* kSystem = R"(system 2
memory 0 100
medium ring0 token_ring ecus=0,1 slot_min=1 slot_max=16 byte_ticks=1
task sensor period=100 deadline=40 memory=10 wcet=8,10
task control period=100 deadline=80 wcet=25,30
task actuator period=100 deadline=100 jitter=2 wcet=5,-
message sensor -> control bytes=4 deadline=50
message control -> actuator bytes=2 deadline=60 jitter=1
separate control actuator
)";

alloc::Problem parse(const std::string& text) {
  std::istringstream in(text);
  return alloc::parse_problem(in);
}

InstancePatch parse_ops(const std::string& json) {
  const auto v = obs::json_parse(json);
  EXPECT_TRUE(v.has_value()) << json;
  if (!v) return {};
  std::string error;
  auto patch = parse_patch(*v, &error);
  EXPECT_TRUE(patch.has_value()) << error;
  return patch.value_or(InstancePatch{});
}

// --- Patch parsing -----------------------------------------------------

TEST(IncPatch, ParsesWireForm) {
  const InstancePatch patch = parse_ops(
      R"([{"op":"set_wcet","task":"sensor","ecu":1,"wcet":12},)"
      R"({"op":"set_deadline","task":"control","deadline":70},)"
      R"({"op":"add_task","task":"logger","period":200,"deadline":150,)"
      R"("wcet":[9,-1],"memory":5},)"
      R"({"op":"remove_message","task":"sensor","index":0},)"
      R"({"op":"separate","task":"sensor","target":"control"}])");
  ASSERT_EQ(patch.ops.size(), 5u);
  EXPECT_EQ(patch.ops[0].kind, PatchOp::Kind::kSetWcet);
  EXPECT_EQ(patch.ops[0].task, "sensor");
  EXPECT_EQ(patch.ops[0].ecu, 1);
  EXPECT_EQ(patch.ops[0].value, 12);
  EXPECT_EQ(patch.ops[1].kind, PatchOp::Kind::kSetDeadline);
  EXPECT_EQ(patch.ops[1].value, 70);
  EXPECT_EQ(patch.ops[2].kind, PatchOp::Kind::kAddTask);
  EXPECT_EQ(patch.ops[2].wcet, (std::vector<std::int64_t>{9, -1}));
  EXPECT_EQ(patch.ops[2].memory, 5);
  EXPECT_EQ(patch.ops[3].kind, PatchOp::Kind::kRemoveMessage);
  EXPECT_EQ(patch.ops[4].kind, PatchOp::Kind::kSeparate);
  EXPECT_EQ(patch.ops[4].target, "control");
  EXPECT_FALSE(patch.ops[0].describe().empty());
}

TEST(IncPatch, ParseRejectsMalformed) {
  std::string error;
  // Not an array.
  EXPECT_FALSE(parse_patch(*obs::json_parse(R"({"op":"set_wcet"})"), &error));
  EXPECT_FALSE(error.empty());
  // Unknown op.
  EXPECT_FALSE(parse_patch(
      *obs::json_parse(R"([{"op":"transmogrify","task":"x"}])"), &error));
  // Missing required field.
  EXPECT_FALSE(parse_patch(
      *obs::json_parse(R"([{"op":"set_wcet","task":"sensor"}])"), &error));
  EXPECT_FALSE(parse_patch(
      *obs::json_parse(R"([{"op":"set_deadline","deadline":10}])"), &error));
  // Numbers beyond what the fields can hold are rejected, not cast.
  for (const char* edits :
       {R"([{"op":"set_wcet","task":"a","ecu":1e300,"wcet":1}])",
        R"([{"op":"set_wcet","task":"a","ecu":0,"wcet":-1e19}])",
        R"([{"op":"set_jitter","task":"a","jitter":1e30}])",
        R"([{"op":"remove_message","task":"a","index":3e9}])",
        R"([{"op":"add_task","task":"b","period":1,"deadline":1,)"
        R"("wcet":[1e300]}])"}) {
    error.clear();
    EXPECT_FALSE(parse_patch(*obs::json_parse(edits), &error)) << edits;
    EXPECT_NE(error.find("out of range"), std::string::npos) << edits;
  }
}

// --- Patch application -------------------------------------------------

TEST(IncPatch, ApplyEditsInOrder) {
  alloc::Problem p = parse(kSystem);
  const InstancePatch patch = parse_ops(
      R"([{"op":"set_wcet","task":"sensor","ecu":0,"wcet":11},)"
      R"({"op":"set_deadline","task":"sensor","deadline":35},)"
      R"({"op":"set_jitter","task":"actuator","jitter":3},)"
      R"({"op":"set_message_deadline","task":"sensor","index":0,)"
      R"("deadline":45}])");
  ASSERT_FALSE(apply_patch(patch, p).has_value());
  EXPECT_EQ(p.tasks.tasks[0].wcet[0], 11);
  EXPECT_EQ(p.tasks.tasks[0].deadline, 35);
  EXPECT_EQ(p.tasks.tasks[2].release_jitter, 3);
  EXPECT_EQ(p.tasks.tasks[0].messages[0].deadline, 45);
}

TEST(IncPatch, ApplyRejectsInvalidOps) {
  const auto reject = [](const std::string& json) {
    alloc::Problem p = parse(kSystem);
    const auto error = apply_patch(parse_ops(json), p);
    EXPECT_TRUE(error.has_value()) << json;
  };
  reject(R"([{"op":"set_wcet","task":"ghost","ecu":0,"wcet":5}])");
  reject(R"([{"op":"set_wcet","task":"sensor","ecu":7,"wcet":5}])");
  reject(R"([{"op":"set_deadline","task":"sensor","deadline":0}])");
  // Deadline above the period is rejected (d <= T model).
  reject(R"([{"op":"set_deadline","task":"sensor","deadline":101}])");
  // Duplicate task name.
  reject(R"([{"op":"add_task","task":"sensor","period":10,"deadline":10,)"
         R"("wcet":[1,1]}])");
  // WCET vector must cover every ECU.
  reject(R"([{"op":"add_task","task":"t9","period":10,"deadline":10,)"
         R"("wcet":[1]}])");
  reject(R"([{"op":"remove_message","task":"sensor","index":3}])");
  reject(R"([{"op":"unseparate","task":"sensor","target":"control"}])");
}

TEST(IncPatch, RemoveTaskDropsMessagesAndReindexes) {
  alloc::Problem p = parse(kSystem);
  const InstancePatch patch =
      parse_ops(R"([{"op":"remove_task","task":"control"}])");
  ASSERT_FALSE(apply_patch(patch, p).has_value());
  ASSERT_EQ(p.tasks.tasks.size(), 2u);
  EXPECT_EQ(p.tasks.tasks[0].name, "sensor");
  EXPECT_EQ(p.tasks.tasks[1].name, "actuator");
  // sensor -> control and control -> actuator both die with control.
  EXPECT_TRUE(p.tasks.tasks[0].messages.empty());
  EXPECT_TRUE(p.tasks.tasks[1].messages.empty());
  // The control/actuator separation dies too; actuator's index moved.
  for (const auto& t : p.tasks.tasks) {
    EXPECT_TRUE(t.separated_from.empty());
  }
}

// --- Group deltas ------------------------------------------------------

TEST(IncDelta, FreshBuildAddsEverything) {
  const std::vector<alloc::GroupedFormula> build = {
      {"task:a", ir::NodeId{1}}, {"task:a", ir::NodeId{2}},
      {"task:b", ir::NodeId{3}}};
  const EncodingDelta d = diff_groups(GroupMap{}, build);
  EXPECT_EQ(d.added, (std::vector<std::string>{"task:a", "task:b"}));
  EXPECT_TRUE(d.retired.empty());
  EXPECT_EQ(d.unchanged, 0u);
}

TEST(IncDelta, UnchangedGroupsAreLeftAlone) {
  GroupMap live;
  live["task:a"].formulas = {ir::NodeId{1}, ir::NodeId{2}};
  live["task:b"].formulas = {ir::NodeId{3}};
  const std::vector<alloc::GroupedFormula> build = {
      {"task:a", ir::NodeId{2}}, {"task:a", ir::NodeId{1}},
      {"task:b", ir::NodeId{3}}};
  const EncodingDelta d = diff_groups(live, build);
  EXPECT_TRUE(d.added.empty());
  EXPECT_TRUE(d.retired.empty());
  EXPECT_EQ(d.unchanged, 2u);
}

TEST(IncDelta, ChangedGroupIsRetiredAndReAdded) {
  GroupMap live;
  live["task:a"].formulas = {ir::NodeId{1}};
  live["task:b"].formulas = {ir::NodeId{3}};
  live["task:gone"].formulas = {ir::NodeId{9}};
  const std::vector<alloc::GroupedFormula> build = {
      {"task:a", ir::NodeId{4}},   // changed
      {"task:b", ir::NodeId{3}},   // unchanged
      {"task:new", ir::NodeId{5}}  // added
  };
  const EncodingDelta d = diff_groups(live, build);
  EXPECT_EQ(d.added, (std::vector<std::string>{"task:a", "task:new"}));
  EXPECT_EQ(d.retired, (std::vector<std::string>{"task:a", "task:gone"}));
  EXPECT_EQ(d.unchanged, 1u);
}

// --- Sessions ----------------------------------------------------------

alloc::OptimizeOptions cold_options() {
  alloc::OptimizeOptions opt;
  opt.certify = true;
  return opt;
}

TEST(IncSession, BaseSolveMatchesColdOptimum) {
  Session session(parse(kSystem), alloc::Objective::sum_trt());
  const SessionResult inc = session.solve();
  const alloc::OptimizeResult cold =
      alloc::optimize(parse(kSystem), alloc::Objective::sum_trt(),
                      cold_options());
  ASSERT_EQ(inc.status, SessionResult::Status::kOptimal);
  ASSERT_EQ(cold.status, alloc::OptimizeResult::Status::kOptimal);
  EXPECT_TRUE(cold.certified) << cold.certify_error;
  EXPECT_EQ(inc.cost, cold.cost);
  EXPECT_TRUE(inc.proven());
  ASSERT_TRUE(inc.has_allocation);
  // The decoded allocation must actually achieve the claimed optimum.
  const auto value = alloc::evaluate_allocation(
      session.problem(), session.objective(), inc.allocation);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, inc.cost);
  EXPECT_GT(inc.groups_added, 0);
  EXPECT_EQ(inc.groups_retired, 0);
}

TEST(IncSession, ReviseMatchesColdOnEditedInstance) {
  Session session(parse(kSystem), alloc::Objective::sum_trt());
  ASSERT_EQ(session.solve().status, SessionResult::Status::kOptimal);

  const InstancePatch patch = parse_ops(
      R"([{"op":"set_wcet","task":"control","ecu":0,"wcet":35},)"
      R"({"op":"set_deadline","task":"sensor","deadline":30}])");
  const SessionResult inc = session.revise(patch);
  ASSERT_EQ(inc.status, SessionResult::Status::kOptimal);
  // Only the touched constraint groups were re-encoded.
  EXPECT_GT(inc.groups_unchanged, 0u);
  EXPECT_GT(inc.groups_retired, 0);

  alloc::Problem edited = parse(kSystem);
  ASSERT_FALSE(apply_patch(patch, edited).has_value());
  const alloc::OptimizeResult cold =
      alloc::optimize(edited, alloc::Objective::sum_trt(), cold_options());
  ASSERT_EQ(cold.status, alloc::OptimizeResult::Status::kOptimal);
  EXPECT_TRUE(cold.certified) << cold.certify_error;
  EXPECT_EQ(inc.cost, cold.cost);
  const auto value = alloc::evaluate_allocation(
      session.problem(), session.objective(), inc.allocation);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, inc.cost);
}

TEST(IncSession, DeadGuardAccountingTracksRetirement) {
  const auto guard_level = [](const char* name) {
    for (const auto& m : obs::snapshot()) {
      if (m.name == name) return m.value;
    }
    return std::int64_t{0};
  };
  const std::int64_t live_before = guard_level("inc.guards");
  const std::int64_t dead_before = guard_level("inc.dead_guards");
  {
    Session session(parse(kSystem), alloc::Objective::sum_trt());
    ASSERT_EQ(session.solve().status, SessionResult::Status::kOptimal);
    EXPECT_GT(session.live_guards(), 0u);
    EXPECT_EQ(session.retired_guards(), 0);
    EXPECT_EQ(session.dead_guard_fraction(), 0.0);
    EXPECT_EQ(guard_level("inc.guards") - live_before,
              static_cast<std::int64_t>(session.live_guards()));

    const InstancePatch patch = parse_ops(
        R"([{"op":"set_wcet","task":"control","ecu":0,"wcet":35}])");
    ASSERT_EQ(session.revise(patch).status, SessionResult::Status::kOptimal);
    EXPECT_GT(session.retired_guards(), 0);
    const double fraction = session.dead_guard_fraction();
    EXPECT_GT(fraction, 0.0);
    EXPECT_LT(fraction, 1.0);
    EXPECT_EQ(guard_level("inc.dead_guards") - dead_before,
              session.retired_guards());
  }
  // Session destruction retracts both gauges.
  EXPECT_EQ(guard_level("inc.guards"), live_before);
  EXPECT_EQ(guard_level("inc.dead_guards"), dead_before);
}

TEST(IncSession, InfeasibleEditYieldsConflictingCore) {
  Session session(parse(kSystem), alloc::Objective::sum_trt());
  ASSERT_EQ(session.solve().status, SessionResult::Status::kOptimal);

  // control can only run on ECU 1 at WCET 90; sensor is pinned by memory
  // to ECU 0's budget but a 95-tick deadline-39 victim makes every
  // placement of control miss its deadline.
  const InstancePatch patch = parse_ops(
      R"([{"op":"set_wcet","task":"control","ecu":0,"wcet":-1},)"
      R"({"op":"set_wcet","task":"control","ecu":1,"wcet":90}])");
  const SessionResult inc = session.revise(patch);
  ASSERT_EQ(inc.status, SessionResult::Status::kInfeasible);
  EXPECT_TRUE(inc.proven());
  ASSERT_FALSE(inc.core.empty());
  // The named groups must genuinely conflict on their own.
  EXPECT_TRUE(session.core_is_conflicting(inc.core));
  // ...and the cold solver must agree the instance is infeasible.
  alloc::Problem edited = parse(kSystem);
  ASSERT_FALSE(apply_patch(patch, edited).has_value());
  const alloc::OptimizeResult cold =
      alloc::optimize(edited, alloc::Objective::sum_trt(), cold_options());
  EXPECT_EQ(cold.status, alloc::OptimizeResult::Status::kInfeasible);
  EXPECT_TRUE(cold.certified) << cold.certify_error;
}

TEST(IncSession, ReviseBackRestoresTheOriginalOptimum) {
  Session session(parse(kSystem), alloc::Objective::sum_trt());
  const SessionResult base = session.solve();
  ASSERT_EQ(base.status, SessionResult::Status::kOptimal);

  const SessionResult worse = session.revise(parse_ops(
      R"([{"op":"set_wcet","task":"sensor","ecu":0,"wcet":30}])"));
  ASSERT_EQ(worse.status, SessionResult::Status::kOptimal);

  const SessionResult back = session.revise(parse_ops(
      R"([{"op":"set_wcet","task":"sensor","ecu":0,"wcet":8}])"));
  ASSERT_EQ(back.status, SessionResult::Status::kOptimal);
  EXPECT_EQ(back.cost, base.cost);
}

TEST(IncSession, RejectedPatchLeavesInstanceUntouched) {
  Session session(parse(kSystem), alloc::Objective::sum_trt());
  const SessionResult base = session.solve();
  ASSERT_EQ(base.status, SessionResult::Status::kOptimal);

  const SessionResult bad = session.revise(
      parse_ops(R"([{"op":"set_deadline","task":"ghost","deadline":10}])"));
  EXPECT_EQ(bad.status, SessionResult::Status::kError);
  EXPECT_FALSE(bad.error.empty());
  EXPECT_EQ(session.problem().tasks.tasks.size(), 3u);

  const SessionResult again = session.solve();
  ASSERT_EQ(again.status, SessionResult::Status::kOptimal);
  EXPECT_EQ(again.cost, base.cost);
}

TEST(IncSession, CoreExtractionStopsOnceTheStopFlagIsRaised) {
  // A generated system whose three overloaded tasks make it infeasible;
  // its core has enough members that minimization would probe several
  // times.
  workload::GenOptions gen;
  gen.num_tasks = 7;
  gen.num_chains = 2;
  gen.num_ecus = 3;
  gen.utilization = 0.45;
  gen.seed = 10;
  const alloc::Problem base = workload::generate(gen);
  std::string ops;
  for (int t = 0; t < 3; ++t) {
    const rt::Task& task = base.tasks.tasks[static_cast<std::size_t>(
        (gen.seed + 2 * t) % base.tasks.tasks.size())];
    for (int e = 0; e < base.arch.num_ecus; ++e) {
      if (task.wcet[static_cast<std::size_t>(e)] == rt::kForbidden) continue;
      ops += (ops.empty() ? "[" : ",") + std::string(R"({"op":"set_wcet",)") +
             R"("task":")" + task.name + R"(","ecu":)" + std::to_string(e) +
             R"(,"wcet":)" + std::to_string(task.deadline * 6 / 10) + "}";
    }
  }
  const InstancePatch overload = parse_ops(ops + "]");
  const auto solver_calls = [] {
    for (const obs::MetricValue& m : obs::snapshot()) {
      if (m.name == "sat.solve_calls") return m.value;
    }
    return std::int64_t{0};
  };

  Session session(base, alloc::Objective::sum_trt());
  ASSERT_EQ(session.solve().status, SessionResult::Status::kOptimal);
  // The revise's search makes two SOLVE calls (capped at the previous
  // optimum, then above it), both UNSAT. Once both are done, raise the
  // stop flag: core extraction may finish the call in flight but must
  // start no further one.
  std::atomic<bool> stop{false};
  std::atomic<bool> finished{false};
  std::int64_t calls_at_stop = 0;
  const std::int64_t calls_before = solver_calls();
  std::thread watcher([&] {
    while (!finished.load() && solver_calls() < calls_before + 2) {
    }
    stop.store(true);
    calls_at_stop = solver_calls();
  });
  alloc::OptimizeOptions options;
  options.stop = &stop;
  const SessionResult inc = session.revise(overload, options);
  finished.store(true);
  watcher.join();
  ASSERT_EQ(inc.status, SessionResult::Status::kInfeasible);
  EXPECT_LE(solver_calls() - calls_at_stop, 1);
  ASSERT_FALSE(inc.core.empty());
  EXPECT_TRUE(session.core_is_conflicting(inc.core));
}

// --- Randomized edit-chain differential --------------------------------

// Draw a random (always structurally valid) patch against `p`.
InstancePatch random_patch(std::mt19937& rng, const alloc::Problem& p) {
  const auto pick_task = [&]() -> const rt::Task& {
    std::uniform_int_distribution<std::size_t> d(0, p.tasks.tasks.size() - 1);
    return p.tasks.tasks[d(rng)];
  };
  InstancePatch patch;
  PatchOp op;
  std::uniform_int_distribution<int> kind(0, 3);
  switch (kind(rng)) {
    case 0: {  // nudge a WCET on an ECU where the task is runnable
      const rt::Task& t = pick_task();
      std::vector<int> runnable;
      for (int e = 0; e < static_cast<int>(t.wcet.size()); ++e) {
        if (t.wcet[e] >= 0) runnable.push_back(e);
      }
      if (runnable.empty()) break;
      std::uniform_int_distribution<std::size_t> d(0, runnable.size() - 1);
      const int ecu = runnable[d(rng)];
      std::uniform_int_distribution<std::int64_t> w(1, 40);
      op.kind = PatchOp::Kind::kSetWcet;
      op.task = t.name;
      op.ecu = ecu;
      op.value = w(rng);
      patch.ops.push_back(op);
      break;
    }
    case 1: {  // retighten or relax a deadline within (0, period]
      const rt::Task& t = pick_task();
      std::uniform_int_distribution<std::int64_t> d(1, t.period);
      op.kind = PatchOp::Kind::kSetDeadline;
      op.task = t.name;
      op.value = d(rng);
      patch.ops.push_back(op);
      break;
    }
    case 2: {  // jitter wiggle
      const rt::Task& t = pick_task();
      std::uniform_int_distribution<std::int64_t> j(0, 4);
      op.kind = PatchOp::Kind::kSetJitter;
      op.task = t.name;
      op.value = j(rng);
      patch.ops.push_back(op);
      break;
    }
    default: {  // message deadline wiggle (if any messages exist)
      std::vector<const rt::Task*> senders;
      for (const auto& t : p.tasks.tasks) {
        if (!t.messages.empty()) senders.push_back(&t);
      }
      if (senders.empty()) break;
      std::uniform_int_distribution<std::size_t> s(0, senders.size() - 1);
      const rt::Task* t = senders[s(rng)];
      std::uniform_int_distribution<std::size_t> m(0, t->messages.size() - 1);
      const std::size_t idx = m(rng);
      std::uniform_int_distribution<std::int64_t> d(10, t->period);
      op.kind = PatchOp::Kind::kSetMessageDeadline;
      op.task = t->name;
      op.index = static_cast<int>(idx);
      op.value = d(rng);
      patch.ops.push_back(op);
      break;
    }
  }
  return patch;
}

TEST(IncDifferential, RandomEditChainsAgreeWithCertifiedColdSolves) {
  std::mt19937 rng(0x5e551 + 7);
  constexpr int kChains = 3;
  constexpr int kEditsPerChain = 6;
  int infeasible_seen = 0;
  for (int chain = 0; chain < kChains; ++chain) {
    Session session(parse(kSystem), alloc::Objective::sum_trt());
    ASSERT_EQ(session.solve().status, SessionResult::Status::kOptimal);
    alloc::Problem shadow = parse(kSystem);
    for (int edit = 0; edit < kEditsPerChain; ++edit) {
      const InstancePatch patch = random_patch(rng, shadow);
      if (patch.empty()) continue;
      ASSERT_FALSE(apply_patch(patch, shadow).has_value());
      const SessionResult inc = session.revise(patch);
      const alloc::OptimizeResult cold =
          alloc::optimize(shadow, alloc::Objective::sum_trt(),
                          cold_options());
      const std::string where = "chain " + std::to_string(chain) +
                                " edit " + std::to_string(edit) + ": " +
                                patch.ops.front().describe();
      EXPECT_TRUE(cold.certified) << where << ": " << cold.certify_error;
      if (cold.status == alloc::OptimizeResult::Status::kInfeasible) {
        ++infeasible_seen;
        ASSERT_EQ(inc.status, SessionResult::Status::kInfeasible) << where;
        ASSERT_FALSE(inc.core.empty()) << where;
        EXPECT_TRUE(session.core_is_conflicting(inc.core)) << where;
      } else {
        ASSERT_EQ(cold.status, alloc::OptimizeResult::Status::kOptimal);
        ASSERT_EQ(inc.status, SessionResult::Status::kOptimal) << where;
        ASSERT_EQ(inc.cost, cold.cost) << where;
        const auto value = alloc::evaluate_allocation(
            session.problem(), session.objective(), inc.allocation);
        ASSERT_TRUE(value.has_value()) << where;
        EXPECT_EQ(*value, inc.cost) << where;
      }
    }
  }
  // The chains are tuned to cross the feasibility boundary at least once;
  // if this starts failing after a generator change, re-seed.
  EXPECT_GT(infeasible_seen, 0);
}

}  // namespace
}  // namespace optalloc::inc
