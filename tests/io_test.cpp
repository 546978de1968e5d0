// Tests for the problem-file format: parsing, validation diagnostics,
// round-tripping, objective specs, and an end-to-end parse -> optimize ->
// verify flow.

#include <gtest/gtest.h>

#include <sstream>

#include "alloc/io.hpp"
#include "alloc/optimizer.hpp"
#include "rt/verify.hpp"

namespace optalloc::alloc {
namespace {

constexpr const char* kSample = R"(# two-ECU ring system
system 2
memory 0 100
medium ring0 token_ring ecus=0,1 slot_min=1 slot_max=16 byte_ticks=1
task sensor period=100 deadline=40 memory=10 wcet=8,10
task control period=100 deadline=80 wcet=25,30
task actuator period=100 deadline=100 jitter=2 wcet=5,-
message sensor -> control bytes=4 deadline=50
message control -> actuator bytes=2 deadline=60 jitter=1
separate control actuator
)";

Problem parse(const std::string& text) {
  std::istringstream in(text);
  return parse_problem(in);
}

TEST(ProblemIo, ParsesSample) {
  const Problem p = parse(kSample);
  EXPECT_EQ(p.arch.num_ecus, 2);
  EXPECT_EQ(p.arch.ecu_memory[0], 100);
  ASSERT_EQ(p.arch.media.size(), 1u);
  EXPECT_EQ(p.arch.media[0].type, rt::MediumType::kTokenRing);
  EXPECT_EQ(p.arch.media[0].slot_max, 16);
  ASSERT_EQ(p.tasks.tasks.size(), 3u);
  EXPECT_EQ(p.tasks.tasks[0].name, "sensor");
  EXPECT_EQ(p.tasks.tasks[0].memory, 10);
  EXPECT_EQ(p.tasks.tasks[2].release_jitter, 2);
  EXPECT_EQ(p.tasks.tasks[2].wcet[1], rt::kForbidden);
  ASSERT_EQ(p.tasks.tasks[0].messages.size(), 1u);
  EXPECT_EQ(p.tasks.tasks[0].messages[0].target_task, 1);
  EXPECT_EQ(p.tasks.tasks[1].messages[0].release_jitter, 1);
  EXPECT_EQ(p.tasks.tasks[1].separated_from, std::vector<int>{2});
  EXPECT_EQ(p.tasks.tasks[2].separated_from, std::vector<int>{1});
}

TEST(ProblemIo, RoundTrips) {
  const Problem p = parse(kSample);
  std::ostringstream out;
  write_problem(out, p);
  const Problem q = parse(out.str());
  ASSERT_EQ(q.tasks.tasks.size(), p.tasks.tasks.size());
  for (std::size_t i = 0; i < p.tasks.tasks.size(); ++i) {
    EXPECT_EQ(q.tasks.tasks[i].name, p.tasks.tasks[i].name);
    EXPECT_EQ(q.tasks.tasks[i].period, p.tasks.tasks[i].period);
    EXPECT_EQ(q.tasks.tasks[i].deadline, p.tasks.tasks[i].deadline);
    EXPECT_EQ(q.tasks.tasks[i].release_jitter,
              p.tasks.tasks[i].release_jitter);
    EXPECT_EQ(q.tasks.tasks[i].wcet, p.tasks.tasks[i].wcet);
    EXPECT_EQ(q.tasks.tasks[i].messages.size(),
              p.tasks.tasks[i].messages.size());
    EXPECT_EQ(q.tasks.tasks[i].separated_from,
              p.tasks.tasks[i].separated_from);
  }
  EXPECT_EQ(q.arch.num_ecus, p.arch.num_ecus);
  EXPECT_EQ(q.arch.ecu_memory, p.arch.ecu_memory);
}

TEST(ProblemIo, GatewayOnlyAndCan) {
  const Problem p = parse(
      "system 3\n"
      "gateway_only 2\n"
      "medium can0 can ecus=0,1,2 bit_ticks=1 bits_per_tick=25\n"
      "task a period=10 deadline=10 wcet=1,1,1\n");
  EXPECT_TRUE(p.arch.gateway_only[2]);
  EXPECT_FALSE(p.arch.can_host_tasks(2));
  EXPECT_EQ(p.arch.media[0].type, rt::MediumType::kCan);
  EXPECT_EQ(p.arch.media[0].can_bits_per_tick, 25);
}

TEST(ProblemIo, DiagnosticsCarryLineNumbers) {
  try {
    parse("system 2\ntask broken period=10 wcet=1,1\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos);
  }
}

TEST(ProblemIo, DiagnosticsNameTheSource) {
  std::istringstream in("system 2\nmedium ring0 token_ring\n");
  try {
    parse_problem(in, "fleet/gateway.prob");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("fleet/gateway.prob"), std::string::npos) << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  }
  // Default source name when the caller has nothing better.
  std::istringstream anon("nonsense\n");
  try {
    parse_problem(anon);
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("problem file"), std::string::npos)
        << e.what();
  }
}

TEST(ProblemIo, RejectsMissingSystemLine) {
  EXPECT_THROW(parse("task a period=1 deadline=1 wcet=1\n"),
               std::runtime_error);
}

TEST(ProblemIo, RejectsUnknownKeyword) {
  EXPECT_THROW(parse("system 1\nfrobnicate 3\n"), std::runtime_error);
}

TEST(ProblemIo, RejectsEcuCountAboveTheLimit) {
  // Rejected before any per-ECU vector is sized.
  try {
    parse("system " + std::to_string(alloc::kMaxEcus + 1) + "\n");
    FAIL() << "an ECU count above kMaxEcus must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(parse("system 99999999999999999999\n"), std::runtime_error);
  EXPECT_EQ(parse("system " + std::to_string(alloc::kMaxEcus) + "\n")
                .arch.num_ecus,
            alloc::kMaxEcus);
}

TEST(ProblemIo, RejectsWcetArityMismatch) {
  EXPECT_THROW(parse("system 3\ntask a period=1 deadline=1 wcet=1,2\n"),
               std::runtime_error);
}

TEST(ProblemIo, RejectsUnknownTaskInMessage) {
  EXPECT_THROW(
      parse("system 1\n"
            "task a period=10 deadline=10 wcet=1\n"
            "message a -> ghost bytes=1 deadline=5\n"),
      std::runtime_error);
}

TEST(ProblemIo, RejectsDuplicateTask) {
  EXPECT_THROW(parse("system 1\n"
                     "task a period=10 deadline=10 wcet=1\n"
                     "task a period=20 deadline=20 wcet=2\n"),
               std::runtime_error);
}

TEST(ProblemIo, ObjectiveSpecs) {
  EXPECT_EQ(parse_objective("feasibility").kind, ObjectiveKind::kFeasibility);
  EXPECT_EQ(parse_objective("trt:3").kind, ObjectiveKind::kTokenRingTrt);
  EXPECT_EQ(parse_objective("trt:3").medium, 3);
  EXPECT_EQ(parse_objective("sum-trt").kind, ObjectiveKind::kSumTrt);
  EXPECT_EQ(parse_objective("can-load:1").medium, 1);
  EXPECT_EQ(parse_objective("max-util").kind,
            ObjectiveKind::kMaxUtilization);
  EXPECT_THROW(parse_objective("nonsense"), std::runtime_error);
}

TEST(ProblemIo, ParsedProblemOptimizesEndToEnd) {
  const Problem p = parse(kSample);
  const OptimizeResult res = optimize(p, Objective::ring_trt(0));
  ASSERT_EQ(res.status, OptimizeResult::Status::kOptimal);
  const auto report = rt::verify(p.tasks, p.arch, res.allocation);
  EXPECT_TRUE(report.feasible);
  // control and actuator are separated; actuator is pinned to ECU 0.
  EXPECT_EQ(res.allocation.task_ecu[2], 0);
  EXPECT_NE(res.allocation.task_ecu[1], res.allocation.task_ecu[2]);
}

}  // namespace
}  // namespace optalloc::alloc
