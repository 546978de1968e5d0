// Tests for the benchmark workloads: structural properties of the
// Tindell-style system (counts, chains, restrictions), prefix slicing,
// CAN conversion, architectures A/B/C topology validity, generator
// determinism, and feasibility of every benchmark instance (via the
// heuristics — the benches assume these instances are solvable).

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "alloc/io.hpp"
#include "heur/annealing.hpp"
#include "net/paths.hpp"
#include "rt/verify.hpp"
#include "workload/generator.hpp"
#include "workload/tindell.hpp"

namespace optalloc::workload {
namespace {

TEST(Tindell, PublishedShape) {
  const alloc::Problem p = tindell_system();
  EXPECT_EQ(p.tasks.tasks.size(), 43u);
  EXPECT_EQ(p.arch.num_ecus, 8);
  ASSERT_EQ(p.arch.media.size(), 1u);
  EXPECT_EQ(p.arch.media[0].type, rt::MediumType::kTokenRing);
  EXPECT_EQ(p.arch.media[0].ecus.size(), 8u);

  // 12 chains -> every chain head is pinned; count pinned tasks and
  // messages.
  int pinned = 0, messages = 0, separated = 0;
  for (const rt::Task& t : p.tasks.tasks) {
    int allowed = 0;
    for (const rt::Ticks c : t.wcet) allowed += (c != rt::kForbidden);
    if (allowed == 1) ++pinned;
    messages += static_cast<int>(t.messages.size());
    separated += static_cast<int>(t.separated_from.size());
  }
  EXPECT_GE(pinned, 12);      // 12 chain heads + some chain tails
  EXPECT_GE(messages, 12);    // every chain has >= 1 message
  EXPECT_EQ(separated, 6);    // 3 redundant pairs, symmetric
}

TEST(Tindell, DeterministicConstruction) {
  const alloc::Problem a = tindell_system();
  const alloc::Problem b = tindell_system();
  ASSERT_EQ(a.tasks.tasks.size(), b.tasks.tasks.size());
  for (std::size_t i = 0; i < a.tasks.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks.tasks[i].period, b.tasks.tasks[i].period);
    EXPECT_EQ(a.tasks.tasks[i].wcet, b.tasks.tasks[i].wcet);
    EXPECT_EQ(a.tasks.tasks[i].messages.size(),
              b.tasks.tasks[i].messages.size());
  }
}

TEST(Tindell, ConstrainedDeadlinesAndValidMessages) {
  const alloc::Problem p = tindell_system();
  for (std::size_t i = 0; i < p.tasks.tasks.size(); ++i) {
    const rt::Task& t = p.tasks.tasks[i];
    EXPECT_LE(t.deadline, t.period) << t.name;
    EXPECT_GT(t.deadline, 0) << t.name;
    for (const rt::Message& m : t.messages) {
      EXPECT_GE(m.target_task, 0);
      EXPECT_LT(m.target_task, 43);
      EXPECT_NE(m.target_task, static_cast<int>(i));
      EXPECT_GT(m.deadline, 0);
      EXPECT_GT(m.size_bytes, 0);
    }
  }
}

TEST(Tindell, FeasibleByHeuristics) {
  const alloc::Problem p = tindell_system();
  const auto sa = heur::anneal(p, alloc::Objective::ring_trt(0),
                               {.seed = 3, .iterations = 4000});
  ASSERT_TRUE(sa.feasible);
  const auto report = rt::verify(p.tasks, p.arch, sa.allocation);
  EXPECT_TRUE(report.feasible);
}

TEST(Tindell, PrefixSlicesConsistently) {
  const alloc::Problem p = tindell_prefix(12);
  EXPECT_EQ(p.tasks.tasks.size(), 12u);
  for (const rt::Task& t : p.tasks.tasks) {
    for (const rt::Message& m : t.messages) EXPECT_LT(m.target_task, 12);
    for (const int j : t.separated_from) EXPECT_LT(j, 12);
  }
  EXPECT_THROW(tindell_prefix(0), std::invalid_argument);
  EXPECT_THROW(tindell_prefix(44), std::invalid_argument);
}

TEST(Tindell, PrefixesAreFeasible) {
  for (const int n : {7, 12, 20, 30}) {
    const alloc::Problem p = tindell_prefix(n);
    const auto sa = heur::anneal(p, alloc::Objective::feasibility(),
                                 {.seed = 1, .iterations = 4000});
    EXPECT_TRUE(sa.feasible) << n << " tasks";
  }
}

TEST(Tindell, CanConversion) {
  const alloc::Problem p = with_can_bus(tindell_system());
  EXPECT_EQ(p.arch.media[0].type, rt::MediumType::kCan);
  const auto sa = heur::anneal(p, alloc::Objective::can_load(0),
                               {.seed = 3, .iterations = 4000});
  EXPECT_TRUE(sa.feasible);
}

TEST(Architectures, TopologiesAreValid) {
  for (const auto& p : {architecture_a(), architecture_b(),
                        architecture_c(), architecture_c(true)}) {
    EXPECT_TRUE(net::validate_topology(p.arch).empty());
  }
}

TEST(Architectures, ArchAHasGatewayOnlyNode) {
  const alloc::Problem p = architecture_a();
  EXPECT_EQ(p.arch.num_ecus, 9);
  EXPECT_EQ(p.arch.media.size(), 2u);
  EXPECT_TRUE(p.arch.is_gateway(8));
  EXPECT_FALSE(p.arch.can_host_tasks(8));
  // Tasks keep 8-ECU choice sets: ECU 8 forbidden for everyone.
  for (const rt::Task& t : p.tasks.tasks) {
    ASSERT_EQ(t.wcet.size(), 9u);
    EXPECT_EQ(t.wcet[8], rt::kForbidden);
  }
}

TEST(Architectures, ArchBThreeMediaTwoGateways) {
  const alloc::Problem p = architecture_b();
  EXPECT_EQ(p.arch.num_ecus, 12);
  EXPECT_EQ(p.arch.media.size(), 3u);
  EXPECT_FALSE(p.arch.can_host_tasks(8));
  EXPECT_FALSE(p.arch.can_host_tasks(9));
  EXPECT_TRUE(p.arch.can_host_tasks(10));
  // Leaf-to-leaf routes cross all three media.
  const net::PathClosures pc(p.arch);
  const auto routes = pc.routes_between(0, 4);
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_EQ(pc.routes()[static_cast<std::size_t>(routes[0])].size(), 3u);
}

TEST(Architectures, ArchCGatewayHostsTasks) {
  const alloc::Problem p = architecture_c();
  EXPECT_EQ(p.arch.num_ecus, 10);
  EXPECT_TRUE(p.arch.is_gateway(0));
  EXPECT_TRUE(p.arch.can_host_tasks(0));
  EXPECT_EQ(p.arch.media[1].slot_min, 0);  // upper ring can go silent
  // The added upper-ring ECUs are communication peripherals: no tasks.
  for (const rt::Task& t : p.tasks.tasks) {
    ASSERT_EQ(t.wcet.size(), 10u);
    EXPECT_EQ(t.wcet[8], rt::kForbidden);
    EXPECT_EQ(t.wcet[9], rt::kForbidden);
  }
  // Reduced-size variant used by the default bench run.
  EXPECT_EQ(architecture_c(false, 24).tasks.tasks.size(), 24u);
}

TEST(Architectures, ArchCFeasibleWithFlatPlacement) {
  // The flat system's annealed allocation, extended with zero upper-ring
  // slots, must stay feasible on architecture C — that is the paper's
  // observation that C reproduces the flat optimum.
  const alloc::Problem flat = tindell_system();
  const auto sa = heur::anneal(flat, alloc::Objective::ring_trt(0),
                               {.seed = 3, .iterations = 4000});
  ASSERT_TRUE(sa.feasible);
  const alloc::Problem c = architecture_c();
  rt::Allocation alloc = sa.allocation;
  alloc.slots.push_back({0, 0, 0});  // silent upper ring
  const auto report = rt::verify(c.tasks, c.arch, alloc);
  EXPECT_TRUE(report.feasible)
      << (report.violations.empty() ? "" : report.violations[0]);
}

TEST(Generator, ScalingSeriesKeepsTaskShape) {
  const alloc::Problem a = scaling_system(8);
  const alloc::Problem b = scaling_system(16);
  EXPECT_EQ(a.tasks.tasks.size(), 30u);
  EXPECT_EQ(b.tasks.tasks.size(), 30u);
  EXPECT_EQ(a.arch.num_ecus, 8);
  EXPECT_EQ(b.arch.num_ecus, 16);
  // Same seed -> same periods (WCETs rescale with utilization).
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(a.tasks.tasks[i].period, b.tasks.tasks[i].period);
  }
}

TEST(Generator, ScalingInstancesFeasible) {
  // On the sparser large rings bus messages become mandatory, so a
  // feasible placement has to find the required co-locations.
  for (const int ecus : {8, 16, 32}) {
    const alloc::Problem p = scaling_system(ecus);
    const auto sa =
        heur::anneal(p, alloc::Objective::feasibility(),
                     {.seed = 9, .iterations = 4000});
    EXPECT_TRUE(sa.feasible) << ecus << " ECUs";
  }
}

TEST(Generator, UtilizationWithinBounds) {
  GenOptions options;
  options.num_tasks = 20;
  options.num_ecus = 4;
  options.utilization = 0.5;
  const alloc::Problem p = generate(options);
  double total = 0.0;
  for (const rt::Task& t : p.tasks.tasks) {
    rt::Ticks cheapest = rt::kForbidden;
    for (const rt::Ticks c : t.wcet) {
      if (c == rt::kForbidden) continue;
      cheapest = cheapest == rt::kForbidden ? c : std::min(cheapest, c);
    }
    ASSERT_NE(cheapest, rt::kForbidden);
    total += static_cast<double>(cheapest) / static_cast<double>(t.period);
  }
  // Total demand close to utilization * num_ecus (integer rounding slack).
  EXPECT_LT(total, 0.5 * 4 * 1.6);
  EXPECT_GT(total, 0.15);
}

TEST(Generator, SeedChangesInstance) {
  GenOptions a, b;
  a.seed = 1;
  b.seed = 2;
  const alloc::Problem pa = generate(a);
  const alloc::Problem pb = generate(b);
  bool different = false;
  for (std::size_t i = 0; i < pa.tasks.tasks.size(); ++i) {
    different |= pa.tasks.tasks[i].period != pb.tasks.tasks[i].period;
    different |= pa.tasks.tasks[i].wcet != pb.tasks.tasks[i].wcet;
  }
  EXPECT_TRUE(different);
}

TEST(Generator, SameSeedIsByteIdentical) {
  // The service's result cache keys on serialized instance content, so
  // the generator must be bit-for-bit reproducible, not just "similar".
  GenOptions options;
  options.num_tasks = 24;
  options.num_ecus = 6;
  options.seed = 0xD57E12;
  std::ostringstream first, second;
  alloc::write_problem(first, generate(options));
  alloc::write_problem(second, generate(options));
  EXPECT_EQ(first.str(), second.str());

  options.seed ^= 1;
  std::ostringstream other;
  alloc::write_problem(other, generate(options));
  EXPECT_NE(first.str(), other.str());
}

TEST(Units, TickConversion) {
  EXPECT_DOUBLE_EQ(to_ms(4), 1.0);
  EXPECT_DOUBLE_EQ(to_ms(34), 8.5);
}

}  // namespace
}  // namespace optalloc::workload
