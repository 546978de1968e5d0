// Hierarchical architecture walkthrough (paper Section 4 / Fig. 1-2):
// builds the three-media topology of Figure 1, prints its path closures,
// then solves a gateway-crossing allocation problem on it, showing the
// chosen multi-hop routes, per-medium deadline budgets and jitter chains.
//
//   $ ./hierarchical_gateway
//   $ ./hierarchical_gateway --trace t.jsonl   # JSONL telemetry
//   $ ./hierarchical_gateway --stats           # search-effort summary
//   $ ./hierarchical_gateway --certify         # checker-verified optimum

#include <cstdio>
#include <cstring>
#include <utility>

#include "alloc/optimizer.hpp"
#include "net/paths.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rt/verify.hpp"

using namespace optalloc;

int main(int argc, char** argv) {
  bool want_stats = false;
  bool want_certify = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stats") == 0) {
      want_stats = true;
      obs::set_phase_timing(true);
    } else if (std::strcmp(argv[i], "--certify") == 0) {
      want_certify = true;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      if (!obs::trace_open(argv[++i])) {
        std::fprintf(stderr, "error: cannot open trace file %s\n", argv[i]);
        return 2;
      }
    }
  }
  // Figure 1 topology: k1 = {p1,p2,p3}, k2 = {p2,p4}, k3 = {p3,p5}
  // (0-based: ECUs 0..4, media 0..2). p2 and p3 are gateways.
  alloc::Problem p;
  p.arch.num_ecus = 5;
  auto ring = [](const char* name, std::vector<int> ecus) {
    rt::Medium m;
    m.name = name;
    m.type = rt::MediumType::kTokenRing;
    m.ecus = std::move(ecus);
    m.ring_byte_ticks = 1;
    m.slot_min = 1;
    m.slot_max = 16;
    m.gateway_cost = 3;
    return m;
  };
  p.arch.media = {ring("k1", {0, 1, 2}), ring("k2", {1, 3}),
                  ring("k3", {2, 4})};

  const net::PathClosures closures(p.arch);
  std::printf("%s\n", closures.describe().c_str());

  // Application: a data-acquisition task pinned to the k2 leaf (p4) feeds
  // a logger pinned to the k3 leaf (p5) — the message must traverse
  // k2 -> k1 -> k3 through both gateways. A local control loop runs on k1.
  const rt::Ticks F = rt::kForbidden;
  auto task = [](const char* name, rt::Ticks period, rt::Ticks deadline,
                 std::vector<rt::Ticks> wcet) {
    rt::Task t;
    t.name = name;
    t.period = period;
    t.deadline = deadline;
    t.wcet = std::move(wcet);
    return t;
  };
  rt::Task acquire = task("acquire", 200, 80, {F, F, F, 12, F});
  rt::Task logger = task("logger", 200, 200, {F, F, F, F, 8});
  rt::Task control = task("control", 100, 60, {15, 18, 18, F, F});
  rt::Task monitor = task("monitor", 200, 150, {10, 10, 10, 10, 10});
  acquire.messages.push_back({1, 4, 150, 0});   // acquire -> logger
  control.messages.push_back({3, 2, 80, 0});    // control -> monitor
  p.tasks.tasks = {acquire, logger, control, monitor};

  alloc::OptimizeOptions opts;
  opts.certify = want_certify;
  const alloc::OptimizeResult res =
      alloc::optimize(p, alloc::Objective::sum_trt(), opts);
  obs::trace_close();
  std::printf("status: %s, sum of TRTs = %lld ticks\n",
              res.status_string().c_str(), static_cast<long long>(res.cost));
  if (want_certify) {
    if (res.certified) {
      std::printf("certified: true\n");
    } else {
      std::printf("certified: FAILED (%s)\n", res.certify_error.c_str());
      return 3;
    }
  }
  if (want_stats) {
    std::printf("effort: %s\n", res.stats.summary().c_str());
    std::printf("--- metrics ---\n%s", obs::render_metrics().c_str());
  }
  if (res.status != alloc::OptimizeResult::Status::kOptimal) return 1;

  for (std::size_t i = 0; i < p.tasks.tasks.size(); ++i) {
    std::printf("  %-8s -> ECU %d\n", p.tasks.tasks[i].name.c_str(),
                res.allocation.task_ecu[i]);
  }
  const auto refs = p.tasks.message_refs();
  const rt::VerifyReport report = rt::verify(p.tasks, p.arch, res.allocation);
  for (std::size_t g = 0; g < refs.size(); ++g) {
    std::printf("  message %zu:", g);
    const auto& route = res.allocation.msg_route[g];
    if (route.empty()) {
      std::printf(" local delivery\n");
      continue;
    }
    for (std::size_t l = 0; l < route.size(); ++l) {
      const auto& leg = report.msg_legs[g][l];
      std::printf(" [%s: d=%lld J=%lld r=%lld]",
                  p.arch.media[static_cast<std::size_t>(route[l])].name.c_str(),
                  static_cast<long long>(leg.local_deadline),
                  static_cast<long long>(leg.jitter),
                  static_cast<long long>(leg.response));
    }
    std::printf("\n");
  }
  std::printf("verified: %s\n", report.feasible ? "yes" : "NO");
  return report.feasible ? 0 : 1;
}
