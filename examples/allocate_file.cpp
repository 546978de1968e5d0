// File-driven allocator CLI: read a problem description, optimize the
// chosen objective, print the allocation, and re-verify it.
//
//   $ ./allocate_file system.prob trt:0
//   $ ./allocate_file system.prob can-load:1 --time 60
//   $ ./allocate_file system.prob trt:0 --report   # schedulability report
//   $ ./allocate_file system.prob trt:0 --dot      # graphviz topology
//   $ ./allocate_file system.prob trt:0 --trace t.jsonl  # JSONL telemetry
//   $ ./allocate_file system.prob trt:0 --stats    # search-effort summary
//   $ ./allocate_file --certify system.prob        # certified optimum
//   $ ./allocate_file - feasibility < system.prob
//
// Objectives: feasibility | trt:<medium> | sum-trt | can-load:<medium> |
// max-util; sum-trt is the default when omitted. The optional --time
// budget (seconds) — or --timeout (milliseconds) — turns the run into an
// anytime optimization that reports best-so-far plus bounds; a run that
// ends with a feasible allocation that is *not* proven optimal exits 4
// (vs 0 proven / 1 infeasible or unverified), so schedulers wrapping this
// CLI can tell the two apart. --trace FILE streams every SOLVE call,
// interval update and the final optimum as structured JSONL events (see
// README "Observability"); --stats enables phase timers and prints the
// metrics registry on exit. --certify runs the independent checkers over
// every search step (models on SAT, DRAT proofs on UNSAT, RT re-analysis
// of the answer) and the exit status reflects the verdict; --proof FILE
// additionally dumps the solver's proof log for the standalone
// drat_check tool.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <vector>

#include "alloc/io.hpp"
#include "net/dot.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rt/report.hpp"
#include "alloc/optimizer.hpp"
#include "heur/annealing.hpp"
#include "rt/verify.hpp"
#include "sat/proof.hpp"

using namespace optalloc;

namespace {

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s <file|-> [objective] [--time <seconds>] "
               "[--timeout <ms>] "
               "[--trace <file>] [--stats] [--report] [--dot] "
               "[--certify] [--proof <file>] "
               "[--no-inprocess] [--inprocess-interval <conflicts>]\n",
               prog);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  alloc::OptimizeOptions opts;
  bool want_report = false;
  bool want_dot = false;
  bool want_stats = false;
  const char* proof_path = nullptr;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--time") == 0 && i + 1 < argc) {
      opts.time_limit_s = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--timeout") == 0 && i + 1 < argc) {
      opts.time_limit_s = std::atof(argv[++i]) / 1000.0;
    } else if (std::strcmp(argv[i], "--report") == 0) {
      want_report = true;
    } else if (std::strcmp(argv[i], "--dot") == 0) {
      want_dot = true;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      want_stats = true;
    } else if (std::strcmp(argv[i], "--certify") == 0) {
      opts.certify = true;
    } else if (std::strcmp(argv[i], "--no-inprocess") == 0) {
      opts.inprocess = false;
    } else if (std::strcmp(argv[i], "--inprocess-interval") == 0 &&
               i + 1 < argc) {
      opts.inprocess_interval = std::atoll(argv[++i]);
      if (opts.inprocess_interval <= 0) {
        std::fprintf(stderr,
                     "error: --inprocess-interval wants a positive conflict "
                     "count\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--proof") == 0 && i + 1 < argc) {
      proof_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      if (!obs::trace_open(argv[++i])) {
        std::fprintf(stderr, "error: cannot open trace file %s\n", argv[i]);
        return 2;
      }
    } else if (argv[i][0] == '-' && std::strcmp(argv[i], "-") != 0) {
      std::fprintf(stderr, "error: unknown flag %s\n", argv[i]);
      return usage(argv[0]);
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.empty() || positional.size() > 2) return usage(argv[0]);

  alloc::Problem problem;
  alloc::Objective objective = alloc::Objective::sum_trt();
  try {
    if (std::strcmp(positional[0], "-") == 0) {
      problem = alloc::parse_problem(std::cin, "<stdin>");
    } else {
      std::ifstream in(positional[0]);
      if (!in) {
        std::fprintf(stderr, "error: cannot open %s\n", positional[0]);
        return 2;
      }
      problem = alloc::parse_problem(in, positional[0]);
    }
    if (positional.size() == 2) {
      objective = alloc::parse_objective(positional[1]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (want_stats) obs::set_phase_timing(true);
  sat::ProofLog proof_log;
  if (proof_path != nullptr) opts.proof = &proof_log;

  // Heuristic seed (also the anytime fallback under tight budgets).
  const auto sa = heur::anneal(problem, objective, {.iterations = 8000});
  if (sa.feasible) opts.warm_start = sa.allocation;

  const alloc::OptimizeResult res = alloc::optimize(problem, objective, opts);
  obs::trace_close();
  if (proof_path != nullptr) {
    std::ofstream out(proof_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot open proof file %s\n", proof_path);
      return 2;
    }
    proof_log.write_text(out);
  }
  std::printf("objective: %s\n", objective.describe().c_str());
  std::printf("status:    %s\n", res.status_string().c_str());
  bool certify_failed = false;
  if (opts.certify) {
    if (res.certified) {
      std::printf("certified: true\n");
    } else {
      certify_failed = true;
      std::printf("certified: FAILED (%s)\n",
                  res.certify_error.empty() ? "search not run to completion"
                                            : res.certify_error.c_str());
    }
  }
  if (want_stats) {
    std::printf("effort:    %s\n", res.stats.summary().c_str());
    std::printf("--- metrics ---\n%s", obs::render_metrics().c_str());
  }
  if (certify_failed) return 3;
  if (res.status == alloc::OptimizeResult::Status::kInfeasible) return 1;
  std::printf("cost:      %lld", static_cast<long long>(res.cost));
  if (res.status == alloc::OptimizeResult::Status::kBudgetExhausted) {
    std::printf("  (bounds: >= %lld)", static_cast<long long>(res.lower_bound));
  }
  std::printf("\n");
  if (!res.has_allocation) return 1;

  for (std::size_t i = 0; i < problem.tasks.tasks.size(); ++i) {
    std::printf("task %-16s -> ECU %d  (priority %d)\n",
                problem.tasks.tasks[i].name.c_str(),
                res.allocation.task_ecu[i], res.allocation.task_prio[i]);
  }
  const auto refs = problem.tasks.message_refs();
  for (std::size_t g = 0; g < refs.size(); ++g) {
    std::printf("message %-13s",
                (problem.tasks.tasks[static_cast<std::size_t>(refs[g].task)]
                     .name +
                 "#" + std::to_string(refs[g].index))
                    .c_str());
    if (res.allocation.msg_route[g].empty()) {
      std::printf(" local\n");
      continue;
    }
    std::printf(" via");
    for (std::size_t l = 0; l < res.allocation.msg_route[g].size(); ++l) {
      const int k = res.allocation.msg_route[g][l];
      std::printf(" %s(d=%lld)",
                  problem.arch.media[static_cast<std::size_t>(k)].name.c_str(),
                  static_cast<long long>(
                      res.allocation.msg_local_deadline[g][l]));
    }
    std::printf("\n");
  }
  for (std::size_t k = 0; k < problem.arch.media.size(); ++k) {
    if (problem.arch.media[k].type != rt::MediumType::kTokenRing) continue;
    std::printf("slots %-15s", problem.arch.media[k].name.c_str());
    for (const rt::Ticks s : res.allocation.slots[k]) {
      std::printf(" %lld", static_cast<long long>(s));
    }
    std::printf("\n");
  }
  const rt::VerifyReport report =
      rt::verify(problem.tasks, problem.arch, res.allocation);
  std::printf("verified:  %s\n", report.feasible ? "feasible" : "INFEASIBLE");
  if (want_report) {
    std::printf("%s", rt::render_report(problem.tasks, problem.arch,
                                        res.allocation,
                                        res.stats.summary())
                          .c_str());
  }
  if (want_dot) {
    std::printf("%s", net::to_dot(problem.tasks, problem.arch,
                                  res.allocation)
                          .c_str());
  }
  if (!report.feasible) return 1;
  // Anytime answer: feasible and verified, but the search ran out of
  // budget before pinning the optimum — distinct exit code so callers can
  // retry with a bigger budget (or accept the incumbent + lower bound).
  return res.status == alloc::OptimizeResult::Status::kBudgetExhausted ? 4 : 0;
}
