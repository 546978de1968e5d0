#pragma once
// Shared harness for the table benchmarks: runs one allocation experiment
// (simulated-annealing baseline + SAT optimizer with warm start), verifies
// the result, and prints paper-style rows (result, runtime, #vars, #lits).
//
// Environment knobs:
//   OPTALLOC_BENCH_SECONDS  per-experiment SAT time budget (default 120;
//                           rows that exhaust it report the best-so-far
//                           anytime result and the remaining bound gap)
//   OPTALLOC_SA_ITERS       annealing iterations (default 8000)

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "alloc/optimizer.hpp"
#include "heur/annealing.hpp"
#include "obs/json.hpp"
#include "rt/verify.hpp"
#include "util/stopwatch.hpp"
#include "workload/generator.hpp"

namespace optalloc::bench {

inline double budget_seconds() {
  if (const char* env = std::getenv("OPTALLOC_BENCH_SECONDS")) {
    return std::atof(env);
  }
  return 120.0;
}

inline int sa_iterations() {
  if (const char* env = std::getenv("OPTALLOC_SA_ITERS")) {
    return std::atoi(env);
  }
  return 8000;
}

struct RunOutcome {
  heur::AnnealingResult sa;
  alloc::OptimizeResult sat;
  bool verified = false;
  double sa_seconds = 0.0;
};

/// SA baseline, then SAT optimization seeded with it; verifies the SAT
/// allocation through the independent analyzer.
inline RunOutcome run_experiment(const alloc::Problem& problem,
                                 alloc::Objective objective,
                                 double time_limit = 0.0,
                                 alloc::OptimizeOptions base_options = {}) {
  RunOutcome out;
  Stopwatch sw;
  heur::AnnealingOptions sa_opts;
  sa_opts.iterations = sa_iterations();
  out.sa = heur::anneal(problem, objective, sa_opts);
  out.sa_seconds = sw.seconds();

  alloc::OptimizeOptions opts = base_options;
  opts.time_limit_s = time_limit > 0.0 ? time_limit : budget_seconds();
  // Ablation hook for tools/bench_diff: OPTALLOC_NO_INPROCESS=1 reruns
  // any table bench with clause-DB inprocessing disabled, so the on/off
  // artifacts can be diffed (see EXPERIMENTS.md).
  if (const char* env = std::getenv("OPTALLOC_NO_INPROCESS")) {
    if (env[0] != '\0' && env[0] != '0') opts.inprocess = false;
  }
  if (out.sa.feasible) {
    opts.initial_upper = out.sa.cost;
    opts.warm_start = out.sa.allocation;
  }
  out.sat = alloc::optimize(problem, objective, opts);
  if (out.sat.has_allocation) {
    out.verified = rt::verify(problem.tasks, problem.arch,
                              out.sat.allocation)
                       .feasible;
  }
  return out;
}

/// "13 ticks (3.25 ms)" — tick values with their ms equivalent.
inline std::string ms_string(std::int64_t ticks) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%lld ticks (%.2f ms)",
                static_cast<long long>(ticks), workload::to_ms(ticks));
  return buf;
}

/// Status cell: "13 (optimal)" or "14 [>=12] (budget)".
inline std::string result_cell(const alloc::OptimizeResult& res) {
  char buf[96];
  if (res.status == alloc::OptimizeResult::Status::kOptimal) {
    std::snprintf(buf, sizeof buf, "%lld (optimal)",
                  static_cast<long long>(res.cost));
  } else if (res.status == alloc::OptimizeResult::Status::kInfeasible) {
    std::snprintf(buf, sizeof buf, "infeasible");
  } else if (res.has_allocation) {
    std::snprintf(buf, sizeof buf, "%lld [>=%lld] (budget)",
                  static_cast<long long>(res.cost),
                  static_cast<long long>(res.lower_bound));
  } else {
    std::snprintf(buf, sizeof buf, "timeout");
  }
  return buf;
}

/// Machine-readable run summary: collects one JSON object per experiment
/// and writes `BENCH_<name>.json` on destruction, so every bench binary
/// leaves a parseable artifact next to its human-readable table. The
/// "vars"/"lits" fields are the paper tables' "Var."/"Lit." columns;
/// "seconds"/"conflicts" correspond to the runtime and search-effort
/// numbers (see README "Observability").
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}
  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;
  ~JsonReport() { write(); }

  /// Row from the SA + SAT harness.
  void add(const std::string& instance, const RunOutcome& out) {
    obs::JsonObject row;
    row.str("instance", instance);
    fill(row, out.sat);
    row.boolean("verified", out.verified)
        .boolean("sa_feasible", out.sa.feasible)
        .num("sa_seconds", out.sa_seconds);
    if (out.sa.feasible) row.num("sa_cost", out.sa.cost);
    rows_.push(row.build());
  }

  /// Row from a bare optimizer result (ablation variants).
  void add_result(const std::string& instance,
                  const alloc::OptimizeResult& res) {
    obs::JsonObject row;
    row.str("instance", instance);
    fill(row, res);
    rows_.push(row.build());
  }

  void write() {
    if (written_) return;
    written_ = true;
    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return;
    }
    out << obs::JsonObject()
               .str("bench", name_)
               .num("budget_seconds", budget_seconds())
               .num("sa_iterations",
                    static_cast<std::int64_t>(sa_iterations()))
               .raw("instances", rows_.build())
               .build()
        << '\n';
    std::printf("wrote %s\n", path.c_str());
  }

 private:
  static void fill(obs::JsonObject& row, const alloc::OptimizeResult& res) {
    row.str("status", res.status_string());
    if (res.has_allocation) row.num("cost", res.cost);
    row.num("lower_bound", res.lower_bound)
        .num("seconds", res.stats.seconds)
        .num("sat_calls", static_cast<std::int64_t>(res.stats.sat_calls))
        .num("sat_calls_sat",
             static_cast<std::int64_t>(res.stats.sat_calls_sat))
        .num("sat_calls_unsat",
             static_cast<std::int64_t>(res.stats.sat_calls_unsat))
        .num("encode_seconds", res.stats.encode_seconds)
        .num("solve_seconds", res.stats.solve_seconds)
        .num("vars", res.stats.boolean_vars)
        .num("lits", static_cast<std::int64_t>(res.stats.boolean_literals))
        .num("conflicts", static_cast<std::int64_t>(res.stats.conflicts))
        .num("pb_constraints",
             static_cast<std::int64_t>(res.stats.pb_constraints));
  }

  std::string name_;
  obs::JsonArray rows_;
  bool written_ = false;
};

inline void print_header(const char* title, const char* paper_note) {
  std::printf("==================================================================\n");
  std::printf("%s\n", title);
  std::printf("paper reference: %s\n", paper_note);
  std::printf("budget: %.0f s per experiment (OPTALLOC_BENCH_SECONDS)\n",
              budget_seconds());
  std::printf("==================================================================\n");
}

}  // namespace optalloc::bench
