// Edit-chain workload for incremental re-solve sessions: open one
// inc::Session on a generated instance, then walk a deterministic chain
// of what-if edits (deadline tightening, WCET growth, jitter, an
// infeasible over-constraint and its reversal). Every edit is solved
// twice — warm through the session (delta re-encode, retained learnt
// clauses, optimum-seeded binary search) and cold through a fresh
// alloc::optimize — and each verdict is cross-checked against an
// *untimed certified* cold solve: identical proven optima (or identical
// proven infeasibility) or the run fails. The headline number is the
// geometric-mean cold/warm speedup across the chain; the run exits 1
// below the gate, so a regression in the session machinery fails CI
// rather than drifting.
//
// Environment knobs:
//   OPTALLOC_INC_TASKS        instance size (default 12 tasks)
//   OPTALLOC_INC_ECUS         ring size (default 4 ECUs)
//   OPTALLOC_INC_MIN_SPEEDUP  geomean gate (default 5.0; 0 disables)
//
// Emits BENCH_incremental.json (bench_diff-compatible: rows keyed by
// "instance", carrying "status" and "cost" for equality checking).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "alloc/cost.hpp"
#include "alloc/optimizer.hpp"
#include "inc/patch.hpp"
#include "inc/session.hpp"
#include "obs/json.hpp"
#include "rt/model.hpp"
#include "util/stopwatch.hpp"
#include "workload/generator.hpp"

using namespace optalloc;

namespace {

int env_int(const char* name, int dflt) {
  if (const char* env = std::getenv(name)) return std::atoi(env);
  return dflt;
}

double env_double(const char* name, double dflt) {
  if (const char* env = std::getenv(name)) return std::atof(env);
  return dflt;
}

struct Step {
  std::string label;
  inc::InstancePatch patch;
  bool expect_infeasible = false;
};

inc::PatchOp op_set_deadline(const std::string& task, std::int64_t d) {
  inc::PatchOp op;
  op.kind = inc::PatchOp::Kind::kSetDeadline;
  op.task = task;
  op.value = d;
  return op;
}

inc::PatchOp op_set_wcet(const std::string& task, int ecu, std::int64_t w) {
  inc::PatchOp op;
  op.kind = inc::PatchOp::Kind::kSetWcet;
  op.task = task;
  op.ecu = ecu;
  op.value = w;
  return op;
}

inc::PatchOp op_set_jitter(const std::string& task, std::int64_t j) {
  inc::PatchOp op;
  op.kind = inc::PatchOp::Kind::kSetJitter;
  op.task = task;
  op.value = j;
  return op;
}

/// Smallest positive WCET of a task across ECUs (kForbidden excluded).
std::int64_t min_wcet(const rt::Task& t) {
  std::int64_t best = -1;
  for (const rt::Ticks w : t.wcet) {
    if (w == rt::kForbidden) continue;
    if (best < 0 || w < best) best = w;
  }
  return best;
}

/// The deterministic what-if chain, derived from the instance itself so
/// it stays valid across generator-parameter changes. One edit is
/// deliberately infeasible (deadline below the task's best WCET) and the
/// next reverts it — exercising core extraction and group re-adoption.
std::vector<Step> build_chain(const alloc::Problem& problem) {
  const auto& tasks = problem.tasks.tasks;
  const int n = static_cast<int>(tasks.size());
  auto task = [&](int i) -> const rt::Task& {
    return tasks[static_cast<std::size_t>(i * 7 % n)];
  };
  std::vector<Step> chain;

  const rt::Task& a = task(1);
  chain.push_back({"set_deadline_" + a.name,
                   {{op_set_deadline(a.name, std::max<std::int64_t>(
                                                 min_wcet(a) + 1,
                                                 a.deadline * 9 / 10))}},
                   false});

  const rt::Task& b = task(2);
  int b_ecu = 0;
  for (int e = 0; e < static_cast<int>(b.wcet.size()); ++e) {
    if (b.wcet[static_cast<std::size_t>(e)] != rt::kForbidden) {
      b_ecu = e;
      break;
    }
  }
  const std::int64_t b_w = b.wcet[static_cast<std::size_t>(b_ecu)];
  chain.push_back(
      {"grow_wcet_" + b.name,
       {{op_set_wcet(b.name, b_ecu, b_w + std::max<std::int64_t>(1, b_w / 8))}},
       false});

  const rt::Task& c = task(3);
  chain.push_back({"add_jitter_" + c.name,
                   {{op_set_jitter(c.name, c.release_jitter + 2)}},
                   false});

  // Over-constrain: no ECU can finish `d` inside its deadline.
  const rt::Task& d = task(4);
  const std::int64_t impossible = std::max<std::int64_t>(1, min_wcet(d) - 1);
  chain.push_back(
      {"impossible_deadline_" + d.name,
       {{op_set_deadline(d.name, impossible)}},
       true});
  chain.push_back({"revert_deadline_" + d.name,
                   {{op_set_deadline(d.name, d.deadline)}},
                   false});

  const rt::Task& e = task(5);
  chain.push_back({"tighten_deadline_" + e.name,
                   {{op_set_deadline(e.name, std::max<std::int64_t>(
                                                 min_wcet(e) + 1,
                                                 e.deadline * 4 / 5))}},
                   false});

  // Batch edit: two tasks touched in one revise.
  const rt::Task& f = task(6);
  const rt::Task& g = task(8);
  inc::InstancePatch batch;
  batch.ops.push_back(op_set_jitter(f.name, f.release_jitter + 1));
  batch.ops.push_back(op_set_deadline(
      g.name,
      std::max<std::int64_t>(min_wcet(g) + 1, g.deadline * 19 / 20)));
  chain.push_back({"batch_" + f.name + "_" + g.name, batch, false});

  return chain;
}

}  // namespace

int main() {
  workload::GenOptions gen;
  gen.num_tasks = env_int("OPTALLOC_INC_TASKS", 12);
  gen.num_ecus = env_int("OPTALLOC_INC_ECUS", 4);
  gen.num_chains = std::max(2, gen.num_tasks / 4);
  const double min_speedup = env_double("OPTALLOC_INC_MIN_SPEEDUP", 5.0);

  alloc::Problem base = workload::generate(gen);
  const alloc::Objective objective = alloc::Objective::sum_trt();

  // The instance mutates step by step; cold solves see the same history.
  alloc::Problem current = base;
  inc::Session session(base, objective);

  // Opening solve (cold inside the session) is reported but not part of
  // the speedup geomean — there is nothing warm about it yet.
  const inc::SessionResult opened = session.solve();
  if (opened.status != inc::SessionResult::Status::kOptimal) {
    std::fprintf(stderr, "bench_incremental: base instance not optimal: %s\n",
                 opened.status_string().c_str());
    return 1;
  }
  std::printf("base: cost=%lld  %.3fs  (%d sat calls, %lld clauses)\n",
              static_cast<long long>(opened.cost), opened.stats.seconds,
              opened.stats.sat_calls,
              static_cast<long long>(opened.clauses_added));

  const std::vector<Step> chain = build_chain(base);
  obs::JsonArray rows;
  double log_speedup_sum = 0.0;
  int speedup_n = 0;
  bool ok = true;

  for (std::size_t i = 0; i < chain.size(); ++i) {
    const Step& step = chain[i];
    char tag[32];
    std::snprintf(tag, sizeof(tag), "edit%02zu_", i + 1);
    const std::string name = tag + step.label;

    // Warm: through the session.
    Stopwatch warm_sw;
    const inc::SessionResult warm = session.revise(step.patch);
    const double warm_seconds = warm_sw.seconds();
    if (warm.status == inc::SessionResult::Status::kError) {
      std::fprintf(stderr, "bench_incremental: %s: patch error: %s\n",
                   name.c_str(), warm.error.c_str());
      return 1;
    }

    // Cold: fresh optimizer on the same post-edit instance.
    if (const auto err = inc::apply_patch(step.patch, current)) {
      std::fprintf(stderr, "bench_incremental: %s: cold apply: %s\n",
                   name.c_str(), err->c_str());
      return 1;
    }
    Stopwatch cold_sw;
    const alloc::OptimizeResult cold =
        alloc::optimize(current, objective, {});
    const double cold_seconds = cold_sw.seconds();

    // Referee: untimed certified cold solve. Optima must agree with BOTH
    // timed solves, and the certificate must check out.
    alloc::OptimizeOptions certified_opts;
    certified_opts.certify = true;
    const alloc::OptimizeResult certified =
        alloc::optimize(current, objective, certified_opts);

    const bool warm_infeasible =
        warm.status == inc::SessionResult::Status::kInfeasible;
    if (warm_infeasible != step.expect_infeasible) {
      std::fprintf(stderr, "bench_incremental: %s: expected %s, session says %s\n",
                   name.c_str(),
                   step.expect_infeasible ? "infeasible" : "feasible",
                   warm.status_string().c_str());
      ok = false;
    }
    if (warm_infeasible) {
      if (cold.status != alloc::OptimizeResult::Status::kInfeasible ||
          certified.status != alloc::OptimizeResult::Status::kInfeasible) {
        std::fprintf(stderr,
                     "bench_incremental: %s: session infeasible but cold "
                     "disagrees\n",
                     name.c_str());
        ok = false;
      }
      if (warm.core.empty() || !session.core_is_conflicting(warm.core)) {
        std::fprintf(stderr,
                     "bench_incremental: %s: missing or non-conflicting "
                     "unsat core\n",
                     name.c_str());
        ok = false;
      }
    } else {
      if (!warm.proven() ||
          cold.status != alloc::OptimizeResult::Status::kOptimal ||
          certified.status != alloc::OptimizeResult::Status::kOptimal ||
          !certified.certified || warm.cost != cold.cost ||
          warm.cost != certified.cost) {
        std::fprintf(stderr,
                     "bench_incremental: %s: optima disagree (warm %lld, "
                     "cold %lld, certified %lld%s)\n",
                     name.c_str(), static_cast<long long>(warm.cost),
                     static_cast<long long>(cold.cost),
                     static_cast<long long>(certified.cost),
                     certified.certified ? "" : ", certificate FAILED");
        ok = false;
      }
      const auto value =
          alloc::evaluate_allocation(current, objective, warm.allocation);
      if (!value || *value != warm.cost) {
        std::fprintf(stderr,
                     "bench_incremental: %s: session allocation does not "
                     "verify at its cost\n",
                     name.c_str());
        ok = false;
      }
    }

    const double speedup =
        warm_seconds > 0.0 ? cold_seconds / warm_seconds : 0.0;
    if (speedup > 0.0) {
      log_speedup_sum += std::log(speedup);
      ++speedup_n;
    }
    std::string core_note;
    for (const std::string& c : warm.core) {
      core_note += core_note.empty() ? "  core={" : ", ";
      core_note += c;
    }
    if (!core_note.empty()) core_note += "}";
    std::printf(
        "%-28s %-10s cost=%-6lld warm %8.4fs  cold %8.4fs  %6.1fx  "
        "(reused %zu/%zu groups)%s\n",
        name.c_str(), warm.status_string().c_str(),
        static_cast<long long>(warm.cost), warm_seconds, cold_seconds,
        speedup, warm.groups_unchanged,
        warm.groups_unchanged + static_cast<std::size_t>(warm.groups_added),
        core_note.c_str());

    obs::JsonObject row;
    row.str("instance", name)
        .str("status", warm.status_string())
        .num("cost", warm.cost)
        .num("warm_seconds", warm_seconds)
        .num("cold_seconds", cold_seconds)
        .num("speedup", speedup)
        .num("sat_calls", static_cast<std::int64_t>(warm.stats.sat_calls))
        .num("clauses_added", warm.clauses_added)
        .num("groups_unchanged",
             static_cast<std::int64_t>(warm.groups_unchanged))
        .num("core_size", static_cast<std::int64_t>(warm.core.size()));
    rows.push(row.build());
  }

  const double geomean =
      speedup_n > 0 ? std::exp(log_speedup_sum / speedup_n) : 0.0;
  std::printf("geomean speedup: %.1fx over %d edits (gate %.1fx)\n", geomean,
              speedup_n, min_speedup);

  std::ofstream out("BENCH_incremental.json");
  out << obs::JsonObject()
             .str("bench", "incremental")
             .num("tasks", static_cast<std::int64_t>(gen.num_tasks))
             .num("ecus", static_cast<std::int64_t>(gen.num_ecus))
             .num("base_cost", opened.cost)
             .num("base_seconds", opened.stats.seconds)
             .num("geomean_speedup", geomean)
             .boolean("verified", ok)
             .raw("instances", rows.build())
             .build()
      << "\n";

  if (!ok) return 1;
  if (min_speedup > 0.0 && geomean < min_speedup) {
    std::fprintf(stderr,
                 "bench_incremental: geomean %.2fx below the %.2fx gate\n",
                 geomean, min_speedup);
    return 1;
  }
  return 0;
}
