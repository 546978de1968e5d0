// reference.tsv generator: every instance any workload solves, solved
// once with full certification (DRAT proofs for UNSAT steps, model checks
// for SAT steps, RT re-validation of the optimum) and, where exhaustive
// search reports an exact optimum, cross-checked against it.

#include <cstdio>
#include <set>

#include "alloc/io.hpp"
#include "alloc/optimizer.hpp"
#include "heur/exhaustive.hpp"
#include "instances.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace alloc = optalloc::alloc;
namespace heur = optalloc::heur;

int make_reference() {
  std::vector<Instance> all;
  std::set<std::string> seen;
  auto add = [&](Instance inst) {
    if (seen.insert(inst.id).second) all.push_back(std::move(inst));
  };
  for (const bool certified : {false, true}) {
    for (Instance& i : paper_families(certified)) add(std::move(i));
  }
  for (int k = 0; k < kPoolSize; ++k) add(pool_instance(k));
  for (int c = 0; c < 2; ++c) {
    for (Instance& i : session_states(c)) add(std::move(i));
  }

  int errors = 0;
  std::printf(
      "# Proven optima of every benchmark instance (perfbench --make-"
      "reference).\n# id\tobjective\tstatus\tcost\tcertified\texhaustive\n");
  for (const Instance& inst : all) {
    const alloc::Objective objective = alloc::parse_objective(inst.objective);
    alloc::OptimizeOptions opts;
    opts.certify = true;
    if (inst.descending) opts.strategy = alloc::SearchStrategy::kDescending;
    const alloc::OptimizeResult r = alloc::optimize(inst.problem, objective, opts);
    const bool optimal = r.status == alloc::OptimizeResult::Status::kOptimal;
    if (!r.certified ||
        (!optimal && r.status != alloc::OptimizeResult::Status::kInfeasible)) {
      std::fprintf(stderr, "%s: %s, not certified: %s\n", inst.id.c_str(),
                   r.status_string().c_str(), r.certify_error.c_str());
      ++errors;
      continue;
    }
    // Each session chain visits exactly one infeasible state, S4.
    if (inst.id.rfind("sess", 0) == 0 && optimal == (inst.id.back() == '4')) {
      std::fprintf(stderr, "%s: chain state has the wrong feasibility\n",
                   inst.id.c_str());
      ++errors;
    }
    std::string exhaustive = "-";
    // Placements only: enumerating slot tables multiplies every placement
    // by up to max_combinations tables, hours on these instances. The
    // search then reports an exact optimum only without messages, and an
    // upper bound otherwise.
    heur::ExhaustiveOptions ex_opts;
    ex_opts.max_combinations = 1'100'000;
    ex_opts.enumerate_slots = false;
    if (const auto ex =
            heur::exhaustive_search(inst.problem, objective, ex_opts)) {
      const std::int64_t ex_cost = ex->feasible ? ex->cost : -1;
      const std::int64_t sat_cost = optimal ? r.cost : -1;
      exhaustive = (ex->exact ? "exact:" : "upper:") +
                   (ex->feasible ? std::to_string(ex->cost) : "infeasible");
      // An exact exhaustive optimum must match; an upper bound must not
      // undercut the proven optimum.
      const bool mismatch =
          ex->exact ? ex_cost != sat_cost
                    : ex->feasible && (!optimal || ex->cost < r.cost);
      if (mismatch) {
        std::fprintf(stderr, "%s: exhaustive %s vs certified %lld\n",
                     inst.id.c_str(), exhaustive.c_str(),
                     static_cast<long long>(sat_cost));
        ++errors;
      }
    }
    std::printf("%s\t%s\t%s\t%s\tyes\t%s\n", inst.id.c_str(),
                inst.objective.c_str(), r.status_string().c_str(),
                optimal ? std::to_string(r.cost).c_str() : "-",
                exhaustive.c_str());
    std::fflush(stdout);
  }
  return errors == 0 ? 0 : 1;
}

}  // namespace perfbench
