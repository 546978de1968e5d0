// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//   1. Learned-clause reuse across binary-search steps (incremental mode)
//      vs fresh solver per SOLVE — the paper's Section 7 reports "a factor
//      of 2 and more" for the reuse.
//   2. CNF vs pseudo-Boolean (paper eq. 19) adder carries.
//   3. Redundant per-ECU utilization PB constraints on/off.
//   4. Free tie-break priorities (paper eqs. 9-10) vs fixed index order.
//   5. Heuristic warm start on/off.
//
// All variants run the same instance (a mid-size prefix of the
// Tindell-style system) to proven optimality, so runtimes are comparable.

#include "bench_common.hpp"
#include "workload/tindell.hpp"

using namespace optalloc;

namespace {

void run_variant(bench::JsonReport& json, const char* name,
                 const alloc::Problem& p, alloc::Objective obj,
                 alloc::OptimizeOptions opts, bool warm_start) {
  if (warm_start) {
    heur::AnnealingOptions sa_opts;
    sa_opts.iterations = bench::sa_iterations();
    const auto sa = heur::anneal(p, obj, sa_opts);
    if (sa.feasible) {
      opts.initial_upper = sa.cost;
      opts.warm_start = sa.allocation;
    }
  }
  opts.time_limit_s = bench::budget_seconds();
  const auto res = alloc::optimize(p, obj, opts);
  json.add_result(name, res);
  std::printf("%-28s %-22s %-10s %-9lld %-9llu calls=%d conflicts=%llu\n",
              name, bench::result_cell(res).c_str(),
              Stopwatch::pretty_seconds(res.stats.seconds).c_str(),
              static_cast<long long>(res.stats.boolean_vars),
              static_cast<unsigned long long>(res.stats.boolean_literals),
              res.stats.sat_calls,
              static_cast<unsigned long long>(res.stats.conflicts));
  std::fflush(stdout);
}

}  // namespace

int main() {
  bench::print_header(
      "Ablations — encoder/optimizer design choices",
      "Section 7: incremental clause reuse speeds BIN_SEARCH by >= 2x");

  const alloc::Problem p = workload::tindell_prefix(20);
  const alloc::Objective obj = alloc::Objective::ring_trt(0);
  std::printf("instance: tindell_prefix(20), minimize TRT\n\n");
  std::printf("%-28s %-22s %-10s %-9s %-9s\n", "variant", "result", "time",
              "vars", "lits");
  bench::JsonReport json("ablation");

  alloc::OptimizeOptions base;
  run_variant(json, "baseline (incremental)", p, obj, base, true);

  alloc::OptimizeOptions scratch = base;
  scratch.incremental = false;
  run_variant(json, "scratch solver per SOLVE", p, obj, scratch, true);

  alloc::OptimizeOptions pb = base;
  pb.encoder.backend = encode::Backend::kPbMixed;
  run_variant(json, "PB adder carries (eq. 19)", p, obj, pb, true);

  alloc::OptimizeOptions no_util = base;
  no_util.encoder.redundant_utilization = false;
  run_variant(json, "no utilization constraints", p, obj, no_util, true);

  alloc::OptimizeOptions fixed_ties = base;
  fixed_ties.encoder.free_tie_priorities = false;
  run_variant(json, "fixed tie-break priorities", p, obj, fixed_ties, true);

  run_variant(json, "no warm start", p, obj, base, false);
  return 0;
}
