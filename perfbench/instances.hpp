#pragma once
// The benchmark's instance catalogue. Every instance has a stable id under
// which reference.tsv records its proven optimum:
//
//   tindell:N        Tindell ring prefix of N tasks, objective trt:0
//   A:N B:N C:N Ccan:N
//                    Fig. 2 architectures over an N-task prefix, sum-trt,
//                    descending search (as bench_table4 runs them)
//   gen:S            generated pool system of generator seed S
//                    (workload::generate, 10 tasks, 4 ECUs, sum-trt)
//   sess<C>:S<K>     state K of client C's what-if edit chain (S0 = base)

#include <iterator>
#include <string>
#include <vector>

#include "alloc/problem.hpp"

namespace perfbench {

struct Instance {
  std::string id;
  optalloc::alloc::Problem problem;
  std::string objective;  ///< alloc::parse_objective spec
  bool descending = false;
};

/// Generator seeds of the pool the workloads draw generated systems from.
/// They were picked from seeds 1..42 for similar solve effort (250 to
/// 1200 conflicts, 60 to 115 ms cold on a 4-core Xeon KVM guest), so
/// which ones a run draws moves its latency percentiles little.
inline constexpr int kPoolSeeds[] = {2,  4,  6,  8,  9,  10, 12, 14,
                                     17, 19, 21, 22, 23, 24, 25, 27,
                                     30, 31, 32, 33, 36, 37, 38, 39};
inline constexpr int kPoolSize = static_cast<int>(std::size(kPoolSeeds));

/// The fixed paper families of paper_cold (`certified` = false) or of
/// paper_certified (the smaller ones).
std::vector<Instance> paper_families(bool certified);

/// Pool system `k` (0 <= k < kPoolSize).
Instance pool_instance(int k);

/// One step of a what-if edit chain: the revise verb's "edits" array and
/// the id of the chain state it leads to.
struct ChainStep {
  std::string edits_json;
  std::string state_id;
};

/// Base system of client `client`'s session (state S0).
Instance session_base(int client);

/// Cyclic edit chain over `base`: three feasible edits, one infeasible
/// edit and the reversals of all four, ending back at the base state.
std::vector<ChainStep> session_chain(const Instance& base, int client);

/// Every state the chain visits (S0..S4), for the reference file.
std::vector<Instance> session_states(int client);

/// Task declaration order rotated by `k` (the same system; the service's
/// canonical fingerprint must see through it).
optalloc::alloc::Problem rotate_tasks(const optalloc::alloc::Problem& p,
                                      int k);

/// Every task name prefixed with `prefix`: a distinct system for the
/// result cache that solves identically (names keep their relative order).
optalloc::alloc::Problem prefix_names(const optalloc::alloc::Problem& p,
                                      const std::string& prefix);

/// The problem in the alloc::io text format.
std::string problem_text(const optalloc::alloc::Problem& p);

}  // namespace perfbench
