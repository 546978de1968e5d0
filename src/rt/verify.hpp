#pragma once
// Whole-system schedulability verification: given a TaskSet, an
// Architecture and a candidate Allocation, re-derive every response time
// with the exact fixed-point analysis and check every constraint of the
// paper's model. This is the ground truth that
//   * the SAT optimizer's decoded solutions are validated against
//     (independent implementation — any encoder bug shows up here), and
//   * the heuristic baselines (simulated annealing, exhaustive search)
//     optimize over.

#include <string>
#include <vector>

#include "rt/analysis.hpp"
#include "rt/model.hpp"

namespace optalloc::rt {

struct MessageLegReport {
  int medium = -1;
  Ticks jitter = 0;          ///< J^k_m
  Ticks response = -1;       ///< r^k_m (-1: fixed point diverged)
  Ticks local_deadline = 0;  ///< d^k_m
  bool ok = false;
};

struct VerifyReport {
  bool feasible = false;
  std::vector<std::string> violations;

  std::vector<Ticks> task_response;               ///< -1 if unschedulable
  std::vector<std::vector<MessageLegReport>> msg_legs;  ///< per global msg id

  std::vector<Ticks> trt_per_medium;  ///< Lambda per medium (0 for CAN)
  Ticks sum_trt = 0;                  ///< sum over token-ring media
  std::int64_t max_can_util_ppm = 0;  ///< max CAN bus load (ppm*... 1/1000)
};

/// Message priority ranks: deadline-monotonic over end-to-end deadlines,
/// ties broken by global message id (fixed across encoder/verifier).
std::vector<int> message_dm_ranks(const TaskSet& ts);

/// Full verification. Never throws on infeasible inputs; every violated
/// constraint appends a human-readable diagnostic.
VerifyReport verify(const TaskSet& ts, const Architecture& arch,
                    const Allocation& alloc);

}  // namespace optalloc::rt
