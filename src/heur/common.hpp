#pragma once
// Shared machinery for the heuristic allocators: given a task->ECU mapping
// (and optional slot enlargements), deterministically complete it into a
// full rt::Allocation — shortest routes from the path closures, per-leg
// deadline budgets by equal slack split, minimal TDMA slots. Callers
// evaluate the result with alloc::evaluate_allocation / objective_value.

#include <optional>

#include "alloc/problem.hpp"
#include "net/paths.hpp"
#include "rt/verify.hpp"

namespace optalloc::heur {

/// Deterministic completion of a partial solution.
///   task_ecu    the Pi mapping to complete
///   slot_extra  optional per-(medium, position) additions on top of the
///               minimal slot table (empty = all zero)
/// Returns nullopt when some message has no valid route.
std::optional<rt::Allocation> complete_allocation(
    const alloc::Problem& problem, const net::PathClosures& closures,
    const std::vector<int>& task_ecu,
    const std::vector<std::vector<rt::Ticks>>& slot_extra = {});

}  // namespace optalloc::heur
