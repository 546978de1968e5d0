#include "heur/exhaustive.hpp"

#include <algorithm>

#include "heur/common.hpp"
#include "net/paths.hpp"

namespace optalloc::heur {

using rt::Ticks;

std::optional<ExhaustiveResult> exhaustive_search(
    const alloc::Problem& problem, alloc::Objective objective,
    const ExhaustiveOptions& options) {
  const net::PathClosures closures(problem.arch);
  const auto n = problem.tasks.tasks.size();

  std::vector<std::vector<int>> allowed(n);
  std::uint64_t placements = 1;
  for (std::size_t i = 0; i < n; ++i) {
    for (int p = 0; p < problem.arch.num_ecus; ++p) {
      if (problem.tasks.tasks[i].allowed_on(p) &&
          problem.arch.can_host_tasks(p)) {
        allowed[i].push_back(p);
      }
    }
    if (allowed[i].empty()) {
      ExhaustiveResult res;
      res.exact = true;  // provably infeasible
      return res;
    }
    if (placements > options.max_combinations / allowed[i].size()) {
      return std::nullopt;  // grid too large
    }
    placements *= allowed[i].size();
  }

  // Slot enumeration applies to problems whose only token ring carries
  // messages; otherwise minimal slots are already optimal.
  int ring_medium = -1;
  int num_rings = 0;
  for (std::size_t k = 0; k < problem.arch.media.size(); ++k) {
    if (problem.arch.media[k].type == rt::MediumType::kTokenRing) {
      ++num_rings;
      ring_medium = static_cast<int>(k);
    }
  }
  const bool single_ring = num_rings == 1;
  const bool has_messages = !problem.tasks.message_refs().empty();

  ExhaustiveResult result;
  result.exact = true;
  // Slot tables are only provably optimal when they are enumerated, which
  // the implementation supports for single-ring problems.
  if (has_messages && num_rings > 0 &&
      !(single_ring && options.enumerate_slots)) {
    result.exact = false;
  }

  std::vector<std::size_t> idx(n, 0);
  std::vector<int> placement(n);
  for (std::uint64_t step = 0; step < placements; ++step) {
    for (std::size_t i = 0; i < n; ++i) placement[i] = allowed[i][idx[i]];

    const auto base = complete_allocation(problem, closures, placement);
    if (base) {
      for (const auto& route : base->msg_route) {
        if (route.size() > 1) result.exact = false;  // heuristic budgets
      }
      const bool try_slots = options.enumerate_slots && single_ring &&
                             has_messages && ring_medium >= 0;
      if (!try_slots) {
        ++result.combinations_tried;
        const auto cost = evaluate(problem, objective, *base);
        if (cost && (!result.feasible || *cost < result.cost)) {
          result.feasible = true;
          result.cost = *cost;
          result.allocation = *base;
        }
        if (single_ring && has_messages) result.exact = false;
      } else {
        // Enumerate slot extras on the single ring with cost pruning.
        const rt::Medium& medium =
            problem.arch.media[static_cast<std::size_t>(ring_medium)];
        const auto& minimal =
            base->slots[static_cast<std::size_t>(ring_medium)];
        const auto positions = minimal.size();
        std::vector<Ticks> extent(positions);
        std::uint64_t combos = 1;
        bool too_many = false;
        for (std::size_t j = 0; j < positions; ++j) {
          extent[j] = medium.slot_max - minimal[j] + 1;
          if (extent[j] <= 0) {
            too_many = true;  // minimal slot exceeds slot_max: infeasible
            break;
          }
          if (combos > options.max_combinations /
                           static_cast<std::uint64_t>(extent[j])) {
            too_many = true;
            result.exact = false;  // cannot prove slot optimality
            break;
          }
          combos *= static_cast<std::uint64_t>(extent[j]);
        }
        if (too_many) {
          ++result.combinations_tried;
          const auto cost = evaluate(problem, objective, *base);
          if (cost && (!result.feasible || *cost < result.cost)) {
            result.feasible = true;
            result.cost = *cost;
            result.allocation = *base;
          }
        } else {
          std::vector<Ticks> extra(positions, 0);
          // Only the ring's slot is ever non-empty: overwrite it in place.
          std::vector<std::vector<Ticks>> extras(problem.arch.media.size());
          for (std::uint64_t s = 0; s < combos; ++s) {
            extras[static_cast<std::size_t>(ring_medium)] = extra;
            const auto candidate =
                complete_allocation(problem, closures, placement, extras);
            if (candidate) {
              ++result.combinations_tried;
              const auto cost = evaluate(problem, objective, *candidate);
              if (cost && (!result.feasible || *cost < result.cost)) {
                result.feasible = true;
                result.cost = *cost;
                result.allocation = *candidate;
              }
            }
            // Odometer over extras.
            std::size_t j = 0;
            while (j < positions && ++extra[j] >= extent[j]) {
              extra[j] = 0;
              ++j;
            }
            if (j == positions) break;
          }
        }
      }
    }

    // Odometer over placements.
    std::size_t i = 0;
    while (i < n && ++idx[i] >= allowed[i].size()) {
      idx[i] = 0;
      ++i;
    }
    if (i == n) break;
  }
  return result;
}

}  // namespace optalloc::heur
