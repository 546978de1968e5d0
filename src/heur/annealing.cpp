#include "heur/annealing.hpp"

#include <algorithm>
#include <cmath>

#include "alloc/cost.hpp"
#include "heur/common.hpp"
#include "net/paths.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "rt/verify.hpp"
#include "util/rng.hpp"

namespace optalloc::heur {

namespace {

std::vector<std::vector<int>> allowed_table(const alloc::Problem& problem) {
  std::vector<std::vector<int>> allowed(problem.tasks.tasks.size());
  for (std::size_t i = 0; i < problem.tasks.tasks.size(); ++i) {
    for (int p = 0; p < problem.arch.num_ecus; ++p) {
      if (problem.tasks.tasks[i].allowed_on(p) &&
          problem.arch.can_host_tasks(p)) {
        allowed[i].push_back(p);
      }
    }
  }
  return allowed;
}

}  // namespace

/// Fold one finished annealing run into the metrics registry and emit a
/// trace event, so heuristic effort shows up next to the SAT search's.
class AnnealTelemetry {
 public:
  explicit AnnealTelemetry(const AnnealingResult& result)
      : result_(result), start_ns_(obs::monotonic_ns()) {}
  ~AnnealTelemetry() {
    static const obs::Metric runs = obs::counter("heur.sa.runs");
    static const obs::Metric iters = obs::counter("heur.sa.iterations");
    static const obs::Metric accepted = obs::counter("heur.sa.accepted_moves");
    static const obs::Metric feasible = obs::counter("heur.sa.feasible");
    static const obs::Metric t_total = obs::histogram("heur.sa.time");
    const double seconds =
        static_cast<double>(obs::monotonic_ns() - start_ns_) * 1e-9;
    obs::add(runs, 1);
    obs::add(iters, result_.iterations_run);
    obs::add(accepted, result_.accepted_moves);
    if (result_.feasible) obs::add(feasible, 1);
    obs::observe(t_total, seconds);
    obs::Event e(obs::ev::anneal);
    e.boolean("feasible", result_.feasible);
    if (result_.feasible) e.num("cost", result_.cost);
    e.num("iterations", result_.iterations_run)
        .num("accepted", result_.accepted_moves)
        .num("seconds", seconds);
  }

 private:
  const AnnealingResult& result_;
  std::uint64_t start_ns_;
};

AnnealingResult anneal(const alloc::Problem& problem,
                       alloc::Objective objective,
                       const AnnealingOptions& options) {
  AnnealingResult result;
  AnnealTelemetry telemetry(result);
  const net::PathClosures closures(problem.arch);
  const auto allowed = allowed_table(problem);
  for (const auto& a : allowed) {
    if (a.empty()) return result;  // some task cannot be placed at all
  }
  Rng rng(options.seed);

  // State: allocation vector + slot extras.
  std::vector<int> state(problem.tasks.tasks.size());
  for (std::size_t i = 0; i < state.size(); ++i) {
    state[i] = allowed[i][rng.index(allowed[i].size())];
  }
  std::vector<std::vector<rt::Ticks>> slot_extra(problem.arch.media.size());
  for (std::size_t k = 0; k < problem.arch.media.size(); ++k) {
    slot_extra[k].assign(problem.arch.media[k].ecus.size(), 0);
  }

  // Energy: objective if feasible, else penalty * violations (plus the
  // objective proxy so the search still prefers cheap regions).
  auto energy = [&](const std::vector<int>& task_ecu,
                    const std::vector<std::vector<rt::Ticks>>& extras,
                    std::optional<std::int64_t>& cost_out,
                    rt::Allocation& alloc_out) -> double {
    cost_out.reset();
    const auto completed =
        complete_allocation(problem, closures, task_ecu, extras);
    if (!completed) return 1e18;
    const rt::VerifyReport report =
        rt::verify(problem.tasks, problem.arch, *completed);
    const std::int64_t cost =
        alloc::objective_value(problem, objective, *completed);
    const auto value = static_cast<double>(cost);
    if (!report.feasible) {
      return value +
             options.infeasible_penalty *
                 static_cast<double>(report.violations.size());
    }
    cost_out = cost;
    alloc_out = *completed;
    return value;
  };

  std::optional<std::int64_t> cost;
  rt::Allocation current_alloc;
  double current_energy = energy(state, slot_extra, cost, current_alloc);
  if (cost) {
    result.feasible = true;
    result.cost = *cost;
    result.allocation = current_alloc;
  }

  double temperature = options.initial_temperature;
  for (int iter = 0; iter < options.iterations; ++iter) {
    ++result.iterations_run;
    // Propose a move.
    auto next_state = state;
    auto next_extras = slot_extra;
    bool moved = false;
    if (rng.chance(options.slot_move_probability)) {
      // Nudge a random slot by +-1 (only on token rings).
      std::vector<std::pair<std::size_t, std::size_t>> slots;
      for (std::size_t k = 0; k < problem.arch.media.size(); ++k) {
        if (problem.arch.media[k].type != rt::MediumType::kTokenRing) {
          continue;
        }
        for (std::size_t j = 0; j < next_extras[k].size(); ++j) {
          slots.emplace_back(k, j);
        }
      }
      if (!slots.empty()) {
        const auto [k, j] = slots[rng.index(slots.size())];
        const rt::Ticks delta = rng.chance(0.5) ? 1 : -1;
        next_extras[k][j] = std::max<rt::Ticks>(0, next_extras[k][j] + delta);
        moved = true;
      }
    }
    if (!moved) {
      const std::size_t task = rng.index(next_state.size());
      if (allowed[task].size() > 1) {
        int p = state[task];
        while (p == state[task]) {
          p = allowed[task][rng.index(allowed[task].size())];
        }
        next_state[task] = p;
        moved = true;
      }
    }
    if (!moved) {
      temperature *= options.cooling;
      continue;
    }

    std::optional<std::int64_t> next_cost;
    rt::Allocation next_alloc;
    const double next_energy =
        energy(next_state, next_extras, next_cost, next_alloc);
    const double delta = next_energy - current_energy;
    if (delta <= 0.0 ||
        rng.uniform01() < std::exp(-delta / std::max(temperature, 1e-9))) {
      state = next_state;
      slot_extra = next_extras;
      current_energy = next_energy;
      ++result.accepted_moves;
      if (next_cost && (!result.feasible || *next_cost < result.cost)) {
        result.feasible = true;
        result.cost = *next_cost;
        result.allocation = next_alloc;
      }
    }
    temperature *= options.cooling;
  }
  return result;
}

}  // namespace optalloc::heur
