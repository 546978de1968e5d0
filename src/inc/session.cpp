#include "inc/session.hpp"

#include <exception>
#include <utility>

namespace optalloc::inc {

namespace {

/// Per-probe effort cap of core deletion-minimization.
constexpr sat::Budget kCoreProbe{20000, 1.0, nullptr};

}  // namespace

Session::Session(alloc::Problem problem, alloc::Objective objective)
    : problem_(std::move(problem)), objective_(objective) {}

Session::~Session() = default;

bool Session::sync_encoding(SessionResult& out) {
  encoder_.reset();
  encoder_ = std::make_unique<alloc::AllocEncoder>(
      problem_, objective_, alloc::EncoderConfig{}, backend_);
  try {
    encoder_->build();
  } catch (const std::exception& e) {
    out.status = SessionResult::Status::kError;
    out.error = e.what();
    return false;
  }
  const EncodingDelta delta = diff_groups(groups_, encoder_->grouped());
  const std::int64_t clauses_before = backend_.solver.num_clauses();
  for (const std::string& name : delta.retired) {
    // Permanent retraction. Sound: every learnt clause is implied by the
    // clause database, and the database only grows — a retired group's
    // clauses become vacuously satisfied, never contradicted.
    backend_.solver.add_unit(~groups_.at(name).guard);
    groups_.erase(name);
    ++retired_guards_;
  }
  for (const std::string& name : delta.added) {
    Group group;
    const sat::Var v = backend_.solver.new_var();
    backend_.solver.set_frozen(v);  // guards must survive inprocessing
    group.guard = sat::pos(v);
    group.formulas = delta.next.at(name);
    for (const ir::NodeId f : group.formulas) {
      backend_.blaster.assert_guarded(group.guard, f);
    }
    groups_.emplace(name, std::move(group));
  }
  out.groups_added = static_cast<int>(delta.added.size());
  out.groups_retired = static_cast<int>(delta.retired.size());
  out.groups_unchanged = delta.unchanged;
  out.clauses_added = backend_.solver.num_clauses() - clauses_before;
  guard_assumptions_.clear();
  guard_assumptions_.reserve(groups_.size());
  for (const auto& [name, group] : groups_) {
    guard_assumptions_.push_back(group.guard);
  }
  guards_res_.set(0, static_cast<std::int64_t>(groups_.size()));
  dead_guards_res_.set(0, retired_guards_);
  return true;
}

double Session::dead_guard_fraction() const {
  const double total =
      static_cast<double>(retired_guards_) + static_cast<double>(groups_.size());
  return total > 0.0 ? static_cast<double>(retired_guards_) / total : 0.0;
}

SessionResult Session::solve(const alloc::OptimizeOptions& options) {
  const Stopwatch clock;
  SessionResult out;
  if (!sync_encoding(out)) {
    out.status = SessionResult::Status::kError;
    out.stats.seconds = clock.seconds();
    return out;
  }

  // Warm start: capping the first SOLVE at the previous optimum decides
  // whether the edit kept or improved the cost (SAT: continue below C*)
  // or regressed it (UNSAT: the optimum moved up — search (C*, hi]).
  const ir::Range range = encoder_->cost_range();
  alloc::OptimizeOptions search = options;
  search.initial_upper.reset();
  if (prev_optimum_ && *prev_optimum_ >= range.lo &&
      *prev_optimum_ < range.hi) {
    search.initial_upper = prev_optimum_;
  }
  const Stopwatch search_clock;  // the budget's origin, as for the search
  static_cast<alloc::OptimizeResult&>(out) = alloc::optimize(
      problem_, objective_, search, {*encoder_, guard_assumptions_});
  if (out.has_allocation) prev_optimum_ = out.cost;
  if (out.status == SessionResult::Status::kInfeasible) {
    explain_infeasible(out, search.initial_upper.has_value(), options,
                       search_clock);
  }
  out.stats.seconds = clock.seconds();
  return out;
}

void Session::explain_infeasible(SessionResult& out, bool capped,
                                 const alloc::OptimizeOptions& options,
                                 const Stopwatch& clock) {
  CoreExplainer explainer(backend_.solver, groups_);
  std::vector<std::string> core =
      explainer.explain(backend_.solver.conflict_core());
  if (capped) {
    // The last UNSAT answer assumed a cost bound: re-solve with only the
    // group guards — the cost variable's own range makes this equivalent.
    // Should that stay inconclusive, only the whole instance is known to
    // conflict.
    ++out.stats.sat_calls;
    if (backend_.solver.solve(guard_assumptions_,
                              alloc::call_budget(options, clock.seconds())) ==
        sat::LBool::kFalse) {
      core = explainer.explain(backend_.solver.conflict_core());
    } else {
      core.clear();
      for (const auto& [name, group] : groups_) core.push_back(name);
    }
  }
  if (core.size() > 1) {
    // Each probe draws on what is left of the caller's budget, capped
    // at kCoreProbe; none starts once the budget is spent.
    core = explainer.minimize(
        std::move(core), [&]() -> std::optional<sat::Budget> {
          if (alloc::budget_spent(options, clock.seconds())) {
            return std::nullopt;
          }
          sat::Budget b = alloc::call_budget(options, clock.seconds());
          if (b.conflicts <= 0 || b.conflicts > kCoreProbe.conflicts) {
            b.conflicts = kCoreProbe.conflicts;
          }
          if (b.seconds <= 0.0 || b.seconds > kCoreProbe.seconds) {
            b.seconds = kCoreProbe.seconds;
          }
          return b;
        });
  }
  out.core = std::move(core);
}

SessionResult Session::revise(const InstancePatch& patch,
                              const alloc::OptimizeOptions& options) {
  // Validate against a copy: a rejected patch must leave the live
  // instance (and encoding) untouched.
  alloc::Problem edited = problem_;
  if (const auto error = apply_patch(patch, edited)) {
    SessionResult out;
    out.status = SessionResult::Status::kError;
    out.error = *error;
    return out;
  }
  encoder_.reset();  // encoder_ references problem_; drop before swap
  problem_ = std::move(edited);
  return solve(options);
}

bool Session::core_is_conflicting(std::span<const std::string> core) {
  if (core.empty()) return false;
  CoreExplainer explainer(backend_.solver, groups_);
  return explainer.is_conflicting(core);
}

}  // namespace optalloc::inc
