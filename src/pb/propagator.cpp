#include "pb/propagator.hpp"

#include <cassert>
#include <optional>
#include <string>

#include "obs/metrics.hpp"
#include "sat/proof.hpp"

namespace optalloc::pb {

PbPropagator::PbPropagator(sat::Solver& solver) : solver_(solver) {
  occs_.resize(static_cast<std::size_t>(solver.num_vars()) * 2);
  solver.attach_propagator(this);
}

void PbPropagator::on_new_var(sat::Var) {
  occs_.emplace_back();
  occs_.emplace_back();
}

void PbPropagator::explain(const Constraint& c, std::int64_t needed,
                           std::vector<sat::Lit>& out) const {
  // Greedy cover: false literals in descending coefficient order until
  // their combined weight alone already violates the constraint.
  std::int64_t acc = 0;
  for (const Term& t : c.terms) {
    if (acc >= needed) break;
    if (solver_.value(t.lit) == sat::LBool::kFalse) {
      out.push_back(t.lit);
      acc += t.coef;
    }
  }
  assert(acc >= needed && "explanation does not cover the violation");
}

bool PbPropagator::check(std::uint32_t id, std::vector<sat::Lit>& conflict) {
  Watched& w = constraints_[id];
  const std::int64_t total = w.total;
  if (w.slack < 0) {
    ++stats_.conflicts;
    conflict.clear();
    // Need sum(F) >= total - rhs + 1 so that F false alone violates c.
    explain(w.c, total - w.c.rhs + 1, conflict);
    return false;
  }
  // Terms are sorted by coefficient descending: once coef <= slack no
  // further term can be implied.
  for (const Term& t : w.c.terms) {
    if (t.coef <= w.slack) break;
    if (solver_.value(t.lit) != sat::LBool::kUndef) continue;
    scratch_.clear();
    scratch_.push_back(t.lit);
    explain(w.c, total - w.c.rhs - t.coef + 1, scratch_);
    [[maybe_unused]] const bool ok = solver_.theory_enqueue(t.lit, scratch_);
    assert(ok && "literal flipped during propagation");
    ++stats_.propagations;
  }
  return true;
}

bool PbPropagator::add(Constraint c) {
  assert(solver_.decision_level() == 0 &&
         "PB constraints must be added at the top level");
  // The paper's native 0-1 constraint path: count every translated
  // constraint, and time the translation when phase timing is on.
  static const obs::Metric n_constraints = obs::counter("pb.constraints");
  static const obs::Metric t_translate = obs::histogram("pb.time.translate");
  obs::add(n_constraints, 1);
  std::optional<obs::ScopedTimer> timer;
  if (obs::phase_timing()) timer.emplace(t_translate);
  if (!solver_.ok()) return false;
  if (c.trivially_true()) return true;
  // Register the PB axiom with the proof before deriving anything from it,
  // so every consequence below (and every reason/conflict clause emitted
  // during search) can be checked as a clausal weakening of a logged axiom.
  if (sat::ProofLog* proof = solver_.proof()) {
    std::vector<sat::ProofPbTerm> terms;
    terms.reserve(c.terms.size());
    for (const Term& t : c.terms) terms.push_back({t.coef, t.lit});
    proof->add_pb_ge(terms, c.rhs);
  }
  if (c.trivially_false()) {
    // Even the all-true assignment misses rhs: the empty clause is a
    // weakening of the axiom itself.
    solver_.add_theory_clause(std::span<const sat::Lit>{});
    return false;
  }
  // rhs == total forces every literal: emit units instead of a constraint.
  // (Also covers single-literal constraints.)
  if (c.total() == c.rhs) {
    for (const Term& t : c.terms) {
      if (!solver_.add_theory_clause({t.lit})) return false;
    }
    return true;
  }

  const auto id = static_cast<std::uint32_t>(constraints_.size());
  // The propagator holds literal references to these variables for the
  // solver's whole lifetime — inprocessing must never eliminate them.
  for (const Term& t : c.terms) solver_.set_frozen(t.lit.var());
  Watched w;
  w.c = std::move(c);
  w.total = w.c.total();
  // Initial slack under the current (top-level) assignment.
  w.slack = -w.c.rhs;
  for (const Term& t : w.c.terms) {
    if (solver_.value(t.lit) != sat::LBool::kFalse) w.slack += t.coef;
  }
  for (const Term& t : w.c.terms) {
    occs_[t.lit.index()].push_back(id);
  }
  constraints_.push_back(std::move(w));
  ++stats_.constraints;

  // Top-level consequences: violated -> UNSAT; implied literals -> units.
  // Both are expressed as clausal weakenings of the axiom (over the level-0
  // false literals), so the solver derives the unit / empty clause itself
  // and the proof checker can verify every step.
  const Watched& added = constraints_[id];
  if (added.slack < 0) {
    ++stats_.conflicts;
    scratch_.clear();
    explain(added.c, added.total - added.c.rhs + 1, scratch_);
    solver_.add_theory_clause(scratch_);
    return false;
  }
  for (const Term& t : added.c.terms) {
    if (t.coef <= constraints_[id].slack) break;
    if (solver_.value(t.lit) == sat::LBool::kUndef) {
      scratch_.clear();
      scratch_.push_back(t.lit);
      explain(constraints_[id].c,
              constraints_[id].total - constraints_[id].c.rhs - t.coef + 1,
              scratch_);
      if (!solver_.add_theory_clause(scratch_)) return false;
    }
  }
  return solver_.ok();
}

bool PbPropagator::on_assign(sat::Lit l, std::vector<sat::Lit>& conflict) {
  // Terms with literal ~l just became false.
  const auto& affected = occs_[(~l).index()];
  if (affected.empty()) return true;
  for (const std::uint32_t id : affected) {
    Watched& w = constraints_[id];
    for (const Term& t : w.c.terms) {
      if (t.lit == ~l) {
        w.slack -= t.coef;
        break;
      }
    }
  }
  for (const std::uint32_t id : affected) {
    if (!check(id, conflict)) return false;
  }
  return true;
}

bool PbPropagator::audit(std::vector<std::string>* out) const {
  bool ok = true;
  for (std::size_t id = 0; id < constraints_.size(); ++id) {
    const Watched& w = constraints_[id];
    if (w.total != w.c.total()) {
      ok = false;
      if (out) {
        out->push_back("constraint " + std::to_string(id) +
                       ": cached total disagrees with terms");
      }
    }
    std::int64_t slack = -w.c.rhs;
    for (const Term& t : w.c.terms) {
      if (solver_.value(t.lit) != sat::LBool::kFalse) slack += t.coef;
    }
    if (slack != w.slack) {
      ok = false;
      if (out) {
        out->push_back("constraint " + std::to_string(id) +
                       ": cached slack " + std::to_string(w.slack) +
                       " but recomputed " + std::to_string(slack));
      }
    }
  }
  return ok;
}

void PbPropagator::on_unassign(sat::Lit l) {
  for (const std::uint32_t id : occs_[(~l).index()]) {
    Watched& w = constraints_[id];
    for (const Term& t : w.c.terms) {
      if (t.lit == ~l) {
        w.slack += t.coef;
        break;
      }
    }
  }
}

}  // namespace optalloc::pb
