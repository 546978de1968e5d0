#include "sat/solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "sat/proof.hpp"
#include "util/luby.hpp"

namespace optalloc::sat {
namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Push one solve() call's worth of deltas into the global metrics
/// registry — once per call, so the search loop itself never touches
/// shared state.
void flush_solve_metrics(const SolverStats& before, const SolverStats& after) {
  static const obs::Metric solve_calls = obs::counter("sat.solve_calls");
  static const obs::Metric decisions = obs::counter("sat.decisions");
  static const obs::Metric propagations = obs::counter("sat.propagations");
  static const obs::Metric conflicts = obs::counter("sat.conflicts");
  static const obs::Metric restarts = obs::counter("sat.restarts");
  static const obs::Metric theory = obs::counter("sat.theory_propagations");
  static const obs::Metric gc_runs = obs::counter("sat.gc_runs");
  static const obs::Metric t_prop = obs::histogram("sat.time.propagate");
  static const obs::Metric t_analyze = obs::histogram("sat.time.analyze");
  static const obs::Metric t_reduce = obs::histogram("sat.time.reduce_db");
  static const obs::Metric t_inprocess = obs::histogram("sat.time.inprocess");
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<std::int64_t>(a - b);
  };
  obs::add(solve_calls, 1);
  obs::add(decisions, delta(after.decisions, before.decisions));
  obs::add(propagations, delta(after.propagations, before.propagations));
  obs::add(conflicts, delta(after.conflicts, before.conflicts));
  obs::add(restarts, delta(after.restarts, before.restarts));
  obs::add(theory,
           delta(after.theory_propagations, before.theory_propagations));
  obs::add(gc_runs, delta(after.gc_runs, before.gc_runs));
  if (after.propagate_seconds > before.propagate_seconds) {
    obs::observe(t_prop, after.propagate_seconds - before.propagate_seconds);
  }
  if (after.analyze_seconds > before.analyze_seconds) {
    obs::observe(t_analyze, after.analyze_seconds - before.analyze_seconds);
  }
  if (after.reduce_seconds > before.reduce_seconds) {
    obs::observe(t_reduce, after.reduce_seconds - before.reduce_seconds);
  }
  if (after.inprocess_seconds > before.inprocess_seconds) {
    obs::observe(t_inprocess,
                 after.inprocess_seconds - before.inprocess_seconds);
  }
}

/// Size a per-variable table to cover `n` variables, growing it
/// geometrically: variables keep arriving between proof-mode calls.
template <class T>
void cover(std::vector<T>& table, std::int32_t n, T fill) {
  const auto need = static_cast<std::size_t>(n);
  if (table.size() < need) {
    table.resize(std::max(need, 2 * table.size()), fill);
  }
}

}  // namespace

Solver::Solver() : order_(activity_) {}

Var Solver::new_var(bool decision) {
  const Var v = num_vars();
  assigns_.push_back(LBool::kUndef);
  vardata_.push_back({});
  level_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  activity_.push_back(0.0);
  polarity_.push_back(static_cast<char>(default_polarity));
  decision_.push_back(static_cast<char>(decision));
  seen_.push_back(0);
  lbd_seen_.push_back(0);
  frozen_.push_back(0);
  eliminated_.push_back(0);
  if (decision) order_.insert(v);
  for (Propagator* p : propagators_) p->on_new_var(v);
  return v;
}

std::uint64_t Solver::num_literals() const {
  std::uint64_t n = 0;
  for (const CRef cref : clauses_) n += arena_.deref(cref).size();
  return n;
}

bool Solver::add_clause(std::span<const Lit> lits) {
  return add_clause_impl(lits, /*theory=*/false);
}

bool Solver::add_theory_clause(std::span<const Lit> lits) {
  return add_clause_impl(lits, /*theory=*/true);
}

bool Solver::add_clause_impl(std::span<const Lit> lits, bool theory,
                             bool log_input, ProofId logged) {
  assert(decision_level() == 0);
  if (!ok_) return false;
  // A clause over an eliminated variable would silently invalidate that
  // elimination's model reconstruction, so the variable is restored
  // first (see restore_var). Restoration may itself cascade and can even
  // derive top-level UNSAT while re-propagating.
  for (const Lit l : lits) {
    if (is_eliminated(l.var())) restore_var(l.var());
  }
  if (!ok_) return false;
  // Log the clause as given. (Restored clauses skip this — they are still
  // live in the checker under `logged`.)
  ProofId id = logged;
  if (proof_ && log_input) {
    id = theory ? proof_->add_theory(lits) : proof_->add_input(lits);
  }

  // Normalize: sort, remove duplicates, drop level-0 false literals, and
  // detect tautologies / already-satisfied clauses.
  std::vector<Lit> cl(lits.begin(), lits.end());
  std::sort(cl.begin(), cl.end());
  Lit prev = kUndefLit;
  std::size_t j = 0;
  for (const Lit l : cl) {
    if (value(l) == LBool::kTrue || l == ~prev) return true;  // satisfied/taut
    if (value(l) != LBool::kFalse && l != prev) {
      cl[j++] = l;
      prev = l;
    }
  }
  cl.resize(j);
  stats_.added_literals += cl.size();

  // The stored clause must be a logged one: when normalization changed
  // it, derive it from the logged clause and the units it dropped.
  if (proof_ && (cl.empty() || cl.size() != lits.size())) {
    begin_hints();
    hint_false_units(lits);
    if (!(hint_clause(id) && finish_hints())) hints_.clear();
    id = proof_->add_lemma(cl, hints_);
  }
  if (cl.empty()) {
    ok_ = false;
    return false;
  }
  if (cl.size() == 1) {
    unchecked_enqueue(cl[0], kUndefClause);
    if (proof_) set_unit_id(cl[0].var(), id);
    const CRef confl = propagate();
    ok_ = confl == kUndefClause;
    if (!ok_ && proof_) log_level0_conflict(confl);
    return ok_;
  }
  const CRef cref = arena_.alloc(cl, /*learnt=*/false);
  if (proof_) set_clause_id(cref, id);
  clauses_.push_back(cref);
  attach_clause(cref);
  return true;
}

void Solver::attach_clause(CRef cref) {
  const Clause& c = arena_.deref(cref);
  assert(c.size() >= 2);
  watches_[(~c[0]).index()].push_back({cref, c[1]});
  watches_[(~c[1]).index()].push_back({cref, c[0]});
}

void Solver::detach_clause(CRef cref) {
  const Clause& c = arena_.deref(cref);
  auto strip = [&](Lit w) {
    auto& ws = watches_[(~w).index()];
    for (std::size_t i = 0; i < ws.size(); ++i) {
      if (ws[i].cref == cref) {
        ws[i] = ws.back();
        ws.pop_back();
        return;
      }
    }
    assert(false && "watcher not found");
  };
  strip(c[0]);
  strip(c[1]);
}

bool Solver::locked(CRef cref) const {
  const Clause& c = arena_.deref(cref);
  const Var v = c[0].var();
  return value(c[0]) == LBool::kTrue && vardata_[v].reason == cref;
}

void Solver::remove_clause(CRef cref, bool log_delete) {
  const Clause& c = arena_.deref(cref);
  // Theory reason clauses are ephemeral and never proof-logged as
  // deletions: keeping them in the checker DB is sound (RUP only gets
  // stronger) and they may still back an UNSAT core. Elimination-removed
  // clauses pass log_delete=false for the same reason: staying live in
  // the checker under their step IDs is what lets restore_var()
  // re-attach them without any proof traffic.
  if (proof_ && log_delete && !c.theory() && clause_id(cref) != kNoProofId) {
    proof_->add_delete(clause_id(cref));
  }
  detach_clause(cref);
  // A locked clause must stay alive as a reason; callers check locked().
  assert(!locked(cref));
  arena_.free_clause(cref);
}

void Solver::unchecked_enqueue(Lit l, CRef reason) {
  assert(value(l) == LBool::kUndef);
  const Var v = l.var();
  assigns_[v] = to_lbool(!l.sign());
  vardata_[v] = {reason, decision_level()};
  level_[v] = decision_level();
  trail_.push_back(l);
}

bool Solver::theory_enqueue(Lit l, std::span<const Lit> reason) {
  assert(!reason.empty() && reason[0] == l);
  if (value(l) == LBool::kTrue) return true;
  if (value(l) == LBool::kFalse) return false;
  const CRef cref =
      arena_.alloc(reason, /*learnt=*/true, /*theory=*/true);
  if (proof_) set_clause_id(cref, proof_->add_theory(reason));
  unchecked_enqueue(l, cref);
  ++stats_.theory_propagations;
  return true;
}

CRef Solver::propagate() {
  for (;;) {
    // Clause (two-watched-literal) propagation to fixpoint.
    while (qhead_ < trail_.size()) {
      const Lit p = trail_[qhead_++];
      ++stats_.propagations;
      auto& ws = watches_[p.index()];
      std::size_t i = 0, j = 0;
      const std::size_t n = ws.size();
      while (i < n) {
        const Watcher w = ws[i];
        if (value(w.blocker) == LBool::kTrue) {
          ws[j++] = ws[i++];
          continue;
        }
        Clause& c = arena_.deref(w.cref);
        // Make sure the false literal is c[1].
        const Lit false_lit = ~p;
        if (c[0] == false_lit) {
          c[0] = c[1];
          c[1] = false_lit;
        }
        ++i;
        const Lit first = c[0];
        if (first != w.blocker && value(first) == LBool::kTrue) {
          ws[j++] = {w.cref, first};
          continue;
        }
        // Look for a new literal to watch.
        bool found = false;
        for (std::uint32_t k = 2; k < c.size(); ++k) {
          if (value(c[k]) != LBool::kFalse) {
            c[1] = c[k];
            c[k] = false_lit;
            watches_[(~c[1]).index()].push_back({w.cref, first});
            found = true;
            break;
          }
        }
        if (found) continue;
        // Clause is unit or conflicting.
        ws[j++] = {w.cref, first};
        if (value(first) == LBool::kFalse) {
          // Conflict: copy remaining watchers and bail out.
          while (i < n) ws[j++] = ws[i++];
          ws.resize(j);
          qhead_ = trail_.size();
          return w.cref;
        }
        unchecked_enqueue(first, w.cref);
      }
      ws.resize(j);
    }

    // Theory propagation: feed newly assigned literals to the propagators.
    if (propagators_.empty() || theory_qhead_ >= trail_.size()) break;
    const Lit p = trail_[theory_qhead_++];
    for (Propagator* prop : propagators_) {
      theory_conflict_.clear();
      if (!prop->on_assign(p, theory_conflict_)) {
        assert(!theory_conflict_.empty());
        qhead_ = trail_.size();
        const CRef cref = arena_.alloc(theory_conflict_, /*learnt=*/true,
                                       /*theory=*/true);
        if (proof_) set_clause_id(cref, proof_->add_theory(theory_conflict_));
        return cref;
      }
    }
  }
  return kUndefClause;
}

void Solver::cancel_until(std::int32_t target_level) {
  if (decision_level() <= target_level) return;
  const std::size_t new_size =
      static_cast<std::size_t>(trail_lim_[target_level]);
  for (std::size_t c = trail_.size(); c-- > new_size;) {
    const Lit l = trail_[c];
    const Var v = l.var();
    if (c < theory_qhead_) {
      for (Propagator* p : propagators_) p->on_unassign(l);
    }
    assigns_[v] = LBool::kUndef;
    if (vardata_[v].reason != kUndefClause &&
        arena_.deref(vardata_[v].reason).theory()) {
      arena_.free_clause(vardata_[v].reason);
    }
    vardata_[v].reason = kUndefClause;
    if (phase_saving) polarity_[v] = static_cast<char>(l.sign());
    if (decision_[v]) order_.insert(v);
  }
  trail_.resize(new_size);
  trail_lim_.resize(target_level);
  qhead_ = new_size;
  theory_qhead_ = std::min(theory_qhead_, new_size);
}

void Solver::var_bump(Var v) {
  if ((activity_[v] += var_inc_) > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  order_.increased(v);
}

void Solver::cla_bump(Clause& c) {
  float a = c.activity() + static_cast<float>(cla_inc_);
  if (a > 1e20f) {
    for (const CRef cref : learnts_) {
      Clause& lc = arena_.deref(cref);
      lc.set_activity(lc.activity() * 1e-20f);
    }
    cla_inc_ *= 1e-20;
    a = c.activity() + static_cast<float>(cla_inc_);
  }
  c.set_activity(a);
}

std::uint32_t Solver::compute_lbd(std::span<const Lit> lits) {
  ++lbd_stamp_;
  std::uint32_t lbd = 0;
  for (const Lit l : lits) {
    const std::int32_t lev = level_[l.var()];
    if (lev > 0 && lbd_seen_[static_cast<std::size_t>(lev) %
                             lbd_seen_.size()] != lbd_stamp_) {
      lbd_seen_[static_cast<std::size_t>(lev) % lbd_seen_.size()] =
          lbd_stamp_;
      ++lbd;
    }
  }
  return lbd;
}

void Solver::analyze(CRef confl, std::vector<Lit>& out_learnt,
                     std::int32_t& out_btlevel, std::uint32_t& out_lbd) {
  int path_count = 0;
  Lit p = kUndefLit;
  out_learnt.clear();
  out_learnt.push_back(kUndefLit);  // placeholder for the asserting literal

  std::size_t index = trail_.size();
  do {
    assert(confl != kUndefClause);
    Clause& c = arena_.deref(confl);
    if (c.learnt() && !c.theory()) cla_bump(c);

    for (std::uint32_t j = (p == kUndefLit) ? 0 : 1; j < c.size(); ++j) {
      const Lit q = c[j];
      const Var v = q.var();
      if (!seen_[v] && level_[v] > 0) {
        var_bump(v);
        seen_[v] = 1;
        if (level_[v] >= decision_level()) {
          ++path_count;
        } else {
          out_learnt.push_back(q);
        }
      }
    }

    // Select next literal to resolve on.
    while (!seen_[trail_[index - 1].var()]) --index;
    --index;
    p = trail_[index];
    confl = vardata_[p.var()].reason;
    seen_[p.var()] = 0;
    --path_count;
  } while (path_count > 0);
  out_learnt[0] = ~p;

  // Conflict clause minimization (recursive, via abstraction levels).
  analyze_toclear_.assign(out_learnt.begin(), out_learnt.end());
  std::uint32_t abstract_levels = 0;
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    abstract_levels |= 1u << (level_[out_learnt[i].var()] & 31);
  }
  std::size_t j = 1;
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    const Var v = out_learnt[i].var();
    if (vardata_[v].reason == kUndefClause ||
        !lit_redundant(out_learnt[i], abstract_levels)) {
      out_learnt[j++] = out_learnt[i];
    }
  }
  stats_.minimized_literals += out_learnt.size() - j;
  out_learnt.resize(j);
  stats_.learnt_literals += out_learnt.size();

  // Find backtrack level: the maximum level among out_learnt[1..].
  if (out_learnt.size() == 1) {
    out_btlevel = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < out_learnt.size(); ++i) {
      if (level_[out_learnt[i].var()] > level_[out_learnt[max_i].var()]) {
        max_i = i;
      }
    }
    std::swap(out_learnt[1], out_learnt[max_i]);
    out_btlevel = level_[out_learnt[1].var()];
  }

  out_lbd = compute_lbd(out_learnt);
  for (const Lit l : analyze_toclear_) seen_[l.var()] = 0;
}

bool Solver::lit_redundant(Lit lit, std::uint32_t abstract_levels) {
  analyze_stack_.clear();
  analyze_stack_.push_back(lit);
  const std::size_t top = analyze_toclear_.size();
  while (!analyze_stack_.empty()) {
    const Lit q = analyze_stack_.back();
    analyze_stack_.pop_back();
    assert(vardata_[q.var()].reason != kUndefClause);
    const Clause& c = arena_.deref(vardata_[q.var()].reason);
    for (std::uint32_t j = 1; j < c.size(); ++j) {
      const Lit l = c[j];
      const Var v = l.var();
      if (seen_[v] || level_[v] == 0) continue;
      if (vardata_[v].reason != kUndefClause &&
          ((1u << (level_[v] & 31)) & abstract_levels)) {
        seen_[v] = 1;
        analyze_stack_.push_back(l);
        analyze_toclear_.push_back(l);
      } else {
        for (std::size_t k = top; k < analyze_toclear_.size(); ++k) {
          seen_[analyze_toclear_[k].var()] = 0;
        }
        analyze_toclear_.resize(top);
        return false;
      }
    }
  }
  return true;
}

void Solver::analyze_final(Lit p) {
  conflict_core_.clear();
  conflict_core_.push_back(p);
  if (decision_level() == 0) return;

  seen_[p.var()] = 1;
  for (std::size_t i = trail_.size();
       i-- > static_cast<std::size_t>(trail_lim_[0]);) {
    const Var v = trail_[i].var();
    if (!seen_[v]) continue;
    if (vardata_[v].reason == kUndefClause) {
      assert(level_[v] > 0);
      conflict_core_.push_back(~trail_[i]);
    } else {
      const Clause& c = arena_.deref(vardata_[v].reason);
      for (std::uint32_t j = 1; j < c.size(); ++j) {
        if (level_[c[j].var()] > 0) seen_[c[j].var()] = 1;
      }
    }
    seen_[v] = 0;
  }
  seen_[p.var()] = 0;
}

Lit Solver::pick_branch_lit() {
  while (!order_.empty()) {
    const Var v = order_.pop();
    if (assigns_[v] == LBool::kUndef && decision_[v]) {
      return Lit(v, polarity_[v] != 0);
    }
  }
  return kUndefLit;
}

void Solver::reduce_db() {
  // Sort learnt clauses by (LBD descending, activity ascending) so the
  // weakest half is removed first; keep binary/glue clauses and reasons.
  std::sort(learnts_.begin(), learnts_.end(), [&](CRef a, CRef b) {
    const Clause& ca = arena_.deref(a);
    const Clause& cb = arena_.deref(b);
    if (ca.lbd() != cb.lbd()) return ca.lbd() > cb.lbd();
    return ca.activity() < cb.activity();
  });
  const std::size_t half = learnts_.size() / 2;
  std::size_t j = 0;
  for (std::size_t i = 0; i < learnts_.size(); ++i) {
    const CRef cref = learnts_[i];
    const Clause& c = arena_.deref(cref);
    if (i < half && c.size() > 2 && c.lbd() > 2 && !locked(cref)) {
      remove_clause(cref);
      ++stats_.removed_clauses;
    } else {
      learnts_[j++] = cref;
    }
  }
  learnts_.resize(j);
  if (arena_.wasted() * 2 > arena_.size()) garbage_collect();
}

void Solver::reloc_all(ClauseArena& to) {
  for (auto& ws : watches_) {
    for (Watcher& w : ws) w.cref = arena_.reloc(w.cref, to);
  }
  for (const Lit l : trail_) {
    CRef& r = vardata_[l.var()].reason;
    if (r != kUndefClause) r = arena_.reloc(r, to);
  }
  for (CRef& c : clauses_) c = arena_.reloc(c, to);
  for (CRef& c : learnts_) c = arena_.reloc(c, to);
}

void Solver::garbage_collect() {
  const std::size_t before = arena_.size();
  ClauseArena to;
  to.reserve(arena_.size() - arena_.wasted());  // the live words
  // Proof mode: every clause that survives is in clauses_, learnts_ or a
  // trail reason; note their old references to carry their step IDs over.
  std::vector<CRef> survivors;
  if (proof_) {
    survivors.insert(survivors.end(), clauses_.begin(), clauses_.end());
    survivors.insert(survivors.end(), learnts_.begin(), learnts_.end());
    for (const Lit l : trail_) {
      const CRef r = vardata_[l.var()].reason;
      if (r != kUndefClause) survivors.push_back(r);
    }
  }
  reloc_all(to);
  if (proof_) {
    std::vector<ProofId> ids((to.size() >> 2) + 1, kNoProofId);
    for (const CRef r : survivors) {
      ids[arena_.deref(r).relocation() >> 2] = clause_id(r);
    }
    clause_id_ = std::move(ids);
  }
  arena_.swap(to);
  ++stats_.gc_runs;
  sync_capacity_gauges();
  if (obs::trace_enabled()) {
    obs::Event(obs::ev::solver_gc)
        .num("gc_runs", stats_.gc_runs)
        .num("arena_before", static_cast<std::int64_t>(before))
        .num("arena_after", static_cast<std::int64_t>(arena_.size()));
  }
}

bool Solver::simplify() {
  assert(decision_level() == 0);
  if (!ok_) return false;
  if (const CRef confl = propagate(); confl != kUndefClause) {
    if (proof_) log_level0_conflict(confl);
    ok_ = false;
    return false;
  }
  auto sweep = [&](std::vector<CRef>& list) {
    std::size_t j = 0;
    for (const CRef cref : list) {
      const Clause& c = arena_.deref(cref);
      bool satisfied = false;
      for (const Lit l : c.lits()) {
        if (value(l) == LBool::kTrue) {
          satisfied = true;
          break;
        }
      }
      if (satisfied && !locked(cref)) {
        remove_clause(cref);
      } else {
        list[j++] = cref;
      }
    }
    list.resize(j);
  };
  sweep(clauses_);
  sweep(learnts_);
  if (arena_.wasted() * 2 > arena_.size()) garbage_collect();
  return true;
}

bool Solver::budget_exhausted() const {
  if (stop_ != nullptr && stop_->load(std::memory_order_relaxed)) {
    return true;
  }
  if (conflict_budget_ >= 0 &&
      static_cast<std::int64_t>(stats_.conflicts) >= conflict_budget_) {
    return true;
  }
  return deadline_ != 0.0 && now_seconds() >= deadline_;
}

LBool Solver::search(std::int64_t conflicts_before_restart) {
  std::int64_t conflict_count = 0;
  std::vector<Lit> learnt_clause;
  // Sampled once per restart: one relaxed load, no clock reads when off.
  const bool timed = obs::phase_timing();

  for (;;) {
    CRef confl;
    if (timed) {
      const std::uint64_t t0 = obs::monotonic_ns();
      confl = propagate();
      stats_.propagate_seconds +=
          static_cast<double>(obs::monotonic_ns() - t0) * 1e-9;
    } else {
      confl = propagate();
    }
    if (confl != kUndefClause) {
      ++stats_.conflicts;
      ++conflict_count;
      if (audit_period > 0 &&
          stats_.conflicts % static_cast<std::uint64_t>(audit_period) == 0) {
        std::vector<std::string> violations;
        if (!audit(&violations)) {
          throw std::logic_error("solver invariant violated: " +
                                 violations.front());
        }
      }
      if (decision_level() == 0) {
        // Top-level conflict: the formula itself is unsatisfiable.
        if (proof_) log_level0_conflict(confl);
        ok_ = false;
        conflict_core_.clear();
        return LBool::kFalse;
      }

      std::int32_t backtrack_level = 0;
      std::uint32_t lbd = 0;
      if (timed) {
        const std::uint64_t t0 = obs::monotonic_ns();
        analyze(confl, learnt_clause, backtrack_level, lbd);
        stats_.analyze_seconds +=
            static_cast<double>(obs::monotonic_ns() - t0) * 1e-9;
      } else {
        analyze(confl, learnt_clause, backtrack_level, lbd);
      }
      lbd_window_sum_ += lbd;
      ++lbd_window_count_;
      if (sample_interval > 0 &&
          stats_.conflicts % static_cast<std::uint64_t>(sample_interval) ==
              0) {
        emit_search_sample(/*final_sample=*/false);
      }
      // The hint chain reads the implication graph: collect it before
      // backtracking dismantles it.
      if (proof_ && !chain_hints(learnt_clause, confl)) hints_.clear();
      if (arena_.deref(confl).theory()) arena_.free_clause(confl);
      cancel_until(backtrack_level);

      ++learnt_count_;
      if (test_corrupt_learnt != 0 && learnt_count_ == test_corrupt_learnt &&
          learnt_clause.size() >= 3) {
        // Fault injection: drop a literal so the clause (and its proof
        // line) is no longer implied — the checker must catch this.
        learnt_clause.pop_back();
      }
      const ProofId id =
          proof_ ? proof_->add_lemma(learnt_clause, hints_) : kNoProofId;
      if (learnt_clause.size() == 1) {
        unchecked_enqueue(learnt_clause[0], kUndefClause);
        if (proof_) set_unit_id(learnt_clause[0].var(), id);
      } else {
        const CRef cref = arena_.alloc(learnt_clause, /*learnt=*/true);
        if (proof_) set_clause_id(cref, id);
        Clause& c = arena_.deref(cref);
        c.set_lbd(lbd);
        learnts_.push_back(cref);
        attach_clause(cref);
        cla_bump(c);
        unchecked_enqueue(learnt_clause[0], cref);
      }
      var_decay_all();
      cla_decay_all();
      if (--learntsize_adjust_cnt_ == 0) {
        learntsize_adjust_confl_ *= 1.5;
        learntsize_adjust_cnt_ =
            static_cast<int>(learntsize_adjust_confl_);
        max_learnts_ *= 1.1;
      }
    } else {
      if (conflict_count >= conflicts_before_restart || budget_exhausted()) {
        ++stats_.restarts;
        if (obs::trace_enabled() &&
            conflict_count >= conflicts_before_restart) {
          obs::Event(obs::ev::solver_restart)
              .num("restarts", stats_.restarts)
              .num("conflicts", stats_.conflicts)
              .num("learnts", num_learnts());
        }
        cancel_until(0);
        return LBool::kUndef;
      }
      if (static_cast<double>(learnts_.size()) -
              static_cast<double>(trail_.size()) >=
          max_learnts_) {
        if (timed) {
          const std::uint64_t t0 = obs::monotonic_ns();
          reduce_db();
          stats_.reduce_seconds +=
              static_cast<double>(obs::monotonic_ns() - t0) * 1e-9;
        } else {
          reduce_db();
        }
      }

      Lit next = kUndefLit;
      while (decision_level() <
             static_cast<std::int32_t>(assumptions_.size())) {
        const Lit p = assumptions_[decision_level()];
        if (value(p) == LBool::kTrue) {
          // Already satisfied; open a dummy decision level.
          trail_lim_.push_back(static_cast<std::int32_t>(trail_.size()));
        } else if (value(p) == LBool::kFalse) {
          analyze_final(~p);
          // The conflict core (negated assumptions) follows from the reason
          // clauses that implied ~p; its chain ends at ~p's reason (or at
          // the unit of ~p when that is a level-0 literal).
          if (proof_) {
            const Var v = p.var();
            const CRef r = vardata_[v].reason;
            bool hinted = false;
            if (level_[v] == 0) {
              begin_hints();
              hint_units_.push_back(v);
              hinted = finish_hints();
            } else if (r != kUndefClause) {
              hinted = chain_hints(conflict_core_, r);
            }
            if (!hinted) hints_.clear();
            proof_->add_lemma(conflict_core_, hints_);
          }
          return LBool::kFalse;
        } else {
          next = p;
          break;
        }
      }
      if (next == kUndefLit) {
        ++stats_.decisions;
        next = pick_branch_lit();
        if (next == kUndefLit) return LBool::kTrue;  // all vars assigned
      }
      trail_lim_.push_back(static_cast<std::int32_t>(trail_.size()));
      unchecked_enqueue(next, kUndefClause);
    }
  }
}

void Solver::emit_search_sample(bool final_sample) {
  const std::uint64_t now = obs::monotonic_ns();
  const double dt = now > sample_last_ns_
                        ? static_cast<double>(now - sample_last_ns_) * 1e-9
                        : 0.0;
  const std::uint64_t dprops = stats_.propagations - sample_last_props_;
  const std::uint64_t dconf = stats_.conflicts - sample_last_conflicts_;
  const double props_per_sec =
      dt > 0.0 ? static_cast<double>(dprops) / dt : 0.0;
  const double conflicts_per_sec =
      dt > 0.0 ? static_cast<double>(dconf) / dt : 0.0;
  const double lbd_mean =
      lbd_window_count_ > 0
          ? static_cast<double>(lbd_window_sum_) /
                static_cast<double>(lbd_window_count_)
          : 0.0;
  const std::int64_t trail = static_cast<std::int64_t>(trail_.size());
  const std::int64_t learnts = num_learnts();

  obs::Event(obs::ev::search_sample)
      .num("conflicts", stats_.conflicts)
      .num("propagations", stats_.propagations)
      .num("decisions", stats_.decisions)
      .num("restarts", stats_.restarts)
      .num("trail", trail)
      .num("learnts", learnts)
      .num("props_per_sec", props_per_sec)
      .num("conflicts_per_sec", conflicts_per_sec)
      .num("lbd_mean", lbd_mean)
      .boolean("final", final_sample);
  // Live gauges behind the service's `metrics` verb: last-writer-wins
  // across concurrent solvers, which is the intended "what is the search
  // doing right now" semantics.
  static const obs::Metric g_samples = obs::counter("sat.search_samples");
  static const obs::Metric g_trail = obs::gauge("sat.live.trail_depth");
  static const obs::Metric g_learnts = obs::gauge("sat.live.learnt_db");
  static const obs::Metric g_pps = obs::gauge("sat.live.props_per_sec");
  static const obs::Metric g_lbd = obs::gauge("sat.live.lbd_mean_x1000");
  obs::add(g_samples);
  obs::set(g_trail, trail);
  obs::set(g_learnts, learnts);
  obs::set(g_pps, static_cast<std::int64_t>(props_per_sec));
  obs::set(g_lbd, static_cast<std::int64_t>(lbd_mean * 1000.0));

  sample_last_ns_ = now;
  sample_last_props_ = stats_.propagations;
  sample_last_conflicts_ = stats_.conflicts;
  lbd_window_sum_ = 0;
  lbd_window_count_ = 0;
}

LBool Solver::solve(std::span<const Lit> assumptions, Budget budget) {
  model_.clear();
  conflict_core_.clear();
  if (!ok_) return LBool::kFalse;
  const SolverStats stats_before = stats_;
  sample_last_ns_ = obs::monotonic_ns();
  sample_last_props_ = stats_.propagations;
  sample_last_conflicts_ = stats_.conflicts;
  lbd_window_sum_ = 0;
  lbd_window_count_ = 0;

  assumptions_.assign(assumptions.begin(), assumptions.end());
  for (const Lit a : assumptions_) {
    // An assumption over an eliminated variable restores it (restore_var
    // also freezes); restoration can expose top-level UNSAT, which the
    // search loop below reports through maybe_inprocess()'s ok_ check.
    if (is_eliminated(a.var())) restore_var(a.var());
    // Assumed once -> may be assumed again; never eliminable from here on.
    frozen_[a.var()] = 1;
  }
  conflict_budget_ =
      budget.conflicts > 0
          ? static_cast<std::int64_t>(stats_.conflicts) + budget.conflicts
          : -1;
  deadline_ = budget.seconds > 0.0 ? now_seconds() + budget.seconds : 0.0;
  stop_ = budget.stop;

  if (max_learnts_ <= 0.0) {
    max_learnts_ =
        std::max(1000.0, static_cast<double>(clauses_.size()) *
                             learnt_size_factor);
  }

  LBool status = LBool::kUndef;
  for (std::uint64_t restart = 0; status == LBool::kUndef; ++restart) {
    // Inprocess when the conflict schedule says so (the first iteration of
    // the first solve acts as a preprocessing pass). A pass may derive
    // top-level UNSAT, which holds regardless of the assumptions.
    if (!maybe_inprocess()) {
      conflict_core_.clear();
      status = LBool::kFalse;
      break;
    }
    status = search(static_cast<std::int64_t>(luby(restart)) * restart_base);
    if (status == LBool::kUndef && budget_exhausted()) break;
  }

  // Final trajectory sample (pre-backtrack, so the trail depth is the
  // search's, not the reset state's): an interrupted solve always leaves
  // its last search_sample in the flight ring for the post-mortem.
  if (sample_interval > 0 && stats_.conflicts > sample_last_conflicts_) {
    emit_search_sample(/*final_sample=*/true);
  }
  if (status == LBool::kTrue) {
    model_ = assigns_;
    extend_model();
  }
  cancel_until(0);
  assumptions_.clear();
  flush_solve_metrics(stats_before, stats_);
  sync_capacity_gauges();
  return status;
}

// --- Proof hints ------------------------------------------------------------
//
// A hint chain lists, in unit-propagation order, the clauses that derive a
// lemma: under the lemma's negation each hint but the last becomes unit
// and the last is falsified (see sat/proof.hpp). Level-0 literals enter a
// chain through unit clauses of their own. None of this runs, or holds
// memory, while no proof log is attached.

void Solver::set_clause_id(CRef cref, ProofId id) {
  const std::size_t slot = cref >> 2;
  // Grown geometrically, not once per clause.
  if (clause_id_.size() <= slot) {
    clause_id_.resize(std::max(slot + 1, 2 * clause_id_.size()), kNoProofId);
  }
  clause_id_[slot] = id;
}

void Solver::set_unit_id(Var v, ProofId id) {
  cover(unit_id_, num_vars(), kNoProofId);
  unit_id_[static_cast<std::size_t>(v)] = id;
}

ProofId Solver::unit_id(Var v) {
  cover(unit_id_, num_vars(), kNoProofId);
  // Derive units along the level-0 trail prefix, in trail order, until v
  // has one: a reason's other literals precede its implied literal, so
  // their units already exist when it is derived. Reasons of level-0
  // literals are locked and never deleted, so each is live here.
  const std::size_t level0_end =
      trail_lim_.empty() ? trail_.size()
                         : static_cast<std::size_t>(trail_lim_[0]);
  while (unit_id_[static_cast<std::size_t>(v)] == kNoProofId &&
         units_derived_ < level0_end) {
    const Lit t = trail_[units_derived_++];
    const auto tv = static_cast<std::size_t>(t.var());
    if (unit_id_[tv] != kNoProofId) continue;
    const CRef r = vardata_[tv].reason;
    const ProofId rid = r == kUndefClause ? kNoProofId : clause_id(r);
    if (rid == kNoProofId) continue;
    const std::uint32_t stamp = next_stamp(unit_mark_, unit_stamp_, 1);
    unit_hints_.clear();
    bool complete = true;
    for (const Lit q : arena_.deref(r).lits()) {
      const auto qv = static_cast<std::size_t>(q.var());
      if (qv == tv || unit_mark_[qv] == stamp) continue;
      unit_mark_[qv] = stamp;
      if (unit_id_[qv] == kNoProofId) {
        complete = false;
        break;
      }
      unit_hints_.push_back(unit_id_[qv]);
    }
    if (!complete) continue;
    unit_hints_.push_back(rid);
    unit_id_[tv] = proof_->add_lemma(std::span<const Lit>(&t, 1), unit_hints_);
  }
  return unit_id_[static_cast<std::size_t>(v)];
}

std::uint32_t Solver::next_stamp(std::vector<std::uint32_t>& marks,
                                 std::uint32_t& stamp, std::uint32_t step) {
  cover(marks, num_vars(), 0u);
  if (stamp > 0xFFFFFFFFu - step) {
    std::fill(marks.begin(), marks.end(), 0);
    stamp = 0;
  }
  stamp += step;
  return stamp;
}

// A chain is collected in two parts: level-0 variables (deduplicated) and
// clause IDs. finish_hints() then looks up the units — which may log lazily
// derived unit lemmas, all before the lemma the chain is for — and puts
// them first. Each helper returns false when a needed ID is unknown; the
// caller then logs the lemma without hints, for the checker's RUP path.
void Solver::begin_hints() {
  hints_.clear();
  hint_units_.clear();
  hint_clauses_.clear();
  next_stamp(hint_mark_, hint_stamp_, 2);
}

void Solver::hint_false_units(std::span<const Lit> lits) {
  for (const Lit l : lits) {
    const auto v = static_cast<std::size_t>(l.var());
    if (value(l) != LBool::kFalse || level_[v] != 0 ||
        hint_mark_[v] == hint_stamp_) {
      continue;
    }
    hint_mark_[v] = hint_stamp_;
    hint_units_.push_back(l.var());
  }
}

bool Solver::hint_clause(ProofId id) {
  if (id == kNoProofId) return false;
  hint_clauses_.push_back(id);
  return true;
}

bool Solver::finish_hints() {
  for (const Var v : hint_units_) {
    const ProofId id = unit_id(v);
    if (id == kNoProofId) return false;
    hints_.push_back(id);
  }
  hints_.insert(hints_.end(), hint_clauses_.begin(), hint_clauses_.end());
  return true;
}

bool Solver::chain_hints(std::span<const Lit> lemma, CRef confl) {
  begin_hints();
  const std::uint32_t visited = hint_stamp_;
  const std::uint32_t in_lemma = hint_stamp_ - 1;
  for (const Lit l : lemma) {
    hint_mark_[static_cast<std::size_t>(l.var())] = in_lemma;
  }
  // Depth-first over the implication graph from the conflict: every
  // literal the lemma does not contain needs its reason (level > 0) or
  // its unit (level 0). Each reason is emitted after the reasons of all
  // its antecedents (post-order), so each becomes unit in turn. The graph
  // is acyclic — antecedents precede on the trail — so no ancestor on the
  // stack is ever met again.
  auto enter = [&](Lit q) {
    const auto v = static_cast<std::size_t>(q.var());
    if (hint_mark_[v] == visited || hint_mark_[v] == in_lemma) return false;
    hint_mark_[v] = visited;
    if (level_[v] != 0) return true;
    hint_units_.push_back(q.var());
    return false;
  };
  // The bottom frame (kUndefVar) walks the conflict clause itself; its
  // literals are entered one at a time, so a literal that is another's
  // antecedent is never marked before its subtree is emitted.
  hint_stack_.assign(1, {kUndefVar, 0});
  while (!hint_stack_.empty()) {
    const Var v = hint_stack_.back().first;
    const CRef r =
        v == kUndefVar ? confl : vardata_[static_cast<std::size_t>(v)].reason;
    // A decision the lemma does not contain: no chain exists.
    if (r == kUndefClause) return false;
    const Clause& c = arena_.deref(r);
    std::uint32_t& next = hint_stack_.back().second;
    if (next < c.size()) {
      const Lit q = c[next++];
      if (q.var() != v && enter(q)) hint_stack_.push_back({q.var(), 0});
      continue;
    }
    hint_stack_.pop_back();
    if (!hint_clause(clause_id(r))) return false;
  }
  return finish_hints();
}

void Solver::log_level0_conflict(CRef confl) {
  if (!chain_hints({}, confl)) hints_.clear();
  proof_->add_lemma({}, hints_);
}

void Solver::sync_capacity_gauges() {
  // Arena sizes are in 32-bit words (clause.hpp); report bytes. Learnts
  // are split out of the stored-clause count so the dashboard can show
  // DB growth against the reduce-DB schedule.
  arena_bytes_.set(static_cast<std::int64_t>(arena_.size()) * 4);
  arena_clauses_.set(num_clauses() + num_learnts());
  wasted_bytes_.set(static_cast<std::int64_t>(arena_.wasted()) * 4);
  learnt_clauses_.set(num_learnts());
}

}  // namespace optalloc::sat
