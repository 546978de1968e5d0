#include "sat/inprocess.hpp"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sat/proof.hpp"
#include "sat/solver.hpp"

namespace optalloc::sat {

Inprocessor::Inprocessor(Solver& s, InprocessLimits limits)
    : s_(s), limits_(limits) {}

bool Inprocessor::run() {
  assert(s_.decision_level() == 0);
  const std::uint64_t t0 = obs::monotonic_ns();
  // Propagate pending units and shed satisfied clauses first, so the
  // occurrence lists are built over the surviving database only.
  if (!s_.simplify()) return false;
  const std::size_t wasted_before = s_.arena_.wasted();
  build_occurrences();
  bool alive = backward_subsume();
  if (alive) alive = vivify();
  if (alive) alive = eliminate_variables();
  // Freed words accrued by the pass itself (subsumed clauses, dropped
  // literals, deleted occurrence sides), measured before the finalizer's
  // compaction resets the arena's waste counter.
  const std::size_t words_freed = s_.arena_.wasted() - wasted_before;
  // Rebuild clauses_/learnts_ even on UNSAT or an aborted budget so the
  // lists never reference freed clauses (the invariant auditor and any
  // later GC walk them).
  finalize();
  emit_telemetry(static_cast<double>(obs::monotonic_ns() - t0) * 1e-9,
                 words_freed);
  return alive && s_.ok_;
}

std::uint64_t Inprocessor::signature(const Clause& c) const {
  std::uint64_t sig = 0;
  for (const Lit l : c.lits()) {
    sig |= std::uint64_t{1} << (static_cast<std::uint32_t>(l.var()) & 63u);
  }
  return sig;
}

bool Inprocessor::clause_satisfied(const Clause& c) const {
  for (const Lit l : c.lits()) {
    if (s_.value(l) == LBool::kTrue) return true;
  }
  return false;
}

bool Inprocessor::abort_requested() const { return s_.budget_exhausted(); }

void Inprocessor::build_occurrences() {
  const std::size_t nvars = static_cast<std::size_t>(s_.num_vars());
  occ_.assign(nvars, {});
  lit_stamp_.assign(2 * nvars, 0);
  stamp_ = 0;
  infos_.clear();
  kept_clauses_.clear();
  kept_learnts_.clear();
  auto scan = [&](const std::vector<CRef>& list, bool learnt) {
    for (const CRef cref : list) {
      const Clause& c = s_.arena_.deref(cref);
      // Satisfied clauses left by simplify() are locked reasons; theory
      // reasons are ephemeral. Both sit out the pass untouched.
      if (c.theory() || clause_satisfied(c)) {
        (learnt ? kept_learnts_ : kept_clauses_).push_back(cref);
        continue;
      }
      register_clause(cref, learnt);
    }
  };
  scan(s_.clauses_, /*learnt=*/false);
  scan(s_.learnts_, /*learnt=*/true);
}

void Inprocessor::register_clause(CRef cref, bool learnt) {
  const Clause& c = s_.arena_.deref(cref);
  const auto idx = static_cast<std::uint32_t>(infos_.size());
  infos_.push_back({cref, signature(c), c.size(), learnt, true, false});
  for (const Lit l : c.lits()) {
    occ_[static_cast<std::size_t>(l.var())].push_back(idx);
  }
}

bool Inprocessor::remove_info(std::uint32_t idx, bool log_delete) {
  ClsInfo& info = infos_[idx];
  if (!info.alive) return true;
  if (s_.locked(info.cref)) return true;  // reasons must stay alive
  info.alive = false;
  s_.remove_clause(info.cref, log_delete);  // detaches, frees
  return true;
}

// Rewrite the clause behind `idx` to `new_lits` (a strict subset of its
// literals), logging the strengthened clause as a lemma *before* the
// deletion of its ancestor so the checker's live window always contains
// the clauses the lemma follows from. Returns false iff the rewrite
// collapsed to a top-level conflict.
bool Inprocessor::strengthen(std::uint32_t idx, Lit drop, std::uint32_t sub) {
  ClsInfo& info = infos_[idx];
  const CRef cref = info.cref;
  const Clause& c = s_.arena_.deref(cref);
  std::vector<Lit> old_lits(c.lits().begin(), c.lits().end());
  std::vector<Lit> new_lits;
  for (const Lit l : old_lits) {
    if (l == drop) continue;
    if (s_.value(l) == LBool::kTrue) return true;  // became satisfied: skip
    if (s_.value(l) == LBool::kFalse) continue;    // shed level-0 falses too
    new_lits.push_back(l);
  }
  if (s_.proof_) {
    // Hints: the units of the level-0 literals both clauses lose, then the
    // subsumer C (unit on ~drop), then D itself (falsified). When drop is
    // already false at level 0, its unit replaces C.
    const CRef sub_cref = infos_[sub].cref;
    const bool via_sub = s_.value(drop) != LBool::kFalse;
    s_.begin_hints();
    s_.hint_false_units(old_lits);
    if (via_sub) s_.hint_false_units(s_.arena_.deref(sub_cref).lits());
    if (!((!via_sub || s_.hint_clause(s_.clause_id(sub_cref))) &&
          s_.hint_clause(s_.clause_id(cref)) && s_.finish_hints())) {
      s_.hints_.clear();
    }
  }
  return apply_rewrite(idx, new_lits, /*detached=*/false, /*requeue=*/true,
                       s_.hints_);
}

bool Inprocessor::apply_rewrite(std::uint32_t idx,
                                const std::vector<Lit>& new_lits,
                                bool detached, bool requeue,
                                std::span<const ProofId> hints) {
  ClsInfo& info = infos_[idx];
  const CRef cref = info.cref;
  ProofId id = kNoProofId;
  if (s_.proof_) {
    id = s_.proof_->add_lemma(new_lits, hints);
    if (s_.clause_id(cref) != kNoProofId) {
      s_.proof_->add_delete(s_.clause_id(cref));
    }
  }
  if (!detached) s_.detach_clause(cref);
  ++strengthened_;

  if (new_lits.empty()) {
    // Every literal fell away: top-level conflict (the lemma just logged
    // is the empty clause).
    info.alive = false;
    s_.arena_.free_clause(cref);
    s_.ok_ = false;
    return false;
  }
  if (new_lits.size() == 1) {
    // The clause became a unit; it lives on the trail from here.
    info.alive = false;
    s_.arena_.free_clause(cref);
    assert(s_.value(new_lits[0]) == LBool::kUndef);
    s_.unchecked_enqueue(new_lits[0], kUndefClause);
    if (s_.proof_) s_.set_unit_id(new_lits[0].var(), id);
    if (const CRef confl = s_.propagate(); confl != kUndefClause) {
      if (s_.proof_) s_.log_level0_conflict(confl);
      s_.ok_ = false;
      return false;
    }
    return true;
  }

  Clause& c = s_.arena_.deref(cref);
  for (std::size_t i = 0; i < new_lits.size(); ++i) c[static_cast<std::uint32_t>(i)] = new_lits[i];
  s_.arena_.shrink_clause(cref, static_cast<std::uint32_t>(new_lits.size()));
  if (s_.proof_) s_.set_clause_id(cref, id);
  c.set_lbd(std::min<std::uint32_t>(
      c.lbd(), static_cast<std::uint32_t>(new_lits.size())));
  s_.attach_clause(cref);  // surviving literals are all unassigned
  info.size = static_cast<std::uint32_t>(new_lits.size());
  info.sig = signature(c);
  if (requeue && !info.learnt && !info.in_queue &&
      info.size <= limits_.subsume_clause_max) {
    info.in_queue = true;
    subsume_queue_.push_back(idx);
  }
  return true;
}

bool Inprocessor::try_subsume(std::uint32_t didx, std::uint32_t sidx,
                              std::uint32_t sub_size) {
  const ClsInfo& dinfo = infos_[didx];
  if (s_.locked(dinfo.cref)) return true;
  const Clause& d = s_.arena_.deref(dinfo.cref);
  if (clause_satisfied(d)) return true;
  // The subsumer C is stamped: count D's literals matching C exactly and
  // matching negated. Literal-distinctness makes the counts exact.
  std::uint32_t exact = 0;
  std::uint32_t flipped = 0;
  Lit flip_lit = kUndefLit;
  for (const Lit l : d.lits()) {
    if (lit_stamp_[static_cast<std::size_t>(l.index())] == stamp_) {
      ++exact;
    } else if (lit_stamp_[static_cast<std::size_t>((~l).index())] == stamp_) {
      ++flipped;
      flip_lit = l;
    }
  }
  if (exact == sub_size) {
    // C ⊆ D: D is redundant.
    ++subsumed_;
    return remove_info(didx);
  }
  if (exact + 1 == sub_size && flipped == 1) {
    // Self-subsuming resolution: C ⊗ D on flip_lit's variable yields
    // D \ {flip_lit} — strengthen D in place.
    return strengthen(didx, flip_lit, sidx);
  }
  return true;
}

bool Inprocessor::backward_subsume() {
  subsume_queue_.clear();
  for (std::uint32_t i = 0; i < infos_.size(); ++i) {
    if (!infos_[i].learnt && infos_[i].size <= limits_.subsume_clause_max) {
      infos_[i].in_queue = true;
      subsume_queue_.push_back(i);
    }
  }
  for (std::size_t qi = 0; qi < subsume_queue_.size(); ++qi) {
    if ((qi & 63u) == 0 && abort_requested()) return true;
    const std::uint32_t idx = subsume_queue_[qi];
    infos_[idx].in_queue = false;
    if (!infos_[idx].alive) continue;
    const Clause& c = s_.arena_.deref(infos_[idx].cref);
    if (clause_satisfied(c)) continue;
    // Candidates are every clause containing C's least-occupied variable.
    Var best = c[0].var();
    for (const Lit l : c.lits()) {
      if (occ_[static_cast<std::size_t>(l.var())].size() <
          occ_[static_cast<std::size_t>(best)].size()) {
        best = l.var();
      }
    }
    ++stamp_;
    for (const Lit l : c.lits()) {
      lit_stamp_[static_cast<std::size_t>(l.index())] = stamp_;
    }
    const std::uint32_t csize = infos_[idx].size;
    const std::uint64_t csig = infos_[idx].sig;
    auto& olist = occ_[static_cast<std::size_t>(best)];
    std::size_t w = 0;
    bool early_out = false;
    for (std::size_t oi = 0; oi < olist.size(); ++oi) {
      const std::uint32_t didx = olist[oi];
      if (!infos_[didx].alive) continue;  // compact dead entries away
      const Clause& d = s_.arena_.deref(infos_[didx].cref);
      bool has_best = false;
      for (const Lit l : d.lits()) {
        if (l.var() == best) {
          has_best = true;
          break;
        }
      }
      if (!has_best) continue;  // stale after strengthening
      olist[w++] = didx;
      if (didx == idx) continue;
      if (infos_[didx].size < csize) continue;
      if ((csig & ~infos_[didx].sig) != 0) continue;  // signature pre-filter
      if (!try_subsume(didx, idx, csize)) return false;  // top-level UNSAT
      if (!infos_[idx].alive) {
        early_out = true;
        break;
      }
    }
    if (!early_out) olist.resize(w);
  }
  return true;
}

bool Inprocessor::vivify() {
  // Candidates: the highest-activity learnts (plus, when configured, the
  // problem clauses in DB order — their activity is uniformly zero).
  std::vector<std::uint32_t> cands;
  for (std::uint32_t i = 0; i < infos_.size(); ++i) {
    const ClsInfo& info = infos_[i];
    if (!info.alive) continue;
    if (!info.learnt && !limits_.vivify_irredundant) continue;
    if (info.size >= 3 && info.size <= limits_.vivify_max_width) {
      cands.push_back(i);
    }
  }
  std::stable_sort(cands.begin(), cands.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return s_.arena_.deref(infos_[a].cref).activity() >
                            s_.arena_.deref(infos_[b].cref).activity();
                   });
  if (cands.size() > limits_.vivify_max_clauses) {
    cands.resize(limits_.vivify_max_clauses);
  }

  std::vector<Lit> orig;
  std::vector<Lit> kept;
  for (const std::uint32_t idx : cands) {
    if (abort_requested()) return true;
    if (!infos_[idx].alive) continue;
    const CRef cref = infos_[idx].cref;
    {
      const Clause& c = s_.arena_.deref(cref);
      if (clause_satisfied(c) || s_.locked(cref)) continue;
      orig.assign(c.lits().begin(), c.lits().end());
    }
    // Probe the clause detached, so its own watches cannot "help" the
    // propagation that is supposed to prove it redundant.
    s_.detach_clause(cref);
    kept.clear();
    bool shortened = false;
    bool done = false;
    for (std::size_t i = 0; i < orig.size() && !done; ++i) {
      const Lit l = orig[i];
      const LBool v = s_.value(l);
      if (v == LBool::kTrue) {
        // Earlier probes already imply l: the clause holds without its
        // remaining literals.
        kept.push_back(l);
        shortened = shortened || (i + 1 < orig.size());
        done = true;
      } else if (v == LBool::kFalse) {
        // Earlier probes (or level-0 units) falsify l: drop it.
        shortened = true;
      } else {
        s_.trail_lim_.push_back(static_cast<std::int32_t>(s_.trail_.size()));
        s_.unchecked_enqueue(~l, kUndefClause);
        kept.push_back(l);
        const CRef confl = s_.propagate();
        if (confl != kUndefClause) {
          if (s_.arena_.deref(confl).theory()) s_.arena_.free_clause(confl);
          shortened = shortened || (i + 1 < orig.size());
          done = true;
        }
      }
    }
    s_.cancel_until(0);
    if (!shortened) {
      s_.attach_clause(cref);  // unchanged, original watches restored
      continue;
    }
    // kept ⊊ orig is RUP: asserting ¬kept replays the probe propagations
    // in the checker, which still holds the original clause at this point
    // in the log (the rewrite deletes it only after the lemma). It is
    // logged without hints and checked by RUP.
    if (!apply_rewrite(idx, kept, /*detached=*/true, /*requeue=*/false,
                       {})) {
      return false;
    }
  }
  return true;
}

bool Inprocessor::gather_var_occurrences(Var v, std::vector<std::uint32_t>& pos,
                                         std::vector<std::uint32_t>& neg,
                                         std::vector<std::uint32_t>& learnt_occ) {
  pos.clear();
  neg.clear();
  learnt_occ.clear();
  auto& olist = occ_[static_cast<std::size_t>(v)];
  std::size_t w = 0;
  bool usable = true;
  for (const std::uint32_t idx : olist) {
    if (!infos_[idx].alive) continue;
    const Clause& c = s_.arena_.deref(infos_[idx].cref);
    Lit vlit = kUndefLit;
    for (const Lit l : c.lits()) {
      if (l.var() == v) {
        vlit = l;
        break;
      }
    }
    if (vlit == kUndefLit) continue;  // stale after strengthening
    if (clause_satisfied(c)) {
      if (s_.locked(infos_[idx].cref)) {
        // Should be impossible while v is unassigned; refuse defensively.
        olist[w++] = idx;
        usable = false;
      } else {
        remove_info(idx);  // redundant under a level-0 unit
      }
      continue;
    }
    olist[w++] = idx;
    if (infos_[idx].learnt) {
      learnt_occ.push_back(idx);
    } else if (vlit.sign()) {
      neg.push_back(idx);
    } else {
      pos.push_back(idx);
    }
  }
  olist.resize(w);
  return usable;
}

bool Inprocessor::resolve(const Clause& p, const Clause& n, Var v,
                          std::vector<Lit>& out) {
  out.clear();
  ++stamp_;
  for (const Lit l : p.lits()) {
    if (l.var() == v) continue;
    if (s_.value(l) == LBool::kTrue) return false;  // entailed by a unit
    if (s_.value(l) == LBool::kFalse) continue;
    lit_stamp_[static_cast<std::size_t>(l.index())] = stamp_;
    out.push_back(l);
  }
  for (const Lit l : n.lits()) {
    if (l.var() == v) continue;
    if (lit_stamp_[static_cast<std::size_t>((~l).index())] == stamp_) {
      return false;  // tautological resolvent
    }
    if (lit_stamp_[static_cast<std::size_t>(l.index())] == stamp_) continue;
    if (s_.value(l) == LBool::kTrue) return false;
    if (s_.value(l) == LBool::kFalse) continue;
    lit_stamp_[static_cast<std::size_t>(l.index())] = stamp_;
    out.push_back(l);
  }
  return true;
}

void Inprocessor::push_reconstruction(Var v,
                                      const std::vector<std::uint32_t>& side,
                                      Lit unit) {
  auto& st = s_.elim_stack_;
  for (const std::uint32_t idx : side) {
    const Clause& c = s_.arena_.deref(infos_[idx].cref);
    const std::size_t start = st.size();
    st.push_back(0);  // slot for the eliminated literal (placed first)
    for (const Lit l : c.lits()) {
      if (l.var() == v) {
        st[start] = static_cast<std::uint32_t>(l.index());
      } else {
        st.push_back(static_cast<std::uint32_t>(l.index()));
      }
    }
    st.push_back(c.size());
  }
  // The default-value unit goes last: extend_model() walks backward, so
  // it fires first and the stored clauses override it only when forced.
  st.push_back(static_cast<std::uint32_t>(unit.index()));
  st.push_back(1u);
}

void Inprocessor::save_for_restore(Var v,
                                   const std::vector<std::uint32_t>& side) {
  for (const std::uint32_t idx : side) {
    const Clause& c = s_.arena_.deref(infos_[idx].cref);
    s_.elim_saved_.push_back(
        {v, s_.clause_id(infos_[idx].cref),
         std::vector<Lit>(c.lits().begin(), c.lits().end())});
  }
}

ProofId Inprocessor::log_resolvent(const std::vector<Lit>& r,
                                   std::uint32_t pi, std::uint32_t ni) {
  // Hints: the units of the level-0 literals resolution dropped, then the
  // positive parent (unit on v) and the negative one (falsified).
  const CRef p = infos_[pi].cref;
  const CRef n = infos_[ni].cref;
  s_.begin_hints();
  s_.hint_false_units(s_.arena_.deref(p).lits());
  s_.hint_false_units(s_.arena_.deref(n).lits());
  if (!(s_.hint_clause(s_.clause_id(p)) && s_.hint_clause(s_.clause_id(n)) &&
        s_.finish_hints())) {
    s_.hints_.clear();
  }
  return s_.proof_->add_lemma(r, s_.hints_);
}

bool Inprocessor::attach_resolvent(const std::vector<Lit>& r, ProofId id,
                                   std::vector<PendingUnit>& pending_units) {
  if (r.empty()) {
    s_.ok_ = false;
    return false;
  }
  if (r.size() == 1) {
    // Deferred: enqueueing now could lock a parent clause we are about to
    // delete.
    pending_units.push_back({r[0], id});
    return true;
  }
  const CRef cref = s_.arena_.alloc(r, /*learnt=*/false);
  if (s_.proof_) s_.set_clause_id(cref, id);
  s_.attach_clause(cref);
  register_clause(cref, /*learnt=*/false);
  return true;
}

bool Inprocessor::flush_units(std::vector<PendingUnit>& pending_units) {
  for (const PendingUnit& u : pending_units) {
    if (s_.value(u.lit) == LBool::kTrue) continue;
    if (s_.value(u.lit) == LBool::kFalse) {
      if (s_.proof_) {
        // The unit of ~u, then the resolvent {u}, falsified.
        const ProofId hints[] = {s_.unit_id(u.lit.var()), u.id};
        const bool known = hints[0] != kNoProofId && hints[1] != kNoProofId;
        s_.proof_->add_lemma({}, known ? std::span<const ProofId>(hints)
                                       : std::span<const ProofId>{});
      }
      s_.ok_ = false;
      return false;
    }
    s_.unchecked_enqueue(u.lit, kUndefClause);
    if (s_.proof_) s_.set_unit_id(u.lit.var(), u.id);
  }
  pending_units.clear();
  if (const CRef confl = s_.propagate(); confl != kUndefClause) {
    if (s_.proof_) s_.log_level0_conflict(confl);
    s_.ok_ = false;
    return false;
  }
  return true;
}

bool Inprocessor::eliminate_variables() {
  std::vector<std::uint32_t> pos;
  std::vector<std::uint32_t> neg;
  std::vector<std::uint32_t> learnt_occ;
  std::vector<std::vector<Lit>> resolvents;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> parents;
  std::vector<Lit> resolvent;
  std::vector<PendingUnit> pending_units;
  const std::int32_t nvars = s_.num_vars();
  for (Var v = 0; v < nvars; ++v) {
    if ((v & 31) == 0 && abort_requested()) return true;
    if (s_.value(v) != LBool::kUndef || s_.frozen_[static_cast<std::size_t>(v)] != 0 ||
        s_.eliminated_[static_cast<std::size_t>(v)] != 0) {
      continue;
    }
    if (!gather_var_occurrences(v, pos, neg, learnt_occ)) continue;
    if (pos.empty() && neg.empty()) continue;  // only learnt occurrences:
    // eliminating on learnts alone is unsound (they are consequences, not
    // definitions), and an unconstrained var needs no elimination.
    if (pos.size() > limits_.bve_occ_max || neg.size() > limits_.bve_occ_max) {
      continue;
    }

    // Dry run: count non-redundant resolvents against the growth cap.
    resolvents.clear();
    parents.clear();
    const std::size_t cap =
        pos.size() + neg.size() + static_cast<std::size_t>(limits_.bve_grow);
    bool vetoed = false;
    for (const std::uint32_t pi : pos) {
      for (const std::uint32_t ni : neg) {
        if (!resolve(s_.arena_.deref(infos_[pi].cref),
                     s_.arena_.deref(infos_[ni].cref), v, resolvent)) {
          continue;  // tautological or already entailed
        }
        if (resolvent.empty()) {
          // All resolvent literals are false at level 0: UNSAT.
          if (s_.proof_) log_resolvent(resolvent, pi, ni);
          s_.ok_ = false;
          return false;
        }
        if (resolvent.size() > limits_.bve_resolvent_max) {
          vetoed = true;
          break;
        }
        resolvents.push_back(resolvent);
        if (s_.proof_) parents.emplace_back(pi, ni);
        if (resolvents.size() > cap) {
          vetoed = true;
          break;
        }
      }
      if (vetoed) break;
    }
    if (vetoed) continue;

    // Commit. Order matters for the proof: resolvent lemmas are logged
    // while both occurrence sides are still live in the checker's window;
    // only then are the sides deleted.
    const bool store_neg = pos.size() > neg.size();
    push_reconstruction(v, store_neg ? neg : pos,
                        store_neg ? Lit(v, false) : Lit(v, true));
    // Both occurrence sides are saved verbatim so a later reuse of v can
    // restore them, and their deletions stay unlogged (log_delete=false)
    // so they remain live in the RUP checker — see Solver::restore_var.
    // Removed learnts are neither saved nor kept live: dropping a learnt
    // is always sound.
    save_for_restore(v, pos);
    save_for_restore(v, neg);
    pending_units.clear();
    for (std::size_t k = 0; k < resolvents.size(); ++k) {
      const ProofId id =
          s_.proof_ ? log_resolvent(resolvents[k], parents[k].first,
                                    parents[k].second)
                    : kNoProofId;
      if (!attach_resolvent(resolvents[k], id, pending_units)) return false;
    }
    for (const std::uint32_t idx : pos) remove_info(idx, /*log_delete=*/false);
    for (const std::uint32_t idx : neg) remove_info(idx, /*log_delete=*/false);
    for (const std::uint32_t idx : learnt_occ) remove_info(idx);
    s_.eliminated_[static_cast<std::size_t>(v)] = 1;
    s_.decision_[static_cast<std::size_t>(v)] = 0;
    ++eliminated_;
    if (!flush_units(pending_units)) return false;
  }
  return true;
}

void Inprocessor::finalize() {
  std::vector<CRef> cls = std::move(kept_clauses_);
  std::vector<CRef> lrn = std::move(kept_learnts_);
  for (const ClsInfo& info : infos_) {
    if (!info.alive) continue;
    (info.learnt ? lrn : cls).push_back(info.cref);
  }
  s_.clauses_ = std::move(cls);
  s_.learnts_ = std::move(lrn);
  occ_.clear();
  infos_.clear();
  // Occurrence lists are gone; compacting the arena is safe again.
  if (s_.arena_.wasted() * 2 > s_.arena_.size()) s_.garbage_collect();
}

void Inprocessor::emit_telemetry(double seconds, std::size_t words_freed) {
  s_.stats_.inprocess_passes += 1;
  s_.stats_.subsumed_clauses += subsumed_;
  s_.stats_.strengthened_clauses += strengthened_;
  s_.stats_.eliminated_vars += eliminated_;
  s_.stats_.inprocess_reclaimed_words += words_freed;

  static const obs::Metric passes = obs::counter("sat.inprocess.passes");
  static const obs::Metric subsumed = obs::counter("sat.inprocess.subsumed");
  static const obs::Metric strengthened =
      obs::counter("sat.inprocess.strengthened");
  static const obs::Metric eliminated =
      obs::counter("sat.inprocess.eliminated_vars");
  static const obs::Metric reclaimed =
      obs::counter("sat.inprocess.reclaimed_words");
  obs::add(passes, 1);
  obs::add(subsumed, static_cast<std::int64_t>(subsumed_));
  obs::add(strengthened, static_cast<std::int64_t>(strengthened_));
  obs::add(eliminated, static_cast<std::int64_t>(eliminated_));
  obs::add(reclaimed, static_cast<std::int64_t>(words_freed));

  obs::FlightNote("inprocess_pass")
      .num("subsumed", static_cast<std::int64_t>(subsumed_))
      .num("strengthened", static_cast<std::int64_t>(strengthened_))
      .num("eliminated", static_cast<std::int64_t>(eliminated_))
      .num("reclaimed_words", static_cast<std::int64_t>(words_freed))
      .num("seconds", seconds);
  if (obs::trace_enabled()) {
    obs::TraceEvent("inprocess_pass")
        .num("subsumed", static_cast<std::int64_t>(subsumed_))
        .num("strengthened", static_cast<std::int64_t>(strengthened_))
        .num("eliminated", static_cast<std::int64_t>(eliminated_))
        .num("reclaimed_words", static_cast<std::int64_t>(words_freed))
        .num("seconds", seconds);
  }
}

// --- Solver-side scheduling and model reconstruction ---------------------

bool Solver::maybe_inprocess() {
  if (!inprocess || !ok_) return ok_;
  if (static_cast<std::int64_t>(stats_.conflicts) < inprocess_next_) {
    return ok_;
  }
  if (inprocess_backoff_ <= 0) {
    inprocess_backoff_ = std::max<std::int64_t>(1, inprocess_interval);
  }
  Inprocessor pass(*this);
  const bool alive = pass.run();
  // Geometric backoff: each pass doubles the conflict distance to the
  // next one, so simplification cost stays a vanishing fraction of search.
  inprocess_next_ =
      static_cast<std::int64_t>(stats_.conflicts) + inprocess_backoff_;
  inprocess_backoff_ *= 2;
  return alive;
}

void Solver::restore_var(Var v) {
  // Incremental inprocessing (Fazekas/Biere/Scholl): an eliminated
  // variable reappearing in an add_clause or assumption gets its removed
  // clauses re-attached and its reconstruction entries dropped, after
  // which it behaves as if it had never been eliminated. Proof-wise this
  // is free: the removed clauses' deletions were never logged, so the
  // RUP checker has had them live all along.
  assert(decision_level() == 0);
  if (eliminated_[static_cast<std::size_t>(v)] == 0) return;
  eliminated_[static_cast<std::size_t>(v)] = 0;
  // Reused once -> externally referenced forever: freeze so no later pass
  // eliminates it again (also breaks restore/eliminate thrash).
  frozen_[static_cast<std::size_t>(v)] = 1;
  decision_[static_cast<std::size_t>(v)] = 1;
  if (assigns_[static_cast<std::size_t>(v)] == LBool::kUndef) order_.insert(v);
  ++stats_.restored_vars;

  // Drop v's groups from the reconstruction stack. Groups of *other*
  // variables are untouched: a variable eliminated after v never stored a
  // clause mentioning v (v had no occurrences left), and earlier groups
  // that do mention v simply read its model value like any live variable.
  {
    std::vector<std::pair<std::size_t, std::size_t>> keep;  // [first, end)
    for (std::size_t i = elim_stack_.size(); i > 0;) {
      const std::uint32_t size = elim_stack_[--i];
      const std::size_t first = i - size;
      const Lit l0 =
          Lit::from_index(static_cast<std::int32_t>(elim_stack_[first]));
      if (l0.var() != v) keep.emplace_back(first, i + 1);
      i = first;
    }
    std::vector<std::uint32_t> rebuilt;
    rebuilt.reserve(elim_stack_.size());
    for (std::size_t k = keep.size(); k-- > 0;) {
      rebuilt.insert(rebuilt.end(),
                     elim_stack_.begin() +
                         static_cast<std::ptrdiff_t>(keep[k].first),
                     elim_stack_.begin() +
                         static_cast<std::ptrdiff_t>(keep[k].second));
    }
    elim_stack_ = std::move(rebuilt);
  }

  // Re-attach the saved clauses. add_clause_impl restores any *other*
  // still-eliminated variable they mention first (the cascade terminates:
  // every step clears one eliminated flag), re-normalizes against the
  // current level-0 trail, and may derive top-level UNSAT — without
  // logging the clauses again, since the checker never saw them leave:
  // each keeps its step ID (only what normalization derives is logged).
  std::vector<SavedElimClause> mine;
  for (std::size_t i = 0; i < elim_saved_.size();) {
    if (elim_saved_[i].v == v) {
      mine.push_back(std::move(elim_saved_[i]));
      elim_saved_[i] = std::move(elim_saved_.back());
      elim_saved_.pop_back();
    } else {
      ++i;
    }
  }
  for (const SavedElimClause& saved : mine) {
    if (!add_clause_impl(saved.lits, /*theory=*/false, /*log_input=*/false,
                         saved.id)) {
      return;
    }
  }
}

void Solver::extend_model() {
  // Replay the elimination stack backward (MiniSat SimpSolver layout:
  // [lits... , size] per stored clause, eliminated literal first). A
  // variable's default-value unit was pushed last, so it fires first;
  // each stored clause whose other literals are all false then forces the
  // eliminated literal true.
  for (std::size_t i = elim_stack_.size(); i > 0;) {
    const std::uint32_t size = elim_stack_[--i];
    const std::size_t first = i - size;
    bool satisfied = false;
    for (std::size_t j = first + 1; j < i; ++j) {
      const Lit l = Lit::from_index(static_cast<std::int32_t>(elim_stack_[j]));
      if (model_value(l) != LBool::kFalse) {
        satisfied = true;
        break;
      }
    }
    if (!satisfied) {
      const Lit l0 =
          Lit::from_index(static_cast<std::int32_t>(elim_stack_[first]));
      model_[l0.var()] = to_lbool(!l0.sign());
    }
    i = first;
  }
}

}  // namespace optalloc::sat
