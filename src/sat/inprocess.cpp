#include "sat/inprocess.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <memory>
#include <utility>
#include <vector>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
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

namespace {

/// Literal signatures: bit (index & 63) per literal. A literal and its
/// negation (indices 2k and 2k + 1) sit on adjacent bits.
std::uint64_t lit_bit(Lit l) {
  return std::uint64_t{1} << (static_cast<std::uint32_t>(l.index()) & 63u);
}

constexpr std::uint64_t kEvenBits = 0x5555555555555555u;

/// The variable classes (var & 31) of a literal signature, on even bits.
std::uint64_t var_classes(std::uint64_t sig) {
  return (sig | (sig >> 1)) & kEvenBits;
}

/// Signature test for C subsuming or strengthening D: subsumption needs
/// every literal of C in D, so no bit of C is missing from D;
/// strengthening needs all but one literal l, with ~l in D, so at most
/// l's bit is missing and D has the bit of ~l.
bool may_subsume(std::uint64_t c, std::uint64_t d) {
  const std::uint64_t missing = c & ~d;
  if (missing == 0) return true;
  if ((missing & (missing - 1)) != 0) return false;
  const std::uint64_t negated =
      ((missing & kEvenBits) << 1) | ((missing >> 1) & kEvenBits);
  return (d & negated) != 0;
}

}  // namespace

Inprocessor::Occ Inprocessor::occ_entry(std::uint32_t idx, std::uint32_t size,
                                        Lit l, std::uint64_t others) {
  return {idx, size << 1 | (l.sign() ? 1u : 0u), others};
}

// Calls f(l, sig) for each literal l of `lits`, sig being the signature of
// the other literals. A bit two literals share stays set for both.
template <class F>
void Inprocessor::for_each_literal_sig(std::span<const Lit> lits, F&& f) {
  std::uint64_t all = 0;
  std::uint64_t shared = 0;
  for (const Lit l : lits) {
    shared |= all & lit_bit(l);
    all |= lit_bit(l);
  }
  for (const Lit l : lits) f(l, all & ~(lit_bit(l) & ~shared));
}

bool Inprocessor::locked(std::uint32_t idx) const {
  // A reason is satisfied by the literal it implies.
  return clause_satisfied(idx) && s_.locked(infos_[idx].cref);
}

bool Inprocessor::still_contains(const Occ& o, Var v) const {
  if ((flags_[o.idx] & kRewritten) == 0) return true;
  for (const Lit l : s_.arena_.deref(infos_[o.idx].cref).lits()) {
    if (l.var() == v) return true;
  }
  return false;
}

template <class F>
void Inprocessor::for_each_occurrence(Var v, F&& f) {
  const auto sv = static_cast<std::size_t>(v);
  const Occ* slice = occ_.get() + occ_begin_[sv];
  for (std::uint32_t i = 0; i < occ_size_[sv]; ++i) f(slice[i]);
  if (occ_last_[sv] == kNone) return;
  // The chain runs newest first; visit it in registration order.
  chain_.clear();
  for (std::uint32_t i = occ_last_[sv]; i != kNone; i = added_prev_[i]) {
    chain_.push_back(i);
  }
  for (auto it = chain_.rbegin(); it != chain_.rend(); ++it) f(added_[*it]);
}

// Registered clauses start unsatisfied (build_occurrences() keeps the
// satisfied ones out, resolvents have no level-0 literal), so a clause is
// satisfied exactly when a literal it still holds was made true at level 0
// during the pass. Each such literal flags its clauses once, here, right
// after the propagation that assigned it.
void Inprocessor::mark_satisfied() {
  for (; marked_ < s_.trail_.size(); ++marked_) {
    const Lit t = s_.trail_[marked_];
    for_each_occurrence(t.var(), [&](const Occ& o) {
      if (((o.size_sign & 1u) != 0) == t.sign() && alive(o.idx) &&
          still_contains(o, t.var())) {
        flags_[o.idx] |= kSatisfied;
      }
    });
  }
}

bool Inprocessor::abort_requested() const { return s_.budget_exhausted(); }

void Inprocessor::build_occurrences() {
  const std::size_t nvars = static_cast<std::size_t>(s_.num_vars());
  lit_stamp_.assign(2 * nvars, 0);
  stamp_ = 0;
  // Count each variable's occurrences into its slice's room...
  occ_begin_.resize(nvars);
  occ_size_.assign(nvars, 0);
  occ_last_.assign(nvars, kNone);
  infos_.clear();
  flags_.clear();
  infos_.reserve(s_.clauses_.size() + s_.learnts_.size());
  flags_.reserve(infos_.capacity());
  kept_clauses_.clear();
  kept_learnts_.clear();
  auto scan = [&](const std::vector<CRef>& list, bool learnt) {
    for (const CRef cref : list) {
      const Clause& c = s_.arena_.deref(cref);
      // Satisfied clauses left by simplify() are locked reasons; theory
      // reasons are ephemeral. Both sit out the pass untouched.
      bool keep = c.theory();
      for (const Lit l : c.lits()) keep = keep || s_.value(l) == LBool::kTrue;
      if (keep) {
        (learnt ? kept_learnts_ : kept_clauses_).push_back(cref);
        continue;
      }
      for (const Lit l : c.lits()) {
        ++occ_size_[static_cast<std::size_t>(l.var())];
      }
      infos_.push_back({cref, c.size()});
      flags_.push_back(
          static_cast<std::uint8_t>(learnt ? kAlive | kLearnt : kAlive));
    }
  };
  scan(s_.clauses_, /*learnt=*/false);
  scan(s_.learnts_, /*learnt=*/true);
  // ...lay the slices out back to back, and fill them in clause order.
  std::uint32_t at = 0;
  for (std::size_t v = 0; v < nvars; ++v) {
    occ_begin_[v] = at;
    at += occ_size_[v];
    occ_size_[v] = 0;
  }
  occ_ = std::make_unique_for_overwrite<Occ[]>(at);  // every slot is filled
  added_.clear();
  added_prev_.clear();
  // Untouched capacity costs no memory; resolvents rarely outgrow it.
  added_.reserve(at);
  added_prev_.reserve(at);
  for (std::uint32_t idx = 0; idx < infos_.size(); ++idx) {
    for_each_literal_sig(s_.arena_.deref(infos_[idx].cref).lits(),
                         [&](Lit l, std::uint64_t others) {
      const auto v = static_cast<std::size_t>(l.var());
      occ_[occ_begin_[v] + occ_size_[v]++] =
          occ_entry(idx, infos_[idx].size, l, others);
    });
  }
  marked_ = s_.trail_.size();
}

void Inprocessor::register_resolvent(CRef cref, std::span<const Lit> lits) {
  const auto idx = static_cast<std::uint32_t>(infos_.size());
  const auto size = static_cast<std::uint32_t>(lits.size());
  infos_.push_back({cref, size});
  flags_.push_back(kAlive);
  for_each_literal_sig(lits, [&](Lit l, std::uint64_t others) {
    std::uint32_t& last = occ_last_[static_cast<std::size_t>(l.var())];
    added_prev_.push_back(last);
    last = static_cast<std::uint32_t>(added_.size());
    added_.push_back(occ_entry(idx, size, l, others));
  });
}

void Inprocessor::remove_info(std::uint32_t idx, bool log_delete) {
  if (!alive(idx)) return;
  if (locked(idx)) return;  // reasons must stay alive
  flags_[idx] &= static_cast<std::uint8_t>(~kAlive);
  s_.remove_clause(infos_[idx].cref, log_delete);  // detaches, frees
}

// Rewrite the clause behind `idx` without `drop` and its level-0 false
// literals, logging the strengthened clause as a lemma *before* the
// deletion of its ancestor so the checker's live window always contains
// the clauses the lemma follows from. Returns false iff the rewrite
// collapsed to a top-level conflict.
bool Inprocessor::strengthen(std::uint32_t idx, Lit drop, std::uint32_t sub) {
  const CRef cref = infos_[idx].cref;
  const Clause& c = s_.arena_.deref(cref);
  rewrite_.clear();
  for (const Lit l : c.lits()) {
    if (l == drop) continue;
    if (s_.value(l) == LBool::kTrue) return true;  // became satisfied: skip
    if (s_.value(l) == LBool::kFalse) continue;    // shed level-0 falses too
    rewrite_.push_back(l);
  }
  if (s_.proof_) {
    // Hints: the units of the level-0 literals both clauses lose, then the
    // subsumer C (unit on ~drop), then D itself (falsified). When drop is
    // already false at level 0, its unit replaces C.
    const CRef sub_cref = infos_[sub].cref;
    const bool via_sub = s_.value(drop) != LBool::kFalse;
    s_.begin_hints();
    s_.hint_false_units(c.lits());
    if (via_sub) s_.hint_false_units(s_.arena_.deref(sub_cref).lits());
    if (!((!via_sub || s_.hint_clause(s_.clause_id(sub_cref))) &&
          s_.hint_clause(s_.clause_id(cref)) && s_.finish_hints())) {
      s_.hints_.clear();
    }
  }
  return apply_rewrite(idx, rewrite_, /*detached=*/false, /*requeue=*/true,
                       s_.hints_);
}

bool Inprocessor::apply_rewrite(std::uint32_t idx,
                                std::span<const Lit> new_lits, bool detached,
                                bool requeue,
                                std::span<const ProofId> hints) {
  const CRef cref = infos_[idx].cref;
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
    flags_[idx] &= static_cast<std::uint8_t>(~kAlive);
    s_.arena_.free_clause(cref);
    s_.ok_ = false;
    return false;
  }
  if (new_lits.size() == 1) {
    // The clause became a unit; it lives on the trail from here.
    flags_[idx] &= static_cast<std::uint8_t>(~kAlive);
    s_.arena_.free_clause(cref);
    assert(s_.value(new_lits[0]) == LBool::kUndef);
    s_.unchecked_enqueue(new_lits[0], kUndefClause);
    if (s_.proof_) s_.set_unit_id(new_lits[0].var(), id);
    if (const CRef confl = s_.propagate(); confl != kUndefClause) {
      if (s_.proof_) s_.log_level0_conflict(confl);
      s_.ok_ = false;
      return false;
    }
    mark_satisfied();
    return true;
  }

  Clause& c = s_.arena_.deref(cref);
  for (std::size_t i = 0; i < new_lits.size(); ++i) {
    c[static_cast<std::uint32_t>(i)] = new_lits[i];
  }
  const auto size = static_cast<std::uint32_t>(new_lits.size());
  s_.arena_.shrink_clause(cref, size);
  if (s_.proof_) s_.set_clause_id(cref, id);
  c.set_lbd(std::min(c.lbd(), size));
  s_.attach_clause(cref);  // surviving literals are all unassigned
  infos_[idx].size = size;
  flags_[idx] |= kRewritten;
  if (requeue && !learnt(idx) && (flags_[idx] & kQueued) == 0 &&
      size <= limits_.subsume_clause_max) {
    flags_[idx] |= kQueued;
    subsume_queue_.push_back(idx);
  }
  return true;
}

bool Inprocessor::try_subsume(std::uint32_t didx, std::uint32_t sidx,
                              std::uint32_t sub_size) {
  if (locked(didx) || clause_satisfied(didx)) return true;
  // The subsumer C is stamped: count D's literals matching C exactly and
  // matching negated. Literal-distinctness makes the counts exact.
  std::uint32_t exact = 0;
  std::uint32_t flipped = 0;
  Lit flip_lit = kUndefLit;
  for (const Lit l : s_.arena_.deref(infos_[didx].cref).lits()) {
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
    remove_info(didx);
    return true;
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
    if (!learnt(i) && infos_[i].size <= limits_.subsume_clause_max) {
      flags_[i] |= kQueued;
      subsume_queue_.push_back(i);
    }
  }
  for (std::size_t qi = 0; qi < subsume_queue_.size(); ++qi) {
    if ((qi & 63u) == 0 && abort_requested()) return true;
    const std::uint32_t idx = subsume_queue_[qi];
    flags_[idx] &= static_cast<std::uint8_t>(~kQueued);
    if (!alive(idx) || clause_satisfied(idx)) continue;
    const Clause& c = s_.arena_.deref(infos_[idx].cref);
    // Candidates are every clause containing C's least-occupied variable
    // (counting the entries its list still holds for dropped clauses).
    Lit pivot = c[0];
    std::uint32_t fewest = occ_size_[static_cast<std::size_t>(pivot.var())];
    std::uint64_t all = 0;
    std::uint64_t shared = 0;
    for (const Lit l : c.lits()) {
      const std::uint32_t n = occ_size_[static_cast<std::size_t>(l.var())];
      if (n < fewest) {
        pivot = l;
        fewest = n;
      }
      shared |= all & lit_bit(l);
      all |= lit_bit(l);
    }
    const Var best = pivot.var();
    // C's other literals, as in the entries.
    const std::uint64_t csig = all & ~(lit_bit(pivot) & ~shared);
    const std::uint32_t csize = infos_[idx].size;
    bool stamped = false;
    // The walk compacts dead and stale entries away. Resolvents arrive
    // only during elimination, so the slice is all there is.
    std::uint32_t& len = occ_size_[static_cast<std::size_t>(best)];
    Occ* olist = occ_.get() + occ_begin_[static_cast<std::size_t>(best)];
    std::uint32_t w = 0;
    for (std::uint32_t oi = 0; oi < len; ++oi) {
      const Occ o = olist[oi];
      if (!alive(o.idx) || !still_contains(o, best)) continue;
      olist[w++] = o;
      // With the pivot in D, C may subsume D or strengthen it on another
      // literal; with ~pivot in D, only strengthen it on the pivot, which
      // needs all of C's other literals in D. The recorded size and
      // signature bound D's current ones from above; a candidate they
      // admit but D no longer fits is a no-op in try_subsume.
      const bool same_sign = (o.size_sign & 1u) == (pivot.sign() ? 1u : 0u);
      if (o.idx == idx || (o.size_sign >> 1) < csize ||
          !(same_sign ? may_subsume(csig, o.sig) : (csig & ~o.sig) == 0)) {
        continue;
      }
      if (!stamped) {
        ++stamp_;
        for (const Lit l : c.lits()) {
          lit_stamp_[static_cast<std::size_t>(l.index())] = stamp_;
        }
        stamped = true;
      }
      if (!try_subsume(o.idx, idx, csize)) return false;  // top-level UNSAT
    }
    len = w;
  }
  return true;
}

bool Inprocessor::vivify() {
  // Candidates: the highest-activity learnts (plus, when configured, the
  // problem clauses in DB order — their activity is uniformly zero).
  std::vector<std::uint32_t> cands;
  for (std::uint32_t i = 0; i < infos_.size(); ++i) {
    if (!alive(i)) continue;
    if (!learnt(i) && !limits_.vivify_irredundant) continue;
    if (infos_[i].size >= 3 && infos_[i].size <= limits_.vivify_max_width) {
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
  std::vector<Lit>& kept = rewrite_;
  for (const std::uint32_t idx : cands) {
    if (abort_requested()) return true;
    if (!alive(idx)) continue;
    const CRef cref = infos_[idx].cref;
    if (clause_satisfied(idx) || locked(idx)) continue;
    {
      const Clause& c = s_.arena_.deref(cref);
      orig.assign(c.lits().begin(), c.lits().end());
    }
    // Probe the clause detached, so its own watches cannot "help" the
    // propagation that is supposed to prove it redundant.
    s_.detach_clause(cref);
    kept.clear();
    bool shortened = false;
    bool done = false;
    // The clause that closes the new clause's hint chain: the conflict,
    // the reason of a literal the probes made true, or, when the probes
    // only falsified literals, the original clause itself.
    CRef closing = cref;
    CRef theory_conflict = kUndefClause;
    for (std::size_t i = 0; i < orig.size() && !done; ++i) {
      const Lit l = orig[i];
      const LBool v = s_.value(l);
      if (v == LBool::kTrue) {
        // Earlier probes already imply l: the clause holds without its
        // remaining literals.
        kept.push_back(l);
        shortened = shortened || (i + 1 < orig.size());
        done = true;
        closing = s_.vardata_[static_cast<std::size_t>(l.var())].reason;
      } else if (v == LBool::kFalse) {
        // Earlier probes (or level-0 units) falsify l: drop it.
        shortened = true;
      } else {
        s_.trail_lim_.push_back(static_cast<std::int32_t>(s_.trail_.size()));
        s_.unchecked_enqueue(~l, kUndefClause);
        kept.push_back(l);
        const CRef confl = s_.propagate();
        if (confl != kUndefClause) {
          if (s_.arena_.deref(confl).theory()) theory_conflict = confl;
          shortened = shortened || (i + 1 < orig.size());
          done = true;
          closing = confl;
        }
      }
    }
    // kept ⊊ orig follows by unit propagation from ¬kept; the chain is
    // read off the probes' implication graph, so it is collected before
    // the backtrack. The checker still holds the original clause at this
    // point in the log (the rewrite deletes it only after the lemma).
    if (shortened && s_.proof_ && !s_.chain_hints(kept, closing)) {
      s_.hints_.clear();
    }
    if (theory_conflict != kUndefClause) s_.arena_.free_clause(theory_conflict);
    s_.cancel_until(0);
    if (!shortened) {
      s_.attach_clause(cref);  // unchanged, original watches restored
      continue;
    }
    if (!apply_rewrite(idx, kept, /*detached=*/true, /*requeue=*/false,
                       s_.proof_ ? std::span<const ProofId>(s_.hints_)
                                 : std::span<const ProofId>{})) {
      return false;
    }
  }
  return true;
}

bool Inprocessor::gather_var_occurrences(Var v) {
  pos_.clear();
  neg_.clear();
  learnt_occ_.clear();
  pos_vars_.clear();
  neg_vars_.clear();
  bool usable = true;
  for_each_occurrence(v, [&](const Occ& o) {
    const std::uint8_t f = flags_[o.idx];
    if ((f & kAlive) == 0 || !still_contains(o, v)) return;
    if ((f & kSatisfied) != 0) {
      if (locked(o.idx)) {
        // Should be impossible while v is unassigned; refuse defensively.
        usable = false;
      } else {
        remove_info(o.idx);  // redundant under a level-0 unit
      }
      return;
    }
    if ((f & kLearnt) != 0) {
      learnt_occ_.push_back(o.idx);
    } else if ((o.size_sign & 1u) != 0) {
      neg_.push_back(o.idx);
      neg_vars_.push_back(var_classes(o.sig));
    } else {
      pos_.push_back(o.idx);
      pos_vars_.push_back(var_classes(o.sig));
    }
  });
  return usable;
}

// Count v's non-redundant resolvents against the growth cap, keeping them
// in res_ for the commit. Each parent's literals other than v and the
// level-0 false ones are copied out once, and each positive parent is
// stamped once for all its partners; a resolvent is its positive parent's
// literals followed by its negative parent's new ones. Returns false iff
// an empty resolvent proves UNSAT.
bool Inprocessor::dry_run(Var v, bool& vetoed) {
  side_lits_.clear();
  pos_slices_.clear();
  neg_slices_.clear();
  auto copy_side = [&](const std::vector<std::uint32_t>& side,
                       std::vector<Slice>& slices) {
    for (const std::uint32_t idx : side) {
      Slice sl{static_cast<std::uint32_t>(side_lits_.size()), 0, 0, false};
      for (const Lit l : s_.arena_.deref(infos_[idx].cref).lits()) {
        if (l.var() == v || s_.value(l) == LBool::kFalse) continue;
        if (s_.value(l) == LBool::kTrue) {  // entailed by a unit
          sl.entailed = true;
          break;
        }
        side_lits_.push_back(l);
        sl.vars |= std::uint64_t{1}
                   << (static_cast<std::uint32_t>(l.var()) & 63u);
      }
      if (sl.entailed) side_lits_.resize(sl.begin);
      sl.end = static_cast<std::uint32_t>(side_lits_.size());
      slices.push_back(sl);
    }
  };
  copy_side(pos_, pos_slices_);
  copy_side(neg_, neg_slices_);

  const std::size_t cap =
      pos_.size() + neg_.size() + static_cast<std::size_t>(limits_.bve_grow);
  res_lits_.clear();
  res_.clear();
  for (std::size_t i = 0; i < pos_.size(); ++i) {
    const Slice& p = pos_slices_[i];
    if (p.entailed) continue;
    const std::span<const Lit> plits(side_lits_.data() + p.begin,
                                     p.end - p.begin);
    ++stamp_;
    for (const Lit l : plits) {
      lit_stamp_[static_cast<std::size_t>(l.index())] = stamp_;
    }
    for (std::size_t k = 0; k < neg_.size(); ++k) {
      const Slice& n = neg_slices_[k];
      if (n.entailed) continue;
      const std::span<const Lit> nlits(side_lits_.data() + n.begin,
                                       n.end - n.begin);
      // Parents without a common variable need no stamp lookups.
      const bool disjoint = (p.vars & n.vars) == 0;
      if (!disjoint &&
          std::any_of(nlits.begin(), nlits.end(), [&](Lit l) {
            return lit_stamp_[static_cast<std::size_t>((~l).index())] ==
                   stamp_;
          })) {
        continue;  // tautological resolvent
      }
      const auto begin = static_cast<std::uint32_t>(res_lits_.size());
      res_lits_.insert(res_lits_.end(), plits.begin(), plits.end());
      for (const Lit l : nlits) {
        if (disjoint ||
            lit_stamp_[static_cast<std::size_t>(l.index())] != stamp_) {
          res_lits_.push_back(l);
        }
      }
      const auto size = static_cast<std::uint32_t>(res_lits_.size()) - begin;
      if (size == 0) {
        // All resolvent literals are false at level 0: UNSAT.
        if (s_.proof_) log_resolvent({}, pos_[i], neg_[k]);
        s_.ok_ = false;
        return false;
      }
      if (size > limits_.bve_resolvent_max || res_.size() == cap) {
        vetoed = true;
        return true;
      }
      res_.push_back({begin, size, pos_[i], neg_[k]});
    }
  }
  return true;
}

void Inprocessor::save_elimination(Var v, Lit unit) {
  auto save = [&](std::uint32_t idx) {
    const CRef cref = infos_[idx].cref;
    const Clause& c = s_.arena_.deref(cref);
    s_.elim_saved_.push_back(
        {s_.clause_id(cref),
         static_cast<std::uint32_t>(s_.elim_saved_lits_.size()), c.size()});
    s_.elim_saved_lits_.insert(s_.elim_saved_lits_.end(), c.lits().begin(),
                               c.lits().end());
  };
  const auto first = static_cast<std::uint32_t>(s_.elim_saved_.size());
  for (const std::uint32_t idx : pos_) save(idx);
  const auto split = static_cast<std::uint32_t>(s_.elim_saved_.size());
  for (const std::uint32_t idx : neg_) save(idx);
  s_.elim_group_of_[static_cast<std::size_t>(v)] =
      static_cast<std::uint32_t>(s_.elim_groups_.size());
  s_.elim_groups_.push_back(
      {unit, first, split, static_cast<std::uint32_t>(s_.elim_saved_.size())});
}

ProofId Inprocessor::log_resolvent(std::span<const Lit> r, std::uint32_t pi,
                                   std::uint32_t ni) {
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

bool Inprocessor::attach_resolvent(std::span<const Lit> r, ProofId id) {
  if (r.empty()) {
    s_.ok_ = false;
    return false;
  }
  if (r.size() == 1) {
    // Deferred: enqueueing now could lock a parent clause we are about to
    // delete.
    pending_units_.push_back({r[0], id});
    return true;
  }
  const CRef cref = s_.arena_.alloc(r, /*learnt=*/false);
  if (s_.proof_) s_.set_clause_id(cref, id);
  s_.attach_clause(cref);
  register_resolvent(cref, r);
  return true;
}

bool Inprocessor::flush_units() {
  for (const PendingUnit& u : pending_units_) {
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
  pending_units_.clear();
  if (const CRef confl = s_.propagate(); confl != kUndefClause) {
    if (s_.proof_) s_.log_level0_conflict(confl);
    s_.ok_ = false;
    return false;
  }
  mark_satisfied();
  return true;
}

bool Inprocessor::eliminate_variables() {
  const std::int32_t nvars = s_.num_vars();
  if (s_.elim_group_of_.size() < static_cast<std::size_t>(nvars)) {
    s_.elim_group_of_.resize(static_cast<std::size_t>(nvars));
  }
  for (Var v = 0; v < nvars; ++v) {
    if ((v & 31) == 0 && abort_requested()) return true;
    if (s_.value(v) != LBool::kUndef || s_.frozen_[static_cast<std::size_t>(v)] != 0 ||
        s_.eliminated_[static_cast<std::size_t>(v)] != 0) {
      continue;
    }
    if (!gather_var_occurrences(v)) continue;
    if (pos_.empty() && neg_.empty()) continue;  // only learnt occurrences:
    // eliminating on learnts alone is unsound (they are consequences, not
    // definitions), and an unconstrained var needs no elimination.
    if (pos_.size() > limits_.bve_occ_max || neg_.size() > limits_.bve_occ_max) {
      continue;
    }
    // Parents without a common variable besides v always have a resolvent
    // (the recorded signatures exclude v and can only overstate the
    // others); when those alone exceed the cap, v is vetoed before any
    // clause is read. An empty resolvent cannot be missed this way: its
    // parents would be unit on v and ~v, and level-0 propagation would
    // have assigned v.
    std::size_t certain = 0;
    for (const std::uint64_t p : pos_vars_) {
      for (const std::uint64_t n : neg_vars_) certain += (p & n) == 0;
    }
    if (certain > pos_.size() + neg_.size() +
                      static_cast<std::size_t>(limits_.bve_grow)) {
      continue;
    }
    bool vetoed = false;
    if (!dry_run(v, vetoed)) return false;
    if (vetoed) continue;

    // Commit. Order matters for the proof: resolvent lemmas are logged
    // while both occurrence sides are still live in the checker's window;
    // only then are the sides deleted.
    // Both occurrence sides are saved verbatim: the smaller one rebuilds
    // v's model value (Solver::extend_model), both restore v if it is
    // reused. Their deletions stay unlogged (log_delete=false) so they
    // remain live in the RUP checker — see Solver::restore_var. Removed
    // learnts are neither saved nor kept live: dropping a learnt is
    // always sound.
    save_elimination(v, pos_.size() > neg_.size() ? Lit(v, false)
                                                  : Lit(v, true));
    pending_units_.clear();
    for (const Resolvent& r : res_) {
      const std::span<const Lit> lits(res_lits_.data() + r.begin, r.size);
      const ProofId id =
          s_.proof_ ? log_resolvent(lits, r.pos, r.neg) : kNoProofId;
      if (!attach_resolvent(lits, id)) return false;
    }
    for (const std::uint32_t idx : pos_) remove_info(idx, /*log_delete=*/false);
    for (const std::uint32_t idx : neg_) remove_info(idx, /*log_delete=*/false);
    for (const std::uint32_t idx : learnt_occ_) remove_info(idx);
    s_.eliminated_[static_cast<std::size_t>(v)] = 1;
    s_.decision_[static_cast<std::size_t>(v)] = 0;
    ++eliminated_;
    if (!flush_units()) return false;
  }
  return true;
}

void Inprocessor::finalize() {
  std::vector<CRef> cls = std::move(kept_clauses_);
  std::vector<CRef> lrn = std::move(kept_learnts_);
  cls.reserve(cls.size() + infos_.size());
  for (std::uint32_t idx = 0; idx < infos_.size(); ++idx) {
    if (!alive(idx)) continue;
    (learnt(idx) ? lrn : cls).push_back(infos_[idx].cref);
  }
  s_.clauses_ = std::move(cls);
  s_.learnts_ = std::move(lrn);
  // Release the pass's arrays before a compaction allocates a new arena;
  // with the occurrence lists gone, compacting is safe again.
  occ_.reset();
  occ_begin_ = {};
  occ_size_ = {};
  occ_last_ = {};
  added_ = {};
  infos_ = {};
  flags_ = {};
  lit_stamp_ = {};
  if (s_.arena_.wasted() * 2 > s_.arena_.size()) s_.garbage_collect();
}

void Inprocessor::emit_telemetry(double seconds, std::size_t words_freed) {
  s_.stats_.inprocess_passes += 1;
  s_.stats_.subsumed_clauses += subsumed_;
  s_.stats_.strengthened_clauses += strengthened_;
  s_.stats_.eliminated_vars += eliminated_;
  s_.stats_.inprocess_reclaimed_words += words_freed;

  obs::add(obs::m::sat_inprocess_passes, 1);
  obs::add(obs::m::sat_inprocess_subsumed,
           static_cast<std::int64_t>(subsumed_));
  obs::add(obs::m::sat_inprocess_strengthened,
           static_cast<std::int64_t>(strengthened_));
  obs::add(obs::m::sat_inprocess_eliminated_vars,
           static_cast<std::int64_t>(eliminated_));
  obs::add(obs::m::sat_inprocess_reclaimed_words,
           static_cast<std::int64_t>(words_freed));

  obs::Event(obs::ev::inprocess_pass)
      .num("subsumed", static_cast<std::int64_t>(subsumed_))
      .num("strengthened", static_cast<std::int64_t>(strengthened_))
      .num("eliminated", static_cast<std::int64_t>(eliminated_))
      .num("reclaimed_words", static_cast<std::int64_t>(words_freed))
      .num("seconds", seconds);
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
  const bool timed = obs::phase_timing();
  const std::uint64_t t0 = timed ? obs::monotonic_ns() : 0;
  Inprocessor pass(*this);
  const bool alive = pass.run();
  if (timed) {
    stats_.inprocess_seconds +=
        static_cast<double>(obs::monotonic_ns() - t0) * 1e-9;
  }
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
  // clauses re-attached and its reconstruction entries retired, after
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
  obs::add(obs::m::sat_inprocess_restored_vars, 1);

  // v's group stays in elim_groups_: extend_model() skips the groups of
  // variables no longer eliminated, and v, now frozen, is never
  // eliminated again. Groups of *other* variables are untouched: a
  // variable eliminated after v never saved a clause mentioning v (v had
  // no occurrences left), and earlier groups that do mention v simply
  // read its model value like any live variable.

  // Re-attach the saved clauses. add_clause_impl restores any *other*
  // still-eliminated variable they mention first (the cascade terminates:
  // every step clears one eliminated flag), re-normalizes against the
  // current level-0 trail, and may derive top-level UNSAT — without
  // logging the clauses again, since the checker never saw them leave:
  // each keeps its step ID (only what normalization derives is logged).
  // Only a pass appends to the saved pool, so the spans stay valid
  // through the cascade.
  const ElimGroup& g =
      elim_groups_[elim_group_of_[static_cast<std::size_t>(v)]];
  for (std::uint32_t i = g.first; i < g.last; ++i) {
    const SavedElimClause& saved = elim_saved_[i];
    const std::span<const Lit> lits(elim_saved_lits_.data() + saved.begin,
                                    saved.size);
    if (!add_clause_impl(lits, /*theory=*/false, /*log_input=*/false,
                         saved.id)) {
      return;
    }
  }
}

void Solver::extend_model() {
  // Replay the eliminations backward (MiniSat SimpSolver order): each
  // variable takes its default value, then every clause of its smaller
  // side whose other literals are all false forces the variable's literal
  // in it true. Groups of restored variables are skipped.
  for (auto g = elim_groups_.rbegin(); g != elim_groups_.rend(); ++g) {
    const Var v = g->unit.var();
    if (eliminated_[static_cast<std::size_t>(v)] == 0) continue;
    model_[static_cast<std::size_t>(v)] = to_lbool(!g->unit.sign());
    const bool negative_side = !g->unit.sign();
    const std::uint32_t first = negative_side ? g->split : g->first;
    for (std::uint32_t i = negative_side ? g->last : g->split; i-- > first;) {
      const SavedElimClause& saved = elim_saved_[i];
      Lit own = kUndefLit;
      bool satisfied = false;
      for (std::uint32_t j = 0; j < saved.size && !satisfied; ++j) {
        const Lit l = elim_saved_lits_[saved.begin + j];
        if (l.var() == v) {
          own = l;
        } else {
          satisfied = model_value(l) != LBool::kFalse;
        }
      }
      if (!satisfied) {
        model_[static_cast<std::size_t>(v)] = to_lbool(!own.sign());
      }
    }
  }
}

}  // namespace optalloc::sat
