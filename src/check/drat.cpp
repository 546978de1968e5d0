#include "check/drat.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace optalloc::check {
namespace {

using sat::Lit;
using sat::ProofId;
using sat::ProofLog;
using sat::ProofStep;
using sat::ProofStepKind;

constexpr ProofId kNever = sat::kNoProofId;

/// Diagnostics name steps by their 1-based text IDs (see sat/proof.hpp),
/// so a message points at the line of a written log.
std::string step_name(std::size_t s) { return "step " + std::to_string(s + 1); }

bool is_clause(ProofStepKind k) { return k != ProofStepKind::kDelete; }

class Checker {
 public:
  explicit Checker(const ProofLog& log) : log_(log) {}

  DratResult run(std::span<const std::size_t> targets, bool all_lemmas) {
    DratResult res;
    if (!build_db(&res)) return res;
    marked_.assign(log_.num_steps(), 0);
    if (all_lemmas) {
      for (std::size_t s = 0; s < log_.num_steps(); ++s) {
        const ProofStepKind k = log_.step(s).kind;
        if (k == ProofStepKind::kLemma || k == ProofStepKind::kTheory) {
          marked_[s] = 1;
        }
      }
    } else if (!mark_targets(targets, &res)) {
      return res;
    }

    // Backward pass: verify marked steps last-to-first. A check only ever
    // marks earlier steps, so everything marked is eventually either
    // verified (lemma/theory) or trusted (input).
    for (std::size_t s = log_.num_steps(); s-- > 0;) {
      if (!marked_[s]) continue;
      const ProofStep& step = log_.step(s);
      if (step.kind == ProofStepKind::kLemma) {
        if (step.hint_end > step.hint_begin) {
          if (!check_hints(s, &res)) return res;
          ++res.hinted_checked;
        } else {
          if (!check_rup(s, &res)) return res;
          ++res.rup_checked;
        }
      } else if (step.kind == ProofStepKind::kTheory) {
        if (!check_weakening(s, &res)) return res;
        ++res.theory_checked;
      }
    }
    res.lemmas_checked = res.hinted_checked + res.rup_checked;
    res.ok = true;
    return res;
  }

 private:
  std::span<const Lit> lits(std::size_t s) const {
    return log_.lits(log_.step(s));
  }

  bool fail(DratResult* res, std::string msg) {
    res->ok = false;
    res->error = std::move(msg);
    return false;
  }

  bool build_db(DratResult* res) {
    std::int32_t max_var = -1;
    for (const sat::ProofPbConstraint& c : log_.pb_constraints()) {
      for (const sat::ProofPbTerm& t : c.terms) {
        max_var = std::max(max_var, t.lit.var());
        if (t.coef <= 0) {
          return fail(res, "PB axiom with non-positive coefficient");
        }
      }
    }

    const std::size_t n = log_.num_steps();
    deleted_at_.assign(n, kNever);
    LegacyDeletions legacy;
    for (std::size_t s = 0; s < n; ++s) {
      const ProofStep& step = log_.step(s);
      for (const Lit l : log_.lits(step)) max_var = std::max(max_var, l.var());
      if (is_clause(step.kind)) {
        ++res->db_clauses;
        legacy.add(*this, s);
        continue;
      }
      const ProofId id = log_.deleted(step);
      if (id == kNever) {
        legacy.remove(*this, s);
        continue;
      }
      if (id >= s || !is_clause(log_.step(id).kind)) {
        return fail(res, "deletion at " + step_name(s) + " names " +
                             step_name(id) + ", which is not an earlier "
                             "clause");
      }
      if (deleted_at_[id] != kNever) {
        return fail(res, "deletion at " + step_name(s) + " names " +
                             step_name(id) + ", already deleted at " +
                             step_name(deleted_at_[id]));
      }
      deleted_at_[id] = static_cast<ProofId>(s);
    }

    const std::size_t nvars = static_cast<std::size_t>(max_var) + 1;
    vals_.assign(nvars, 0);
    reason_.assign(nvars, kNever);
    return true;
  }

  /// Legacy literal deletions (`d <lits> 0` with no ID) are matched to the
  /// most recent live clause with the same literal multiset. Buckets are
  /// keyed by a hash of the sorted literals and only filled once the log is
  /// seen to contain such a deletion; an unmatched one is ignored.
  class LegacyDeletions {
   public:
    void add(const Checker& c, std::size_t s) {
      if (enabled_) buckets_[key(c.lits(s))].push_back(static_cast<ProofId>(s));
    }
    void remove(Checker& c, std::size_t s) {
      if (!enabled_) {
        enabled_ = true;
        for (std::size_t k = 0; k < s; ++k) {
          if (is_clause(c.log_.step(k).kind)) add(c, k);
        }
      }
      const auto it = buckets_.find(key(c.lits(s)));
      if (it == buckets_.end()) return;
      std::vector<ProofId>& ids = it->second;
      for (std::size_t i = ids.size(); i-- > 0;) {
        if (c.deleted_at_[ids[i]] == kNever && same_multiset(c, ids[i], s)) {
          c.deleted_at_[ids[i]] = static_cast<ProofId>(s);
          ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(i));
          return;
        }
      }
    }

   private:
    std::uint64_t key(std::span<const Lit> ls) {
      sorted_.assign(ls.begin(), ls.end());
      std::sort(sorted_.begin(), sorted_.end());
      std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the indices
      for (const Lit l : sorted_) {
        h = (h ^ static_cast<std::uint32_t>(l.index())) * 1099511628211ull;
      }
      return h;
    }
    bool same_multiset(const Checker& c, std::size_t a, std::size_t b) {
      std::vector<Lit> x(c.lits(a).begin(), c.lits(a).end());
      std::vector<Lit> y(c.lits(b).begin(), c.lits(b).end());
      std::sort(x.begin(), x.end());
      std::sort(y.begin(), y.end());
      return x == y;
    }

    bool enabled_ = false;
    std::unordered_map<std::uint64_t, std::vector<ProofId>> buckets_;
    std::vector<Lit> sorted_;
  };

  bool mark_targets(std::span<const std::size_t> targets, DratResult* res) {
    if (!targets.empty()) {
      for (const std::size_t s : targets) {
        if (s >= log_.num_steps() ||
            log_.step(s).kind != ProofStepKind::kLemma) {
          return fail(res, "target " + step_name(s) + " is not a lemma");
        }
        marked_[s] = 1;
      }
      return true;
    }
    bool found = false;
    std::size_t last_lemma = kNever;
    for (std::size_t s = 0; s < log_.num_steps(); ++s) {
      if (log_.step(s).kind != ProofStepKind::kLemma) continue;
      last_lemma = s;
      if (lits(s).empty()) {
        marked_[s] = 1;
        found = true;
      }
    }
    if (!found) {
      if (last_lemma == kNever) {
        return fail(res, "proof contains no lemma to check");
      }
      marked_[last_lemma] = 1;
    }
    return true;
  }

  // -- Shared assignment state --------------------------------------------

  bool live_at(std::size_t c, std::size_t s) const {
    return c < s && deleted_at_[c] > s;
  }

  enum LitVal : signed char { kFalse = -1, kUnset = 0, kTrue = 1 };

  LitVal val(Lit l) const {
    const signed char v = vals_[static_cast<std::size_t>(l.var())];
    if (v == 0) return kUnset;
    return (v > 0) != l.sign() ? kTrue : kFalse;
  }

  void assign(Lit l, ProofId why) {
    vals_[static_cast<std::size_t>(l.var())] =
        static_cast<signed char>(l.sign() ? -1 : 1);
    reason_[static_cast<std::size_t>(l.var())] = why;
    trail_.push_back(l);
  }

  void undo() {
    for (const Lit l : trail_) {
      vals_[static_cast<std::size_t>(l.var())] = 0;
      reason_[static_cast<std::size_t>(l.var())] = kNever;
    }
    trail_.clear();
  }

  /// Assert the negation of lemma `s`. Returns false when the lemma is a
  /// tautology (it then holds vacuously; nothing is left assigned).
  bool assert_negation(std::size_t s) {
    for (const Lit l : lits(s)) {
      if (val(l) == kTrue) {
        undo();
        return false;
      }
      if (val(l) == kUnset) assign(~l, kNever);
    }
    return true;
  }

  // -- Hinted check ---------------------------------------------------------

  /// Replay lemma `s`'s hints under its negation: each must be an earlier,
  /// still-live clause that is unit (its one unassigned literal is then
  /// assigned), and the last must be falsified. No propagation search and
  /// no fallback: a chain that does not close rejects the proof.
  bool check_hints(std::size_t s, DratResult* res) {
    if (!assert_negation(s)) return true;
    const std::span<const ProofId> hints = log_.hints(log_.step(s));
    auto reject = [&](ProofId h, const std::string& why) {
      undo();
      return fail(res, "lemma at " + step_name(s) + ": hint " +
                           step_name(h) + why);
    };
    bool closed = false;
    for (const ProofId h : hints) {
      if (closed) return reject(h, " follows the conflict");
      if (h >= s) return reject(h, " is not an earlier step");
      if (!is_clause(log_.step(h).kind)) {
        return reject(h, " is a deletion, not a clause");
      }
      if (!live_at(h, s)) {
        return reject(h, " was deleted at " + step_name(deleted_at_[h]));
      }
      Lit unit = sat::kUndefLit;
      for (const Lit l : lits(h)) {
        const LitVal v = val(l);
        if (v == kTrue) return reject(h, " is satisfied, not unit");
        if (v == kUnset) {
          if (unit != sat::kUndefLit && unit != l) {
            return reject(h, " is not unit");
          }
          unit = l;
        }
      }
      if (unit == sat::kUndefLit) {
        closed = true;
      } else {
        assign(unit, h);
      }
    }
    undo();
    if (!closed) {
      return fail(res, "lemma at " + step_name(s) +
                           ": hint chain ends without a conflict");
    }
    for (const ProofId h : hints) marked_[h] = 1;
    return true;
  }

  // -- RUP check (unhinted lemmas) ----------------------------------------

  /// Occurrence lists, unit and empty clauses for RUP, built on the first
  /// unhinted lemma that needs them.
  void build_rup_index() {
    if (rup_ready_) return;
    rup_ready_ = true;
    occs_.assign(2 * vals_.size(), {});
    for (std::size_t s = 0; s < log_.num_steps(); ++s) {
      if (!is_clause(log_.step(s).kind)) continue;
      const std::span<const Lit> ls = lits(s);
      if (ls.empty()) {
        empty_.push_back(static_cast<ProofId>(s));
      } else if (ls.size() == 1) {
        units_.push_back(static_cast<ProofId>(s));
      }
      for (const Lit l : ls) {
        occs_[static_cast<std::size_t>(l.index())].push_back(
            static_cast<ProofId>(s));
      }
    }
  }

  /// Mark the conflict clause and, transitively, every reason clause that
  /// supports the propagation chain leading into it.
  void mark_used(ProofId confl) {
    std::vector<Lit> todo(lits(confl).begin(), lits(confl).end());
    marked_[confl] = 1;
    std::vector<char> visited(vals_.size(), 0);
    while (!todo.empty()) {
      const Lit l = todo.back();
      todo.pop_back();
      const auto v = static_cast<std::size_t>(l.var());
      if (visited[v]) continue;
      visited[v] = 1;
      const ProofId r = reason_[v];
      if (r == kNever) continue;
      marked_[r] = 1;
      const auto rl = lits(r);
      todo.insert(todo.end(), rl.begin(), rl.end());
    }
  }

  /// Assert the negation of lemma `s` and unit propagate over the database
  /// as it stood at that step; succeed iff that closes with a conflict (or
  /// the clause is a tautology).
  bool check_rup(std::size_t s, DratResult* res) {
    build_rup_index();
    if (!assert_negation(s)) return true;
    ProofId confl = kNever;
    for (const ProofId e : empty_) {
      if (live_at(e, s)) {
        confl = e;
        break;
      }
    }
    for (std::size_t u = 0; confl == kNever && u < units_.size(); ++u) {
      const ProofId ucid = units_[u];
      if (!live_at(ucid, s)) continue;
      const Lit l = lits(ucid)[0];
      if (val(l) == kFalse) {
        confl = ucid;
      } else if (val(l) == kUnset) {
        assign(l, ucid);
      }
    }
    for (std::size_t head = 0; confl == kNever && head < trail_.size();
         ++head) {
      const Lit falsified = ~trail_[head];
      for (const ProofId wcid :
           occs_[static_cast<std::size_t>(falsified.index())]) {
        if (!live_at(wcid, s)) continue;
        Lit unit = sat::kUndefLit;
        bool determined = true;  // no true literal, <= 1 unset
        for (const Lit l : lits(wcid)) {
          const LitVal v = val(l);
          if (v == kTrue) {
            determined = false;
            break;
          }
          if (v == kUnset) {
            if (unit != sat::kUndefLit && unit != l) {
              determined = false;
              break;
            }
            unit = l;
          }
        }
        if (!determined) continue;
        if (unit == sat::kUndefLit) {
          confl = wcid;
          break;
        }
        assign(unit, wcid);
      }
    }
    if (confl == kNever) {
      undo();
      return fail(res, "lemma at " + step_name(s) +
                           " is not RUP (propagation closed without "
                           "conflict)");
    }
    mark_used(confl);
    undo();
    return true;
  }

  // -- Theory weakening check -------------------------------------------

  /// C is implied by  sum a_i l_i >= k  iff assigning every literal of C
  /// false caps the achievable left-hand side below k. Terms whose literal
  /// is in C contribute 0; all others (including negations of C literals,
  /// which ~C forces true) can contribute their coefficient.
  bool check_weakening(std::size_t s, DratResult* res) {
    const auto cl = lits(s);
    for (const Lit l : cl) {
      if (std::find(cl.begin(), cl.end(), ~l) != cl.end()) return true;
    }
    for (const sat::ProofPbConstraint& axiom : log_.pb_constraints()) {
      std::int64_t max_lhs = 0;
      for (const sat::ProofPbTerm& t : axiom.terms) {
        if (std::find(cl.begin(), cl.end(), t.lit) == cl.end()) {
          max_lhs += t.coef;
        }
      }
      if (max_lhs < axiom.rhs) return true;
    }
    return fail(res, "theory lemma at " + step_name(s) +
                         " is not a weakening of any logged PB axiom");
  }

  const ProofLog& log_;
  std::vector<ProofId> deleted_at_;  ///< step -> deleting step (or kNever)
  std::vector<char> marked_;         ///< step -> must be verified
  // RUP index (lazy, see build_rup_index).
  bool rup_ready_ = false;
  std::vector<std::vector<ProofId>> occs_;
  std::vector<ProofId> units_;
  std::vector<ProofId> empty_;
  // Per-check assignment state (reset by undo()).
  std::vector<signed char> vals_;
  std::vector<ProofId> reason_;
  std::vector<Lit> trail_;
};

}  // namespace

DratResult check_proof(const sat::ProofLog& log,
                       std::span<const std::size_t> targets) {
  return Checker(log).run(targets, /*all_lemmas=*/false);
}

DratResult check_proof_all(const sat::ProofLog& log) {
  return Checker(log).run({}, /*all_lemmas=*/true);
}

}  // namespace optalloc::check
