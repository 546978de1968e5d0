#pragma once
// Clausal proof logging — the DRAT discipline of certified SAT solving,
// extended for the theory-augmented CDCL core and carrying LRAT-style
// antecedent hints (Cruz-Filipe, Heule, Hunt, Kaufmann & Schneider-Kamp,
// CADE 2017):
//
//   i  <lits> 0            input clause (trusted problem axiom)
//   p  <rhs> <coef lit>* 0 pseudo-Boolean axiom  sum coef*lit >= rhs
//   t  <lits> 0            theory lemma: a clausal weakening of one PB
//                          axiom (checkable against the `p` lines alone)
//      <lits> 0 [<ids> 0]  lemma; the optional suffix lists its hints
//   d  <lits> 0 [<id> 0]   clause deletion
//
// Step IDs. Every line except `p` lines and comments is one step; the
// text names step k of the log (0-based in memory) as k+1, because 0
// terminates a list. Literals are DIMACS integers.
//
// Hints. A hinted lemma lists the IDs of earlier, still-live clauses in
// unit-propagation order: under the lemma's negation each hint but the
// last becomes unit, and the last is falsified. The checker replays just
// those clauses. A lemma without hints is checked by reverse unit
// propagation (RUP) over the whole live database instead.
//
// Deletions. `d <lits> 0 <id> 0` deletes step <id>; the literals are only
// informative. A legacy `d <lits> 0` without an ID removes the most recent
// live clause with the same literal multiset; one that matches no clause
// is ignored, which is sound for a checker that never uses RAT: every
// database clause is entailed, so keeping one can only make RUP easier.
//
// A reader that stops at each line's first 0 sees plain DRAT with an `i`
// prefix on input clauses: hints are an optional suffix.
//
// Cost model: the solver holds a `ProofLog*` that is null by default; every
// producer site is guarded by one pointer test, so search pays nothing when
// proof logging is off.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "sat/types.hpp"

namespace optalloc::sat {

/// Step index within a ProofLog.
using ProofId = std::uint32_t;
inline constexpr ProofId kNoProofId = 0xFFFFFFFFu;

enum class ProofStepKind : std::uint8_t {
  kInput,   ///< trusted problem clause
  kTheory,  ///< clausal weakening of a PB axiom (checked, not RUP)
  kLemma,   ///< derived clause: hint chain, or RUP when unhinted
  kDelete,  ///< deletion of one earlier step (or a legacy literal deletion)
};

/// One step; literals live in the log's pool [begin, end), hint IDs in its
/// hint pool [hint_begin, hint_end). A kDelete step with one "hint" deletes
/// that step; one with literals and no hint is a legacy literal deletion.
struct ProofStep {
  ProofStepKind kind;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  std::uint32_t hint_begin = 0;
  std::uint32_t hint_end = 0;
};

/// A PB axiom registered with the proof:  sum coef_i * lit_i >= rhs
/// (all coefficients positive — the propagator's normalized form).
struct ProofPbTerm {
  std::int64_t coef;
  Lit lit;
};
struct ProofPbConstraint {
  std::vector<ProofPbTerm> terms;
  std::int64_t rhs = 0;
};

/// Append-only in-memory proof. One log may span several solve() calls on
/// the same solver (the optimizer's incremental binary search): lemmas
/// accumulate, and each UNSAT answer's conflict-core lemma becomes a
/// checkable target (see check::check_proof).
class ProofLog {
 public:
  ProofId add_input(std::span<const Lit> lits) {
    return push(ProofStepKind::kInput, lits, {});
  }
  ProofId add_theory(std::span<const Lit> lits) {
    return push(ProofStepKind::kTheory, lits, {});
  }
  ProofId add_lemma(std::span<const Lit> lits,
                    std::span<const ProofId> hints = {}) {
    return push(ProofStepKind::kLemma, lits, hints);
  }
  /// Delete step `id` from the live database.
  void add_delete(ProofId id) {
    push(ProofStepKind::kDelete, {}, std::span<const ProofId>(&id, 1));
  }
  /// Legacy deletion by literals (what hint-free DRAT logs carry).
  void add_delete(std::span<const Lit> lits) {
    push(ProofStepKind::kDelete, lits, {});
  }
  void add_pb_ge(std::span<const ProofPbTerm> terms, std::int64_t rhs);

  std::size_t num_steps() const { return steps_.size(); }
  const ProofStep& step(std::size_t i) const { return steps_[i]; }
  std::span<const Lit> lits(const ProofStep& s) const {
    return {pool_.data() + s.begin, pool_.data() + s.end};
  }
  std::span<const ProofId> hints(const ProofStep& s) const {
    return {hints_.data() + s.hint_begin, hints_.data() + s.hint_end};
  }
  /// The step a kDelete step removes, or kNoProofId for a legacy literal
  /// deletion.
  ProofId deleted(const ProofStep& s) const {
    return s.hint_end > s.hint_begin ? hints_[s.hint_begin] : kNoProofId;
  }
  std::span<const ProofPbConstraint> pb_constraints() const { return pb_; }

  /// Index of the most recently appended step (log must be non-empty).
  std::size_t last_step() const { return steps_.size() - 1; }

  /// Number of kLemma steps appended so far.
  std::uint64_t num_lemmas() const { return num_lemmas_; }

  /// Serialize in the text format documented above.
  void write_text(std::ostream& os) const;

  /// Parse the text format, appending to this log. Returns false and fills
  /// `error` on malformed input.
  bool parse_text(std::istream& is, std::string* error);

 private:
  ProofId push(ProofStepKind kind, std::span<const Lit> lits,
               std::span<const ProofId> hints);

  std::vector<ProofStep> steps_;
  std::vector<Lit> pool_;
  std::vector<ProofId> hints_;
  std::vector<ProofPbConstraint> pb_;
  std::uint64_t num_lemmas_ = 0;
};

}  // namespace optalloc::sat
