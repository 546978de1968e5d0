#pragma once
// Independent backward proof checker for the extended-DRAT logs produced
// by sat::ProofLog. "Independent" means: the checker shares no state or
// code with the solver's propagation engine — it re-derives every target
// lemma from the logged clause database by its own unit propagation, so a
// bug in the solver's watch lists, conflict analysis or clause
// minimization cannot vouch for itself.
//
// Checking discipline (drat-trim style backward checking):
//   * forward pass: give every clause step a [add, delete) liveness
//     interval. Deletions name their step by ID; a deletion that names a
//     non-clause, a later step or an already deleted clause is malformed.
//     Legacy literal deletions are matched to a live clause with the same
//     literals, and ignored when none matches (sound, since the checker
//     never uses RAT and every database clause is entailed);
//   * mark the target lemmas (by default: every empty lemma, or the last
//     lemma when none is empty — callers with assumption cores pass the
//     core steps explicitly);
//   * backward pass: verify each marked lemma, marking the clauses its
//     check used in turn:
//       - a hinted lemma replays its hints under its negation: each must
//         be an earlier, still-live clause that is unit, and the last must
//         be falsified. A chain that does not close rejects the proof,
//         naming the step; there is no fallback to RUP;
//       - an unhinted lemma is checked by reverse unit propagation over the
//         clauses live at that point (occurrence lists are built on the
//         first such check);
//   * marked theory (`t`) lemmas are verified as clausal weakenings of a
//     logged PB axiom: C is implied by  sum a_i l_i >= k  iff the maximum
//     of the left-hand side over assignments falsifying C is below k.
//
// Hints are untrusted input: they only choose which clauses the checker
// looks at, and every one is re-evaluated. So a PASS means the same with
// or without them.
//
// What a PASS means: every target lemma is entailed by the `i` input
// clauses plus the `p` PB axioms. Input lines themselves are trusted —
// whether they faithfully encode the allocation problem is the model
// certifier's job (see check/model.hpp and the threat model in DESIGN.md).
// Diagnostics name steps by their 1-based text IDs.

#include <cstddef>
#include <span>
#include <string>

#include "sat/proof.hpp"

namespace optalloc::check {

struct DratResult {
  bool ok = false;
  std::string error;              ///< first failure, human-readable
  std::size_t lemmas_checked = 0; ///< lemmas verified (both paths)
  std::size_t hinted_checked = 0; ///< ...of which by their hint chains
  std::size_t rup_checked = 0;    ///< ...of which by RUP (no hints)
  std::size_t theory_checked = 0; ///< theory lemmas verified against axioms
  std::size_t db_clauses = 0;     ///< clause steps in the log
};

/// Verify `targets` (step indices of kLemma steps in `log`; empty = the
/// default target rule above). Returns ok=false with a diagnostic if any
/// marked lemma fails its check or the log is malformed.
DratResult check_proof(const sat::ProofLog& log,
                       std::span<const std::size_t> targets = {});

/// Strict mode: verify every lemma in the log, not just those a target
/// depends on. Every clause the solver ever learns follows from the
/// database at the moment it is derived (by its hints, or by RUP), so a
/// healthy log always passes — and a corrupted lemma is
/// caught even when the final answer happens not to depend on it. Used by
/// the standalone drat_check tool and the fault-injection tests.
DratResult check_proof_all(const sat::ProofLog& log);

}  // namespace optalloc::check
