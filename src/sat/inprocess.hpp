#pragma once
// Inprocessing engine: clause-database simplification between restarts.
//
// A pass runs at a restart boundary (decision level 0) and applies, in
// order:
//   1. backward subsumption + self-subsuming resolution over the problem
//      clauses, with 64-bit variable signatures as a pre-filter;
//   2. vivification (distillation) of the highest-activity learnt
//      clauses: assert the negation of each literal in turn and shrink
//      the clause when propagation falsifies literals or closes it early;
//   3. bounded variable elimination (NiVER/SatELite style): resolve out
//      variables whose non-tautological resolvent count does not exceed
//      the occurrence count plus a growth cap, recording the removed
//      clauses on the solver's model-reconstruction stack.
//
// Certification: every clause the pass derives is logged as a lemma
// BEFORE the clauses it was derived from are logged as deleted, so the
// checker's live window always holds its antecedents. Resolvents carry
// their two parents as hints and self-subsuming strengthenings the
// subsumer and the strengthened clause, each after the units of the
// level-0 literals the rewrite dropped. Vivified clauses carry no hints
// and are checked by RUP.
//
// Model reconstruction: eliminating v removes all clauses containing v;
// a model of the reduced formula is extended to the original one by
// replaying the smaller occurrence side off Solver::elim_stack_ backward
// (MiniSat SimpSolver layout — see Solver::extend_model).
//
// Interaction with GC: occurrence lists hold raw CRefs, so a pass never
// triggers arena relocation mid-flight; clauses deleted during the pass
// only accrue to wasted(). The pass finalizer rebuilds clauses_/learnts_
// from the surviving set and only then considers a compaction.
//
// Frozen variables (Solver::set_frozen) are never eliminated; they are
// the contract with every component that holds variable references
// across solves: theory propagators and assumption/bound guards.
// Freezing is an optimization, not a safety requirement: an eliminated
// variable that reappears in a later add_clause or assumption is
// transparently restored (Solver::restore_var re-attaches the removed
// clauses — saved verbatim, their proof deletions never logged — and
// drops the variable's reconstruction entries), so incremental callers
// that froze nothing still get correct answers.

#include <cstdint>
#include <span>
#include <vector>

#include "sat/clause.hpp"
#include "sat/proof.hpp"
#include "sat/types.hpp"

namespace optalloc::sat {

class Solver;

/// Per-pass effort limits. Defaults are sized so a pass stays a small
/// fraction of search time even on the large table encodings; tests
/// loosen them to make specific rewrites deterministic.
struct InprocessLimits {
  /// Clauses longer than this are not used as subsumers (still checked as
  /// subsumees).
  std::uint32_t subsume_clause_max = 64;
  /// Variables with more occurrences (either polarity) than this are not
  /// variable-elimination candidates.
  std::uint32_t bve_occ_max = 16;
  /// Resolvents wider than this veto elimination of their variable.
  std::uint32_t bve_resolvent_max = 64;
  /// Elimination may not grow the clause count by more than this.
  std::int32_t bve_grow = 0;
  /// Vivify at most this many clauses per pass...
  std::uint32_t vivify_max_clauses = 128;
  /// ...none longer than this.
  std::uint32_t vivify_max_width = 64;
  /// Also vivify irredundant (problem) clauses, not just learnts. Off by
  /// default (the payoff is in learnts); tests use it for determinism.
  bool vivify_irredundant = false;
};

/// One inprocessing pass over a solver at decision level 0. Construct,
/// call run() once, discard. Scheduling (geometric conflict backoff)
/// lives in Solver::maybe_inprocess().
class Inprocessor {
 public:
  explicit Inprocessor(Solver& s, InprocessLimits limits = {});

  /// Execute the pass. Returns false iff top-level UNSAT was derived.
  /// Respects the solver's active budget/stop flag: an exhausted budget
  /// ends the pass early (every partial rewrite is already sound).
  bool run();

 private:
  /// A unit resolvent waiting for its parents' deletion, with its step ID.
  struct PendingUnit {
    Lit lit;
    ProofId id;
  };

  struct ClsInfo {
    CRef cref;
    std::uint64_t sig;    ///< union of 1<<(var&63) over current literals
    std::uint32_t size;   ///< current literal count
    bool learnt;
    bool alive;
    bool in_queue;        ///< scheduled in the subsumption queue
  };

  // Pass stages.
  void build_occurrences();
  bool backward_subsume();
  bool vivify();
  bool eliminate_variables();
  void finalize();

  // Helpers.
  std::uint64_t signature(const Clause& c) const;
  bool clause_satisfied(const Clause& c) const;
  bool try_subsume(std::uint32_t didx, std::uint32_t sidx,
                   std::uint32_t sub_size);
  bool strengthen(std::uint32_t idx, Lit drop, std::uint32_t sub);
  bool apply_rewrite(std::uint32_t idx, const std::vector<Lit>& new_lits,
                     bool detached, bool requeue,
                     std::span<const ProofId> hints);
  bool remove_info(std::uint32_t idx, bool log_delete = true);
  void save_for_restore(Var v, const std::vector<std::uint32_t>& side);
  void register_clause(CRef cref, bool learnt);
  bool gather_var_occurrences(Var v, std::vector<std::uint32_t>& pos,
                              std::vector<std::uint32_t>& neg,
                              std::vector<std::uint32_t>& learnt_occ);
  bool resolve(const Clause& p, const Clause& n, Var v,
               std::vector<Lit>& out);
  void push_reconstruction(Var v, const std::vector<std::uint32_t>& side,
                           Lit unit);
  ProofId log_resolvent(const std::vector<Lit>& r, std::uint32_t pi,
                        std::uint32_t ni);
  bool attach_resolvent(const std::vector<Lit>& r, ProofId id,
                        std::vector<PendingUnit>& pending_units);
  bool flush_units(std::vector<PendingUnit>& pending_units);
  bool abort_requested() const;
  void emit_telemetry(double seconds, std::size_t wasted_before);

  Solver& s_;
  InprocessLimits limits_;

  std::vector<ClsInfo> infos_;
  std::vector<std::vector<std::uint32_t>> occ_;  ///< var -> info indices
  /// Clauses excluded from the pass but kept in the DB (satisfied/locked
  /// at level 0, theory reasons).
  std::vector<CRef> kept_clauses_;
  std::vector<CRef> kept_learnts_;
  /// Literal timestamps for O(1) membership during subsumption/resolution.
  std::vector<std::uint32_t> lit_stamp_;
  std::uint32_t stamp_ = 0;
  std::vector<std::uint32_t> subsume_queue_;

  // Pass counters (folded into SolverStats and obs at the end).
  std::uint64_t subsumed_ = 0;
  std::uint64_t strengthened_ = 0;
  std::uint64_t eliminated_ = 0;
};

}  // namespace optalloc::sat
