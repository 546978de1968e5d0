#pragma once
// Inprocessing engine: clause-database simplification between restarts.
//
// A pass runs at a restart boundary (decision level 0) and applies, in
// order:
//   1. backward subsumption + self-subsuming resolution over the problem
//      clauses, with 64-bit literal signatures as a pre-filter;
//   2. vivification (distillation) of the highest-activity learnt
//      clauses: assert the negation of each literal in turn and shrink
//      the clause when propagation falsifies literals or closes it early;
//   3. bounded variable elimination (NiVER/SatELite style): resolve out
//      variables whose non-tautological resolvent count does not exceed
//      the occurrence count plus a growth cap, saving the removed clauses
//      for model reconstruction and restoration.
//
// Certification: every clause the pass derives is logged as a lemma
// BEFORE the clauses it was derived from are logged as deleted, so the
// checker's live window always holds its antecedents. Resolvents carry
// their two parents as hints and self-subsuming strengthenings the
// subsumer and the strengthened clause, each after the units of the
// level-0 literals the rewrite dropped. Vivified clauses carry the chain
// of the probes that shortened them.
//
// Model reconstruction: eliminating v removes all clauses containing v;
// a model of the reduced formula is extended to the original one by
// replaying the saved smaller occurrence sides backward (MiniSat
// SimpSolver order — see Solver::extend_model).
//
// Layout: a pass keeps its working data in flat arrays that live for the
// pass (DESIGN.md §14). What it computes — the eliminated variables, the
// surviving clauses, the proof lines and the watch-list order, hence the
// search that follows — must not depend on that layout;
// Inprocess.PaperEncodingPassIsStable pins it. Occurrence lists hold
// clause indices, never dereferenced across a relocation: clauses deleted
// during the pass only accrue to wasted(), and the finalizer rebuilds
// clauses_/learnts_ from the surviving set before it considers a
// compaction.
//
// Frozen variables (Solver::set_frozen) are never eliminated; they are
// the contract with every component that holds variable references
// across solves: theory propagators and assumption/bound guards.
// Freezing is an optimization, not a safety requirement: an eliminated
// variable that reappears in a later add_clause or assumption is
// transparently restored (Solver::restore_var re-attaches the removed
// clauses — saved verbatim, their proof deletions never logged — and
// retires the variable's reconstruction group), so incremental callers
// that froze nothing still get correct answers.

#include <cstdint>
#include <memory>
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

  /// A registered clause and its current literal count.
  struct ClsInfo {
    CRef cref;
    std::uint32_t size;
  };
  /// Per-clause state bits, one byte per clause in flags_.
  enum : std::uint8_t {
    kLearnt = 1,
    kAlive = 2,
    kQueued = 4,     ///< scheduled in the subsumption queue
    kRewritten = 8,  ///< lost literals: its occurrence entries may be stale
    kSatisfied = 16, ///< holds a literal made true at level 0 by the pass
  };
  /// One occurrence of a variable: the clause, the sign of the variable's
  /// literal in it, the clause's size and the signature (union of
  /// 1 << (index & 63)) of its other literals, both when registered.
  /// Clauses only shrink, so the recorded size and signature bound the
  /// current ones from above: they reject subsumption candidates and
  /// elimination candidates soundly without touching the arena.
  struct Occ {
    std::uint32_t idx;
    std::uint32_t size_sign;  ///< size << 1 | sign
    std::uint64_t sig;
  };
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  /// One parent's literals other than the pivot and the level-0 false
  /// ones, side_lits_[begin, end), with the signature of their variables.
  /// Entailed: it holds a true literal, so it has no resolvents.
  struct Slice {
    std::uint32_t begin;
    std::uint32_t end;
    std::uint64_t vars;
    bool entailed;
  };
  /// A dry-run resolvent: its literals in res_lits_ and its parents.
  struct Resolvent {
    std::uint32_t begin;
    std::uint32_t size;
    std::uint32_t pos;
    std::uint32_t neg;
  };

  // Pass stages.
  void build_occurrences();
  bool backward_subsume();
  bool vivify();
  bool eliminate_variables();
  void finalize();

  // Helpers.
  bool alive(std::uint32_t idx) const { return (flags_[idx] & kAlive) != 0; }
  bool learnt(std::uint32_t idx) const { return (flags_[idx] & kLearnt) != 0; }
  bool clause_satisfied(std::uint32_t idx) const {
    return (flags_[idx] & kSatisfied) != 0;
  }
  bool locked(std::uint32_t idx) const;
  bool still_contains(const Occ& o, Var v) const;
  template <class F>
  void for_each_occurrence(Var v, F&& f);
  static Occ occ_entry(std::uint32_t idx, std::uint32_t size, Lit l,
                       std::uint64_t others);
  template <class F>
  static void for_each_literal_sig(std::span<const Lit> lits, F&& f);
  void mark_satisfied();
  void register_resolvent(CRef cref, std::span<const Lit> lits);
  bool try_subsume(std::uint32_t didx, std::uint32_t sidx,
                   std::uint32_t sub_size);
  bool strengthen(std::uint32_t idx, Lit drop, std::uint32_t sub);
  bool apply_rewrite(std::uint32_t idx, std::span<const Lit> new_lits,
                     bool detached, bool requeue,
                     std::span<const ProofId> hints);
  void remove_info(std::uint32_t idx, bool log_delete = true);
  bool gather_var_occurrences(Var v);
  bool dry_run(Var v, bool& vetoed);
  void save_elimination(Var v, Lit unit);
  ProofId log_resolvent(std::span<const Lit> r, std::uint32_t pi,
                        std::uint32_t ni);
  bool attach_resolvent(std::span<const Lit> r, ProofId id);
  bool flush_units();
  bool abort_requested() const;
  void emit_telemetry(double seconds, std::size_t words_freed);

  Solver& s_;
  InprocessLimits limits_;

  // Every array below lives for one pass and is sized once per pass (or
  // grows geometrically); no stage allocates per clause or per variable.
  std::vector<ClsInfo> infos_;
  std::vector<std::uint8_t> flags_;
  /// Occurrences of variable v: the slice occ_[occ_begin_[v], +occ_size_[v])
  /// built by counting, then the entries of resolvents in added_, chained
  /// backward through added_prev_ from occ_last_[v] (kNone: none yet).
  std::unique_ptr<Occ[]> occ_;
  std::vector<std::uint32_t> occ_begin_, occ_size_, occ_last_;
  std::vector<Occ> added_;
  std::vector<std::uint32_t> added_prev_;
  std::vector<std::uint32_t> chain_;  ///< for_each_occurrence() scratch
  /// Clauses excluded from the pass but kept in the DB (satisfied/locked
  /// at level 0, theory reasons).
  std::vector<CRef> kept_clauses_;
  std::vector<CRef> kept_learnts_;
  /// Literal timestamps for O(1) membership during subsumption/resolution.
  std::vector<std::uint32_t> lit_stamp_;
  std::uint32_t stamp_ = 0;
  std::vector<std::uint32_t> subsume_queue_;
  /// Level-0 trail prefix whose literals' clauses carry kSatisfied.
  std::size_t marked_ = 0;

  // Elimination scratch, reused for every variable.
  std::vector<std::uint32_t> pos_, neg_, learnt_occ_;
  std::vector<std::uint64_t> pos_vars_, neg_vars_;  ///< their var_classes
  /// Both sides' literals, copied once per variable for all partners.
  std::vector<Lit> side_lits_;
  std::vector<Slice> pos_slices_, neg_slices_;
  std::vector<Lit> res_lits_;
  std::vector<Resolvent> res_;
  std::vector<PendingUnit> pending_units_;
  std::vector<Lit> rewrite_;

  // Pass counters (folded into SolverStats and obs at the end).
  std::uint64_t subsumed_ = 0;
  std::uint64_t strengthened_ = 0;
  std::uint64_t eliminated_ = 0;
};

}  // namespace optalloc::sat
