#pragma once
// CDCL SAT solver in the MiniSat/Glucose lineage: two-watched-literal
// propagation, VSIDS branching with phase saving, first-UIP conflict
// analysis with recursive clause minimization, Luby restarts, activity/LBD
// based learnt-clause deletion, incremental solving under assumptions, and
// a hook for external theory propagators (used by the pseudo-Boolean layer,
// mirroring the role of GOBLIN in the paper).

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sat/clause.hpp"
#include "sat/heap.hpp"
#include "sat/proof.hpp"
#include "sat/types.hpp"

namespace optalloc::sat {

class Solver;

/// Theory-propagator interface. A propagator watches assignments and may
/// enqueue implied literals (with a materialized reason clause) or report a
/// conflict (as a falsified clause). The pseudo-Boolean layer implements
/// this to get GOBLIN-style native 0-1 linear constraint propagation.
class Propagator {
 public:
  virtual ~Propagator() = default;

  /// A new variable was created; size internal tables.
  virtual void on_new_var(Var v) = 0;

  /// Literal `l` became true. Return false on conflict, filling `conflict`
  /// with a clause whose literals are all false under the current trail.
  /// May imply further literals via Solver::theory_enqueue().
  virtual bool on_assign(Lit l, std::vector<Lit>& conflict) = 0;

  /// Literal `l` is being unassigned during backtracking.
  virtual void on_unassign(Lit l) = 0;
};

/// Resource limits for a single solve() call. Zero means unlimited.
/// `stop` is an optional cooperative-cancellation flag (the service sets
/// it to cancel a request or wind down on shutdown): the solve returns
/// kUndef soon after it becomes true.
struct Budget {
  std::int64_t conflicts = 0;
  double seconds = 0.0;
  const std::atomic<bool>* stop = nullptr;
};

struct SolverStats {
  /// Literal occurrences across all added problem clauses — the "Lit."
  /// column of the paper's result tables.
  std::uint64_t added_literals = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learnt_literals = 0;
  std::uint64_t minimized_literals = 0;
  std::uint64_t removed_clauses = 0;
  std::uint64_t theory_propagations = 0;
  std::uint64_t gc_runs = 0;
  /// Inprocessing (subsumption / self-subsuming resolution, vivification,
  /// bounded variable elimination; see sat/inprocess.hpp).
  std::uint64_t inprocess_passes = 0;
  std::uint64_t subsumed_clauses = 0;
  std::uint64_t strengthened_clauses = 0;
  std::uint64_t eliminated_vars = 0;
  std::uint64_t restored_vars = 0;
  std::uint64_t inprocess_reclaimed_words = 0;
  /// Phase wall-times. Only accumulated while obs::phase_timing() is on
  /// (e.g. --stats); otherwise the search loop takes no clock readings.
  double propagate_seconds = 0.0;
  double analyze_seconds = 0.0;
  double reduce_seconds = 0.0;
  double inprocess_seconds = 0.0;
};

class Solver {
 public:
  Solver();

  // --- Problem construction -------------------------------------------

  /// Create a fresh variable and return it. `decision` controls whether the
  /// branching heuristic may pick it.
  Var new_var(bool decision = true);
  std::int32_t num_vars() const { return static_cast<std::int32_t>(assigns_.size()); }
  std::int64_t num_clauses() const { return static_cast<std::int64_t>(clauses_.size()); }
  std::int64_t num_learnts() const { return static_cast<std::int64_t>(learnts_.size()); }
  /// Literal occurrences across the stored problem clauses (level-0 units
  /// live on the trail, not here). O(number of clauses).
  std::uint64_t num_literals() const;

  /// Add a clause (over existing variables). Returns false if the formula
  /// became trivially unsatisfiable. Must be called at decision level 0.
  bool add_clause(std::span<const Lit> lits);
  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }
  bool add_unit(Lit l) { return add_clause({l}); }
  bool add_binary(Lit a, Lit b) { return add_clause({a, b}); }
  bool add_ternary(Lit a, Lit b, Lit c) { return add_clause({a, b, c}); }

  /// Add a clause derived by a theory propagator at level 0 (e.g. a unit
  /// implied by a pseudo-Boolean constraint during construction). Behaves
  /// like add_clause but is proof-logged as a theory lemma (`t` line) —
  /// the proof checker verifies it against the registered PB axioms rather
  /// than trusting it as input.
  bool add_theory_clause(std::span<const Lit> lits);
  bool add_theory_clause(std::initializer_list<Lit> lits) {
    return add_theory_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }

  /// Attach a theory propagator. The solver does not own it. Must be done
  /// before any solving; multiple propagators are invoked in order.
  void attach_propagator(Propagator* p) { propagators_.push_back(p); }

  // --- Solving ----------------------------------------------------------

  /// Solve under the given assumptions. kTrue = SAT (model available),
  /// kFalse = UNSAT (conflict core available), kUndef = budget exhausted.
  LBool solve(std::span<const Lit> assumptions = {}, Budget budget = {});
  LBool solve(std::initializer_list<Lit> assumptions, Budget budget = {}) {
    return solve(std::span<const Lit>(assumptions.begin(), assumptions.size()),
                 budget);
  }

  /// Value of a variable/literal in the most recent model (after SAT).
  LBool model_value(Var v) const { return model_[v]; }
  LBool model_value(Lit l) const { return xor_sign(model_[l.var()], l.sign()); }

  /// Subset of the assumptions responsible for UNSAT (after kFalse),
  /// negated (i.e. the clause that could be learnt).
  const std::vector<Lit>& conflict_core() const { return conflict_core_; }

  /// True while no top-level contradiction has been derived.
  bool ok() const { return ok_; }

  /// Top-level simplification: propagate pending units and drop clauses
  /// satisfied at level 0. Returns false if the formula became UNSAT.
  bool simplify();

  const SolverStats& stats() const { return stats_; }

  // --- Inprocessing / frozen variables ----------------------------------

  /// Freeze a variable: inprocessing may never eliminate it. Freezing is
  /// how external references are declared — theory-propagator terms,
  /// anything a later add_clause or assumption might mention.
  /// Assumption variables are frozen automatically (and permanently) at
  /// solve() entry; every other owner must freeze before the first solve
  /// that could run a pass.
  void set_frozen(Var v, bool frozen = true) {
    frozen_[v] = static_cast<char>(frozen);
  }
  bool is_frozen(Var v) const { return frozen_[v] != 0; }

  /// True once inprocessing removed `v` by bounded variable elimination.
  /// On SAT its model value is reconstructed from the elimination stack,
  /// so model_value() is always defined over the original formula. An
  /// eliminated variable that reappears in a later add_clause or
  /// assumption is transparently *restored* first (its removed clauses
  /// re-attached, its reconstruction entries retired, the variable frozen
  /// from then on) — the incremental-inprocessing discipline of
  /// Fazekas/Biere/Scholl, so incremental callers never observe
  /// elimination at all. Freezing up front merely avoids the restore.
  bool is_eliminated(Var v) const { return eliminated_[v] != 0; }

  // --- Trail inspection (used by theory propagators) --------------------

  LBool value(Var v) const { return assigns_[v]; }
  LBool value(Lit l) const { return xor_sign(assigns_[l.var()], l.sign()); }
  std::int32_t level(Var v) const { return level_[v]; }
  std::int32_t decision_level() const {
    return static_cast<std::int32_t>(trail_lim_.size());
  }
  const std::vector<Lit>& trail() const { return trail_; }

  /// Initial branching polarity hint for a variable (overrides
  /// default_polarity; later overwritten by phase saving). sign=false
  /// means "try true first".
  void set_polarity(Var v, bool sign) {
    polarity_[v] = static_cast<char>(sign);
  }

  /// Raise a variable's branching activity so it is decided early —
  /// combined with set_polarity this steers the first descent toward a
  /// known (warm-start) assignment.
  void boost_activity(Var v, double amount = 1.0) {
    activity_[v] += amount;
    order_.increased(v);
  }

  /// Theory propagation entry point: enqueue `l` with the given reason
  /// clause (l must be its first literal; all others must be false). The
  /// clause is materialized in the learnt arena so conflict analysis can
  /// resolve on it. Returns false if `l` is already false (caller should
  /// then report the reason clause as a conflict instead).
  bool theory_enqueue(Lit l, std::span<const Lit> reason);

  // --- Certification ----------------------------------------------------

  /// Attach a proof log (not owned; nullptr detaches). Attach before adding
  /// clauses so the log is self-contained. When detached every logging site
  /// is a single predicted-not-taken pointer test — search pays nothing.
  /// Attached, every derived clause is logged with its antecedent clause
  /// IDs as hints (see sat/proof.hpp), so checking it needs no search.
  void set_proof(ProofLog* p) { proof_ = p; }
  ProofLog* proof() const { return proof_; }

  /// Debug invariant auditor: checks watch-list consistency (every clause
  /// watched exactly on its first two literals and vice versa), trail/level
  /// agreement, queue-head bounds, reason-clause sanity, and absence of
  /// duplicate literals in learnt clauses. Returns true when consistent;
  /// appends one message per violation to `out` when given. O(DB size) —
  /// meant for tests and the periodic `audit_period` hook, not hot paths.
  bool audit(std::vector<std::string>* out = nullptr) const;

  // --- Tuning knobs ------------------------------------------------------

  double var_decay = 0.95;
  double clause_decay = 0.999;
  int restart_base = 100;         ///< conflicts per Luby unit
  double learnt_size_factor = 1.0 / 3.0;
  double learnt_size_inc = 1.1;
  bool phase_saving = true;
  bool default_polarity = false;  ///< initial branching polarity (sign)
  /// Run the invariant auditor every N conflicts during search (0 = off);
  /// throws std::logic_error on the first violation. Debug/test facility.
  std::int64_t audit_period = 0;
  /// Conflicts between "search_sample" trajectory events (0 = off). Each
  /// sample carries propagation/conflict rates, trail depth, learnt-DB
  /// size and the window's mean learnt LBD; samples go to the flight
  /// recorder always and to the trace sink when tracing is on, and are
  /// counted in sat.search_samples. A final sample is emitted when a
  /// solve() call ends with conflicts outstanding since the last one — so
  /// an interrupted (deadline-missed) search always leaves its last
  /// sample in the flight ring.
  std::int64_t sample_interval = 2048;
  /// Test-only fault injection: corrupt the Nth learnt clause (1-based) by
  /// dropping its last literal, in both the clause DB and the proof log.
  /// The logged hints stay those of the intact clause, whose chain then no
  /// longer closes. A sound checker must reject the proof. 0 = off.
  std::uint64_t test_corrupt_learnt = 0;
  /// Run inprocessing passes (subsumption, vivification, bounded variable
  /// elimination) at restart boundaries. The first pass fires before the
  /// first descent, i.e. doubles as preprocessing.
  bool inprocess = true;
  /// Conflicts between inprocessing passes; the interval doubles after
  /// every pass (geometric backoff).
  std::int64_t inprocess_interval = 4000;

 private:
  friend class Inprocessor;
  // Reason for an assignment: clause reference or kUndefClause (decision /
  // assumption / top-level unit).
  struct VarData {
    CRef reason = kUndefClause;
    std::int32_t level = 0;
  };

  struct Watcher {
    CRef cref;
    Lit blocker;
  };

  // Construction helpers. `logged` names the proof step that already
  // holds a clause added with log_input=false (a restored elimination).
  bool add_clause_impl(std::span<const Lit> lits, bool theory,
                       bool log_input = true, ProofId logged = kNoProofId);
  void attach_clause(CRef cref);
  void detach_clause(CRef cref);
  void remove_clause(CRef cref, bool log_delete = true);
  bool locked(CRef cref) const;

  // Search machinery.
  CRef propagate();
  bool theory_propagate(Lit p, CRef& confl_out);
  void analyze(CRef confl, std::vector<Lit>& out_learnt, std::int32_t& out_btlevel,
               std::uint32_t& out_lbd);
  bool lit_redundant(Lit l, std::uint32_t abstract_levels);
  void analyze_final(Lit p);
  void unchecked_enqueue(Lit l, CRef reason);
  void cancel_until(std::int32_t level);
  Lit pick_branch_lit();
  LBool search(std::int64_t conflicts_before_restart);
  void reduce_db();
  void garbage_collect();
  void reloc_all(ClauseArena& to);

  // Activity bookkeeping.
  void var_bump(Var v);
  void var_decay_all() { var_inc_ /= var_decay; }
  void cla_bump(Clause& c);
  void cla_decay_all() { cla_inc_ /= clause_decay; }

  std::uint32_t compute_lbd(std::span<const Lit> lits);
  bool budget_exhausted() const;
  void emit_search_sample(bool final_sample);

  // Inprocessing (defined in inprocess.cpp).
  bool maybe_inprocess();  ///< run a pass when due; returns ok_
  void extend_model();     ///< replay elim_groups_ onto model_ after SAT
  void restore_var(Var v); ///< undo an elimination whose variable is reused

  // Clause database.
  ClauseArena arena_;
  std::vector<CRef> clauses_;  ///< problem clauses
  std::vector<CRef> learnts_;  ///< learnt + theory-reason clauses

  // Capacity gauges: this solver's share of the process-wide arena
  // footprint, refreshed at solve exit and after GC so `alloc_top` and
  // the watermark sampler see live/wasted bytes; retracted on destruction.
  obs::GaugeTracker arena_bytes_{obs::m::sat_arena_bytes};
  obs::GaugeTracker arena_clauses_{obs::m::sat_arena_clauses};
  obs::GaugeTracker wasted_bytes_{obs::m::sat_arena_wasted_bytes};
  obs::GaugeTracker learnt_clauses_{obs::m::sat_learnts};
  void sync_capacity_gauges();

  // Assignment state.
  std::vector<LBool> assigns_;
  std::vector<VarData> vardata_;
  std::vector<std::int32_t> level_;  // mirror of vardata_.level for speed
  std::vector<Lit> trail_;
  std::vector<std::int32_t> trail_lim_;
  std::size_t qhead_ = 0;        ///< clause propagation queue head
  std::size_t theory_qhead_ = 0; ///< theory propagation queue head

  // Watches: indexed by literal (watching clauses where ~lit occurs).
  std::vector<std::vector<Watcher>> watches_;

  // Branching.
  std::vector<double> activity_;
  double var_inc_ = 1.0;
  VarOrderHeap order_;
  std::vector<char> polarity_;  ///< saved phase per variable
  std::vector<char> decision_;

  // Clause activity / learnt-DB sizing (MiniSat schedule: the cap grows
  // 10% every `adjust` conflicts, with `adjust` itself growing 1.5x).
  double cla_inc_ = 1.0;
  double max_learnts_ = 0.0;
  double learntsize_adjust_confl_ = 100.0;
  int learntsize_adjust_cnt_ = 100;

  // Conflict analysis scratch.
  std::vector<Lit> theory_conflict_;
  std::vector<char> seen_;
  std::vector<Lit> analyze_stack_;
  std::vector<Lit> analyze_toclear_;
  std::vector<std::uint32_t> lbd_seen_;
  std::uint32_t lbd_stamp_ = 0;

  // Assumptions / results.
  std::vector<Lit> assumptions_;
  std::vector<LBool> model_;
  std::vector<Lit> conflict_core_;

  // Inprocessing state.
  std::vector<char> frozen_;      ///< never eliminate (external references)
  std::vector<char> eliminated_;  ///< removed by variable elimination
  /// Verbatim copies of every irredundant clause an elimination removed,
  /// in one flat pool: the literals of entry k are
  /// elim_saved_lits_[begin, begin + size). restore_var() re-attaches a
  /// variable's entries; their proof deletions are deliberately *not*
  /// logged (the checker keeps them live under their step IDs, making
  /// restoration proof-free).
  struct SavedElimClause {
    ProofId id;  ///< kNoProofId without a proof log
    std::uint32_t begin;
    std::uint32_t size;
  };
  std::vector<SavedElimClause> elim_saved_;
  std::vector<Lit> elim_saved_lits_;
  std::int64_t inprocess_next_ = 0;     ///< conflict count of the next pass
  std::int64_t inprocess_backoff_ = 0;  ///< current inter-pass interval

  // Theory propagators.
  std::vector<Propagator*> propagators_;

  // Certification. The hint state at the end of the class stays empty
  // while no log is attached.
  ProofLog* proof_ = nullptr;
  std::uint64_t learnt_count_ = 0;  ///< for test_corrupt_learnt targeting
  bool ok_ = true;
  SolverStats stats_;

  // Budget for the active solve call.
  std::int64_t conflict_budget_ = -1;
  double deadline_ = 0.0;  // steady-clock seconds; 0 = none
  const std::atomic<bool>* stop_ = nullptr;

  // Search-trajectory sampling window (see sample_interval).
  std::uint64_t sample_last_ns_ = 0;
  std::uint64_t sample_last_props_ = 0;
  std::uint64_t sample_last_conflicts_ = 0;
  std::uint64_t lbd_window_sum_ = 0;
  std::uint64_t lbd_window_count_ = 0;

  // Proof hints. Declared last so that every member the search loop
  // touches keeps the offset it has in a solver built without them.
  /// Step ID of the logged clause behind each arena clause, indexed by
  /// CRef / 4: a clause spans at least 4 arena words (3 header words and
  /// a literal), so no two clauses share a slot.
  std::vector<ProofId> clause_id_;
  /// Step ID of a unit clause for each level-0 literal, by variable.
  /// Filled at the enqueue for reasonless units, lazily otherwise.
  std::vector<ProofId> unit_id_;
  std::size_t units_derived_ = 0;  ///< level-0 trail prefix unit_id() saw
  /// Hint collection scratch: per-variable stamps (two per round: "in the
  /// lemma" and "visited"), and a second set for unit derivation.
  std::vector<std::uint32_t> hint_mark_;
  std::uint32_t hint_stamp_ = 0;
  std::vector<std::uint32_t> unit_mark_;
  std::uint32_t unit_stamp_ = 0;
  std::vector<Var> hint_units_;
  std::vector<ProofId> hint_clauses_;
  std::vector<std::pair<Var, std::uint32_t>> hint_stack_;  ///< DFS frames
  std::vector<ProofId> unit_hints_;
  std::vector<ProofId> hints_;  ///< the chain built for the next lemma

  // Proof-mode helpers (solver.cpp).
  ProofId clause_id(CRef cref) const {
    const std::size_t slot = cref >> 2;
    return slot < clause_id_.size() ? clause_id_[slot] : kNoProofId;
  }
  void set_clause_id(CRef cref, ProofId id);
  void set_unit_id(Var v, ProofId id);
  ProofId unit_id(Var v);
  std::uint32_t next_stamp(std::vector<std::uint32_t>& marks,
                           std::uint32_t& stamp, std::uint32_t step);
  void begin_hints();
  void hint_false_units(std::span<const Lit> lits);
  bool hint_clause(ProofId id);
  bool finish_hints();
  bool chain_hints(std::span<const Lit> lemma, CRef confl);
  void log_level0_conflict(CRef confl);

  // Model reconstruction, declared after the hint state for the same
  // reason: the search loop never touches it.
  /// One group per elimination, in elimination order: the eliminated
  /// variable's saved clauses are elim_saved_[first, split) (positive
  /// side) and [split, last) (negative side). extend_model() replays the
  /// groups backward, each from the default value `unit` and then over
  /// the smaller side, which `unit` names: a positive unit means the
  /// negative side was the smaller one (MiniSat SimpSolver order).
  struct ElimGroup {
    Lit unit;
    std::uint32_t first;
    std::uint32_t split;
    std::uint32_t last;
  };
  std::vector<ElimGroup> elim_groups_;
  std::vector<std::uint32_t> elim_group_of_;  ///< by variable
};

}  // namespace optalloc::sat
