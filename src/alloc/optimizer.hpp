#pragma once
// The paper's Section 5.2 optimization loop: SOLVE is one SAT query over
// the encoded constraint system; BIN_SEARCH narrows the cost interval by
// repeated SOLVE calls until the optimum is pinned. This is the only
// search loop in the code base; it runs against one of three encodings:
//   * incremental (default): one solver instance; cost bounds enter as
//     assumption literals over comparator circuits, so learned clauses
//     carry over between search steps — the improvement the paper's
//     Section 7 reports as "a factor of 2 and more".
//   * scratch: a fresh encoder + solver per SOLVE call with bounds
//     asserted permanently — the paper's baseline procedure, kept for the
//     ablation benchmark.
//   * a caller's Encoding: an already-built encoder plus guard
//     assumptions, searched incrementally — how inc::Session re-solves
//     its persistent, assumption-guarded encoding.

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>

#include "alloc/encoder.hpp"
#include "alloc/problem.hpp"

namespace optalloc::alloc {

enum class SearchStrategy {
  /// The paper's BIN_SEARCH: bisect the cost interval. Fewest SOLVE calls
  /// but the mid-interval UNSAT proofs can be the hardest queries.
  kBisection,
  /// Walk down from the incumbent: SOLVE(cost <= upper - 1) repeatedly.
  /// More calls, but every call until the optimum is satisfiable (cheap
  /// with phase warm starts); only the final UNSAT proof is hard.
  kDescending,
};

/// Anytime search-progress report: the state of the cost interval after a
/// SOLVE call. `lower > upper` never holds; the interval shrinks
/// monotonically, and lower == upper on the report that pins the optimum.
struct Progress {
  double seconds = 0.0;            ///< wall time since optimize() started
  std::int64_t lower = 0;          ///< greatest proven lower bound
  std::int64_t upper = 0;          ///< incumbent cost (least known upper)
  std::int64_t incumbent_cost = -1;  ///< best feasible cost; -1 before one
  bool has_incumbent = false;
  int sat_calls = 0;               ///< SOLVE calls issued so far
  std::uint64_t conflicts = 0;     ///< CDCL conflicts spent so far
};

struct OptimizeOptions {
  EncoderConfig encoder;
  bool incremental = true;
  SearchStrategy strategy = SearchStrategy::kBisection;
  /// Per-SOLVE budget (0 = unlimited).
  sat::Budget per_call;
  /// Overall wall-clock limit in seconds (0 = unlimited).
  double time_limit_s = 0.0;
  /// Expected objective value (e.g. from simulated annealing) capping
  /// the first SOLVE so the binary search starts from it. An UNSAT answer
  /// under cap C proves the optimum exceeds C; the search then continues
  /// above it.
  std::optional<std::int64_t> initial_upper;
  /// Known feasible allocation: biases the solver's first descent
  /// (phase-saving warm start).
  std::optional<rt::Allocation> warm_start;
  /// Certify every step of the search (see src/check): SAT answers are
  /// replayed against the PB store and the pre-bit-blast IR formulas,
  /// UNSAT answers are backed by DRAT proofs checked by the independent
  /// RUP checker, and the final allocation is re-validated by the RT
  /// analysis. The outcome lands in OptimizeResult::certified.
  bool certify = false;
  /// Route proof logging into an external log (incremental mode only) so
  /// callers can dump it for the standalone drat_check tool. Implies
  /// nothing about `certify`; both may be set independently.
  sat::ProofLog* proof = nullptr;
  /// Cooperative cancellation: the search returns budget-exhausted soon
  /// after the flag is raised (the service scheduler sets it on cancel
  /// and on shutdown).
  const std::atomic<bool>* stop = nullptr;
  /// Clause-database inprocessing at restart boundaries (subsumption,
  /// vivification, bounded variable elimination — see sat/inprocess.hpp).
  bool inprocess = true;
  /// Conflicts between inprocessing passes; 0 keeps the solver default.
  std::int64_t inprocess_interval = 0;
  /// Anytime progress callback, invoked after the initial solution and
  /// after every interval-narrowing SOLVE call (from the optimizer's own
  /// thread). Used to plot cost-convergence curves; keep it cheap.
  std::function<void(const Progress&)> on_progress;
};

struct OptimizeStats {
  int sat_calls = 0;
  double seconds = 0.0;
  std::int64_t boolean_vars = 0;    ///< paper's "Var." column
  std::uint64_t boolean_literals = 0;  ///< paper's "Lit." column
  std::uint64_t conflicts = 0;
  std::uint64_t pb_constraints = 0;
  // Per-call breakdown of where the search effort went.
  int sat_calls_sat = 0;      ///< SOLVE calls answered SAT
  int sat_calls_unsat = 0;    ///< SOLVE calls answered UNSAT
  double encode_seconds = 0.0;  ///< building + bit-blasting constraints
  double solve_seconds = 0.0;   ///< inside sat::Solver::solve()
  // Certification effort (all zero unless OptimizeOptions::certify).
  int models_certified = 0;   ///< SAT answers accepted by the model checker
  int proofs_certified = 0;   ///< proof checker passes (per log checked)
  std::uint64_t proof_lemmas_checked = 0;  ///< lemmas verified (both paths)
  std::uint64_t proof_lemmas_hinted = 0;   ///< ...by their hint chains
  std::uint64_t proof_lemmas_rup = 0;      ///< ...by RUP (no hints)
  double certify_seconds = 0.0;

  /// One-line human summary ("calls=7 (5 sat/2 unsat) encode=0.1s ...").
  std::string summary() const;
};

struct OptimizeResult {
  enum class Status {
    kOptimal,          ///< cost is the global optimum
    kInfeasible,       ///< no valid allocation exists
    kBudgetExhausted,  ///< search interrupted; best-so-far in `allocation`
    kError,            ///< rejected before any search (inc::Session)
  };
  Status status = Status::kInfeasible;
  std::int64_t cost = -1;  ///< optimal (or best-so-far) objective value
  bool has_allocation = false;
  rt::Allocation allocation;
  /// Remaining search interval on interruption ([lower, cost] with
  /// lower == cost when optimal).
  std::int64_t lower_bound = 0;
  /// True iff OptimizeOptions::certify was set, the search ran to a
  /// definitive status (kOptimal/kInfeasible), and every certification
  /// layer accepted: all SAT models, all UNSAT proofs, and the final
  /// allocation's RT re-validation + objective cross-check.
  bool certified = false;
  /// First certification failure, empty when none (or not certifying).
  std::string certify_error;
  OptimizeStats stats;

  /// The search ran to a proof: the optimum, or infeasibility.
  bool proven() const {
    return status == Status::kOptimal || status == Status::kInfeasible;
  }

  std::string status_string() const {
    switch (status) {
      case Status::kOptimal: return "optimal";
      case Status::kInfeasible: return "infeasible";
      case Status::kBudgetExhausted: return "budget-exhausted";
      case Status::kError: return "error";
    }
    return "?";
  }
};

/// True once a search under `options` must start no further SOLVE call
/// `elapsed_s` into it: the stop flag is raised or time_limit_s is spent.
bool budget_spent(const OptimizeOptions& options, double elapsed_s);

/// The budget of one SOLVE call made `elapsed_s` into a search under
/// `options`: the per-call limits and the stop flag, with the wall time
/// capped by what is left of time_limit_s (at least 1 ms).
sat::Budget call_budget(const OptimizeOptions& options, double elapsed_s);

/// Find the cost-minimal allocation for the problem under the objective.
OptimizeResult optimize(const Problem& problem, Objective objective,
                        const OptimizeOptions& options = {});

/// An encoding built by the caller for the search to run on: `encoder`
/// has already run build(), and `guards` are assumption literals held
/// true on every SOLVE call (a session's constraint-group activation
/// literals).
struct Encoding {
  AllocEncoder& encoder;
  std::span<const sat::Lit> guards;
};

/// The same search over a caller's encoding, always incremental. The
/// options' encoder-construction fields (encoder, incremental,
/// inprocess*, proof) do not apply: the encoder already exists.
OptimizeResult optimize(const Problem& problem, Objective objective,
                        const OptimizeOptions& options,
                        const Encoding& encoding);

}  // namespace optalloc::alloc
