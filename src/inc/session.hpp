#pragma once
// Incremental re-solve sessions: a live, assumption-guarded solver per
// client session, re-solving instance edits against the encoding *delta*
// instead of from scratch — the paper's Section 7 "factor of 2 and more"
// projection, extended from cost bounds to whole constraint groups.
//
// How an edit flows through:
//   1. The patch is applied to the instance (inc/patch.hpp).
//   2. The instance is re-encoded over the session's persistent backend
//      (alloc::EncoderBackend). Hash-consing + the variable registries
//      make this an IR-level no-op for everything unchanged, so the
//      grouped formula lists come out NodeId-identical except where the
//      edit actually bit.
//   3. diff_groups (inc/delta.hpp) yields retired/added groups. Retired
//      groups die by the unit clause ¬guard; added groups are asserted
//      under a fresh activation literal (BitBlaster::assert_guarded).
//      Learned clauses, phase saves, and VSIDS activity all survive:
//      the clause database only ever grows, so every learnt remains
//      implied.
//   4. The search (alloc::optimize over the session's Encoding — the
//      same BIN_SEARCH loop a cold solve runs) warm-starts at the
//      previous optimum: its first SOLVE is capped at C*, which decides
//      whether the edit kept, improved, or regressed the optimum.
//   5. An infeasible edit yields an assumption-level unsat core over the
//      activation literals, mapped back to named constraints and
//      deletion-minimized (inc/core_explain.hpp) within what is left of
//      the caller's budget.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "alloc/encoder.hpp"
#include "alloc/optimizer.hpp"
#include "alloc/problem.hpp"
#include "inc/core_explain.hpp"
#include "inc/delta.hpp"
#include "inc/patch.hpp"
#include "obs/metrics.hpp"
#include "rt/model.hpp"
#include "sat/solver.hpp"
#include "util/stopwatch.hpp"

namespace optalloc::inc {

/// A session solve's answer: the search result (status, cost, bounds,
/// allocation, stats) plus what the session adds to it.
struct SessionResult : alloc::OptimizeResult {
  /// kInfeasible: named constraint groups that conflict.
  std::vector<std::string> core;
  /// kError: what went wrong (bad patch, invalid instance).
  std::string error;

  // The encoding delta this solve applied.
  int groups_added = 0;
  int groups_retired = 0;
  std::size_t groups_unchanged = 0;
  std::int64_t clauses_added = 0;
};

class Session {
 public:
  Session(alloc::Problem problem, alloc::Objective objective);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// (Re-)solve the current instance. The first call encodes everything;
  /// later calls (after revise) re-solve the delta. `options` carries the
  /// budget (per_call, stop, and time_limit_s, counted from the search's
  /// start once the encoding is synced) and reporting (on_progress); the
  /// session supplies initial_upper itself.
  SessionResult solve(const alloc::OptimizeOptions& options = {});

  /// Apply a patch and re-solve. A patch that fails validation leaves
  /// the instance untouched and returns kError.
  SessionResult revise(const InstancePatch& patch,
                       const alloc::OptimizeOptions& options = {});

  const alloc::Problem& problem() const { return problem_; }
  alloc::Objective objective() const { return objective_; }

  /// Check that the named groups genuinely conflict (re-solves with only
  /// their guards assumed). Used by the differential tests.
  bool core_is_conflicting(std::span<const std::string> core);

  // --- Capacity accounting --------------------------------------------
  // Retired guards stay in the clause database as dead weight (their
  // clauses are vacuously satisfied, never reclaimed); the ROADMAP's
  // compaction trigger needs this fraction measured, and the gauges
  // "inc.guards" / "inc.dead_guards" expose it process-wide.

  /// Constraint groups currently guarded alive.
  std::size_t live_guards() const { return groups_.size(); }

  /// Guards retired over this session's lifetime.
  std::int64_t retired_guards() const { return retired_guards_; }

  /// retired / (retired + live); 0 for an empty session.
  double dead_guard_fraction() const;

 private:
  /// Rebuild the encoding over the backend and apply the group delta.
  /// Returns false (with out.status = kError) on an invalid instance.
  bool sync_encoding(SessionResult& out);

  /// Name and deletion-minimize the conflicting groups of an infeasible
  /// instance, drawing on what is left of the caller's budget (`clock`
  /// started with the search).
  void explain_infeasible(SessionResult& out, bool capped,
                          const alloc::OptimizeOptions& options,
                          const Stopwatch& clock);

  alloc::Problem problem_;
  alloc::Objective objective_;
  alloc::EncoderBackend backend_;
  /// Rebuilt per solve; holds a reference to problem_, so it is reset
  /// before every instance mutation.
  std::unique_ptr<alloc::AllocEncoder> encoder_;
  GroupMap groups_;
  std::vector<sat::Lit> guard_assumptions_;
  std::optional<std::int64_t> prev_optimum_;
  std::int64_t retired_guards_ = 0;
  obs::GaugeTracker guards_gauge_{obs::m::inc_guards};
  obs::GaugeTracker dead_guards_gauge_{obs::m::inc_dead_guards};
};

}  // namespace optalloc::inc
