#pragma once
// Transformation of the allocation problem into a bounded-integer
// constraint system (paper Sections 3-4) and its reduction to SAT
// (Section 5.1). One AllocEncoder owns the whole pipeline for a problem
// instance: IR context, SAT solver, PB propagator, bit-blaster.
//
// Variable inventory (mirroring the paper's notation):
//   a_i            integer allocation variable of task i          (eq. 4)
//   wcet_i         WCET selected by a_i                           (eq. 5)
//   r_i            task response time, range-capped at d_i        (eqs. 6,13)
//   I_i^j, pc_i^j  preemption count / cost per ordered pair       (eqs. 7-12)
//   p_i^j          tie-break priority bools for equal deadlines   (eqs. 9-10)
//   Pf_m           route (path-closure sub-path) selectors        (eq. 14)
//   K_m^k          medium-usage indicators (derived from Pf)      (eq. 14)
//   d_m^k          per-medium deadline budgets                    (Sec. 4)
//   J_m^k          per-medium inherited jitter                    (Sec. 4)
//   stn, osl       sending station and its TDMA slot length       (Sec. 3)
//   Imb_m^k        TDMA round count — the non-linear blocking     (eq. 3)
//   lambda_k,j     TDMA slot-length variables; Lambda_k their sum
//   cost           the objective variable minimized by BIN_SEARCH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "alloc/problem.hpp"
#include "encode/bitblast.hpp"
#include "ir/expr.hpp"
#include "net/paths.hpp"
#include "pb/propagator.hpp"
#include "rt/verify.hpp"
#include "sat/solver.hpp"

namespace optalloc::alloc {

/// Persistent encoding state shared across encoder rebuilds — the
/// substrate of an incremental re-solve session (src/inc). One backend
/// outlives many AllocEncoder instances: the hash-consed IR context and
/// the solver survive, so re-encoding an edited instance reuses every
/// unchanged subcircuit (and the solver keeps its learned clauses, phase
/// saves, and activity scores).
///
/// ir::Context interns operator nodes but never variables — every
/// int_var/bool_var call mints a fresh node. The registries below close
/// that gap: an encoder attached to a backend looks variables up by name
/// (and, for integers, range) before creating them, which is what makes
/// consecutive builds of near-identical instances produce near-identical
/// IR. A range change deliberately misses the registry: the old
/// variable's range constraint is already asserted, unguarded, so a
/// resized variable must be a fresh one.
struct EncoderBackend {
  explicit EncoderBackend(encode::Backend backend = encode::Backend::kCnf)
      : pb(solver),
        blaster(ctx, solver, &pb, encode::Options{backend}) {}

  ir::Context ctx;
  sat::Solver solver;
  pb::PbPropagator pb;
  encode::BitBlaster blaster;

  /// (name, lo, hi) -> integer variable node.
  std::map<std::tuple<std::string, std::int64_t, std::int64_t>, ir::NodeId>
      int_vars;
  std::map<std::string, ir::NodeId> bool_vars;
};

/// One formula of a grouped (session-mode) build, labelled with the named
/// constraint group it belongs to. Groups are the unit of retraction —
/// each gets one activation literal — and the unit of blame in unsat
/// cores ("these 3 constraints conflict").
struct GroupedFormula {
  std::string group;
  ir::NodeId formula;
};

struct EncoderConfig {
  encode::Backend backend = encode::Backend::kCnf;
  /// Model the paper's free tie-break priorities p_i^j for equal
  /// deadlines (with transitivity enforced per deadline group). When
  /// false, ties are broken by task index at encode time.
  bool free_tie_priorities = true;
  /// Add redundant per-ECU utilization <= 100% pseudo-Boolean constraints
  /// over the allocation indicator literals. Implied by response-time
  /// feasibility (d <= t), but propagates much earlier — a large
  /// practical speedup on loaded instances.
  bool redundant_utilization = true;
};

class AllocEncoder {
 public:
  AllocEncoder(const Problem& problem, Objective objective,
               EncoderConfig config = {});

  /// Session mode: encode into a shared, persistent backend instead of
  /// owning the pipeline. require() then *records* formulas into named
  /// constraint groups (see grouped()) rather than asserting them — the
  /// session asserts each group under its own activation literal so it
  /// can be retracted when an edit invalidates it. Native PB shortcuts
  /// (redundant_utilization) are skipped in this mode: PB constraints
  /// cannot be retracted.
  AllocEncoder(const Problem& problem, Objective objective,
               EncoderConfig config, EncoderBackend& backend);

  /// Build and assert the full constraint system. Returns false if the
  /// instance is unsatisfiable already at encode time.
  bool build();

  /// Inclusive range of the cost variable.
  ir::Range cost_range() const { return cost_range_; }

  /// Solve the asserted system under optional cost bounds (incremental:
  /// bounds enter as assumption literals, so learned clauses survive
  /// across calls — the paper's Section 7 improvement). `guards` are
  /// further assumptions, assumed before the bound (a session's
  /// constraint-group activation literals).
  sat::LBool solve(std::optional<std::int64_t> cost_lo,
                   std::optional<std::int64_t> cost_hi,
                   sat::Budget budget = {},
                   std::span<const sat::Lit> guards = {});

  /// Assert cost bounds permanently (used by the non-incremental mode).
  bool assert_cost_bounds(std::int64_t lo, std::int64_t hi);

  /// After a kTrue solve: objective value and decoded allocation.
  std::int64_t decode_cost() const;
  rt::Allocation decode() const;

  /// Warm start: bias the solver's first descent toward a known (e.g.
  /// heuristic) solution. Call after build().
  void hint(const rt::Allocation& allocation);

  sat::Solver& solver() { return *solver_; }
  const sat::Solver& solver() const { return *solver_; }
  const pb::PbPropagator& pb() const { return *pb_; }
  const net::PathClosures& closures() const { return *closures_; }

  /// Session-mode outputs: the recorded (group, formula) pairs of the
  /// last build(), and the cost node the session's bound guards compare
  /// against. Empty/invalid unless constructed with an EncoderBackend.
  std::span<const GroupedFormula> grouped() const { return grouped_; }
  ir::NodeId cost_node() const { return cost_; }

  // --- Certification hooks (see src/check) ------------------------------

  /// Attach a proof log to the underlying solver. Must be called before
  /// build() so the log captures the full clause database.
  void set_proof(sat::ProofLog* proof) { solver_->set_proof(proof); }

  /// The IR context and the formulas asserted through it — the inputs the
  /// model certifier replays a SAT answer against.
  const ir::Context& ctx() const { return ctx_; }
  std::span<const ir::NodeId> asserted_formulas() const { return asserted_; }
  const encode::BitBlaster& blaster() const { return *blaster_; }

 private:
  using NodeId = ir::NodeId;

  // Construction stages.
  void build_tasks();        // eqs. 4-13
  void build_slots();        // lambda variables and Lambda sums
  void build_messages();     // Section 4 + eqs. 2-3 analogues
  void build_cost();         // objective wiring

  /// a-membership in an ECU set (range form when contiguous).
  NodeId member_of(NodeId a, std::vector<int> ecus);

  /// Assert an IR formula, tracking encoder-time unsatisfiability. In
  /// session mode the formula is recorded under the current group
  /// instead of being asserted.
  void require(NodeId formula);

  /// Set the constraint group subsequent require() calls record into.
  void group(std::string name) { group_ = std::move(name); }

  /// Variable creation, routed through the backend registry in session
  /// mode so consecutive builds reuse variable nodes (ir::Context never
  /// interns variables).
  NodeId mk_int_var(const std::string& name, std::int64_t lo,
                    std::int64_t hi);
  NodeId mk_bool_var(const std::string& name);

  const Problem& problem_;
  Objective objective_;
  EncoderConfig config_;

  // Owned pipeline (classic mode); null when attached to a backend.
  std::unique_ptr<ir::Context> owned_ctx_;
  std::unique_ptr<sat::Solver> owned_solver_;
  std::unique_ptr<pb::PbPropagator> owned_pb_;
  std::unique_ptr<encode::BitBlaster> owned_blaster_;
  std::unique_ptr<net::PathClosures> closures_;

  // Views: either the owned pipeline above or the shared backend's.
  ir::Context& ctx_;
  sat::Solver* solver_;
  pb::PbPropagator* pb_;
  encode::BitBlaster* blaster_;
  EncoderBackend* backend_ = nullptr;

  bool ok_ = true;
  bool built_ = false;

  // Task variables.
  std::vector<NodeId> a_;      // allocation vars
  std::vector<NodeId> wcet_;
  std::vector<NodeId> r_;
  /// higher_[i][j]: formula "task i has higher priority than task j"
  /// (constant for distinct deadlines, a tie bool otherwise).
  std::vector<std::vector<NodeId>> higher_;

  // Message variables (indexed by global message id from message_refs()).
  std::vector<rt::TaskSet::MsgRef> refs_;
  struct MsgVars {
    std::vector<int> routes;          ///< candidate route ids (closures)
    std::vector<NodeId> rsel;         ///< selector per candidate
    std::vector<NodeId> used;         ///< K_m^k per medium (kInvalidNode if
                                      ///< no candidate route crosses k)
    std::vector<NodeId> local_dl;     ///< d_m^k per medium
    std::vector<NodeId> jitter;       ///< J_m^k per medium
    std::vector<NodeId> station;      ///< stn per medium (TDMA legs only)
    std::vector<NodeId> slot_len;     ///< osl per medium (TDMA legs only)
    std::vector<NodeId> response;     ///< r_m^k per medium
  };
  std::vector<MsgVars> msg_;

  // Slot variables per medium (token rings); Lambda sums.
  std::vector<std::vector<NodeId>> slot_vars_;
  std::vector<NodeId> lambda_;

  NodeId cost_ = ir::kInvalidNode;
  ir::Range cost_range_{0, 0};

  /// Every formula passed to require(), for the model certifier.
  std::vector<NodeId> asserted_;

  /// Session mode: (group, formula) pairs recorded by require().
  std::vector<GroupedFormula> grouped_;
  std::string group_ = "base";

  /// Guard literals already built for (lo,hi) bound pairs.
  std::map<std::pair<std::int64_t, std::int64_t>, sat::Lit> bound_guards_;
};

}  // namespace optalloc::alloc
