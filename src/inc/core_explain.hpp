#pragma once
// CoreExplainer: maps an assumption-level unsat core (activation-literal
// conflict) back to the named problem constraints it blames, and
// deletion-minimizes the result so "these 3 constraints conflict" is as
// tight as a bounded effort allows. Group names are the encoder's
// constraint-group labels ("task:sensor", "separate:a:b",
// "memory:ecu2", "message:sensor.0", "priorities", "objective").

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "inc/delta.hpp"
#include "sat/solver.hpp"

namespace optalloc::inc {

class CoreExplainer {
 public:
  CoreExplainer(sat::Solver& solver, const GroupMap& groups);

  /// Named groups whose guards appear (negated) in a conflict core.
  /// Sorted and deduplicated; literals that are not group guards (e.g. a
  /// cost-bound assumption) are dropped.
  std::vector<std::string> explain(std::span<const sat::Lit> core) const;

  /// Deletion-minimization: for each member, re-solve with the remaining
  /// guards; if still unsat, drop it (and shrink to the new core). Each
  /// probe is bounded by a fresh `probe_budget()`, and none starts once
  /// it returns nullopt; an inconclusive probe keeps the member. The
  /// result is still a genuine conflict, just possibly non-minimal when
  /// budgets bite.
  std::vector<std::string> minimize(
      std::vector<std::string> core,
      const std::function<std::optional<sat::Budget>()>& probe_budget);

  /// True iff assuming exactly these groups' guards is unsatisfiable —
  /// i.e. the named constraints genuinely conflict on their own.
  bool is_conflicting(std::span<const std::string> core);

 private:
  std::vector<sat::Lit> guards_of(std::span<const std::string> names) const;

  sat::Solver& solver_;
  const GroupMap& groups_;
};

}  // namespace optalloc::inc
