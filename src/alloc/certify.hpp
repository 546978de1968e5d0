#pragma once
// Certification of one BIN_SEARCH run (OptimizeOptions::certify): every
// SAT answer is replayed against the PB store and the pre-encode IR
// formulas; every UNSAT answer contributes its core lemma as a proof
// obligation, discharged by one backward proof check when its encoder
// retires; the final allocation is re-validated by the independent RT
// analysis. Outcomes accumulate into the OptimizeResult's stats, and
// each check emits one `certify` trace event.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "alloc/encoder.hpp"
#include "alloc/optimizer.hpp"
#include "alloc/problem.hpp"
#include "sat/proof.hpp"

namespace optalloc::alloc {

class Certifier {
 public:
  /// With `enabled` false every check is a no-op (UNSAT cores are still
  /// tracked, so an external proof log keeps its bookkeeping uniform).
  Certifier(const Problem& problem, Objective objective, bool enabled,
            OptimizeResult& result)
      : problem_(problem),
        objective_(objective),
        enabled_(enabled),
        result_(result) {}

  /// Check the model `enc` just found, and that its cost lies in [lo, hi].
  void model(AllocEncoder& enc, std::optional<std::int64_t> lo,
             std::optional<std::int64_t> hi);

  /// Record an UNSAT answer: the last step of `log` (when it is a lemma)
  /// is that answer's conflict core, an obligation for proof().
  void note_unsat(const sat::ProofLog* log);
  bool has_obligations() const { return !unsat_steps_.empty(); }

  /// Discharge the recorded obligations against `log` (with none recorded,
  /// the checker's default targets: the empty lemma of an infeasible
  /// answer).
  void proof(const sat::ProofLog& log);
  void drop_obligations() { unsat_steps_.clear(); }

  /// Re-validate the result's final allocation and its objective value.
  void allocation();

  /// True while no check has failed.
  bool ok() const { return ok_; }

 private:
  void fail(std::string msg);

  const Problem& problem_;
  Objective objective_;
  bool enabled_;
  OptimizeResult& result_;
  std::vector<std::size_t> unsat_steps_;  ///< proof steps of UNSAT cores
  bool ok_ = true;
};

}  // namespace optalloc::alloc
