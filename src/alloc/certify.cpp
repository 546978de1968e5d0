#include "alloc/certify.hpp"

#include "alloc/cost.hpp"
#include "check/drat.hpp"
#include "check/model.hpp"
#include "obs/trace.hpp"
#include "rt/verify.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"

namespace optalloc::alloc {

void Certifier::fail(std::string msg) {
  if (ok_) {
    ok_ = false;
    result_.certify_error = std::move(msg);
  }
  log_info("certify: FAILED: %s", result_.certify_error.c_str());
}

void Certifier::model(AllocEncoder& enc, std::optional<std::int64_t> lo,
                      std::optional<std::int64_t> hi) {
  if (!enabled_) return;
  obs::Span span("certify");
  Stopwatch sw;
  const check::ModelResult mr =
      check::check_model(enc.ctx(), enc.asserted_formulas(), enc.blaster(),
                         enc.solver(), &enc.pb());
  bool ok = mr.ok;
  std::string err = mr.error;
  if (ok) {
    const std::int64_t cost = enc.decode_cost();
    if ((lo && cost < *lo) || (hi && cost > *hi)) {
      ok = false;
      err = "decoded cost " + std::to_string(cost) +
            " escapes the queried bounds";
    }
  }
  result_.stats.certify_seconds += sw.seconds();
  if (ok) {
    ++result_.stats.models_certified;
  } else {
    fail("model: " + err);
  }
  if (obs::trace_enabled()) {
    obs::TraceEvent e("certify");
    e.str("kind", "model").boolean("ok", ok);
    if (!ok) e.str("error", err);
  }
}

void Certifier::note_unsat(const sat::ProofLog* log) {
  if (log != nullptr && log->num_steps() > 0 &&
      log->step(log->last_step()).kind == sat::ProofStepKind::kLemma) {
    unsat_steps_.push_back(log->last_step());
  }
}

void Certifier::proof(const sat::ProofLog& log) {
  if (!enabled_) return;
  obs::Span span("certify");
  Stopwatch sw;
  const check::DratResult dr = check::check_proof(log, unsat_steps_);
  result_.stats.certify_seconds += sw.seconds();
  if (dr.ok) {
    ++result_.stats.proofs_certified;
    result_.stats.proof_lemmas_checked += dr.lemmas_checked;
    result_.stats.proof_lemmas_hinted += dr.hinted_checked;
    result_.stats.proof_lemmas_rup += dr.rup_checked;
  } else {
    fail("proof: " + dr.error);
  }
  if (obs::trace_enabled()) {
    obs::TraceEvent e("certify");
    e.str("kind", "proof")
        .boolean("ok", dr.ok)
        .num("lemmas", static_cast<std::int64_t>(dr.lemmas_checked))
        .num("theory", static_cast<std::int64_t>(dr.theory_checked));
    if (!dr.ok) e.str("error", dr.error);
  }
}

void Certifier::allocation() {
  if (!enabled_ || !result_.has_allocation) return;
  obs::Span span("certify");
  Stopwatch sw;
  bool ok = true;
  std::string err;
  const rt::VerifyReport report =
      rt::verify(problem_.tasks, problem_.arch, result_.allocation);
  if (!report.feasible) {
    ok = false;
    err = "final allocation failed RT re-validation";
  } else {
    const std::int64_t value =
        objective_value(problem_, objective_, result_.allocation);
    if (value != result_.cost) {
      ok = false;
      err = "objective re-evaluates to " + std::to_string(value) +
            ", solver reported " + std::to_string(result_.cost);
    }
  }
  result_.stats.certify_seconds += sw.seconds();
  if (!ok) fail("allocation: " + err);
  if (obs::trace_enabled()) {
    obs::TraceEvent e("certify");
    e.str("kind", "allocation").boolean("ok", ok);
    if (!ok) e.str("error", err);
  }
}

}  // namespace optalloc::alloc
