#include "alloc/optimizer.hpp"

#include <cstdio>
#include <memory>
#include <vector>

#include "alloc/certify.hpp"
#include "alloc/cost.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "sat/proof.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"

namespace optalloc::alloc {

namespace {

/// Accumulate solver statistics into the result.
void absorb_stats(OptimizeStats& stats, const AllocEncoder& enc) {
  stats.boolean_vars += enc.solver().num_vars();
  stats.boolean_literals += enc.solver().stats().added_literals;
  stats.pb_constraints += enc.pb().stats().constraints;
}

void apply_inprocess(sat::Solver& solver, const OptimizeOptions& options) {
  solver.inprocess = options.inprocess;
  if (options.inprocess_interval > 0) {
    solver.inprocess_interval = options.inprocess_interval;
  }
}

const char* verdict_name(sat::LBool v) {
  switch (v) {
    case sat::LBool::kTrue: return "sat";
    case sat::LBool::kFalse: return "unsat";
    case sat::LBool::kUndef: return "undef";
  }
  return "?";
}

/// Distribution metrics for the phases a request's cost decomposes into
/// (trace spans carry the same names' timings per request; these carry
/// the aggregate shape across requests).
obs::Metric encode_ms_hist() {
  static const obs::Metric m = obs::histogram("opt.encode_ms");
  return m;
}
obs::Metric solve_conflicts_hist() {
  static const obs::Metric m = obs::histogram("opt.solve_conflicts");
  return m;
}

/// Fold one finished optimize() run into the global metrics registry.
void flush_optimize_metrics(const OptimizeResult& result) {
  static const obs::Metric runs = obs::counter("opt.runs");
  static const obs::Metric optimal = obs::counter("opt.optimal");
  static const obs::Metric calls = obs::counter("opt.sat_calls");
  static const obs::Metric calls_sat = obs::counter("opt.sat_calls_sat");
  static const obs::Metric calls_unsat = obs::counter("opt.sat_calls_unsat");
  static const obs::Metric t_total = obs::histogram("opt.time.total");
  static const obs::Metric t_solve = obs::histogram("opt.time.solve");
  obs::add(runs, 1);
  if (result.status == OptimizeResult::Status::kOptimal) obs::add(optimal, 1);
  obs::add(calls, result.stats.sat_calls);
  obs::add(calls_sat, result.stats.sat_calls_sat);
  obs::add(calls_unsat, result.stats.sat_calls_unsat);
  obs::observe(t_total, result.stats.seconds);
  obs::observe(t_solve, result.stats.solve_seconds);
}

}  // namespace

std::string OptimizeStats::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "calls=%d (%d sat / %d unsat) encode=%.3fs solve=%.3fs "
                "total=%.3fs vars=%lld lits=%llu conflicts=%llu pb=%llu",
                sat_calls, sat_calls_sat, sat_calls_unsat, encode_seconds,
                solve_seconds, seconds, static_cast<long long>(boolean_vars),
                static_cast<unsigned long long>(boolean_literals),
                static_cast<unsigned long long>(conflicts),
                static_cast<unsigned long long>(pb_constraints));
  std::string s = buf;
  if (models_certified > 0 || proofs_certified > 0) {
    std::snprintf(buf, sizeof buf,
                  " certify: models=%d proofs=%d lemmas=%llu (hinted=%llu "
                  "rup=%llu) time=%.3fs",
                  models_certified, proofs_certified,
                  static_cast<unsigned long long>(proof_lemmas_checked),
                  static_cast<unsigned long long>(proof_lemmas_hinted),
                  static_cast<unsigned long long>(proof_lemmas_rup),
                  certify_seconds);
    s += buf;
  }
  return s;
}

bool budget_spent(const OptimizeOptions& options, double elapsed_s) {
  if (options.stop != nullptr &&
      options.stop->load(std::memory_order_relaxed)) {
    return true;
  }
  return options.time_limit_s > 0.0 && elapsed_s >= options.time_limit_s;
}

sat::Budget call_budget(const OptimizeOptions& options, double elapsed_s) {
  sat::Budget b = options.per_call;
  b.stop = options.stop;
  if (options.time_limit_s > 0.0) {
    const double remaining = options.time_limit_s - elapsed_s;
    if (b.seconds <= 0.0 || remaining < b.seconds) {
      b.seconds = std::max(0.001, remaining);
    }
  }
  return b;
}

namespace {

/// The one BIN_SEARCH loop. `given` is a caller-built encoding (always
/// searched incrementally); without one the search builds its own
/// encoder — one for the whole search (incremental) or a fresh one per
/// SOLVE call (scratch).
OptimizeResult search(const Problem& problem, Objective objective,
                      const OptimizeOptions& options, const Encoding* given) {
  OptimizeResult result;
  Stopwatch total;

  // CDCL conflicts consumed across all SOLVE calls so far (the other
  // solver stats are absorbed into result.stats per encoder).
  std::uint64_t conflicts_seen = 0;

  // Anytime progress: invoked after the initial solution and after every
  // interval-narrowing SOLVE; mirrored as an "interval" event, which the
  // flight recorder keeps too (so a post-mortem shows the proven interval).
  auto report_progress = [&](std::int64_t lower, std::int64_t upper) {
    {
      obs::Event e(obs::ev::interval);
      e.num("lower", lower).num("upper", upper);
      if (result.has_allocation) e.num("incumbent", result.cost);
      e.num("sat_calls", result.stats.sat_calls);
    }
    if (options.on_progress) {
      Progress p;
      p.seconds = total.seconds();
      p.lower = lower;
      p.upper = upper;
      p.has_incumbent = result.has_allocation;
      p.incumbent_cost = result.has_allocation ? result.cost : -1;
      p.sat_calls = result.stats.sat_calls;
      p.conflicts = conflicts_seen;
      options.on_progress(p);
    }
  };

  // --- Certification (active only under options.certify). ---------------
  Certifier cert(problem, objective, options.certify, result);

  // One SOLVE call against `enc`, with wall time, SAT/UNSAT breakdown,
  // and a "solve" trace event carrying the queried bounds.
  const std::span<const sat::Lit> guards =
      given != nullptr ? given->guards : std::span<const sat::Lit>{};
  auto timed_solve = [&](AllocEncoder& enc, std::optional<std::int64_t> lo,
                         std::optional<std::int64_t> hi) -> sat::LBool {
    obs::Span span("SOLVE");
    ++result.stats.sat_calls;
    const std::uint64_t conflicts_before = enc.solver().stats().conflicts;
    Stopwatch sw;
    const sat::LBool verdict =
        enc.solve(lo, hi, call_budget(options, total.seconds()), guards);
    const double secs = sw.seconds();
    const std::uint64_t call_conflicts =
        enc.solver().stats().conflicts - conflicts_before;
    conflicts_seen += call_conflicts;
    obs::observe(solve_conflicts_hist(),
                 static_cast<double>(call_conflicts));
    result.stats.solve_seconds += secs;
    if (verdict == sat::LBool::kTrue) {
      ++result.stats.sat_calls_sat;
    } else if (verdict == sat::LBool::kFalse) {
      ++result.stats.sat_calls_unsat;
      cert.note_unsat(enc.solver().proof());
    }
    {
      obs::Event e(obs::ev::solve);
      e.num("call", result.stats.sat_calls);
      if (lo) e.num("lo", *lo);
      if (hi) e.num("hi", *hi);
      // The ring stores the verdict as 1 = SAT, 0 = UNSAT, -1 = budget
      // exhausted.
      e.choice("result", verdict_name(verdict),
               verdict == sat::LBool::kTrue    ? 1
               : verdict == sat::LBool::kFalse ? 0
                                               : -1)
          .num("conflicts", call_conflicts)
          .num("seconds", secs);
    }
    return verdict;
  };

  auto trace_optimum = [&] {
    if (!obs::trace_enabled()) return;
    obs::Event e(obs::ev::optimum);
    e.str("status", result.status_string());
    if (result.has_allocation) e.num("cost", result.cost);
    e.num("lower", result.lower_bound)
        .num("sat_calls", result.stats.sat_calls)
        .num("seconds", result.stats.seconds);
    if (options.certify) e.boolean("certified", result.certified);
  };

  // --- The encoder(s) the search runs against. -------------------------
  // The proof log must be attached before build() so it captures the
  // whole clause database. Incremental: one log spans the entire search.
  // Scratch: each call gets its own log, checked against its own
  // throwaway solver (an external log is an incremental-mode feature).
  const bool scratch = given == nullptr && !options.incremental;
  std::unique_ptr<sat::ProofLog> owned_proof;  // outlives `owned`'s solver
  std::unique_ptr<AllocEncoder> owned;
  sat::ProofLog* proof = nullptr;
  AllocEncoder* enc = given != nullptr ? &given->encoder : nullptr;
  auto build_encoder = [&]() -> bool {
    owned.reset();  // the solver references the proof log: drop it first
    owned_proof.reset();
    proof = scratch ? nullptr : options.proof;
    if (proof == nullptr && options.certify) {
      owned_proof = std::make_unique<sat::ProofLog>();
      proof = owned_proof.get();
    }
    owned = std::make_unique<AllocEncoder>(problem, objective, options.encoder);
    enc = owned.get();
    apply_inprocess(enc->solver(), options);
    if (proof != nullptr) enc->set_proof(proof);
    obs::Span span("encode");
    Stopwatch sw;
    const bool built = enc->build();
    const double secs = sw.seconds();
    result.stats.encode_seconds += secs;
    obs::observe(encode_ms_hist(), secs * 1000.0);
    return built;
  };
  // Discharge the encoder's logged UNSAT cores (only for answers that
  // stand: `check`) and fold its solver statistics into the result.
  auto retire_encoder = [&](bool check, bool infeasible) {
    if (check && proof != nullptr && (cert.has_obligations() || infeasible)) {
      cert.proof(*proof);
    }
    cert.drop_obligations();
    absorb_stats(result.stats, *enc);
  };

  auto finish = [&](OptimizeResult::Status status) {
    result.status = status;
    retire_encoder(result.proven(),
                   status == OptimizeResult::Status::kInfeasible);
    if (options.certify && result.proven()) {
      cert.allocation();
      result.certified = cert.ok();
    }
    result.stats.conflicts = conflicts_seen;
    result.stats.seconds = total.seconds();
    trace_optimum();
    flush_optimize_metrics(result);
    return result;
  };

  if (given == nullptr && !build_encoder()) {
    return finish(OptimizeResult::Status::kInfeasible);
  }
  const ir::Range range = enc->cost_range();

  // One SOLVE call under optional cost bounds. Incremental: the bounds
  // are assumptions on the one encoder. Scratch: the first call uses the
  // encoder built above, every later one a fresh encoder, with the bounds
  // asserted permanently.
  bool answered = false;
  auto probe = [&](std::optional<std::int64_t> lo,
                   std::optional<std::int64_t> hi) -> sat::LBool {
    if (!scratch) return timed_solve(*enc, lo, hi);
    bool ok = true;
    if (answered) {
      retire_encoder(true, false);
      ok = build_encoder();
    }
    answered = true;
    if (ok && (lo || hi)) {
      ok = enc->assert_cost_bounds(lo.value_or(range.lo),
                                   hi.value_or(range.hi));
    }
    if (ok) return timed_solve(*enc, {}, {});
    // Encode-time UNSAT still counts as one (answered) SOLVE call.
    ++result.stats.sat_calls;
    ++result.stats.sat_calls_unsat;
    return sat::LBool::kFalse;
  };
  auto adopt_model = [&](std::optional<std::int64_t> lo,
                         std::optional<std::int64_t> hi) {
    cert.model(*enc, lo, hi);
    result.cost = enc->decode_cost();
    result.allocation = enc->decode();
    result.has_allocation = true;
    return result.cost;
  };

  // R := SOLVE(phi): the first query yields an upper estimate. A
  // verified warm-start allocation short-circuits it entirely — its
  // objective value *is* a feasible R — and additionally biases the
  // solver's phases for the search steps that follow.
  std::int64_t lower = range.lo;
  std::int64_t upper = 0;
  bool have_upper = false;
  if (options.warm_start) {
    enc->hint(*options.warm_start);
    const auto warm_cost =
        evaluate_allocation(problem, objective, *options.warm_start);
    if (warm_cost) {
      upper = *warm_cost;
      result.cost = upper;
      result.allocation = *options.warm_start;
      result.has_allocation = true;
      have_upper = true;
    }
  }
  if (!have_upper) {
    // A capped first SOLVE that answers UNSAT proves the optimum lies
    // above the cap; the search continues from there.
    const std::optional<std::int64_t> cap = options.initial_upper;
    sat::LBool verdict = probe({}, cap);
    if (verdict == sat::LBool::kFalse && cap) {
      lower = std::max(lower, *cap + 1);
      verdict = probe(lower, {});
    }
    if (verdict == sat::LBool::kFalse) {
      return finish(OptimizeResult::Status::kInfeasible);
    }
    if (verdict == sat::LBool::kUndef) {
      result.lower_bound = lower;
      return finish(OptimizeResult::Status::kBudgetExhausted);
    }
    upper = adopt_model({}, {});
  }
  log_info("optimize: initial solution cost=%lld, searching [%lld, %lld]",
           static_cast<long long>(upper), static_cast<long long>(lower),
           static_cast<long long>(upper));
  report_progress(lower, upper);

  // BIN_SEARCH(phi). The paper's loop sets L := M on an UNSAT interval
  // [L, M]; since the optimum then lies in (M, R], we advance to M + 1
  // (fixing the paper's off-by-one, which would not terminate for
  // R = L + 1).
  while (lower < upper) {
    if (budget_spent(options, total.seconds())) {
      result.lower_bound = lower;
      return finish(OptimizeResult::Status::kBudgetExhausted);
    }
    const std::int64_t mid =
        options.strategy == SearchStrategy::kBisection
            ? lower + (upper - lower) / 2
            : upper - 1;
    const sat::LBool verdict = probe(lower, mid);
    if (verdict == sat::LBool::kUndef) {
      result.lower_bound = lower;
      return finish(OptimizeResult::Status::kBudgetExhausted);
    }
    if (verdict == sat::LBool::kFalse) {
      lower = mid + 1;
    } else {
      upper = adopt_model(lower, mid);
    }
    log_info("optimize: interval [%lld, %lld]",
             static_cast<long long>(lower), static_cast<long long>(upper));
    report_progress(lower, upper);
  }
  result.cost = upper;
  result.lower_bound = upper;
  return finish(OptimizeResult::Status::kOptimal);
}

}  // namespace

OptimizeResult optimize(const Problem& problem, Objective objective,
                        const OptimizeOptions& options) {
  return search(problem, objective, options, nullptr);
}

OptimizeResult optimize(const Problem& problem, Objective objective,
                        const OptimizeOptions& options,
                        const Encoding& encoding) {
  return search(problem, objective, options, &encoding);
}

}  // namespace optalloc::alloc
