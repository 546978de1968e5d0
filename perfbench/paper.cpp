// paper_cold and paper_certified: three closed-loop callers, one thread
// each, solve the paper's instance families one after another to a
// proven, RT-verified optimum — SA warm start (heur::anneal), then
// alloc::optimize with threads = 1, then rt::verify — and check every
// answer against the committed reference optima. A pass solves every
// instance once, in a seed-drawn order; each caller makes whole passes,
// stopping at the pass boundary nearest to --seconds, so every run
// measures the same multiset of solves.

#include <cstdio>
#include <exception>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "alloc/cost.hpp"
#include "alloc/io.hpp"
#include "alloc/optimizer.hpp"
#include "heur/annealing.hpp"
#include "instances.hpp"
#include "rt/verify.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace alloc = optalloc::alloc;
namespace heur = optalloc::heur;

namespace {

/// Generated systems drawn from the pool per paper_cold run. The
/// paper_certified pass is the fixed families alone: certification
/// spreads the pool's solve times too widely for a drawn mix to keep the
/// pass's median instance in place.
constexpr int kDrawnGenerated = 4;
/// Closed-loop callers, one thread each. On a shared host each core runs
/// at its own, slowly drifting speed (README, "Steadiness"); pooling
/// three callers averages three cores, and the fourth core is left to
/// the rest of the system.
constexpr int kCallers = 3;
/// Fewest ops a run measures over its callers, so p90 has ten samples
/// beyond it.
constexpr std::size_t kMinOps = 100;
/// Set-ups timed after each pass. One takes about a millisecond, so a run
/// takes many and reports their median.
constexpr int kSetupsPerPass = 8;
/// SA effort of the warm start (bench_table* use the same routine).
constexpr int kAnnealIterations = 2000;
/// Solved once, untimed, before the first pass.
constexpr const char* kWarmUpInstance = "Ccan:8";
/// Goodput latency limits, well above the p90 of either workload.
constexpr double kColdLimitMs = 5000.0;
constexpr double kCertifiedLimitMs = 8000.0;

struct Prepared {
  std::string id;
  alloc::Problem problem;
  alloc::Objective objective;
  bool descending = false;
  Reference ref;
};

struct Setup {
  std::vector<Prepared> instances;
  double seconds = 0.0;
  double parse_s = 0.0;  ///< inside alloc::parse_problem
};

struct Outcome {
  heur::AnnealingResult sa;
  alloc::OptimizeResult r;
  bool verified = false;  ///< rt::verify accepted the allocation
};

/// One op: SA warm start, optimize from it, verify the optimum.
Outcome solve(const Prepared& inst, bool certified, Tracer& tracer) {
  Outcome out;
  int span = tracer.open("heur.anneal");
  heur::AnnealingOptions sa_opts;
  sa_opts.iterations = kAnnealIterations;
  out.sa = heur::anneal(inst.problem, inst.objective, sa_opts);
  tracer.close(span);

  alloc::OptimizeOptions opts;
  opts.certify = certified;
  if (inst.descending) opts.strategy = alloc::SearchStrategy::kDescending;
  if (out.sa.feasible) {
    opts.initial_upper = out.sa.cost;
    opts.warm_start = out.sa.allocation;
  }
  span = tracer.open("alloc.optimize", /*gap=*/true);
  out.r = alloc::optimize(inst.problem, inst.objective, opts);
  tracer.close(span);
  tracer.derive(span, "alloc.encode", out.r.stats.encode_seconds);
  tracer.derive(span, "sat.solve", out.r.stats.solve_seconds);
  tracer.derive(span, "check.certify", out.r.stats.certify_seconds);

  span = tracer.open("rt.verify");
  out.verified = out.r.has_allocation &&
                 optalloc::rt::verify(inst.problem.tasks, inst.problem.arch,
                                      out.r.allocation)
                     .feasible;
  tracer.close(span);
  return out;
}

/// Loading the references, then instance generation, serialization and
/// parsing (the program only ever sees instances that went through
/// alloc::parse_problem).
Setup set_up(const RunOptions& options, bool certified) {
  const auto t0 = Clock::now();
  Setup s;
  const auto refs = load_references(options.reference_path);
  std::vector<Instance> chosen = paper_families(certified);
  std::vector<int> pool(kPoolSize);
  for (int k = 0; k < kPoolSize; ++k) pool[static_cast<std::size_t>(k)] = k;
  Draw draw(options.seed);
  draw.shuffle(pool);
  for (int k = 0; !certified && k < kDrawnGenerated; ++k) {
    chosen.push_back(pool_instance(pool[static_cast<std::size_t>(k)]));
  }
  for (const Instance& inst : chosen) {
    const auto ref = refs.find(inst.id);
    if (ref == refs.end()) {
      throw std::runtime_error("no reference optimum for " + inst.id);
    }
    std::istringstream text(problem_text(inst.problem));
    const auto p0 = Clock::now();
    Prepared prep{inst.id, alloc::parse_problem(text, inst.id),
                  alloc::parse_objective(inst.objective), inst.descending,
                  ref->second};
    s.parse_s += seconds_since(p0);
    s.instances.push_back(std::move(prep));
  }
  s.seconds = seconds_since(t0);
  return s;
}

/// Per-layer accumulators over every op of a caller (counts are exact, so
/// every pass contributes the same).
struct Counts {
  double vars = 0, lits = 0, pb = 0, conflicts = 0, calls = 0,
         calls_unsat = 0, lemmas = 0, solve_s = 0, warm_gap = 0;
  std::size_t warm_gap_n = 0;

  void add(const Counts& o) {
    vars += o.vars;
    lits += o.lits;
    pb += o.pb;
    conflicts += o.conflicts;
    calls += o.calls;
    calls_unsat += o.calls_unsat;
    lemmas += o.lemmas;
    solve_s += o.solve_s;
    warm_gap += o.warm_gap;
    warm_gap_n += o.warm_gap_n;
  }
};

/// What one caller measured over its passes.
struct CallerLog {
  explicit CallerLog(Clock::time_point epoch) : tracer(epoch) {}

  Tracer tracer;
  Counts counts;
  std::vector<double> latency_ms;
  std::map<std::string, std::vector<double>> instance_ms;
  std::vector<double> traced_pass_s, untraced_pass_s, setup_s;
  std::int64_t ok = 0, good = 0;
  double measured_s = 0.0;  ///< its passes alone, without the set-ups
  std::exception_ptr error;
};

/// The determinism registry the callers share.
struct SharedDeterminism {
  std::mutex mu;
  DeterminismLog log;

  bool check(const std::string& id, const ExactCounts& counts) {
    const std::lock_guard<std::mutex> lock(mu);
    return log.check(id, counts);
  }
};

/// One closed-loop caller: whole passes over `instances`, each in a
/// seed-drawn order, ending at the pass boundary nearest to --seconds.
void run_caller(int caller, const RunOptions& options, bool certified,
                const std::vector<Prepared>& instances,
                Clock::time_point t_run, SharedDeterminism& determinism,
                CallerLog& log) {
  const double limit_ms = certified ? kCertifiedLimitMs : kColdLimitMs;
  const std::size_t min_ops = (kMinOps + kCallers - 1) / kCallers;
  Tracer& tracer = log.tracer;
  double last_pass_s = 0.0;
  for (std::uint64_t pass = 0;
       seconds_since(t_run) + 0.5 * last_pass_s < options.seconds ||
       log.latency_ms.size() < min_ops;
       ++pass) {
    // Traced runs alternate untraced and traced passes; their wall times
    // give the tracing overhead.
    tracer.set_enabled(options.trace && pass % 2 == 1);
    std::vector<std::size_t> order(instances.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    Draw draw((options.seed * 0x9e3779b97f4a7c15ULL + pass) * kCallers +
              static_cast<std::uint64_t>(caller));
    draw.shuffle(order);
    const auto t_pass = Clock::now();
    for (const std::size_t i : order) {
      const Prepared& inst = instances[i];
      const auto t_op = Clock::now();
      tracer.begin_op("op");

      const Outcome out = solve(inst, certified, tracer);
      const heur::AnnealingResult& sa = out.sa;
      const alloc::OptimizeResult& r = out.r;

      const int span = tracer.open("bench.check");
      bool pass_ok = !certified || r.certified;
      if (inst.ref.status == "optimal") {
        pass_ok = pass_ok &&
                  r.status == alloc::OptimizeResult::Status::kOptimal &&
                  r.cost == inst.ref.cost && out.verified &&
                  alloc::objective_value(inst.problem, inst.objective,
                                         r.allocation) == r.cost;
      } else {
        pass_ok =
            pass_ok && r.status == alloc::OptimizeResult::Status::kInfeasible;
      }
      const ExactCounts exact{r.stats.boolean_vars,
                              r.stats.boolean_literals,
                              r.stats.pb_constraints,
                              r.stats.conflicts,
                              r.stats.sat_calls,
                              r.stats.proof_lemmas_checked,
                              sa.feasible ? sa.cost : -1};
      determinism.check(inst.id, exact);
      tracer.close(span);
      tracer.end_op();
      const double ms = seconds_since(t_op) * 1000.0;

      if (!pass_ok) {
        std::fprintf(stderr, "perfbench: %s failed: %s cost %lld (ref %s %lld)%s\n",
                     inst.id.c_str(), r.status_string().c_str(),
                     static_cast<long long>(r.cost), inst.ref.status.c_str(),
                     static_cast<long long>(inst.ref.cost),
                     certified && !r.certified
                         ? (" uncertified: " + r.certify_error).c_str()
                         : "");
      }
      log.latency_ms.push_back(ms);
      log.instance_ms[inst.id].push_back(ms);
      log.ok += pass_ok ? 1 : 0;
      log.good += pass_ok && ms <= limit_ms ? 1 : 0;
      Counts& c = log.counts;
      c.vars += static_cast<double>(exact.vars);
      c.lits += static_cast<double>(exact.lits);
      c.pb += static_cast<double>(exact.pb);
      c.conflicts += static_cast<double>(exact.conflicts);
      c.calls += exact.sat_calls;
      c.calls_unsat += r.stats.sat_calls_unsat;
      c.lemmas += static_cast<double>(exact.lemmas);
      c.solve_s += r.stats.solve_seconds;
      if (sa.feasible && r.cost > 0) {
        c.warm_gap += static_cast<double>(sa.cost) / static_cast<double>(r.cost);
        ++c.warm_gap_n;
      }
    }
    last_pass_s = seconds_since(t_pass);
    log.measured_s += last_pass_s;
    (tracer.enabled() ? log.traced_pass_s : log.untraced_pass_s)
        .push_back(last_pass_s);
    // More set-ups after every pass: spread over the run, the set-ups see
    // the same host phases as the passes, which steadies their median.
    for (int k = 0; k < kSetupsPerPass; ++k) {
      log.setup_s.push_back(set_up(options, certified).seconds);
    }
  }
}

void append(std::vector<double>& into, const std::vector<double>& from) {
  into.insert(into.end(), from.begin(), from.end());
}

}  // namespace

RunResult run_paper(const RunOptions& options, bool certified) {
  RunResult result;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;

  const Setup setup = set_up(options, certified);
  std::vector<double> setup_s{setup.seconds};
  const std::vector<Prepared>& instances = setup.instances;
  // One untimed warm-up op, so lazy first-use costs are paid here and not
  // by the first measured op.
  Tracer off(Clock::now());
  for (const Prepared& inst : instances) {
    if (inst.id == kWarmUpInstance) solve(inst, certified, off);
  }

  RunTimes times;
  times.kernel_start_ms = reference_kernel_ms();
  const auto t_run = Clock::now();
  SharedDeterminism determinism;
  std::vector<CallerLog> logs(kCallers, CallerLog(t_run));
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      CallerLog& log = logs[static_cast<std::size_t>(c)];
      try {
        run_caller(c, options, certified, instances, t_run, determinism, log);
      } catch (...) {
        log.error = std::current_exception();
      }
    });
  }
  for (std::thread& t : callers) t.join();
  times.kernel_end_ms = reference_kernel_ms();

  // Pool the callers: latencies and counts over every op, throughput as
  // the sum of the callers' rates.
  Counts counts;
  std::vector<double> latency_ms, traced_pass_s, untraced_pass_s;
  std::map<std::string, std::vector<double>> instance_ms;
  std::vector<Span> spans;
  std::int64_t ok = 0, good = 0;
  double throughput = 0.0;
  std::size_t passes = 0;
  for (const CallerLog& log : logs) {
    if (log.error) std::rethrow_exception(log.error);
    counts.add(log.counts);
    append(latency_ms, log.latency_ms);
    append(traced_pass_s, log.traced_pass_s);
    append(untraced_pass_s, log.untraced_pass_s);
    append(setup_s, log.setup_s);
    for (const auto& [id, ms] : log.instance_ms) append(instance_ms[id], ms);
    append_spans(spans, log.tracer.spans());
    ok += log.ok;
    good += log.good;
    throughput += static_cast<double>(log.latency_ms.size()) / log.measured_s;
    passes += log.traced_pass_s.size() + log.untraced_pass_s.size();
  }
  std::fprintf(stderr, "perfbench: median ms per instance:");
  for (const auto& [id, ms] : instance_ms) {
    std::fprintf(stderr, " %s=%.0f", id.c_str(), median(ms));
  }
  std::fprintf(stderr, "\nperfbench: pass seconds (untraced | traced):");
  for (const double s : untraced_pass_s) std::fprintf(stderr, " %.2f", s);
  std::fprintf(stderr, " |");
  for (const double s : traced_pass_s) std::fprintf(stderr, " %.2f", s);
  std::fprintf(stderr, "\n");

  const auto n = static_cast<double>(latency_ms.size());
  result.attempted = static_cast<std::int64_t>(latency_ms.size());
  result.failed = result.attempted - ok;
  std::fprintf(stderr,
               "perfbench: %s seed=%llu callers=%d ops=%zu passes=%zu "
               "p90 over %zu samples (%zu beyond); kernel %.1f -> %.1f ms\n",
               certified ? "paper_certified" : "paper_cold",
               static_cast<unsigned long long>(options.seed), kCallers,
               latency_ms.size(), passes, latency_ms.size(),
               samples_beyond(latency_ms.size(), 90), times.kernel_start_ms,
               times.kernel_end_ms);

  e2e["setup_s"] = median(setup_s);
  e2e["throughput_rps"] = throughput;
  e2e["p50_ms"] = percentile(latency_ms, 50);
  e2e["p90_ms"] = percentile(latency_ms, 90);
  e2e["ok_share"] = static_cast<double>(ok) / n;
  e2e["goodput_share"] = static_cast<double>(good) / n;
  e2e["peak_rss_mb"] = peak_rss_mb();

  const LedgerSummary ledger = summarize(spans);
  if (!options.spans_path.empty() && !write_spans(options.spans_path, spans)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 options.spans_path.c_str());
  }
  const auto traced_ops = static_cast<double>(ledger.ops);
  auto self_s = [&](const char* name) {
    const auto it = ledger.self_s.find(name);
    return it == ledger.self_s.end() ? 0.0 : it->second;
  };
  auto self_ms = [&](const char* name) {
    return ledger.ops == 0 ? 0.0 : self_s(name) * 1000.0 / traced_ops;
  };
  layer["alloc.parse_ms"] =
      setup.parse_s * 1000.0 / static_cast<double>(instances.size());
  layer["heur.anneal_ms"] = self_ms("heur.anneal");
  layer["heur.warm_gap"] =
      counts.warm_gap_n ? counts.warm_gap / static_cast<double>(counts.warm_gap_n)
                        : 0.0;
  layer["alloc.encode_ms"] = self_ms("alloc.encode");
  layer["alloc.vars"] = counts.vars / n;
  layer["alloc.lits"] = counts.lits / n;
  layer["alloc.pb"] = counts.pb / n;
  layer["alloc.other_ms"] = self_ms("alloc.optimize");
  layer["sat.solve_ms"] = self_ms("sat.solve");
  layer["sat.conflicts"] = counts.conflicts / n;
  layer["sat.calls"] = counts.calls / n;
  layer["sat.calls_unsat"] = counts.calls_unsat / n;
  layer["sat.conflicts_per_s"] =
      counts.solve_s > 0 ? counts.conflicts / counts.solve_s : 0.0;
  layer["check.certify_ms"] = self_ms("check.certify");
  layer["check.lemmas"] = counts.lemmas / n;
  layer["check.share"] = ledger.op_wall_s > 0
                             ? self_s("check.certify") / ledger.op_wall_s
                             : 0.0;
  layer["rt.verify_ms"] = self_ms("rt.verify");
  layer["bench.check_ms"] = self_ms("bench.check");
  times.traced_pass_s = median(traced_pass_s);
  times.untraced_pass_s = median(untraced_pass_s);
  if (determinism.log.mismatches() > 0) result.correct = false;
  finish_result(result, options.trace, ledger, times, e2e, std::move(layer));
  return result;
}

}  // namespace perfbench
