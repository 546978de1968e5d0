#include "svc/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <utility>

#include "alloc/cost.hpp"
#include "alloc/optimizer.hpp"
#include "heur/annealing.hpp"
#include "obs/events.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "rt/verify.hpp"
#include "svc/protocol.hpp"

namespace optalloc::svc {

namespace {

using Clock = std::chrono::steady_clock;

/// Below this much remaining deadline a solve is pointless: return the
/// (empty) anytime answer instead of paying encoder startup for nothing.
constexpr double kMinSolveSeconds = 0.005;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct SvcMetrics {
  obs::Metric requests = obs::counter("svc.requests");
  obs::Metric rejected = obs::counter("svc.rejected");
  obs::Metric completed = obs::counter("svc.completed");
  obs::Metric cancelled = obs::counter("svc.cancelled");
  obs::Metric cache_hits = obs::counter("svc.cache.hits");
  obs::Metric cache_misses = obs::counter("svc.cache.misses");
  obs::Metric deadline_expired = obs::counter("svc.deadline_expired");
  // Capacity gauges, moved by exact deltas under mu_.
  obs::Metric queue_depth = obs::gauge("svc.queue_depth");
  obs::Metric queue_bytes = obs::gauge("svc.queue.bytes");
  obs::Metric sessions_live = obs::gauge("svc.sessions.live");
  // Per-job optimize() wall seconds: the sum is the workers' busy time.
  obs::Metric solve_time = obs::histogram("svc.time.solve");
  // Distributions: ms-scale histograms scrapeable via the metrics verb.
  // The same observations feed the per-Scheduler LocalHistogram behind
  // stats(), so `metrics --prom` quantiles and `stats` percentiles agree.
  obs::Metric queue_wait_ms = obs::histogram("svc.queue_wait_ms");
  obs::Metric request_ms = obs::histogram("svc.request_ms");
  obs::Metric cache_lookup_ms = obs::histogram("svc.cache_lookup_ms");
  // Incremental sessions (the revise verb).
  obs::Metric sessions_opened = obs::counter("svc.sessions.opened");
  obs::Metric sessions_closed = obs::counter("svc.sessions.closed");
  obs::Metric revises = obs::counter("svc.revises");
  obs::Metric revise_ms = obs::histogram("svc.revise_ms");
};

SvcMetrics& metrics() {
  static SvcMetrics m;
  return m;
}

}  // namespace

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kCancelled: return "cancelled";
  }
  return "?";
}

const char* job_phase_name(JobPhase p) {
  switch (p) {
    case JobPhase::kQueued: return "queued";
    case JobPhase::kWarmStart: return "warm_start";
    case JobPhase::kSolving: return "solving";
    case JobPhase::kFinished: return "finished";
  }
  return "?";
}

struct Scheduler::Job {
  std::string id;
  JobRequest request;
  Canonical canon;
  Clock::time_point submitted;
  std::atomic<bool> stop{false};
  bool cancel_requested = false;  ///< guarded by Scheduler::mu_
  JobState state = JobState::kQueued;
  JobAnswer answer;
  /// Trace identity: installed on whichever thread touches the job, so
  /// every event of this request carries the same "req" field.
  obs::SpanContext ctx;
  std::uint64_t queue_span = 0;  ///< open queue_wait span (cross-thread)
  std::size_t queue_bytes = 0;   ///< "svc.queue.bytes" share while queued
  // Live-introspection fields (the inspect verb): updated with relaxed
  // stores from the worker's progress callback, read lock-free by any
  // connection thread. Staleness is bounded by one SOLVE call.
  std::atomic<int> phase{static_cast<int>(JobPhase::kQueued)};
  std::atomic<std::int64_t> live_lower{0};
  std::atomic<std::int64_t> live_upper{-1};   ///< -1 = no incumbent yet
  std::atomic<std::int64_t> live_sat_calls{0};
  std::atomic<std::int64_t> live_conflicts{0};
};

/// One live incremental session: a persistent inc::Session guarded by
/// its own mutex (solves on the same session serialize; different
/// sessions never contend), plus the trace identity every event of this
/// session carries as "req".
struct Scheduler::SessionEntry {
  std::string id;
  alloc::Objective objective;
  obs::SpanContext ctx;
  util::Mutex mu;
  std::unique_ptr<inc::Session> session OPTALLOC_GUARDED_BY(mu);
};

namespace {

/// Post-mortem: embed the request's flight-recorder tail into the trace
/// as one "flight_dump" event and push it to disk. Called on the paths
/// where the in-flight story is about to be lost — deadline expiry,
/// cancellation, a worker panic. The flush matters: these are exactly the
/// moments a process may be killed before the orderly trace_close().
void flight_postmortem(const std::string& id, std::uint64_t req,
                       const char* reason) {
  if (!obs::trace_enabled()) return;
  std::size_t n = 0;
  const std::string events = obs::flight_dump_events(req, &n);
  obs::Event(obs::ev::flight_dump)
      .str("id", id)
      .str("reason", reason)
      .num("count", static_cast<std::int64_t>(n))
      .raw("events", events);
  obs::trace_flush();
}

/// Map a search result onto the reply fields every answer carries.
/// `canon` translates the allocation back into the requester's task order
/// (submits solve the canonical instance; sessions solve their own).
void fill_answer(SearchAnswer& answer, const alloc::OptimizeResult& result,
                 const Canonical* canon) {
  using Status = alloc::OptimizeResult::Status;
  answer.status = result.status != Status::kBudgetExhausted
                      ? result.status_string()
                  : result.has_allocation ? "feasible"
                                          : "unknown";
  answer.proven_optimal = result.proven();
  answer.cost = result.cost;
  answer.lower_bound = result.lower_bound;
  answer.has_allocation = result.has_allocation;
  if (result.has_allocation) {
    answer.allocation = canon != nullptr
                            ? restore_allocation(*canon, result.allocation)
                            : result.allocation;
  }
  answer.sat_calls = result.stats.sat_calls;
}

}  // namespace

bool admit_answer(ResultCache& cache, const Canonical& canon,
                  const alloc::OptimizeResult& result,
                  rt::Allocation allocation) {
  if (!result.proven()) return false;
  CachedAnswer ca;
  if (result.status == alloc::OptimizeResult::Status::kInfeasible) {
    ca.infeasible = true;
  } else if (!result.has_allocation ||
             !rt::verify(canon.problem.tasks, canon.problem.arch, allocation)
                  .feasible ||
             alloc::objective_value(canon.problem, canon.objective,
                                    allocation) != result.cost) {
    return false;
  } else {
    ca.cost = result.cost;
    ca.lower_bound = result.cost;
    ca.has_allocation = true;
    ca.allocation = std::move(allocation);
  }
  cache.put(canon.key, canon.text, std::move(ca));
  return true;
}

Scheduler::Scheduler(const SchedulerOptions& options)
    : options_(options),
      cache_(options.cache_entries, options.cache_shards) {
  start_unix_ms_ = obs::wall_unix_ms();
  options_.workers = std::max(1, options_.workers);
  options_.queue_capacity = std::max<std::size_t>(1, options_.queue_capacity);
  counters_.workers = options_.workers;
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Scheduler::~Scheduler() {
  shutdown(/*drain=*/false);
  // Sessions still open die with the scheduler: retract their share of
  // the live-session gauge.
  util::MutexLock lock(mu_);
  obs::adjust(metrics().sessions_live,
              -static_cast<std::int64_t>(sessions_.size()));
}

std::optional<std::string> Scheduler::submit(JobRequest request) {
  auto job = std::make_shared<Job>();
  job->request = std::move(request);
  job->canon = canonicalize(job->request.problem, job->request.objective);
  job->submitted = Clock::now();
  // Process-unique request id; every event below (and on the worker that
  // later claims the job) carries it as "req". Assigned before the job is
  // published in jobs_ — concurrent inspect()/request_trace_id() calls
  // read it, so it must be immutable by the time anyone else can see it.
  job->ctx.req = obs::next_span_id();

  std::size_t depth = 0;
  {
    util::MutexLock lock(mu_);
    if (!accepting_) {
      ++counters_.rejected;
      obs::add(metrics().rejected);
      return std::nullopt;
    }
    job->id = "r" + std::to_string(++next_id_);
    jobs_.emplace(job->id, job);
    depth = queue_.size();
  }
  obs::ContextScope ctx_scope(job->ctx);
  obs::add(metrics().requests);
  if (obs::trace_enabled()) {
    obs::Event(obs::ev::request_received)
        .str("id", job->id)
        .str("objective", job->request.objective.describe())
        .num("deadline_ms", job->request.deadline_s * 1000.0)
        .num("queue_depth", static_cast<std::int64_t>(depth));
  }

  std::optional<CachedAnswer> hit;
  {
    obs::Span span("cache_lookup");
    const auto lookup_start = Clock::now();
    hit = cache_.get(job->canon.key, job->canon.text);
    obs::observe(metrics().cache_lookup_ms,
                 seconds_since(lookup_start) * 1000.0);
  }
  if (hit) {
    obs::add(metrics().cache_hits);
    obs::Event(obs::ev::cache_hit).str("id", job->id);
    JobAnswer answer;
    answer.cached = true;
    answer.proven_optimal = true;
    if (hit->infeasible) {
      answer.status = "infeasible";
    } else {
      answer.status = "optimal";
      answer.cost = hit->cost;
      answer.lower_bound = hit->lower_bound;
      if (hit->has_allocation) {
        answer.has_allocation = true;
        answer.allocation = restore_allocation(job->canon, hit->allocation);
      }
    }
    {
      util::MutexLock lock(mu_);
      ++counters_.submitted;
    }
    finalize(job, JobState::kDone, std::move(answer));
    return job->id;
  }
  obs::add(metrics().cache_misses);

  {
    util::MutexLock lock(mu_);
    if (queue_.size() >= options_.queue_capacity) {
      ++counters_.rejected;
      jobs_.erase(job->id);
      obs::add(metrics().rejected);
      return std::nullopt;
    }
    ++counters_.submitted;
    // Cross-thread span: begun here, ended by the worker that claims the
    // job (execute() knows the measured wait). Opened before the job is
    // enqueued: once it is in queue_, a worker may claim it and read
    // queue_span immediately — the enqueue is the publication point.
    job->queue_span = obs::span_begin_event("queue_wait", job->ctx);
    job->queue_bytes = job->canon.text.size();
    queue_.push_back(job);
    obs::adjust(metrics().queue_depth, 1);
    obs::adjust(metrics().queue_bytes,
                static_cast<std::int64_t>(job->queue_bytes));
  }
  work_cv_.notify_one();
  return job->id;
}

std::optional<JobSnapshot> Scheduler::status(const std::string& id) const {
  util::MutexLock lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  JobSnapshot snap;
  snap.id = it->second->id;
  snap.state = it->second->state;
  snap.answer = it->second->answer;
  return snap;
}

std::optional<JobInspect> Scheduler::inspect(const std::string& id) const {
  std::shared_ptr<Job> job;
  JobInspect out;
  {
    util::MutexLock lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return std::nullopt;
    job = it->second;
    out.state = job->state;
    out.answer = job->answer;
  }
  out.id = job->id;
  out.phase = static_cast<JobPhase>(job->phase.load(std::memory_order_relaxed));
  const bool terminal =
      out.state == JobState::kDone || out.state == JobState::kCancelled;
  out.elapsed_s =
      terminal ? out.answer.total_seconds : seconds_since(job->submitted);
  out.deadline_s = job->request.deadline_s;
  out.lower = job->live_lower.load(std::memory_order_relaxed);
  out.upper = job->live_upper.load(std::memory_order_relaxed);
  out.sat_calls = job->live_sat_calls.load(std::memory_order_relaxed);
  out.conflicts = job->live_conflicts.load(std::memory_order_relaxed);
  out.req = job->ctx.req;
  return out;
}

std::optional<std::uint64_t> Scheduler::request_trace_id(
    const std::string& id) const {
  util::MutexLock lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return it->second->ctx.req;
}

bool Scheduler::cancel(const std::string& id) {
  util::MutexLock lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  Job& job = *it->second;
  if (job.state == JobState::kDone || job.state == JobState::kCancelled) {
    return false;
  }
  job.cancel_requested = true;
  job.stop.store(true, std::memory_order_relaxed);
  return true;
}

std::optional<JobSnapshot> Scheduler::wait(const std::string& id,
                                           double timeout_s) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  util::MutexLock lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  const std::shared_ptr<Job> job = it->second;
  const auto terminal = [&job] {
    return job->state == JobState::kDone || job->state == JobState::kCancelled;
  };
  if (timeout_s <= 0.0) {
    lock.wait(done_cv_, terminal);
  } else if (!lock.wait_until(done_cv_, deadline, terminal)) {
    return std::nullopt;
  }
  JobSnapshot snap;
  snap.id = job->id;
  snap.state = job->state;
  snap.answer = job->answer;
  return snap;
}

std::optional<std::pair<std::string, SessionAnswer>> Scheduler::session_open(
    JobRequest request, bool* full) {
  auto entry = std::make_shared<SessionEntry>();
  entry->objective = request.objective;
  entry->ctx.req = obs::next_span_id();
  {
    util::MutexLock lock(mu_);
    if (!accepting_) return std::nullopt;
    if (sessions_.size() >= kMaxSessions) {
      if (full != nullptr) *full = true;
      return std::nullopt;
    }
    entry->id = "s" + std::to_string(++next_session_id_);
    sessions_.emplace(entry->id, entry);
    ++counters_.sessions_opened;
    obs::adjust(metrics().sessions_live, 1);
  }
  obs::add(metrics().sessions_opened);
  {
    obs::ContextScope ctx_scope(entry->ctx);
    if (obs::trace_enabled()) {
      obs::Event(obs::ev::session_open)
          .str("session", entry->id)
          .str("objective", request.objective.describe());
    }
  }
  {
    util::MutexLock lock(entry->mu);
    entry->session = std::make_unique<inc::Session>(
        std::move(request.problem), request.objective);
  }
  SessionAnswer answer =
      run_session_solve(*entry, nullptr, 0, request.deadline_s,
                        request.conflict_budget);
  return std::make_pair(entry->id, std::move(answer));
}

std::optional<SessionAnswer> Scheduler::session_revise(
    const std::string& id, const inc::InstancePatch& patch,
    double deadline_s, std::int64_t conflicts) {
  std::shared_ptr<SessionEntry> entry;
  {
    util::MutexLock lock(mu_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return std::nullopt;
    entry = it->second;
    ++counters_.revises;
  }
  obs::add(metrics().revises);
  return run_session_solve(*entry, &patch, patch.ops.size(), deadline_s,
                           conflicts);
}

bool Scheduler::session_close(const std::string& id) {
  std::shared_ptr<SessionEntry> entry;
  {
    util::MutexLock lock(mu_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return false;
    entry = it->second;
    sessions_.erase(it);
    ++counters_.sessions_closed;
    obs::adjust(metrics().sessions_live, -1);
  }
  obs::add(metrics().sessions_closed);
  // A solve still in flight on another connection thread keeps the entry
  // alive through its shared_ptr; the solver is freed on the last drop.
  obs::ContextScope ctx_scope(entry->ctx);
  obs::Event(obs::ev::session_close).str("session", entry->id);
  return true;
}

SessionAnswer Scheduler::run_session_solve(SessionEntry& entry,
                                           const inc::InstancePatch* patch,
                                           std::size_t edits,
                                           double deadline_s,
                                           std::int64_t conflicts) {
  obs::ContextScope ctx_scope(entry.ctx);
  alloc::OptimizeOptions budget;
  budget.time_limit_s = deadline_s;
  budget.per_call.conflicts = conflicts;
  budget.stop = &session_stop_;

  inc::SessionResult result;
  alloc::Problem solved;  ///< post-edit instance, for the cache key
  {
    util::MutexLock lock(entry.mu);
    result = patch != nullptr ? entry.session->revise(*patch, budget)
                              : entry.session->solve(budget);
    solved = entry.session->problem();
  }
  obs::observe(metrics().revise_ms, result.stats.seconds * 1000.0);

  SessionAnswer answer;
  fill_answer(answer, result, nullptr);
  answer.core = result.core;
  answer.error = result.error;
  answer.solve_seconds = result.stats.seconds;
  answer.groups_added = result.groups_added;
  answer.groups_retired = result.groups_retired;
  answer.groups_unchanged = result.groups_unchanged;
  answer.clauses_added = result.clauses_added;

  // Proven answers enter the result cache under the *post-edit* canonical
  // fingerprint: a later cold submit of the same edited instance hits,
  // while the base instance's own entry is untouched. The allocation is
  // translated into canonical indexing first — cached entries are always
  // canonical so restore_allocation works for any permuted duplicate.
  if (result.proven()) {
    const Canonical canon = canonicalize(solved, entry.objective);
    answer.cache_stored = admit_answer(
        cache_, canon, result,
        result.has_allocation ? canonical_allocation(canon, result.allocation)
                              : rt::Allocation{});
  }

  if (obs::trace_enabled()) {
    obs::Event(obs::ev::revise)
        .str("session", entry.id)
        .num("edits", static_cast<std::int64_t>(edits))
        .str("status", answer.status)
        .num("seconds", result.stats.seconds);
    if (!answer.core.empty()) {
      obs::JsonArray core;
      for (const std::string& name : answer.core) {
        core.push("\"" + obs::json_escape(name) + "\"");
      }
      obs::Event(obs::ev::unsat_core)
          .str("session", entry.id)
          .num("size", static_cast<std::int64_t>(answer.core.size()))
          .raw("core", core.build());
    }
  }
  return answer;
}

void Scheduler::shutdown(bool drain) {
  session_stop_.store(true, std::memory_order_relaxed);
  // First caller does the drain + join while holding shutdown_mu_ (mu_
  // stays free so workers can make progress); concurrent callers block
  // here until the join completes, then see joined_ and return. Without
  // this, two callers could both reach t.join() on the same thread.
  util::MutexLock shutdown_lock(shutdown_mu_);
  {
    util::MutexLock lock(mu_);
    if (joined_) return;
    accepting_ = false;
    if (!drain) {
      for (const auto& job : queue_) {
        job->cancel_requested = true;
        job->stop.store(true, std::memory_order_relaxed);
      }
      for (const auto& [id, job] : jobs_) {
        if (job->state == JobState::kRunning) {
          job->cancel_requested = true;
          job->stop.store(true, std::memory_order_relaxed);
        }
      }
    }
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  util::MutexLock lock(mu_);
  joined_ = true;
}

ServiceStats Scheduler::stats() const {
  ServiceStats out;
  obs::LocalHistogram lat;
  {
    util::MutexLock lock(mu_);
    out = counters_;
    out.queue_depth = queue_.size();
    out.active_sessions = sessions_.size();
    lat = latencies_ms_;
  }
  out.cache = cache_.stats();
  out.uptime_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start_)
                     .count();
  out.start_time_unix_ms = start_unix_ms_;
  out.p50_ms = lat.quantile(0.50);
  out.p95_ms = lat.quantile(0.95);
  out.p99_ms = lat.quantile(0.99);
  out.max_ms = lat.max();
  return out;
}

void Scheduler::worker_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      util::MutexLock lock(mu_);
      lock.wait(work_cv_, [this]() OPTALLOC_REQUIRES(mu_) {
        return !queue_.empty() || !accepting_;
      });
      if (queue_.empty()) {
        if (!accepting_) return;
        continue;
      }
      job = queue_.front();
      queue_.pop_front();
      job->state = JobState::kRunning;
      obs::adjust(metrics().queue_depth, -1);
      obs::adjust(metrics().queue_bytes,
                  -static_cast<std::int64_t>(job->queue_bytes));
    }
    // Panic guard: an exception escaping a solve (OOM in the encoder, a
    // bug) must not take the worker thread — and with it 1/N of the
    // service's capacity — down. The job is terminalized as an error and
    // its flight tail preserved for the post-mortem.
    try {
      execute(job);
    } catch (const std::exception& e) {
      const obs::ContextScope ctx_scope(job->ctx);
      obs::Event(obs::ev::worker_panic)
          .str("id", job->id)
          .str("error", e.what());
      flight_postmortem(job->id, job->ctx.req, "worker_panic");
      bool terminal = false;
      {
        util::MutexLock lock(mu_);
        terminal = job->state == JobState::kDone ||
                   job->state == JobState::kCancelled;
      }
      if (!terminal) {
        JobAnswer answer;
        answer.status = "error";
        finalize(job, JobState::kCancelled, std::move(answer));
      }
    }
  }
}

void Scheduler::execute(const std::shared_ptr<Job>& job) {
  // Adopt the request's trace identity for everything this worker does on
  // its behalf (the explicit cross-thread hand-off).
  obs::ContextScope ctx_scope(job->ctx);
  JobAnswer answer;
  answer.queue_seconds = seconds_since(job->submitted);
  obs::observe(metrics().queue_wait_ms, answer.queue_seconds * 1000.0);
  obs::span_end_event("queue_wait", job->ctx, job->queue_span,
                      answer.queue_seconds);

  bool cancelled_early = false;
  {
    util::MutexLock lock(mu_);
    cancelled_early = job->cancel_requested;
  }
  if (cancelled_early) {
    finalize(job, JobState::kCancelled, std::move(answer));
    return;
  }

  const bool deadline_set = job->request.deadline_s > 0.0;
  if (deadline_set &&
      job->request.deadline_s - answer.queue_seconds <= kMinSolveSeconds) {
    answer.deadline_expired = true;
    obs::Event(obs::ev::deadline_expired).str("id", job->id);
    flight_postmortem(job->id, job->ctx.req, "deadline_expired");
    finalize(job, JobState::kDone, std::move(answer));
    return;
  }

  // Warm start: a short SA pass guarantees an incumbent for the anytime
  // answer (and bounds the exact search's first SOLVE).
  job->phase.store(static_cast<int>(JobPhase::kWarmStart),
                   std::memory_order_relaxed);
  heur::AnnealingResult sa;
  if (options_.anneal_iterations > 0) {
    heur::AnnealingOptions ao;
    ao.iterations = options_.anneal_iterations;
    sa = heur::anneal(job->canon.problem, job->canon.objective, ao);
  }

  alloc::OptimizeOptions opts;
  opts.stop = &job->stop;
  opts.inprocess = options_.inprocess;
  opts.inprocess_interval = options_.inprocess_interval;
  // Feed the inspect verb: every optimizer progress report lands in the
  // job's relaxed atomics.
  {
    Job* j = job.get();
    opts.on_progress = [j](const alloc::Progress& p) {
      j->live_lower.store(p.lower, std::memory_order_relaxed);
      j->live_upper.store(p.has_incumbent ? p.upper : -1,
                          std::memory_order_relaxed);
      j->live_sat_calls.store(p.sat_calls, std::memory_order_relaxed);
      j->live_conflicts.store(static_cast<std::int64_t>(p.conflicts),
                              std::memory_order_relaxed);
    };
  }
  if (deadline_set) {
    opts.time_limit_s = std::max(
        kMinSolveSeconds, job->request.deadline_s - seconds_since(job->submitted));
  }
  if (job->request.conflict_budget > 0) {
    opts.per_call.conflicts = job->request.conflict_budget;
  }
  if (sa.feasible) {
    opts.initial_upper = sa.cost;
    opts.warm_start = sa.allocation;
  }

  job->phase.store(static_cast<int>(JobPhase::kSolving),
                   std::memory_order_relaxed);
  const auto solve_start = Clock::now();
  const alloc::OptimizeResult result =
      alloc::optimize(job->canon.problem, job->canon.objective, opts);
  answer.solve_seconds = seconds_since(solve_start);
  obs::observe(metrics().solve_time, answer.solve_seconds);

  bool cancelled = false;
  {
    util::MutexLock lock(mu_);
    cancelled = job->cancel_requested;
  }

  fill_answer(answer, result, &job->canon);
  admit_answer(cache_, job->canon, result, result.allocation);
  if (!cancelled && deadline_set && !result.proven() &&
      seconds_since(job->submitted) >= job->request.deadline_s - 0.01) {
    answer.deadline_expired = true;
    obs::Event(obs::ev::deadline_expired).str("id", job->id);
    flight_postmortem(job->id, job->ctx.req, "deadline_expired");
  }

  if (cancelled) {
    flight_postmortem(job->id, job->ctx.req, "cancelled");
  }
  finalize(job, cancelled ? JobState::kCancelled : JobState::kDone,
           std::move(answer));
}

void Scheduler::finalize(const std::shared_ptr<Job>& job, JobState state,
                         JobAnswer answer) {
  answer.total_seconds = seconds_since(job->submitted);
  const double total_ms = answer.total_seconds * 1000.0;
  // Terminal facts, captured before the answer moves into the job: once
  // mu_ is released below, job->answer belongs to the mu_-guarded state
  // and concurrent status()/inspect() copies — re-reading it lock-free
  // here would be exactly the unguarded access the annotations forbid.
  const bool deadline_expired = answer.deadline_expired;
  const bool proven_optimal = answer.proven_optimal;
  const double total_seconds = answer.total_seconds;
  job->phase.store(static_cast<int>(JobPhase::kFinished),
                   std::memory_order_relaxed);
  {
    util::MutexLock lock(mu_);
    job->answer = std::move(answer);
    job->state = state;
    if (state == JobState::kCancelled) {
      ++counters_.cancelled;
    } else {
      ++counters_.completed;
    }
    if (deadline_expired) ++counters_.deadline_expired;
    latencies_ms_.observe(total_ms);
  }
  obs::observe(metrics().request_ms, total_ms);
  done_cv_.notify_all();
  obs::add(state == JobState::kCancelled ? metrics().cancelled
                                         : metrics().completed);
  if (deadline_expired) obs::add(metrics().deadline_expired);
  obs::Event(obs::ev::request_done)
      .str("id", job->id)
      .str("state", job_state_name(state))
      .boolean("proven_optimal", proven_optimal)
      .num("seconds", total_seconds);
}

}  // namespace optalloc::svc
