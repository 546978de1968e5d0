#pragma once
// The allocation service's execution core: a bounded job queue drained by
// a worker pool, fronted by the canonical result cache.
//
// Request lifecycle:
//   submit() canonicalizes the instance, probes the cache (a hit completes
//   the job immediately, translated back into the requester's indexing)
//   and otherwise enqueues it — or rejects it when the queue is full (the
//   bound is the backpressure mechanism; callers surface "queue full").
//   A worker picks the job up, runs a short simulated-annealing pass for a
//   warm-start incumbent, then runs alloc::optimize with the request's
//   remaining wall-clock deadline and per-SOLVE conflict budget. Each
//   request is solved on one worker; parallelism is across requests.
//
// Anytime contract: a request with a deadline ALWAYS gets an answer by
// that deadline — the proven optimum if the search finished, otherwise
// the best incumbent found (warm start included) plus the greatest proven
// lower bound, with proven_optimal=false. Cancellation is cooperative
// through the solver's stop flag; a cancelled solve frees its worker
// within one propagation budget check.
//
// Observability: svc.* metrics (request counters, cache hits, queue-depth
// gauge, queue/solve timers) and request_received / cache_hit /
// deadline_expired / request_done trace events.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/optimizer.hpp"
#include "alloc/problem.hpp"
#include "inc/patch.hpp"
#include "inc/session.hpp"
#include "obs/metrics.hpp"
#include "svc/cache.hpp"
#include "svc/fingerprint.hpp"
#include "util/mutex.hpp"

namespace optalloc::svc {

struct SchedulerOptions {
  int workers = 2;
  std::size_t queue_capacity = 64;   ///< queued (not yet running) jobs
  std::size_t cache_entries = 256;
  int cache_shards = 8;
  /// Simulated-annealing warm-start effort per request (0 = skip; the
  /// warm start is what guarantees an incumbent for anytime answers).
  int anneal_iterations = 2000;
  /// Solver inprocessing for every job (see alloc::OptimizeOptions).
  bool inprocess = true;
  std::int64_t inprocess_interval = 0;  ///< 0 = solver default
};

struct JobRequest {
  alloc::Problem problem;
  alloc::Objective objective;
  double deadline_s = 0.0;          ///< answer-by budget from submission; 0 = none
  std::int64_t conflict_budget = 0; ///< per-SOLVE conflict cap (0 = unlimited)
};

enum class JobState { kQueued, kRunning, kDone, kCancelled };
const char* job_state_name(JobState s);

/// Where inside its lifecycle a running job currently is: waiting in the
/// queue, in the simulated-annealing warm start, inside the BIN_SEARCH
/// loop, or terminal. Updated with relaxed atomics by the worker; readers
/// (the inspect verb) see a recent-but-not-instantaneous view.
enum class JobPhase { kQueued, kWarmStart, kSolving, kFinished };
const char* job_phase_name(JobPhase p);

/// The reply fields of one search, shared by submit and session answers
/// and filled from an alloc::OptimizeResult by one helper. `proven_optimal`
/// is true only for a finished search (status "optimal" — and
/// "infeasible", which is also a proof).
struct SearchAnswer {
  std::string status = "unknown";  ///< optimal|infeasible|feasible|unknown|error
  bool proven_optimal = false;
  bool has_allocation = false;
  std::int64_t cost = -1;
  std::int64_t lower_bound = 0;
  rt::Allocation allocation;       ///< the requester's indexing
  int sat_calls = 0;
  double solve_seconds = 0.0;
};

/// The anytime answer to a submit.
struct JobAnswer : SearchAnswer {
  bool deadline_expired = false;
  bool cached = false;
  double queue_seconds = 0.0;
  double total_seconds = 0.0;
};

struct JobSnapshot {
  std::string id;
  JobState state = JobState::kQueued;
  JobAnswer answer;  ///< meaningful once state is kDone / kCancelled
};

/// Live mid-solve view of one request (the `inspect` verb): lifecycle
/// phase, elapsed wall time, and the optimizer's proven cost interval +
/// effort counters as of its most recent progress report. All live fields
/// are best-effort relaxed-atomic reads — they lag the solver by at most
/// one SOLVE call. `upper` is -1 until an incumbent exists.
struct JobInspect {
  std::string id;
  JobState state = JobState::kQueued;
  JobPhase phase = JobPhase::kQueued;
  double elapsed_s = 0.0;          ///< since submission (wall clock)
  double deadline_s = 0.0;         ///< answer-by budget (0 = none)
  std::int64_t lower = 0;          ///< greatest proven lower bound so far
  std::int64_t upper = -1;         ///< incumbent cost (-1 = none yet)
  std::int64_t sat_calls = 0;      ///< SOLVE calls issued so far
  std::int64_t conflicts = 0;      ///< CDCL conflicts spent so far
  std::uint64_t req = 0;           ///< trace/flight request id
  JobAnswer answer;                ///< meaningful once state is terminal
};

/// Answer of one session solve (open or revise) — the incremental
/// counterpart of JobAnswer, with the delta statistics the session
/// reports and, on infeasible edits, the named constraint core.
struct SessionAnswer : SearchAnswer {
  std::vector<std::string> core;   ///< infeasible: conflicting groups
  std::string error;               ///< status "error": what went wrong
  int groups_added = 0;
  int groups_retired = 0;
  std::size_t groups_unchanged = 0;
  std::int64_t clauses_added = 0;
  /// A proven answer was stored in the result cache under the *post-edit*
  /// canonical fingerprint (so cold submits of the same edited instance
  /// hit it — and the base instance's entry is never poisoned).
  bool cache_stored = false;
};

/// Cache admission, the one way into the result cache: a proven answer
/// for the canonical instance `canon` is stored only if `allocation` (in
/// canonical indexing) passes rt::verify and re-evaluates to the
/// reported cost. Proven infeasibility carries no allocation to check
/// and is stored as is. Returns whether the answer was stored.
bool admit_answer(ResultCache& cache, const Canonical& canon,
                  const alloc::OptimizeResult& result,
                  rt::Allocation allocation);

struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t rejected = 0;         ///< bounced off the full queue
  std::uint64_t deadline_expired = 0;
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_closed = 0;
  std::uint64_t revises = 0;
  std::size_t active_sessions = 0;
  std::size_t queue_depth = 0;
  int workers = 0;
  /// Process lifetime view (alloc_top's utilization denominator).
  double uptime_s = 0.0;
  std::int64_t start_time_unix_ms = 0;
  CacheStats cache;
  // Request latency percentiles (ms, submission -> terminal state).
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

class Scheduler {
 public:
  explicit Scheduler(const SchedulerOptions& options = {});
  ~Scheduler();  ///< shutdown(false)
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Returns the assigned request id, or nullopt when the queue is full
  /// or the scheduler is shutting down.
  std::optional<std::string> submit(JobRequest request);

  std::optional<JobSnapshot> status(const std::string& id) const;

  /// Live introspection of a job (running or terminal); nullopt for
  /// unknown ids. Never blocks on the solver — the live interval fields
  /// come from relaxed atomics the worker updates per progress report.
  std::optional<JobInspect> inspect(const std::string& id) const;

  /// The trace/flight request id ("req" field) assigned to a job, used to
  /// filter flight-recorder dumps to one request. Nullopt for unknown ids.
  std::optional<std::uint64_t> request_trace_id(const std::string& id) const;

  /// Request cooperative cancellation. Returns false for unknown or
  /// already-terminal jobs.
  bool cancel(const std::string& id);

  /// Block until the job reaches a terminal state (kDone / kCancelled).
  /// timeout_s = 0 waits indefinitely; returns nullopt on timeout or
  /// unknown id.
  std::optional<JobSnapshot> wait(const std::string& id,
                                  double timeout_s = 0.0);

  // --- Incremental re-solve sessions (the revise verb) -----------------
  //
  // A session keeps a live inc::Session (persistent solver + encoding)
  // for one client across edits. Session solves run inline on the calling
  // thread — they are interactive what-if queries riding the warm solver,
  // not batch jobs for the worker pool. Concurrent ops on the *same*
  // session serialize on a per-session mutex; different sessions do not
  // contend.

  /// Open a session on `request.problem` and solve it. Returns the
  /// session id + the initial answer, or nullopt when refused: while
  /// shutting down, or when kMaxSessions (svc/protocol.hpp) are already
  /// open — `*full` is set true in that second case.
  std::optional<std::pair<std::string, SessionAnswer>> session_open(
      JobRequest request, bool* full = nullptr);

  /// Apply a patch to a session's instance and re-solve incrementally.
  /// Nullopt for unknown session ids; a patch that fails validation
  /// returns status "error" and leaves the session instance untouched.
  std::optional<SessionAnswer> session_revise(const std::string& id,
                                              const inc::InstancePatch& patch,
                                              double deadline_s,
                                              std::int64_t conflicts);

  /// Discard a session (frees its solver). False for unknown ids.
  bool session_close(const std::string& id);

  /// Stop accepting work. drain=true finishes every queued job first;
  /// drain=false cancels queued jobs and stops running solves. Joins the
  /// workers; idempotent. Session solves in flight on connection threads
  /// are stopped cooperatively in both modes.
  void shutdown(bool drain);

  ServiceStats stats() const;
  const ResultCache& cache() const { return cache_; }

 private:
  struct Job;
  struct SessionEntry;

  /// Run one session solve (open or revise) under the entry's own mutex,
  /// translate the result, emit trace events, and cache proven answers
  /// under the post-edit canonical fingerprint. `edits` is only for the
  /// trace (0 = the opening solve).
  SessionAnswer run_session_solve(SessionEntry& entry,
                                  const inc::InstancePatch* patch,
                                  std::size_t edits, double deadline_s,
                                  std::int64_t conflicts);

  void worker_loop();
  void execute(const std::shared_ptr<Job>& job);
  /// Terminalize under the scheduler mutex and wake waiters.
  void finalize(const std::shared_ptr<Job>& job, JobState state,
                JobAnswer answer) OPTALLOC_EXCLUDES(mu_);

  SchedulerOptions options_;
  ResultCache cache_;

  mutable util::Mutex mu_;
  std::condition_variable work_cv_;  ///< workers: queue / shutdown
  std::condition_variable done_cv_;  ///< waiters: job completions
  /// Job fields with cross-thread state (`state`, `answer`,
  /// `cancel_requested`) are likewise guarded by mu_; that guard crosses
  /// the object boundary, which GUARDED_BY cannot name — it is enforced
  /// by keeping every such access inside this class, under mu_.
  std::map<std::string, std::shared_ptr<Job>> jobs_ OPTALLOC_GUARDED_BY(mu_);
  std::deque<std::shared_ptr<Job>> queue_ OPTALLOC_GUARDED_BY(mu_);
  /// Live sessions. The map is guarded by mu_; each entry's inc::Session
  /// is guarded by the entry's own mutex so a long incremental solve
  /// never holds the scheduler lock.
  std::map<std::string, std::shared_ptr<SessionEntry>> sessions_
      OPTALLOC_GUARDED_BY(mu_);
  /// Raised by shutdown(); every session solve passes it as its stop
  /// flag, so in-flight revises on connection threads wind down fast.
  std::atomic<bool> session_stop_{false};
  std::vector<std::thread> workers_;  ///< written in ctor, joined once
  std::uint64_t next_id_ OPTALLOC_GUARDED_BY(mu_) = 0;
  std::uint64_t next_session_id_ OPTALLOC_GUARDED_BY(mu_) = 0;
  bool accepting_ OPTALLOC_GUARDED_BY(mu_) = true;
  bool joined_ OPTALLOC_GUARDED_BY(mu_) = false;
  /// Serializes shutdown(): the first caller joins the workers while
  /// holding it (mu_ stays free so workers can finish); latecomers block
  /// here until the join completes instead of racing t.join().
  util::Mutex shutdown_mu_;
  ServiceStats counters_ OPTALLOC_GUARDED_BY(mu_);  ///< counter fields only
  /// Bounded distribution of request latencies (ms): memory does not grow
  /// with request count, percentiles are within one bucket width (6.25%).
  obs::LocalHistogram latencies_ms_ OPTALLOC_GUARDED_BY(mu_);
  /// Scheduler birth on both clocks: steady for uptime arithmetic, wall
  /// for the stats verb's start_time_unix_ms.
  const std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  std::int64_t start_unix_ms_ = 0;  ///< set once in the ctor
};

}  // namespace optalloc::svc
