#pragma once
// Wire protocol of the allocation service: newline-delimited JSON, one
// request object in, one response object out, over a Unix-domain or TCP
// stream. Verbs:
//
//   {"verb":"submit","problem":"<problem text>","objective":"sum-trt",
//    "deadline_ms":500,"conflicts":100000,"threads":1,"wait":true}
//       -> {"ok":true,"id":"r1"}  (or, with "wait", the terminal snapshot)
//   {"verb":"status","id":"r1"}    -> snapshot (state + answer when done)
//   {"verb":"result","id":"r1"}    -> snapshot, blocking until terminal
//   {"verb":"cancel","id":"r1"}    -> {"ok":true,"id":"r1"}
//   {"verb":"stats"}               -> service + cache counters, latencies
//   {"verb":"metrics"}             -> full metrics registry snapshot
//                                     (counters, gauges, histogram
//                                     quantiles + buckets) under "metrics"
//   {"verb":"inspect","id":"r1"}   -> live mid-solve introspection: the
//                                     current phase (queued/warm_start/
//                                     solving/finished), elapsed time and
//                                     the proven cost interval + SOLVE
//                                     call/conflict counts so far
//   {"verb":"dump"}                -> flight-recorder contents as an
//                                     "events" array (add "id" to filter
//                                     to one request's records)
//   {"verb":"query"}               -> time-series catalogue: one summary
//                                     row per recorded series (name,
//                                     sample count, latest value)
//   {"verb":"query","metric":"svc.request_ms.p99","last_s":60}
//                                  -> that series' samples in the window
//                                     as [unix_ms, value] pairs (add
//                                     "max_samples" to downsample);
//                                     unknown series -> ok, count 0
//   {"verb":"shutdown","drain":true} -> {"ok":true,...}; server exits
//
// Incremental re-solve sessions (what-if queries over a warm solver):
//
//   {"verb":"session_open","problem":"<text>","objective":"sum-trt",
//    "deadline_ms":500,"conflicts":100000}
//       -> {"ok":true,"session":"s1",...initial answer...}
//   {"verb":"revise","session":"s1","edits":[{"op":"set_wcet",
//    "task":"sensor","ecu":0,"wcet":12},...]}
//       -> the post-edit answer: status/proven_optimal/cost/lower_bound,
//          delta statistics (groups_added/retired/unchanged,
//          clauses_added), the allocation when feasible — and, for an
//          infeasible edit, "unsat_core": the named constraint groups
//          that conflict (see inc/patch.hpp for the edit op schema)
//   {"verb":"session_close","session":"s1"} -> {"ok":true,"session":"s1"}
//
// Every response carries "ok"; failures look like
// {"ok":false,"error":m,"code":c} where `code` is a stable machine-
// readable discriminator ("bad_json", "bad_request", "unknown_verb",
// "unknown_id", "bad_problem", "queue_full", "unknown_session",
// "too_many_sessions", "bad_patch", "line_too_long") — clients branch on it
// without parsing prose. Unknown verbs in particular are answered (with
// code "unknown_verb"), never silently dropped.
// The problem text is the alloc::io file format embedded as one JSON
// string (newlines escaped); the objective uses alloc::parse_objective
// spec syntax. Anytime answers surface as state="done" with
// "proven_optimal":false plus the incumbent cost and proven lower bound.
// The numeric fields deadline_ms and conflicts must be finite and at most
// the limits below ("bad_request" otherwise). A submit's optional
// "threads" field must be 1: each request is solved single-threaded, and
// the service runs requests in parallel on its worker pool.

#include <cstddef>
#include <optional>
#include <string>

#include "inc/patch.hpp"
#include "svc/scheduler.hpp"

namespace optalloc::svc {

/// Largest accepted values of the numeric request fields. They keep
/// every later conversion defined: deadlines become chrono durations,
/// conflicts an int64.
constexpr double kMaxDeadlineMs = 1e9;         ///< about 11.6 days
constexpr double kMaxConflicts = 1e15;         ///< per SOLVE call

/// Longest request line a connection may send, in bytes (the newline not
/// counted). Far above any real request — a problem text is a few KiB —
/// it bounds what one client can make the server buffer. A longer line
/// gets a "line_too_long" error and the connection is closed.
constexpr std::size_t kMaxLineBytes = std::size_t{4} << 20;

/// Most sessions the service keeps open at once. Each holds a live solver
/// and encoding, so the cap bounds what clients can make the server keep.
/// An open past it gets a "too_many_sessions" error; closing a session
/// frees its slot.
constexpr std::size_t kMaxSessions = 256;

struct Request {
  enum class Verb {
    kSubmit,
    kStatus,
    kCancel,
    kResult,
    kStats,
    kMetrics,
    kQuery,
    kInspect,
    kDump,
    kShutdown,
    kSessionOpen,
    kRevise,
    kSessionClose
  };
  Verb verb = Verb::kStats;
  std::string id;            ///< status/cancel/result/inspect; dump (opt.)
  std::string problem_text;  ///< submit/session_open: alloc::io format
  std::string objective = "sum-trt";
  double deadline_ms = 0.0;
  std::int64_t conflicts = 0;
  bool wait = false;         ///< submit: block until terminal
  bool drain = true;         ///< shutdown: finish queued work first
  std::string session;       ///< revise/session_close: session id
  inc::InstancePatch patch;  ///< revise: parsed "edits" array
  std::string metric;        ///< query: series name ("" = list catalogue)
  double last_s = 0.0;       ///< query: window in seconds (0 = full ring)
  std::int64_t max_samples = 0;  ///< query: downsample cap (0 = all)
};

/// Parse one request line. Returns nullopt and fills `error` (and, when
/// given, the machine-readable `code`) on malformed JSON, an unknown
/// verb, or missing required fields.
std::optional<Request> parse_request(const std::string& line,
                                     std::string* error,
                                     std::string* code = nullptr);

// --- Response lines (no trailing newline). -----------------------------

std::string error_line(const std::string& message,
                       const std::string& code = "error");
std::string submit_ack_line(const std::string& id);
/// Snapshot of a job: always ok/id/state; terminal states add the full
/// answer (status, proven_optimal, cost, lower_bound, cached,
/// deadline_expired, timings, and the task->ECU vector when present).
std::string snapshot_line(const JobSnapshot& snapshot);
std::string stats_line(const ServiceStats& stats);
/// Full registry snapshot (obs::metrics_full_json) under "metrics" —
/// enough for a remote client to render Prometheus text format.
std::string metrics_line();
/// Time-series reply (query verb). With a metric: its windowed samples
/// as [unix_ms, value] pairs; without: the series catalogue.
std::string query_line(const Request& request);
/// Live per-request introspection (inspect verb): phase, elapsed wall
/// time, proven cost interval, SOLVE calls and conflicts so far; terminal
/// jobs additionally carry the answer's status fields.
std::string inspect_line(const JobInspect& inspect);
/// Flight-recorder dump (dump verb): {"ok":true,"count":N,"events":[..]},
/// filtered to one request's records when `req` != 0.
std::string dump_line(std::uint64_t req);
std::string shutdown_ack_line(bool drain);
/// Answer of one session solve (session_open / revise): status, bounds,
/// delta statistics, the allocation's task->ECU vector when present, and
/// "unsat_core" (named constraint groups) for proven-infeasible edits.
std::string session_line(const std::string& session,
                         const SessionAnswer& answer);
std::string session_close_line(const std::string& session);

}  // namespace optalloc::svc
