#pragma once
// Structured JSONL trace sink. One process-wide sink; events are emitted
// as one JSON object per line with three standard fields —
//   "type" : event name ("solve", "interval", "solver_restart", ...)
//   "ts"   : seconds since the sink was opened (monotonic clock)
//   "tid"  : small per-thread ordinal, stable for the thread's lifetime
// — plus event-specific fields. Lines are written atomically under a
// mutex, so concurrent service workers never interleave.
//
// Request correlation: a thread-local SpanContext carries the current
// request id ("req") and span id ("span"); when set, every event emitted
// by that thread gains those fields automatically, so a whole request can
// be reassembled from one interleaved JSONL file. The service scheduler
// installs the context when a job is claimed (ContextScope), and a
// session solve installs its session's context; RAII Span delimits phases
// (encode, SOLVE steps, cache lookup) with span_begin/span_end events.
//
// Events are emitted with obs::Event (obs/events.hpp); the vocabulary is
// declared once, in obs/events.def.
//
// Cost model: trace_enabled() is a single relaxed atomic load, and tracing
// is off by default. An Event builds no JSON while it is off; producer
// sites that compute a payload only for the trace still guard on it.
// Span/ContextScope are plain thread-local stores when tracing is off.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "obs/perfctr.hpp"

namespace optalloc::obs {

namespace detail {
extern std::atomic<bool> g_trace_on;
}

/// Near-zero-cost guard: producers must check this before building events.
inline bool trace_enabled() {
  return detail::g_trace_on.load(std::memory_order_relaxed);
}

/// Open `path` for writing (truncates) and enable tracing. Returns false
/// (tracing stays off) if the file cannot be opened.
bool trace_open(const std::string& path);

/// Route events to an external stream (tests). The stream must outlive
/// tracing; pass nullptr to detach and disable.
void trace_to_stream(std::ostream* os);

/// Flush the sink without closing it. Used on post-mortem paths (flight
/// dumps, deadline expiries) so the tail of the trace is on disk even if
/// the process dies before the orderly trace_close(). Safe when closed.
void trace_flush();

/// Flush, close the sink and disable tracing. Safe to call when closed.
void trace_close();

/// Small per-thread ordinal used for the "tid" field (0 = first thread to
/// emit). Also used by the thread-safe logger's line tags.
int thread_ordinal();

// --- Request correlation ------------------------------------------------

/// Trace context carried by the calling thread: every event it emits
/// gains "req"/"span" fields while one is installed. `req` identifies the
/// service request end-to-end (0 = none); `span` is the innermost open
/// span; `parent` its enclosing span (0 = root).
struct SpanContext {
  std::uint64_t req = 0;
  std::uint64_t span = 0;
  std::uint64_t parent = 0;
};

/// The calling thread's current context ({0,0,0} when none installed).
SpanContext current_context();

/// Process-unique span id (never 0). Also used for request-root spans.
std::uint64_t next_span_id();

/// RAII install of an explicit context on this thread (restores the
/// previous one on destruction). Used to adopt a request's identity on a
/// scheduler worker or a connection thread — the explicit hand-off that
/// carries correlation across thread boundaries.
class ContextScope {
 public:
  explicit ContextScope(const SpanContext& ctx);
  ~ContextScope();
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  SpanContext prev_;
};

/// RAII traced phase: emits "span_begin" on construction and "span_end"
/// (with wall "seconds") on destruction, nesting under the thread's
/// current context — events emitted inside the scope carry this span's
/// id. When hardware perf counters are available (see obs/perfctr.hpp)
/// the destructor additionally emits a "perf_counters" event with the
/// phase's cycle/instruction/cache-miss deltas. No-op (and no id
/// allocated) when tracing is off at construction.
class Span {
 public:
  explicit Span(std::string_view name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::string name_;
  SpanContext prev_;
  std::uint64_t start_ns_ = 0;
  bool active_ = false;
  PerfCounts perf_start_;  ///< thread counters at entry (when available)
};

/// Cross-thread span halves: begin on one thread (returns the span id
/// under `ctx`), end on another with the measured duration. Used for the
/// queue-wait span, which starts at submission and ends when a worker
/// claims the job. No-ops when tracing is off (begin still returns an id).
std::uint64_t span_begin_event(std::string_view name, const SpanContext& ctx);
void span_end_event(std::string_view name, const SpanContext& ctx,
                    std::uint64_t span_id, double seconds);

}  // namespace optalloc::obs
