#include "obs/trace.hpp"

#include <fstream>
#include <memory>
#include <ostream>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "util/mutex.hpp"

namespace optalloc::obs {

namespace detail {
std::atomic<bool> g_trace_on{false};
}

namespace {

struct Sink {
  util::Mutex mutex;
  // Owned when tracing to a path.
  std::unique_ptr<std::ofstream> file OPTALLOC_GUARDED_BY(mutex);
  // Active destination (file or external stream).
  std::ostream* out OPTALLOC_GUARDED_BY(mutex) = nullptr;
  std::atomic<std::uint64_t> epoch_ns{0};  // trace-open time ("ts" base)
};

Sink& sink() {
  static Sink* s = new Sink();  // leaked: events may fire during exit
  return *s;
}

std::atomic<int> g_next_tid{0};
std::atomic<std::uint64_t> g_next_span{1};
thread_local SpanContext t_context;

}  // namespace

int thread_ordinal() {
  thread_local const int tid =
      g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

SpanContext current_context() { return t_context; }

std::uint64_t next_span_id() {
  return g_next_span.fetch_add(1, std::memory_order_relaxed);
}

ContextScope::ContextScope(const SpanContext& ctx) : prev_(t_context) {
  t_context = ctx;
}

ContextScope::~ContextScope() { t_context = prev_; }

Span::Span(std::string_view name) {
  if (!trace_enabled()) return;
  active_ = true;
  name_ = name;
  prev_ = t_context;
  t_context = {prev_.req, span_begin_event(name_, prev_), prev_.span};
  start_ns_ = monotonic_ns();
  perf_start_ = perf_read();
}

Span::~Span() {
  if (!active_) return;
  if (perf_start_.available) {
    const PerfCounts d = perf_delta(perf_read(), perf_start_);
    // Absent siblings emit -1 (trace events have no null); consumers
    // treat negative counters as unavailable.
    Event(ev::perf_counters)
        .str("name", name_)
        .num("cycles", d.cycles)
        .num("instructions", d.instructions)
        .num("cache_references", d.cache_references)
        .num("cache_misses", d.cache_misses)
        .num("branch_misses", d.branch_misses);
  }
  span_end_event(name_, prev_, t_context.span,
                 static_cast<double>(monotonic_ns() - start_ns_) * 1e-9);
  t_context = prev_;
}

std::uint64_t span_begin_event(std::string_view name,
                               const SpanContext& ctx) {
  SpanContext child;
  child.req = ctx.req;
  child.span = next_span_id();
  child.parent = ctx.span;
  if (trace_enabled()) {
    Event(ev::span_begin, child)
        .str("name", name)
        .num("parent", child.parent);
  }
  return child.span;
}

void span_end_event(std::string_view name, const SpanContext& ctx,
                    std::uint64_t span_id, double seconds) {
  if (!trace_enabled()) return;
  SpanContext child;
  child.req = ctx.req;
  child.span = span_id;
  child.parent = ctx.span;
  Event(ev::span_end, child)
      .str("name", name)
      .num("parent", child.parent)
      .num("seconds", seconds);
}

bool trace_open(const std::string& path) {
  Sink& s = sink();
  util::MutexLock lock(s.mutex);
  auto file = std::make_unique<std::ofstream>(path, std::ios::trunc);
  if (!*file) return false;
  s.file = std::move(file);
  s.out = s.file.get();
  s.epoch_ns.store(monotonic_ns(), std::memory_order_relaxed);
  detail::g_trace_on.store(true, std::memory_order_relaxed);
  return true;
}

void trace_to_stream(std::ostream* os) {
  Sink& s = sink();
  util::MutexLock lock(s.mutex);
  s.file.reset();
  s.out = os;
  s.epoch_ns.store(monotonic_ns(), std::memory_order_relaxed);
  detail::g_trace_on.store(os != nullptr, std::memory_order_relaxed);
}

void trace_flush() {
  Sink& s = sink();
  util::MutexLock lock(s.mutex);
  if (s.out != nullptr) s.out->flush();
}

void trace_close() {
  Sink& s = sink();
  // Disable first so producers racing with close see the guard drop and
  // skip event construction; late events that already passed the guard
  // serialize on the mutex and find out == nullptr.
  detail::g_trace_on.store(false, std::memory_order_relaxed);
  util::MutexLock lock(s.mutex);
  if (s.out != nullptr) s.out->flush();
  s.file.reset();
  s.out = nullptr;
}

Event::Event(EventKind kind, const SpanContext& ctx)
    : type_(event_info(kind).name),
      req_(ctx.req),
      ring_(event_info(kind).ring && flight_enabled()) {
  if (!trace_enabled()) return;
  JsonObject& o = trace_.emplace();
  o.str("type", type_);
  o.num("ts", static_cast<double>(monotonic_ns() - sink().epoch_ns.load(std::memory_order_relaxed)) * 1e-9);
  o.num("tid", static_cast<std::int64_t>(thread_ordinal()));
  if (ctx.req != 0) o.num("req", static_cast<std::int64_t>(ctx.req));
  if (ctx.span != 0) o.num("span", static_cast<std::int64_t>(ctx.span));
}

Event::~Event() {
  if (ring_) detail::flight_commit(type_, req_, keys_, values_, n_);
  if (!trace_) return;
  Sink& s = sink();
  util::MutexLock lock(s.mutex);
  if (s.out == nullptr) return;
  *s.out << trace_->build() << '\n';
}

}  // namespace optalloc::obs
