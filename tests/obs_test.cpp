// Observability layer: JSON round-trips, metrics registry merge semantics
// under concurrent writers, JSONL trace schema, the anytime progress
// callback's interval monotonicity on a real optimization run, the flight
// recorder's ring/overwrite/dump semantics (including the dump-while-
// writing race the seqlock exists for), and the perf-counter stubs.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc/optimizer.hpp"
#include "obs/events.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "workload/tindell.hpp"

namespace optalloc {
namespace {

// --- JSON --------------------------------------------------------------

TEST(Json, EscapeRoundTrip) {
  const std::string nasty = "a\"b\\c\nd\te\x01 f";
  const std::string doc = obs::JsonObject().str("k", nasty).build();
  const auto parsed = obs::json_parse(doc);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->get_string("k"), nasty);
}

TEST(Json, BuilderTypesParseBack) {
  obs::JsonArray arr;
  arr.push("1");
  arr.push("\"two\"");
  const std::string doc = obs::JsonObject()
                              .str("s", "hi")
                              .num("i", std::int64_t{-42})
                              .num("d", 2.5)
                              .boolean("b", true)
                              .raw("a", arr.build())
                              .build();
  const auto parsed = obs::json_parse(doc);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->get_string("s"), "hi");
  EXPECT_EQ(parsed->get_number("i"), -42.0);
  EXPECT_EQ(parsed->get_number("d"), 2.5);
  const obs::JsonValue* b = parsed->get("b");
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->b);
  const obs::JsonValue* a = parsed->get("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 2u);
  EXPECT_EQ(a->array[0].number, 1.0);
  EXPECT_EQ(a->array[1].string, "two");
}

TEST(Json, ParserRejectsGarbage) {
  EXPECT_FALSE(obs::json_parse("").has_value());
  EXPECT_FALSE(obs::json_parse("{").has_value());
  EXPECT_FALSE(obs::json_parse("{}x").has_value());
  EXPECT_FALSE(obs::json_parse("{\"k\":}").has_value());
  EXPECT_FALSE(obs::json_parse("[1,]").has_value());
  EXPECT_TRUE(obs::json_parse(" { \"k\" : [ 1 , null ] } ").has_value());
}

TEST(Json, UnicodeEscapes) {
  const auto parsed = obs::json_parse("{\"k\":\"\\u00e9\\u0041\"}");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->get_string("k"), "\xc3\xa9" "A");
}

// --- Metrics registry --------------------------------------------------

/// The current value of a declared metric (a histogram's count).
template <obs::MetricKind K>
std::int64_t value_of(obs::MetricId<K> id) {
  return obs::snapshot()[id.row].value;
}

TEST(Metrics, SnapshotListsEveryDeclaredMetric) {
  // Every row of obs/metrics.def is listed, in table order, at zero until
  // touched.
  obs::reset_metrics();
  const auto snap = obs::snapshot();
  ASSERT_EQ(snap.size(), obs::kNumMetrics);
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].name, obs::kMetrics[i].name);
    EXPECT_EQ(snap[i].kind, obs::kMetrics[i].kind);
    EXPECT_EQ(snap[i].value, 0) << snap[i].name;
  }
  EXPECT_EQ(obs::find_gauge("svc.cache.bytes")->row,
            obs::m::svc_cache_bytes.row);
  EXPECT_FALSE(obs::find_gauge("svc.requests"));  // a counter
  EXPECT_FALSE(obs::find_gauge("no.such.metric"));
}

TEST(Metrics, ConcurrentWritersMergeExactly) {
  obs::reset_metrics();
  const obs::Counter c = obs::m::sat_conflicts;
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([c] {
      for (int i = 0; i < kAdds; ++i) obs::add(c, 1);
    });
  }
  for (auto& w : workers) w.join();
  // All writer threads have exited: the sum must include retired shards.
  EXPECT_EQ(value_of(c),
            std::int64_t{kThreads} * kAdds);

  // A second wave after the snapshot keeps accumulating on top.
  std::thread extra([c] { obs::add(c, 5); });
  extra.join();
  EXPECT_EQ(value_of(c),
            std::int64_t{kThreads} * kAdds + 5);
}

TEST(Metrics, SnapshotWhileWritersLive) {
  obs::reset_metrics();
  const obs::Counter c = obs::m::sat_decisions;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load()) obs::add(c, 1);
  });
  // Merge-on-read must be safe against a concurrently writing shard.
  for (int i = 0; i < 100; ++i) {
    const std::int64_t v = value_of(c);
    EXPECT_GE(v, 0);
  }
  stop.store(true);
  writer.join();
}

TEST(Metrics, GaugeAndTimerSemantics) {
  obs::reset_metrics();
  const obs::Gauge g = obs::m::svc_queue_depth;
  obs::set(g, 7);
  obs::set(g, 3);
  EXPECT_EQ(value_of(g), 3);

  // A duration is a histogram of seconds: ScopedTimer observes its
  // scope's wall time, and the sum reads the total.
  const obs::Histogram t = obs::m::heur_sa_time;
  obs::observe(t, 0.25);
  { const obs::ScopedTimer scope(t); }
  const obs::MetricValue timed = obs::snapshot()[t.row];
  EXPECT_EQ(timed.kind, obs::MetricKind::kHistogram);
  EXPECT_EQ(timed.value, 2);  // observation count
  EXPECT_GE(timed.sum, 0.25);
  EXPECT_LT(timed.sum, 1.25);  // the empty scope took well under a second

  const auto doc = obs::json_parse(obs::metrics_full_json());
  ASSERT_TRUE(doc.has_value());
  const obs::JsonValue* gauge = doc->get("svc.queue_depth");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->get_string("kind"), "gauge");
  EXPECT_EQ(gauge->get_number("value"), 3.0);
  const obs::JsonValue* timer = doc->get("heur.sa.time");
  ASSERT_NE(timer, nullptr);
  EXPECT_EQ(timer->get_string("kind"), "histogram");
  EXPECT_EQ(timer->get_number("count"), 2.0);
}

// --- Histograms ---------------------------------------------------------

TEST(Metrics, HistogramBucketSchemeIsSoundAndTight) {
  // In-range positive values land in a bucket that contains them and whose
  // width is at most value / kHistSubBuckets — the documented 6.25%
  // relative-error bound for every quantile.
  const double values[] = {1e-9,     3.7e-6, 0.001,  0.0625, 1.0,
                           1.5,      2.0,    123.456, 8191.0, 1e9};
  int prev_idx = 0;
  for (const double v : values) {
    const int idx = obs::histogram_bucket_index(v);
    ASSERT_GT(idx, 0) << v;
    ASSERT_LT(idx, obs::kHistBuckets - 1) << v;
    EXPECT_GE(idx, prev_idx) << v;  // index monotone in the value
    prev_idx = idx;
    const auto [lo, hi] = obs::histogram_bucket_bounds(idx);
    EXPECT_LE(lo, v);
    EXPECT_GT(hi, v);
    EXPECT_LE(hi - lo, v / obs::kHistSubBuckets * (1 + 1e-12)) << v;
  }
  // Zero, negatives and too-small values underflow; huge ones overflow
  // into the open-ended top bucket.
  EXPECT_EQ(obs::histogram_bucket_index(0.0), 0);
  EXPECT_EQ(obs::histogram_bucket_index(-3.0), 0);
  EXPECT_EQ(obs::histogram_bucket_index(1e-12), 0);
  EXPECT_EQ(obs::histogram_bucket_index(1e30), obs::kHistBuckets - 1);
  EXPECT_TRUE(
      std::isinf(obs::histogram_bucket_bounds(obs::kHistBuckets - 1).second));
}

TEST(Metrics, LocalHistogramQuantilesWithinErrorBound) {
  obs::LocalHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty histogram
  for (int i = 1; i <= 1000; ++i) h.observe(i * 0.001);  // uniform (0, 1]
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.sum(), 500.5, 1e-9);
  EXPECT_DOUBLE_EQ(h.max(), 1.0);  // max is exact, not bucketed
  for (const double q : {0.50, 0.90, 0.95, 0.99}) {
    // The q-quantile of this sample is ≈ q itself; the estimate must stay
    // within one bucket width (≤ q/16) plus the sample's 1e-3 grid.
    EXPECT_NEAR(h.quantile(q), q, q / obs::kHistSubBuckets + 2e-3) << q;
  }
}

TEST(Metrics, HistogramShardsMergeAcrossThreads) {
  obs::reset_metrics();
  const obs::Histogram h = obs::m::svc_request_ms;
  constexpr int kThreads = 4;
  constexpr int kObs = 1000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([h] {
      for (int i = 1; i <= kObs; ++i) {
        obs::observe(h, static_cast<double>(i));
      }
    });
  }
  for (auto& w : workers) w.join();

  const obs::MetricValue m = obs::snapshot()[h.row];
  EXPECT_EQ(m.kind, obs::MetricKind::kHistogram);
  EXPECT_EQ(m.value, std::int64_t{kThreads} * kObs);  // merged count
  EXPECT_NEAR(m.sum, kThreads * (kObs * (kObs + 1) / 2.0), 1e-6);
  std::uint64_t bucket_total = 0;
  for (const auto& b : m.buckets) {
    EXPECT_GT(b.count, 0u);  // snapshot carries only non-empty buckets
    bucket_total += b.count;
  }
  EXPECT_EQ(bucket_total, static_cast<std::uint64_t>(kThreads) * kObs);
  const double p50 = obs::histogram_quantile(m.buckets, 0.50);
  EXPECT_NEAR(p50, 500.0, 500.0 / obs::kHistSubBuckets + 1.0);
}

TEST(Metrics, FullJsonRoundTripsAndRendersPrometheus) {
  obs::reset_metrics();
  obs::add(obs::m::svc_requests, 3);
  obs::set(obs::m::svc_queue_depth, -2);
  obs::observe(obs::m::svc_time_solve, 0.5);
  const obs::Histogram h = obs::m::svc_request_ms;
  for (int i = 1; i <= 100; ++i) obs::observe(h, static_cast<double>(i));

  // Wire round-trip: the typed JSON document decodes back into the exact
  // snapshot (bucket quantization already happened at observe time).
  const auto doc = obs::json_parse(obs::metrics_full_json());
  ASSERT_TRUE(doc.has_value());
  const auto decoded = obs::metrics_from_json(*doc);
  const auto snap = obs::snapshot();
  ASSERT_EQ(decoded.size(), snap.size());
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(decoded[i].name, snap[i].name);
    EXPECT_EQ(decoded[i].kind, snap[i].kind);
    EXPECT_EQ(decoded[i].value, snap[i].value);
    ASSERT_EQ(decoded[i].buckets.size(), snap[i].buckets.size());
    for (std::size_t b = 0; b < snap[i].buckets.size(); ++b) {
      EXPECT_EQ(decoded[i].buckets[b].count, snap[i].buckets[b].count);
      EXPECT_DOUBLE_EQ(decoded[i].buckets[b].hi, snap[i].buckets[b].hi);
    }
  }

  // The decoded snapshot renders through the same Prometheus writer the
  // server uses locally: names sanitized, cumulative buckets, quantiles.
  const std::string prom = obs::prometheus_from_snapshot(decoded);
  EXPECT_NE(prom.find("# TYPE svc_requests counter"), std::string::npos);
  EXPECT_NE(prom.find("svc_requests 3"), std::string::npos);
  EXPECT_NE(prom.find("svc_queue_depth -2"), std::string::npos);
  EXPECT_NE(prom.find("svc_time_solve_count 1"), std::string::npos);
  EXPECT_NE(prom.find("svc_time_solve_sum 0.5"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE svc_request_ms histogram"), std::string::npos);
  EXPECT_NE(prom.find("svc_request_ms_bucket{le=\"+Inf\"} 100"),
            std::string::npos);
  EXPECT_NE(prom.find("svc_request_ms_count 100"), std::string::npos);
  EXPECT_NE(prom.find("svc_request_ms_p95 "), std::string::npos);

  // Cumulative bucket counts must be non-decreasing and end at the total.
  std::uint64_t last_cum = 0;
  std::size_t pos = 0;
  while ((pos = prom.find("svc_request_ms_bucket{le=", pos)) !=
         std::string::npos) {
    const std::size_t space = prom.find("} ", pos);
    ASSERT_NE(space, std::string::npos);
    const std::uint64_t cum = std::strtoull(
        prom.c_str() + space + 2, nullptr, 10);
    EXPECT_GE(cum, last_cum);
    last_cum = cum;
    pos = space;
  }
  EXPECT_EQ(last_cum, 100u);
}

// --- Trace sink + progress callback ------------------------------------

struct TraceRun {
  alloc::OptimizeResult result;
  std::vector<obs::JsonValue> events;
  std::vector<alloc::Progress> progress;
};

/// Optimize a small Tindell prefix with the trace sink routed to a string
/// stream; returns the parsed events and the progress-callback samples.
TraceRun traced_run() {
  TraceRun run;
  std::ostringstream sink;
  obs::trace_to_stream(&sink);
  alloc::OptimizeOptions opts;
  opts.on_progress = [&run](const alloc::Progress& p) {
    run.progress.push_back(p);
  };
  run.result = alloc::optimize(workload::tindell_prefix(10),
                               alloc::Objective::ring_trt(0), opts);
  obs::trace_close();

  std::istringstream lines(sink.str());
  std::string line;
  while (std::getline(lines, line)) {
    auto parsed = obs::json_parse(line);
    EXPECT_TRUE(parsed.has_value()) << "unparseable trace line: " << line;
    if (parsed) run.events.push_back(std::move(*parsed));
  }
  return run;
}

TEST(Trace, JsonlSchemaAndEventVocabulary) {
  const TraceRun run = traced_run();
  ASSERT_EQ(run.result.status, alloc::OptimizeResult::Status::kOptimal);
  ASSERT_FALSE(run.events.empty());

  int solves = 0, intervals = 0, optimums = 0;
  double last_ts = 0.0;
  for (const auto& ev : run.events) {
    ASSERT_TRUE(ev.is_object());
    const auto type = ev.get_string("type");
    ASSERT_TRUE(type.has_value());
    const auto ts = ev.get_number("ts");
    ASSERT_TRUE(ts.has_value());
    EXPECT_GE(*ts, last_ts);  // single-threaded run: timestamps ordered
    last_ts = *ts;
    ASSERT_TRUE(ev.get_number("tid").has_value());

    if (*type == "solve") {
      ++solves;
      const auto result = ev.get_string("result");
      ASSERT_TRUE(result.has_value());
      EXPECT_TRUE(*result == "sat" || *result == "unsat" ||
                  *result == "undef");
      EXPECT_TRUE(ev.get_number("call").has_value());
      EXPECT_TRUE(ev.get_number("conflicts").has_value());
      EXPECT_TRUE(ev.get_number("seconds").has_value());
    } else if (*type == "interval") {
      ++intervals;
      const auto lower = ev.get_number("lower");
      const auto upper = ev.get_number("upper");
      ASSERT_TRUE(lower.has_value());
      ASSERT_TRUE(upper.has_value());
      EXPECT_LE(*lower, *upper);
    } else if (*type == "optimum") {
      ++optimums;
      EXPECT_EQ(ev.get_string("status"), "optimal");
      EXPECT_EQ(ev.get_number("cost"),
                static_cast<double>(run.result.cost));
    }
  }
  EXPECT_GE(solves, 1);
  EXPECT_GE(intervals, 1);
  EXPECT_EQ(optimums, 1);
  EXPECT_EQ(solves, run.result.stats.sat_calls);
}

TEST(Trace, ProgressIntervalsShrinkMonotonically) {
  const TraceRun run = traced_run();
  ASSERT_EQ(run.result.status, alloc::OptimizeResult::Status::kOptimal);
  ASSERT_FALSE(run.progress.empty());

  const alloc::Progress* prev = nullptr;
  for (const alloc::Progress& p : run.progress) {
    EXPECT_LE(p.lower, p.upper);
    EXPECT_GE(p.seconds, 0.0);
    if (prev) {
      EXPECT_GE(p.lower, prev->lower);   // lower bound never retreats
      EXPECT_LE(p.upper, prev->upper);   // incumbent never worsens
      EXPECT_GE(p.sat_calls, prev->sat_calls);
    }
    if (p.has_incumbent) {
      EXPECT_EQ(p.incumbent_cost, p.upper);
    }
    prev = &p;
  }
  // Final sample: the interval has collapsed onto the optimum.
  const alloc::Progress& last = run.progress.back();
  EXPECT_EQ(last.lower, last.upper);
  EXPECT_EQ(last.upper, run.result.cost);
}

TEST(Trace, DisabledSinkEmitsNothing) {
  std::ostringstream sink;
  obs::trace_to_stream(&sink);
  obs::trace_close();
  EXPECT_FALSE(obs::trace_enabled());
  { obs::Event(obs::ev::solver_gc).num("gc_runs", 1); }
  EXPECT_TRUE(sink.str().empty());
}

// --- Request correlation ------------------------------------------------

TEST(Trace, SpansAndContextCorrelateEvents) {
  std::ostringstream sink;
  obs::trace_to_stream(&sink);

  obs::SpanContext req_ctx;
  req_ctx.req = obs::next_span_id();
  std::uint64_t queue_span = 0;
  {
    obs::ContextScope scope(req_ctx);
    {
      obs::Span phase("phase");
      obs::Event(obs::ev::solver_gc).num("gc_runs", 1);
    }
    // Cross-thread halves: begin here, end on another thread — the pattern
    // the scheduler uses for queue-wait spans.
    queue_span = obs::span_begin_event("queue_wait", req_ctx);
    std::thread worker([&] {
      obs::span_end_event("queue_wait", req_ctx, queue_span, 0.25);
    });
    worker.join();
  }
  // Context restored: no req field.
  obs::Event(obs::ev::solver_restart).num("restarts", 2);
  obs::trace_close();

  std::map<std::string, std::vector<obs::JsonValue>> by_type;
  std::istringstream lines(sink.str());
  std::string line;
  while (std::getline(lines, line)) {
    auto parsed = obs::json_parse(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    by_type[*parsed->get_string("type")].push_back(std::move(*parsed));
  }
  ASSERT_EQ(by_type["span_begin"].size(), 2u);
  ASSERT_EQ(by_type["span_end"].size(), 2u);
  ASSERT_EQ(by_type["solver_gc"].size(), 1u);
  ASSERT_EQ(by_type["solver_restart"].size(), 1u);

  const double req = static_cast<double>(req_ctx.req);
  const obs::JsonValue& begin = by_type["span_begin"][0];
  EXPECT_EQ(begin.get_string("name"), "phase");
  EXPECT_EQ(begin.get_number("req"), req);
  EXPECT_EQ(begin.get_number("parent"), 0.0);  // request root
  const auto phase_span = begin.get_number("span");
  ASSERT_TRUE(phase_span.has_value());
  EXPECT_GT(*phase_span, 0.0);

  // The event emitted inside the Span inherits req AND the span id — this
  // is what lets trace_report hang solver events off their phase.
  const obs::JsonValue& inner = by_type["solver_gc"][0];
  EXPECT_EQ(inner.get_number("req"), req);
  EXPECT_EQ(inner.get_number("span"), *phase_span);

  const obs::JsonValue& end = by_type["span_end"][0];
  EXPECT_EQ(end.get_string("name"), "phase");
  EXPECT_EQ(end.get_number("span"), *phase_span);
  const auto seconds = end.get_number("seconds");
  ASSERT_TRUE(seconds.has_value());
  EXPECT_GE(*seconds, 0.0);

  // The queue_wait halves match by (req, span) even though span_end ran on
  // a different thread, and carry the externally measured duration.
  const obs::JsonValue& qbegin = by_type["span_begin"][1];
  const obs::JsonValue& qend = by_type["span_end"][1];
  EXPECT_EQ(qbegin.get_string("name"), "queue_wait");
  EXPECT_EQ(qbegin.get_number("span"), static_cast<double>(queue_span));
  EXPECT_EQ(qend.get_number("span"), static_cast<double>(queue_span));
  EXPECT_EQ(qend.get_number("req"), req);
  EXPECT_EQ(qend.get_number("seconds"), 0.25);
  EXPECT_NE(qbegin.get_number("tid"), qend.get_number("tid"));

  // Outside any context: no correlation fields at all.
  EXPECT_EQ(by_type["solver_restart"][0].get("req"), nullptr);
  EXPECT_EQ(by_type["solver_restart"][0].get("span"), nullptr);
}

TEST(Trace, SpanIsInertWhenTracingOff) {
  ASSERT_FALSE(obs::trace_enabled());
  const obs::SpanContext before = obs::current_context();
  {
    obs::Span span("dark");
    // No sink: the span must not leak a context onto the thread...
    EXPECT_EQ(obs::current_context().req, before.req);
  }
  // ...and the thread's context is untouched afterwards.
  EXPECT_EQ(obs::current_context().span, before.span);
}

// --- Flight recorder ----------------------------------------------------

/// Parse a flight_dump_events() array and keep only events of `type` —
/// other tests (and the optimizer) leave their own records in the rings.
std::vector<obs::JsonValue> dumped_events(const std::string& type,
                                          std::uint64_t req = 0) {
  std::size_t count = 0;
  const auto parsed = obs::json_parse(obs::flight_dump_events(req, &count));
  EXPECT_TRUE(parsed.has_value());
  std::vector<obs::JsonValue> out;
  if (!parsed) return out;
  EXPECT_EQ(parsed->array.size(), count);
  for (const auto& ev : parsed->array) {
    EXPECT_TRUE(ev.is_object());
    EXPECT_TRUE(ev.get_string("type").has_value());
    const auto ts = ev.get_number("ts");
    EXPECT_TRUE(ts.has_value());
    if (ts) {
      EXPECT_GE(*ts, 0.0);
    }
    EXPECT_TRUE(ev.get_number("tid").has_value());
    if (ev.get_string("type") == type) out.push_back(ev);
  }
  return out;
}

TEST(Flight, RingOverwritesOldestOnWraparound) {
  obs::flight_reset();
  constexpr int kExtra = 17;
  const int total = static_cast<int>(obs::kFlightCapacity) + kExtra;
  for (int i = 0; i < total; ++i) {
    obs::Event(obs::ev::search_sample).num("conflicts", i);
  }
  const auto events = dumped_events("search_sample");
  // Exactly the ring capacity survives; the oldest kExtra were overwritten
  // and the survivors are the *last* kFlightCapacity notes, oldest first.
  ASSERT_EQ(events.size(), obs::kFlightCapacity);
  for (std::size_t k = 0; k < events.size(); ++k) {
    EXPECT_EQ(events[k].get_number("conflicts"),
              static_cast<double>(kExtra + static_cast<int>(k)));
  }
}

TEST(Flight, RequestFilterSelectsOnlyThatRequest) {
  obs::flight_reset();
  obs::SpanContext ctx;
  ctx.req = obs::next_span_id();
  {
    obs::ContextScope scope(ctx);
    obs::Event(obs::ev::interval).num("lower", 1);
  }
  obs::Event(obs::ev::solve).num("call", 2);

  const auto mine = dumped_events("interval", ctx.req);
  ASSERT_EQ(mine.size(), 1u);
  EXPECT_EQ(mine[0].get_number("req"), static_cast<double>(ctx.req));
  EXPECT_EQ(mine[0].get_number("lower"), 1.0);
  // The filtered dump holds nothing but that request's records...
  EXPECT_TRUE(dumped_events("solve", ctx.req).empty());
  // ...while the unfiltered dump still has both, without a "req" field on
  // the context-free record.
  const auto loose = dumped_events("solve");
  ASSERT_EQ(loose.size(), 1u);
  EXPECT_EQ(loose[0].get("req"), nullptr);
}

TEST(Flight, GateSuppressesRecordingButKeepsTail) {
  obs::flight_reset();
  ASSERT_TRUE(obs::flight_enabled());
  { obs::Event(obs::ev::interval).num("lower", 1); }
  obs::set_flight(false);
  { obs::Event(obs::ev::solve).num("call", 2); }
  obs::set_flight(true);
  // Disabling drops new records but the already-recorded tail survives.
  EXPECT_EQ(dumped_events("interval").size(), 1u);
  EXPECT_TRUE(dumped_events("solve").empty());
}

TEST(Flight, FieldOverflowDropsExtras) {
  obs::flight_reset();
  static_assert(obs::kFlightFields == 10);
  {
    obs::Event e(obs::ev::search_sample);
    e.num("f0", 0).num("f1", 1).num("f2", 2).num("f3", 3).num("f4", 4);
    e.num("f5", 5).num("f6", 6).num("f7", 7).num("f8", 8).num("f9", 9);
    e.num("f10", 10).num("f11", 11);
  }
  const auto events = dumped_events("search_sample");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].get_number("f0"), 0.0);
  EXPECT_EQ(events[0].get_number("f9"), 9.0);
  EXPECT_EQ(events[0].get("f10"), nullptr);
  EXPECT_EQ(events[0].get("f11"), nullptr);
}

TEST(Flight, EventFeedsTraceAndRingFromOneCall) {
  std::ostringstream sink;
  obs::trace_to_stream(&sink);
  obs::flight_reset();
  obs::Event(obs::ev::solve)
      .num("call", 3)
      .choice("result", "unsat", 0)
      .num("seconds", 0.5)
      .str("note", "trace only");
  obs::Event(obs::ev::search_sample).boolean("final", true);
  obs::Event(obs::ev::optimum).str("status", "optimal");  // trace-only kind
  obs::trace_close();

  std::map<std::string, obs::JsonValue> traced;
  std::istringstream lines(sink.str());
  std::string line;
  while (std::getline(lines, line)) {
    auto parsed = obs::json_parse(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    traced[*parsed->get_string("type")] = std::move(*parsed);
  }
  ASSERT_EQ(traced.size(), 3u);
  // The trace gets the enumerated value's name, strings and booleans...
  EXPECT_EQ(traced["solve"].get_string("result"), "unsat");
  EXPECT_EQ(traced["solve"].get_number("call"), 3.0);
  EXPECT_EQ(traced["solve"].get_string("note"), "trace only");
  const obs::JsonValue* final_flag = traced["search_sample"].get("final");
  ASSERT_NE(final_flag, nullptr);
  EXPECT_EQ(final_flag->kind, obs::JsonValue::Kind::kBool);
  EXPECT_TRUE(final_flag->b);

  // ...the ring gets the same numbers, the value's code and 0/1 for the
  // boolean, no strings, and nothing of a trace-only kind.
  const auto solves = dumped_events("solve");
  ASSERT_EQ(solves.size(), 1u);
  EXPECT_EQ(solves[0].get_number("call"), 3.0);
  EXPECT_EQ(solves[0].get_number("result"), 0.0);
  EXPECT_EQ(solves[0].get_number("seconds"), 0.5);
  EXPECT_EQ(solves[0].get("note"), nullptr);
  const auto samples = dumped_events("search_sample");
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].get_number("final"), 1.0);
  EXPECT_TRUE(dumped_events("optimum").empty());
}

TEST(Flight, RingKindsCarryEveryRequiredField) {
  // With tracing off, a real optimizer run leaves every ring kind of
  // obs/events.def in the ring, each record with all the table's fields.
  ASSERT_FALSE(obs::trace_enabled());
  obs::flight_reset();
  const alloc::OptimizeResult result = alloc::optimize(
      workload::tindell_prefix(10), alloc::Objective::ring_trt(0), {});
  ASSERT_EQ(result.status, alloc::OptimizeResult::Status::kOptimal);
  int ring_kinds = 0;
  for (const obs::EventInfo& info : obs::kEvents) {
    if (!info.ring) continue;
    ++ring_kinds;
    const auto events = dumped_events(info.name);
    ASSERT_FALSE(events.empty()) << info.name;
    std::istringstream fields{std::string(info.fields)};
    std::string field;
    while (fields >> field) {
      for (const auto& ev : events) {
        EXPECT_NE(ev.get(field), nullptr) << info.name << " lacks " << field;
      }
    }
  }
  EXPECT_EQ(ring_kinds, 4);
}

TEST(Flight, SignalSafeFdDumpMatchesAllocatingDump) {
  obs::flight_reset();
  // Values chosen to exercise the handler's hand-rolled double formatting:
  // sign, pure integer, fraction with trailing-zero trimming, sub-integer.
  obs::Event(obs::ev::inprocess_pass)
      .num("neg", -2.5)
      .num("whole", 3.0)
      .num("frac", 0.125)
      .num("big", 1e12);

  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  const std::size_t written = obs::flight_dump_fd(fileno(tmp));
  ASSERT_GT(written, 0u);
  std::rewind(tmp);
  std::string contents(written, '\0');
  ASSERT_EQ(std::fread(contents.data(), 1, written, tmp), written);
  std::fclose(tmp);

  // Every line of the signal-safe JSONL must parse; our record must carry
  // the exact values (all are exactly representable at 1e-6 precision).
  std::istringstream lines(contents);
  std::string line;
  int fmt_probes = 0;
  int total = 0;
  while (std::getline(lines, line)) {
    const auto parsed = obs::json_parse(line);
    ASSERT_TRUE(parsed.has_value()) << "unparseable fd-dump line: " << line;
    ++total;
    if (parsed->get_string("type") != "inprocess_pass") continue;
    ++fmt_probes;
    EXPECT_EQ(parsed->get_number("neg"), -2.5);
    EXPECT_EQ(parsed->get_number("whole"), 3.0);
    EXPECT_EQ(parsed->get_number("frac"), 0.125);
    EXPECT_EQ(parsed->get_number("big"), 1e12);
  }
  EXPECT_EQ(fmt_probes, 1);

  // The allocating JSONL form sees the same record set.
  int jsonl_lines = 0;
  std::istringstream jsonl(obs::flight_dump_jsonl());
  while (std::getline(jsonl, line)) {
    EXPECT_TRUE(obs::json_parse(line).has_value()) << line;
    ++jsonl_lines;
  }
  EXPECT_EQ(jsonl_lines, total);
}

TEST(Flight, DumpWhileWritingNeverYieldsTornRecords) {
  obs::flight_reset();
  // A writer hammers its ring while this thread dumps concurrently: the
  // per-slot seqlock must make every dumped record either complete or
  // absent — a record pairing "i" with the wrong "twice_i" would be torn.
  // (This is the race the tsan ctest variant is after.)
  std::atomic<bool> stop{false};
  std::thread writer([&stop] {
    std::int64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      obs::Event(obs::ev::search_sample).num("i", i).num("twice_i", 2 * i);
      ++i;
    }
  });
  for (int round = 0; round < 200; ++round) {
    for (const auto& ev : dumped_events("search_sample")) {
      const auto i = ev.get_number("i");
      const auto twice = ev.get_number("twice_i");
      ASSERT_TRUE(i.has_value());
      ASSERT_TRUE(twice.has_value());
      EXPECT_EQ(*twice, 2 * *i);
    }
  }
  stop.store(true);
  writer.join();
}

// --- Capacity gauges ---------------------------------------------------

TEST(CapacityGauge, DeltasMergeAcrossThreads) {
  obs::reset_metrics();
  const obs::Gauge g = obs::m::sat_arena_bytes;
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([g] {
      for (int i = 0; i < kIters; ++i) {
        obs::adjust(g, 64);
        if (i % 2 == 0) obs::adjust(g, -16);
      }
    });
  }
  // Every writer exits before the snapshot: their deltas must survive
  // the threads.
  for (auto& w : workers) w.join();
  EXPECT_EQ(value_of(g),
            kThreads * (kIters * 64 - (kIters / 2) * 16));
}

TEST(CapacityGauge, TrackerDiffsAndRetractsOnDestruction) {
  obs::reset_metrics();
  const obs::Gauge g = obs::m::svc_cache_bytes;
  obs::adjust(g, 7);  // another owner's share, untouched by the tracker
  {
    obs::GaugeTracker tracker(g);
    tracker.set(1000);
    EXPECT_EQ(value_of(g), 1007);
    tracker.set(400);  // shrink: only the delta is published
    EXPECT_EQ(value_of(g), 407);
  }
  EXPECT_EQ(value_of(g), 7);
}

TEST(CapacityGauge, WatermarkEmitsOnCrossingWithHysteresis) {
  obs::reset_metrics();
  const obs::Gauge g = obs::m::svc_queue_bytes;
  obs::set_watermark(g, 1000, 500);
  std::ostringstream sink;
  obs::trace_to_stream(&sink);

  obs::adjust(g, 1500);
  obs::check_watermarks();  // 1500 > 1000: "high"
  obs::adjust(g, -600);
  obs::check_watermarks();  // 900: inside the hysteresis band
  obs::adjust(g, -500);
  obs::check_watermarks();  // 400 <= 500: "normal"
  obs::adjust(g, 800);
  obs::check_watermarks();  // 1200: "high" again
  obs::trace_close();
  obs::set_watermark(g, 0);  // disarm

  std::vector<std::pair<std::string, double>> crossings;  // level, value
  std::istringstream lines(sink.str());
  std::string line;
  while (std::getline(lines, line)) {
    const auto ev = obs::json_parse(line);
    ASSERT_TRUE(ev.has_value()) << line;
    if (ev->get_string("type") != "watermark") continue;
    EXPECT_EQ(ev->get_string("metric"), "svc.queue.bytes");
    ASSERT_TRUE(ev->get_number("threshold").has_value());
    crossings.emplace_back(*ev->get_string("level"),
                           *ev->get_number("value"));
  }
  ASSERT_EQ(crossings.size(), 3u);
  EXPECT_EQ(crossings[0].first, "high");
  EXPECT_EQ(crossings[0].second, 1500);
  EXPECT_EQ(crossings[1].first, "normal");
  EXPECT_EQ(crossings[1].second, 400);
  EXPECT_EQ(crossings[2].first, "high");
  EXPECT_EQ(crossings[2].second, 1200);
}

TEST(CapacityGauge, ConcurrentAdjustWhileSnapshot) {
  obs::reset_metrics();
  const obs::Gauge g = obs::m::inc_guards;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      obs::adjust(g, 128);
      obs::adjust(g, -128);
    }
  });
  for (int i = 0; i < 200; ++i) {
    const std::int64_t v = value_of(g);
    // The writer adds then retracts; any interleaving of the two relaxed
    // adds yields a level of 0 or 128, never garbage.
    EXPECT_TRUE(v == 0 || v == 128) << v;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_EQ(value_of(g), 0);
}

// --- Time-series rings -------------------------------------------------

TEST(TimeSeries, WraparoundKeepsLatestSamples) {
  obs::reset_timeseries();
  const std::size_t total = obs::kTimeSeriesCapacity + 50;
  for (std::size_t i = 0; i < total; ++i) {
    obs::timeseries_record("test.ts.wrap", static_cast<std::int64_t>(i),
                           static_cast<double>(i));
  }
  const auto samples = obs::timeseries_query("test.ts.wrap");
  ASSERT_EQ(samples.size(), obs::kTimeSeriesCapacity);
  EXPECT_EQ(samples.front().unix_ms,
            static_cast<std::int64_t>(total - obs::kTimeSeriesCapacity));
  EXPECT_EQ(samples.back().unix_ms, static_cast<std::int64_t>(total - 1));
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_LT(samples[i - 1].unix_ms, samples[i].unix_ms);
  }
}

TEST(TimeSeries, DownsamplingKeepsNewestSample) {
  obs::reset_timeseries();
  for (int i = 0; i < 100; ++i) {
    obs::timeseries_record("test.ts.down", i, i);
  }
  const auto samples = obs::timeseries_query("test.ts.down", 0.0, 10);
  ASSERT_FALSE(samples.empty());
  EXPECT_LE(samples.size(), 10u);
  EXPECT_EQ(samples.back().unix_ms, 99);  // latest always survives
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_LT(samples[i - 1].unix_ms, samples[i].unix_ms);
  }
}

TEST(TimeSeries, EmptyAndUnknownQueries) {
  obs::reset_timeseries();
  EXPECT_TRUE(obs::timeseries_query("no.such.series").empty());
  EXPECT_TRUE(obs::timeseries_list().empty());
  obs::timeseries_record("test.ts.one", 1, 1.0);
  EXPECT_TRUE(obs::timeseries_query("still.not.there").empty());
  EXPECT_EQ(obs::timeseries_list().size(), 1u);
}

TEST(TimeSeries, WindowFilterDropsOldSamples) {
  obs::reset_timeseries();
  const std::int64_t now = obs::wall_unix_ms();
  obs::timeseries_record("test.ts.window", now - 9000, 1.0);
  obs::timeseries_record("test.ts.window", now - 200, 2.0);
  const auto samples = obs::timeseries_query("test.ts.window", 5.0);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].value, 2.0);
}

TEST(TimeSeries, SampleNowDerivesQuantilesAndResources) {
  obs::reset_timeseries();
  obs::reset_metrics();
  const obs::Histogram h = obs::m::svc_queue_wait_ms;
  obs::observe(h, 5.0);
  obs::observe(h, 50.0);
  // A capacity gauge is sampled by name like any other gauge.
  obs::adjust(obs::m::svc_queue_bytes, 4096);
  obs::timeseries_sample_now();

  const auto p99 = obs::timeseries_query("svc.queue_wait_ms.p99");
  ASSERT_EQ(p99.size(), 1u);
  EXPECT_GE(p99[0].value, 5.0);
  const auto count = obs::timeseries_query("svc.queue_wait_ms.count");
  ASSERT_EQ(count.size(), 1u);
  EXPECT_EQ(count[0].value, 2.0);
  const auto bytes = obs::timeseries_query("svc.queue.bytes");
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0].value, 4096.0);

  obs::timeseries_sample_now();
  EXPECT_EQ(obs::timeseries_query("svc.queue_wait_ms.p99").size(), 2u);
}

TEST(TimeSeries, ConcurrentWriteWhileQuery) {
  obs::reset_timeseries();
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::int64_t ts = 0;
    do {  // at least one record even if stop wins the thread-start race
      obs::timeseries_record("test.ts.race", ++ts, 1.0);
      obs::timeseries_sample_now();
    } while (!stop.load(std::memory_order_relaxed));
  });
  // On a single-CPU box the writer may not be scheduled yet; make the
  // queries actually overlap with live writes before racing them.
  while (obs::timeseries_query("test.ts.race").empty()) {
    std::this_thread::yield();
  }
  for (int i = 0; i < 100; ++i) {
    const auto samples = obs::timeseries_query("test.ts.race", 0.0, 16);
    EXPECT_LE(samples.size(), 16u);
    for (std::size_t k = 1; k < samples.size(); ++k) {
      EXPECT_LE(samples[k - 1].unix_ms, samples[k].unix_ms);
    }
    (void)obs::timeseries_list();
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_FALSE(obs::timeseries_query("test.ts.race").empty());
}

TEST(Metrics, OptimizerFlushesRegistry) {
  obs::reset_metrics();
  const auto res = alloc::optimize(workload::tindell_prefix(8),
                                   alloc::Objective::ring_trt(0), {});
  ASSERT_EQ(res.status, alloc::OptimizeResult::Status::kOptimal);
  const auto snap = obs::snapshot();
  EXPECT_EQ(snap[obs::m::opt_runs.row].value, 1);
  EXPECT_EQ(snap[obs::m::opt_sat_calls.row].value,
            static_cast<std::int64_t>(res.stats.sat_calls));
  EXPECT_EQ(snap[obs::m::sat_solve_calls.row].value,
            static_cast<std::int64_t>(res.stats.sat_calls));
  EXPECT_GT(snap[obs::m::sat_decisions.row].value, 0);
  // Durations are histograms of seconds, one observation per run.
  const obs::MetricValue& total = snap[obs::m::opt_time_total.row];
  EXPECT_EQ(total.value, 1);
  EXPECT_NEAR(total.sum, res.stats.seconds, 1e-9);
  EXPECT_GE(snap[obs::m::opt_encode_ms.row].value, 1);
}

}  // namespace
}  // namespace optalloc
