#pragma once
// Process-wide metrics registry with per-thread accumulation and
// merge-on-read, so service workers and the solver hot path can count
// without contending on shared cache lines:
//
//   * registration (name -> dense id) happens once per call site under a
//     mutex — typically via a function-local `static Metric`;
//   * writes go to the calling thread's shard: a relaxed atomic add on a
//     slot only this thread writes (other threads read it during
//     snapshot), i.e. no locks and no sharing on the hot path;
//   * snapshot() takes the registry mutex, sums all live shards plus the
//     totals folded in from exited threads.
//
// Three kinds:
//   counter   — monotonically accumulated integer (merge = sum)
//   gauge     — integer level in one process-wide atomic slot (not
//               sharded): set() overwrites it, adjust() moves it by a
//               signed delta — the capacity gauges (clause-arena bytes,
//               cache footprint, live sessions) are sums of many owners'
//               shares, each kept honest by a GaugeTracker
//   histogram — log-linear (HDR-style) distribution of positive doubles:
//               each power-of-two octave is split into kHistSubBuckets
//               equal-width buckets, so any recorded value lands in a
//               bucket whose width is at most value/kHistSubBuckets — a
//               bounded relative error of 1/kHistSubBuckets (6.25%) for
//               every quantile, at a fixed memory footprint. Buckets are
//               per-thread shards merged on read, like counters. Every
//               duration is a histogram: `*.time.*` ones observe seconds
//               (so their sum is the total time), `*_ms` ones milliseconds.
//
// Phase timing inside the SAT solver is additionally gated by
// set_phase_timing(): clock reads only happen when someone asked for them,
// keeping the solver's inner loop at a single relaxed load + branch.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace optalloc::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Cheap copyable handle; obtain via counter()/gauge()/histogram().
struct Metric {
  std::uint32_t id = 0;
};

/// Register (or look up) a metric. Name collisions across kinds throw
/// std::logic_error; repeated registration of the same (name, kind) returns
/// the same handle.
Metric counter(std::string_view name);
Metric gauge(std::string_view name);
Metric histogram(std::string_view name);

/// Counter: accumulate `delta` into the calling thread's shard.
void add(Metric m, std::int64_t delta = 1);

/// Gauge: set the process-wide level.
void set(Metric m, std::int64_t value);

/// Gauge: move the process-wide level by a signed delta (relaxed atomic
/// add). Owners that share a gauge each add what they hold and subtract
/// it again when they let go, so the level is the sum of live shares.
void adjust(Metric m, std::int64_t delta);

/// One owner's share of a gauge. set() publishes the difference against
/// the previous set(); the destructor retracts the rest, so a tracked
/// object's contribution disappears with it.
class GaugeTracker {
 public:
  explicit GaugeTracker(Metric m) : m_(m) {}
  ~GaugeTracker() { set(0); }
  GaugeTracker(const GaugeTracker&) = delete;
  GaugeTracker& operator=(const GaugeTracker&) = delete;

  void set(std::int64_t value) {
    adjust(m_, value - value_);
    value_ = value;
  }

 private:
  Metric m_;
  std::int64_t value_ = 0;
};

/// Histogram: record one observation into the calling thread's shard.
/// Cheap (index computation + two relaxed atomic adds); the thread's
/// first observation of a histogram allocates its kHistBuckets counters.
void observe(Metric m, double value);

// --- Histogram bucket scheme (shared by the registry and LocalHistogram).
// Covers (2^kHistMinExp, 2^kHistMaxExp) ≈ (9.3e-10, 1.7e10) with
// kHistSubBuckets linear buckets per octave, plus an underflow bucket 0
// (zero / out-of-range-low values) and an overflow bucket at the top.

constexpr int kHistSubBuckets = 16;
constexpr int kHistMinExp = -30;
constexpr int kHistMaxExp = 34;
constexpr int kHistBuckets =
    (kHistMaxExp - kHistMinExp) * kHistSubBuckets + 2;

/// Bucket index for a value (0 = underflow, kHistBuckets-1 = overflow).
int histogram_bucket_index(double value);

/// [lo, hi) bounds of a bucket; the overflow bucket's hi is +infinity.
std::pair<double, double> histogram_bucket_bounds(int index);

/// One merged, non-empty bucket of a histogram snapshot.
struct HistBucket {
  double lo = 0.0;
  double hi = 0.0;
  std::uint64_t count = 0;
};

/// Quantile (q in [0, 1]) over merged buckets: the midpoint of the bucket
/// containing the rank-⌈q·n⌉ observation — within half a bucket width of
/// the exact order statistic. 0 when empty.
double histogram_quantile(const std::vector<HistBucket>& buckets, double q);

/// Unsynchronized instance-owned histogram with the same bucket scheme:
/// bounded memory regardless of observation count (the scheduler's request
/// latencies use this under its own mutex). Tracks the exact max.
class LocalHistogram {
 public:
  LocalHistogram();
  void observe(double value);
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double max() const { return max_; }
  double quantile(double q) const;
  std::vector<HistBucket> buckets() const;

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

/// RAII duration observation: the scope's wall seconds go to histogram m.
class ScopedTimer {
 public:
  explicit ScopedTimer(Metric m);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Metric m_;
  std::uint64_t start_ns_;
};

/// Monotonic clock in nanoseconds (shared with the trace sink).
std::uint64_t monotonic_ns();

struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::int64_t value = 0;    ///< counter sum / gauge level / histogram count
  double sum = 0.0;          ///< histograms only: sum of observed values
  std::vector<HistBucket> buckets;  ///< histograms only: non-empty buckets
};

/// Merge-on-read view of every registered metric, sorted by name.
std::vector<MetricValue> snapshot();

/// Zero all shards, retired totals and gauges (registrations and armed
/// watermarks persist).
void reset_metrics();

/// Arm (or re-arm) a watermark on metric `name`: `low` defaults to 3/4
/// of `high` when negative; high <= 0 disarms.
void set_watermark(std::string_view name, std::int64_t high,
                   std::int64_t low = -1);

/// Compare every armed watermark against snapshot() and emit a
/// `watermark` trace event (fields: metric, level "high"/"normal",
/// value, threshold) on each upward crossing of `high` and again on the
/// way back down to `low` — hysteresis, so a level hovering at the line
/// does not flood the trace. Driven by the daemon's sampler; one relaxed
/// load when nothing is armed.
void check_watermarks();

/// "name kind value" per line (histograms: count, sum and quantiles);
/// omits zero entries unless `include_zero`.
std::string render_metrics(bool include_zero = false);

/// The registry's one JSON form, a typed snapshot suitable for the wire:
/// {"name":{"kind":"counter","value":n}, ...}; histograms carry count,
/// sum, p50/p95/p99 and the non-empty buckets as [lo, hi, count] triples.
/// Decoded losslessly by metrics_from_json (modulo bucket quantization,
/// which already happened at observe time).
std::string metrics_full_json();

/// Prometheus text exposition format for a snapshot: counters and gauges
/// verbatim, histograms as cumulative <name>_bucket{le="..."} series,
/// <name>_sum/<name>_count, plus <name>_p50/_p95/_p99 gauges.
/// Metric names are sanitized (non-[a-zA-Z0-9_:] become '_').
std::string prometheus_from_snapshot(const std::vector<MetricValue>& snap);

struct JsonValue;

/// Decode a metrics_full_json document back into snapshot form (sorted by
/// name). Unknown kinds and malformed entries are skipped. Lets remote
/// consumers (alloc_client --prom) reuse the renderers above.
std::vector<MetricValue> metrics_from_json(const JsonValue& doc);

/// Global switch for the solver/encoder phase timers (propagate, analyze,
/// reduce-DB, bit-blast...). Off by default: the hot path then pays one
/// relaxed atomic load per phase entry and takes no clock readings.
void set_phase_timing(bool on);
bool phase_timing();

}  // namespace optalloc::obs
