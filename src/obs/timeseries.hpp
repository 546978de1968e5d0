#pragma once
// Fixed-footprint in-process history for every metric: a 256-sample
// ring buffer per series, fed by the daemon's metrics-interval
// sampler and served over the wire by the `query` verb. This is the
// capacity-planning view the point-in-time `metrics` snapshot cannot
// give: occupancy *over time* (is the cache still warming or already
// cycling?), latency quantiles as a series (did p99 move when the queue
// filled?), and the measured inputs future eviction/compaction policies
// gate on.
//
// Series are derived on each timeseries_sample_now() call:
//   counter/gauge  -> "<name>"                (value as double)
//   timer          -> "<name>.count" / "<name>.seconds"
//   histogram      -> "<name>.count" / "<name>.p50" / ".p95" / ".p99"
//
// Capacity gauges (sat.arena.bytes, svc.cache.bytes, ...) are gauges
// like any other and so arrive under their own names.
//
// A registered series exists from the first sample even while its value
// is still zero, so consumers can subscribe before traffic arrives. All
// operations take one process-wide mutex; the sampler runs at human
// cadence (default 1 Hz), so this is nowhere near any hot path.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace optalloc::obs {

/// Ring capacity per series: at the default 1 s sampler cadence this is
/// ~4 minutes of history; at the smoke tests' 0.2 s it is ~51 s.
constexpr std::size_t kTimeSeriesCapacity = 256;

struct TimeSample {
  std::int64_t unix_ms = 0;
  double value = 0.0;
};

/// Wall clock in milliseconds since the Unix epoch (series timestamps).
std::int64_t wall_unix_ms();

/// Append one sample to `name`'s ring, creating the series on first use.
/// Overwrites the oldest sample once the ring is full.
void timeseries_record(std::string_view name, std::int64_t unix_ms,
                       double value);

/// Sample every registered metric (per the derivation above) into the
/// rings, all stamped with one wall-clock read.
void timeseries_sample_now();

struct SeriesInfo {
  std::string name;
  std::size_t count = 0;         ///< samples currently in the ring
  std::int64_t last_unix_ms = 0;
  double last = 0.0;
};

/// One line per series, sorted by name.
std::vector<SeriesInfo> timeseries_list();

/// Samples of `name` in chronological order. last_s > 0 keeps only
/// samples newer than now - last_s. max_samples > 0 downsamples by
/// striding from the newest backwards (the latest sample is always
/// kept). Unknown series -> empty.
std::vector<TimeSample> timeseries_query(std::string_view name,
                                         double last_s = 0.0,
                                         std::size_t max_samples = 0);

/// Drop every series (tests).
void reset_timeseries();

}  // namespace optalloc::obs
