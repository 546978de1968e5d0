#include "obs/timeseries.hpp"

#include <algorithm>
#include <chrono>
#include <map>

#include "obs/metrics.hpp"
#include "util/mutex.hpp"

namespace optalloc::obs {
namespace {

struct Ring {
  std::vector<TimeSample> buf;  ///< grows to kTimeSeriesCapacity, then fixed
  std::size_t head = 0;         ///< next slot to overwrite once full

  void push(TimeSample s) {
    if (buf.size() < kTimeSeriesCapacity) {
      buf.push_back(s);
      return;
    }
    buf[head] = s;
    head = (head + 1) % kTimeSeriesCapacity;
  }

  /// Chronological copy (oldest first).
  std::vector<TimeSample> ordered() const {
    std::vector<TimeSample> out;
    out.reserve(buf.size());
    for (std::size_t i = 0; i < buf.size(); ++i) {
      out.push_back(buf[(head + i) % buf.size()]);
    }
    return out;
  }
};

struct Store {
  util::Mutex mutex;
  std::map<std::string, Ring, std::less<>> series OPTALLOC_GUARDED_BY(mutex);
};

Store& store() {
  static Store* s = new Store();  // leaked: outlives all threads
  return *s;
}

}  // namespace

std::int64_t wall_unix_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

void timeseries_record(std::string_view name, std::int64_t unix_ms,
                       double value) {
  Store& s = store();
  util::MutexLock lock(s.mutex);
  auto it = s.series.find(name);
  if (it == s.series.end()) {
    it = s.series.emplace(std::string(name), Ring{}).first;
  }
  it->second.push({unix_ms, value});
}

void timeseries_sample_now() {
  // Build the (name, value) rows outside the store lock: snapshot() takes
  // the registry mutex.
  const std::int64_t now = wall_unix_ms();
  std::vector<std::pair<std::string, double>> rows;
  for (const MetricValue& v : snapshot()) {
    switch (v.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge:
        rows.emplace_back(v.name, static_cast<double>(v.value));
        break;
      case MetricKind::kTimer:
        rows.emplace_back(v.name + ".count", static_cast<double>(v.value));
        rows.emplace_back(v.name + ".seconds", v.seconds);
        break;
      case MetricKind::kHistogram:
        rows.emplace_back(v.name + ".count", static_cast<double>(v.value));
        rows.emplace_back(v.name + ".p50",
                          histogram_quantile(v.buckets, 0.50));
        rows.emplace_back(v.name + ".p95",
                          histogram_quantile(v.buckets, 0.95));
        rows.emplace_back(v.name + ".p99",
                          histogram_quantile(v.buckets, 0.99));
        break;
    }
  }
  Store& s = store();
  util::MutexLock lock(s.mutex);
  for (const auto& [name, value] : rows) {
    auto it = s.series.find(name);
    if (it == s.series.end()) {
      it = s.series.emplace(name, Ring{}).first;
    }
    it->second.push({now, value});
  }
}

std::vector<SeriesInfo> timeseries_list() {
  Store& s = store();
  util::MutexLock lock(s.mutex);
  std::vector<SeriesInfo> out;
  out.reserve(s.series.size());
  for (const auto& [name, ring] : s.series) {
    SeriesInfo info;
    info.name = name;
    info.count = ring.buf.size();
    if (!ring.buf.empty()) {
      const std::size_t last =
          ring.buf.size() < kTimeSeriesCapacity
              ? ring.buf.size() - 1
              : (ring.head + kTimeSeriesCapacity - 1) % kTimeSeriesCapacity;
      info.last_unix_ms = ring.buf[last].unix_ms;
      info.last = ring.buf[last].value;
    }
    out.push_back(std::move(info));
  }
  return out;  // map iteration order is already by name
}

std::vector<TimeSample> timeseries_query(std::string_view name, double last_s,
                                         std::size_t max_samples) {
  std::vector<TimeSample> samples;
  {
    Store& s = store();
    util::MutexLock lock(s.mutex);
    const auto it = s.series.find(name);
    if (it == s.series.end()) return samples;
    samples = it->second.ordered();
  }
  if (last_s > 0.0) {
    const std::int64_t cutoff =
        wall_unix_ms() - static_cast<std::int64_t>(last_s * 1000.0);
    samples.erase(std::remove_if(samples.begin(), samples.end(),
                                 [cutoff](const TimeSample& t) {
                                   return t.unix_ms < cutoff;
                                 }),
                  samples.end());
  }
  if (max_samples > 0 && samples.size() > max_samples) {
    // Stride from the newest backwards so the latest sample survives.
    const std::size_t stride =
        (samples.size() + max_samples - 1) / max_samples;
    std::vector<TimeSample> kept;
    kept.reserve(max_samples);
    for (std::size_t i = samples.size(); i-- > 0;) {
      if ((samples.size() - 1 - i) % stride == 0) kept.push_back(samples[i]);
    }
    std::reverse(kept.begin(), kept.end());
    samples = std::move(kept);
  }
  return samples;
}

void reset_timeseries() {
  Store& s = store();
  util::MutexLock lock(s.mutex);
  s.series.clear();
}

}  // namespace optalloc::obs
