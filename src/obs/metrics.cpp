#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <stdexcept>

#include "obs/events.hpp"
#include "obs/json.hpp"
#include "util/mutex.hpp"

namespace optalloc::obs {
namespace {

/// Upper bound on distinct metrics: lets shards be fixed-size arrays whose
/// slots never move, so writers stay lock-free while snapshot() reads them.
constexpr std::size_t kMaxMetrics = 1024;

/// Upper bound on distinct histograms: each costs kHistBuckets counters
/// per thread that observes it, so bucket arrays are allocated lazily and
/// the slot table is kept small.
constexpr std::size_t kMaxHistograms = 64;

struct Shard {
  // Counter sums, indexed by metric id. Only the owning thread writes;
  // snapshot() reads concurrently (relaxed).
  std::atomic<std::int64_t> value[kMaxMetrics] = {};
  // Histogram bucket arrays (kHistBuckets each), indexed by histogram
  // slot, allocated by the owning thread on first observation. The
  // pointer is released/acquired so snapshot() sees initialized buckets.
  std::atomic<std::atomic<std::uint64_t>*> hist[kMaxHistograms] = {};
  // Histogram value sums, indexed by slot.
  std::atomic<double> hist_sum[kMaxHistograms] = {};

  ~Shard() {
    for (auto& h : hist) delete[] h.load(std::memory_order_relaxed);
  }
};

struct Watermark {
  std::int64_t high = 0;
  std::int64_t low = 0;
  bool above = false;  ///< last reported side (hysteresis state)
};

struct Registry {
  util::Mutex mutex;
  std::vector<std::string> names OPTALLOC_GUARDED_BY(mutex);
  std::vector<MetricKind> kinds OPTALLOC_GUARDED_BY(mutex);
  std::map<std::string, std::uint32_t, std::less<>> by_name
      OPTALLOC_GUARDED_BY(mutex);
  std::vector<Shard*> live OPTALLOC_GUARDED_BY(mutex);
  // Totals folded in from exited threads.
  std::int64_t retired_value[kMaxMetrics] OPTALLOC_GUARDED_BY(mutex) = {};
  // Gauges are process-wide levels, not per-thread accumulations
  // (atomic, hence deliberately not GUARDED_BY).
  std::atomic<std::int64_t> gauges[kMaxMetrics] = {};
  // Histogram slots: metric id -> slot + 1 (0 = not a histogram). Read
  // lock-free on the observe() hot path (atomic; registration under the
  // mutex, reads anywhere).
  std::atomic<int> hist_slot[kMaxMetrics] = {};
  int num_hist_slots OPTALLOC_GUARDED_BY(mutex) = 0;
  // Retired histogram buckets/sums folded in from exited threads.
  std::vector<std::uint64_t> retired_hist[kMaxHistograms]
      OPTALLOC_GUARDED_BY(mutex);
  double retired_hist_sum[kMaxHistograms] OPTALLOC_GUARDED_BY(mutex) = {};
  // Armed watermarks by metric name, with their hysteresis state.
  std::map<std::string, Watermark, std::less<>> watermarks
      OPTALLOC_GUARDED_BY(mutex);
  // Lock-free fast-out for check_watermarks().
  std::atomic<int> num_watermarks{0};
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: outlives all threads
  return *r;
}

std::atomic<bool> g_phase_timing{false};

struct ShardOwner {
  Shard* shard = new Shard();

  ShardOwner() {
    Registry& r = registry();
    util::MutexLock lock(r.mutex);
    r.live.push_back(shard);
  }

  ~ShardOwner() {
    Registry& r = registry();
    util::MutexLock lock(r.mutex);
    for (std::size_t i = 0; i < kMaxMetrics; ++i) {
      r.retired_value[i] += shard->value[i].load(std::memory_order_relaxed);
    }
    for (std::size_t s = 0; s < kMaxHistograms; ++s) {
      const auto* buckets = shard->hist[s].load(std::memory_order_relaxed);
      if (buckets == nullptr) continue;
      if (r.retired_hist[s].empty()) {
        r.retired_hist[s].assign(kHistBuckets, 0);
      }
      for (int b = 0; b < kHistBuckets; ++b) {
        r.retired_hist[s][static_cast<std::size_t>(b)] +=
            buckets[b].load(std::memory_order_relaxed);
      }
      r.retired_hist_sum[s] +=
          shard->hist_sum[s].load(std::memory_order_relaxed);
    }
    r.live.erase(std::find(r.live.begin(), r.live.end(), shard));
    delete shard;
  }
};

Shard& local_shard() {
  thread_local ShardOwner owner;
  return *owner.shard;
}

Metric register_metric(std::string_view name, MetricKind kind) {
  Registry& r = registry();
  util::MutexLock lock(r.mutex);
  const auto it = r.by_name.find(name);
  if (it != r.by_name.end()) {
    if (r.kinds[it->second] != kind) {
      throw std::logic_error("metric '" + std::string(name) +
                             "' re-registered with a different kind");
    }
    return {it->second};
  }
  if (r.names.size() >= kMaxMetrics) {
    throw std::logic_error("metric registry full");
  }
  const auto id = static_cast<std::uint32_t>(r.names.size());
  r.names.emplace_back(name);
  r.kinds.push_back(kind);
  r.by_name.emplace(std::string(name), id);
  if (kind == MetricKind::kHistogram) {
    if (r.num_hist_slots >= static_cast<int>(kMaxHistograms)) {
      throw std::logic_error("histogram registry full");
    }
    r.hist_slot[id].store(++r.num_hist_slots, std::memory_order_relaxed);
  }
  return {id};
}

}  // namespace

Metric counter(std::string_view name) {
  return register_metric(name, MetricKind::kCounter);
}
Metric gauge(std::string_view name) {
  return register_metric(name, MetricKind::kGauge);
}
Metric histogram(std::string_view name) {
  return register_metric(name, MetricKind::kHistogram);
}

int histogram_bucket_index(double value) {
  if (!(value > 0.0)) return 0;  // zero, negative, NaN -> underflow
  int exp = 0;
  const double m = std::frexp(value, &exp);  // value = m * 2^exp, m in [0.5,1)
  const int octave = exp - 1 - kHistMinExp;  // value in [2^(exp-1), 2^exp)
  if (octave < 0) return 0;
  if (octave >= kHistMaxExp - kHistMinExp) return kHistBuckets - 1;
  int sub = static_cast<int>((m - 0.5) * 2.0 * kHistSubBuckets);
  if (sub >= kHistSubBuckets) sub = kHistSubBuckets - 1;
  return 1 + octave * kHistSubBuckets + sub;
}

std::pair<double, double> histogram_bucket_bounds(int index) {
  if (index <= 0) return {0.0, std::ldexp(1.0, kHistMinExp)};
  if (index >= kHistBuckets - 1) {
    return {std::ldexp(1.0, kHistMaxExp),
            std::numeric_limits<double>::infinity()};
  }
  const int octave = (index - 1) / kHistSubBuckets;
  const int sub = (index - 1) % kHistSubBuckets;
  const double base = std::ldexp(1.0, kHistMinExp + octave);
  const double width = base / kHistSubBuckets;
  return {base + sub * width, base + (sub + 1) * width};
}

double histogram_quantile(const std::vector<HistBucket>& buckets, double q) {
  std::uint64_t total = 0;
  for (const HistBucket& b : buckets) total += b.count;
  if (total == 0) return 0.0;
  const double clamped = std::min(1.0, std::max(0.0, q));
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(clamped * static_cast<double>(total)));
  if (rank == 0) rank = 1;
  std::uint64_t cum = 0;
  for (const HistBucket& b : buckets) {
    cum += b.count;
    if (cum >= rank) {
      // Overflow bucket: report its lower bound (its width is infinite).
      if (std::isinf(b.hi)) return b.lo;
      return (b.lo + b.hi) / 2.0;
    }
  }
  return buckets.empty() ? 0.0 : buckets.back().lo;
}

LocalHistogram::LocalHistogram()
    : counts_(static_cast<std::size_t>(kHistBuckets), 0) {}

void LocalHistogram::observe(double value) {
  ++counts_[static_cast<std::size_t>(histogram_bucket_index(value))];
  ++count_;
  sum_ += value;
  if (value > max_) max_ = value;
}

std::vector<HistBucket> LocalHistogram::buckets() const {
  std::vector<HistBucket> out;
  for (int i = 0; i < kHistBuckets; ++i) {
    const std::uint64_t c = counts_[static_cast<std::size_t>(i)];
    if (c == 0) continue;
    const auto [lo, hi] = histogram_bucket_bounds(i);
    out.push_back({lo, hi, c});
  }
  return out;
}

double LocalHistogram::quantile(double q) const {
  return histogram_quantile(buckets(), q);
}

void add(Metric m, std::int64_t delta) {
  local_shard().value[m.id].fetch_add(delta, std::memory_order_relaxed);
}

void set(Metric m, std::int64_t value) {
  registry().gauges[m.id].store(value, std::memory_order_relaxed);
}

void adjust(Metric m, std::int64_t delta) {
  registry().gauges[m.id].fetch_add(delta, std::memory_order_relaxed);
}

void observe(Metric m, double value) {
  const int slot = registry().hist_slot[m.id].load(std::memory_order_relaxed);
  if (slot == 0) return;  // not a histogram handle
  Shard& s = local_shard();
  auto& cell = s.hist[static_cast<std::size_t>(slot - 1)];
  std::atomic<std::uint64_t>* buckets = cell.load(std::memory_order_relaxed);
  if (buckets == nullptr) {
    buckets = new std::atomic<std::uint64_t>[kHistBuckets]();
    cell.store(buckets, std::memory_order_release);
  }
  buckets[histogram_bucket_index(value)].fetch_add(1,
                                                   std::memory_order_relaxed);
  s.hist_sum[static_cast<std::size_t>(slot - 1)].fetch_add(
      value, std::memory_order_relaxed);
}

std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ScopedTimer::ScopedTimer(Metric m) : m_(m), start_ns_(monotonic_ns()) {}

ScopedTimer::~ScopedTimer() {
  observe(m_, static_cast<double>(monotonic_ns() - start_ns_) * 1e-9);
}

std::vector<MetricValue> snapshot() {
  Registry& r = registry();
  util::MutexLock lock(r.mutex);
  const std::size_t n = r.names.size();
  std::vector<MetricValue> out(n);
  std::uint64_t merged[kHistBuckets];
  for (std::size_t i = 0; i < n; ++i) {
    MetricValue& v = out[i];
    v.name = r.names[i];
    v.kind = r.kinds[i];
    if (v.kind == MetricKind::kGauge) {
      v.value = r.gauges[i].load(std::memory_order_relaxed);
      continue;
    }
    if (v.kind == MetricKind::kHistogram) {
      const std::size_t slot = static_cast<std::size_t>(
          r.hist_slot[i].load(std::memory_order_relaxed) - 1);
      double sum = r.retired_hist_sum[slot];
      for (int b = 0; b < kHistBuckets; ++b) {
        merged[b] = r.retired_hist[slot].empty()
                        ? 0
                        : r.retired_hist[slot][static_cast<std::size_t>(b)];
      }
      for (const Shard* s : r.live) {
        const auto* buckets = s->hist[slot].load(std::memory_order_acquire);
        if (buckets == nullptr) continue;
        for (int b = 0; b < kHistBuckets; ++b) {
          merged[b] += buckets[b].load(std::memory_order_relaxed);
        }
        sum += s->hist_sum[slot].load(std::memory_order_relaxed);
      }
      std::uint64_t count = 0;
      for (int b = 0; b < kHistBuckets; ++b) {
        if (merged[b] == 0) continue;
        count += merged[b];
        const auto [lo, hi] = histogram_bucket_bounds(b);
        v.buckets.push_back({lo, hi, merged[b]});
      }
      v.value = static_cast<std::int64_t>(count);
      v.sum = sum;
      continue;
    }
    std::int64_t value = r.retired_value[i];
    for (const Shard* s : r.live) {
      value += s->value[i].load(std::memory_order_relaxed);
    }
    v.value = value;
  }
  std::sort(out.begin(), out.end(),
            [](const MetricValue& a, const MetricValue& b) {
              return a.name < b.name;
            });
  return out;
}

void reset_metrics() {
  Registry& r = registry();
  util::MutexLock lock(r.mutex);
  for (std::size_t i = 0; i < kMaxMetrics; ++i) {
    r.retired_value[i] = 0;
    r.gauges[i].store(0, std::memory_order_relaxed);
    for (Shard* s : r.live) s->value[i].store(0, std::memory_order_relaxed);
  }
  for (std::size_t slot = 0; slot < kMaxHistograms; ++slot) {
    r.retired_hist[slot].clear();
    r.retired_hist_sum[slot] = 0.0;
    for (Shard* s : r.live) {
      auto* buckets = s->hist[slot].load(std::memory_order_acquire);
      if (buckets == nullptr) continue;
      for (int b = 0; b < kHistBuckets; ++b) {
        buckets[b].store(0, std::memory_order_relaxed);
      }
      s->hist_sum[slot].store(0.0, std::memory_order_relaxed);
    }
  }
  for (auto& [name, w] : r.watermarks) w.above = false;
}

void set_watermark(std::string_view name, std::int64_t high,
                   std::int64_t low) {
  Registry& r = registry();
  util::MutexLock lock(r.mutex);
  if (high <= 0) {
    r.watermarks.erase(std::string(name));
  } else {
    Watermark& w = r.watermarks[std::string(name)];
    w.high = high;
    w.low = std::min(low >= 0 ? low : high / 4 * 3, high);
  }
  r.num_watermarks.store(static_cast<int>(r.watermarks.size()),
                         std::memory_order_relaxed);
}

void check_watermarks() {
  Registry& r = registry();
  if (r.num_watermarks.load(std::memory_order_relaxed) == 0) return;
  // snapshot() takes the mutex itself; crossings are emitted after the
  // table walk, outside it.
  const std::vector<MetricValue> snap = snapshot();
  struct Crossing {
    std::string name;
    bool above = false;
    std::int64_t value = 0;
    std::int64_t threshold = 0;
  };
  std::vector<Crossing> crossings;
  {
    util::MutexLock lock(r.mutex);
    for (auto& [name, w] : r.watermarks) {
      const auto it = std::lower_bound(
          snap.begin(), snap.end(), name,
          [](const MetricValue& v, const std::string& n) {
            return v.name < n;
          });
      const std::int64_t value =
          (it != snap.end() && it->name == name) ? it->value : 0;
      if (!w.above && value >= w.high) {
        w.above = true;
        crossings.push_back({name, true, value, w.high});
      } else if (w.above && value <= w.low) {
        w.above = false;
        crossings.push_back({name, false, value, w.low});
      }
    }
  }
  for (const Crossing& c : crossings) {
    Event(ev::watermark)
        .str("metric", c.name)
        .str("level", c.above ? "high" : "normal")
        .num("value", c.value)
        .num("threshold", c.threshold);
  }
}

std::string render_metrics(bool include_zero) {
  std::string out;
  char buf[192];
  for (const MetricValue& v : snapshot()) {
    if (!include_zero && v.value == 0) continue;
    switch (v.kind) {
      case MetricKind::kCounter:
        std::snprintf(buf, sizeof buf, "%-40s counter %lld\n", v.name.c_str(),
                      static_cast<long long>(v.value));
        break;
      case MetricKind::kGauge:
        std::snprintf(buf, sizeof buf, "%-40s gauge   %lld\n", v.name.c_str(),
                      static_cast<long long>(v.value));
        break;
      case MetricKind::kHistogram:
        std::snprintf(buf, sizeof buf,
                      "%-40s hist    n=%lld sum=%.6g p50=%.4g p95=%.4g "
                      "p99=%.4g\n",
                      v.name.c_str(), static_cast<long long>(v.value), v.sum,
                      histogram_quantile(v.buckets, 0.50),
                      histogram_quantile(v.buckets, 0.95),
                      histogram_quantile(v.buckets, 0.99));
        break;
    }
    out += buf;
  }
  return out;
}

std::string metrics_full_json() {
  JsonObject obj;
  for (const MetricValue& v : snapshot()) {
    JsonObject entry;
    switch (v.kind) {
      case MetricKind::kCounter:
        entry.str("kind", "counter").num("value", v.value);
        break;
      case MetricKind::kGauge:
        entry.str("kind", "gauge").num("value", v.value);
        break;
      case MetricKind::kHistogram: {
        entry.str("kind", "histogram")
            .num("count", v.value)
            .num("sum", v.sum)
            .num("p50", histogram_quantile(v.buckets, 0.50))
            .num("p95", histogram_quantile(v.buckets, 0.95))
            .num("p99", histogram_quantile(v.buckets, 0.99));
        JsonArray buckets;
        for (const HistBucket& b : v.buckets) {
          JsonArray triple;
          triple.push(json_number(b.lo));
          triple.push(json_number(b.hi));
          triple.push(std::to_string(b.count));
          buckets.push(triple.build());
        }
        entry.raw("buckets", buckets.build());
        break;
      }
    }
    obj.raw(v.name, entry.build());
  }
  return obj.build();
}

namespace {

std::string prom_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

}  // namespace

std::string prometheus_from_snapshot(const std::vector<MetricValue>& snap) {
  std::string out;
  char buf[256];
  for (const MetricValue& v : snap) {
    const std::string n = prom_name(v.name);
    switch (v.kind) {
      case MetricKind::kCounter:
        std::snprintf(buf, sizeof buf, "# TYPE %s counter\n%s %lld\n",
                      n.c_str(), n.c_str(), static_cast<long long>(v.value));
        out += buf;
        break;
      case MetricKind::kGauge:
        std::snprintf(buf, sizeof buf, "# TYPE %s gauge\n%s %lld\n",
                      n.c_str(), n.c_str(), static_cast<long long>(v.value));
        out += buf;
        break;
      case MetricKind::kHistogram: {
        std::snprintf(buf, sizeof buf, "# TYPE %s histogram\n", n.c_str());
        out += buf;
        std::uint64_t cum = 0;
        for (const HistBucket& b : v.buckets) {
          cum += b.count;
          if (std::isinf(b.hi)) continue;  // folded into +Inf below
          std::snprintf(buf, sizeof buf, "%s_bucket{le=\"%.9g\"} %llu\n",
                        n.c_str(), b.hi,
                        static_cast<unsigned long long>(cum));
          out += buf;
        }
        std::snprintf(buf, sizeof buf, "%s_bucket{le=\"+Inf\"} %lld\n",
                      n.c_str(), static_cast<long long>(v.value));
        out += buf;
        std::snprintf(buf, sizeof buf, "%s_sum %.9g\n%s_count %lld\n",
                      n.c_str(), v.sum, n.c_str(),
                      static_cast<long long>(v.value));
        out += buf;
        for (const auto& [label, q] :
             {std::pair<const char*, double>{"p50", 0.50},
              {"p95", 0.95},
              {"p99", 0.99}}) {
          std::snprintf(buf, sizeof buf,
                        "# TYPE %s_%s gauge\n%s_%s %.9g\n", n.c_str(), label,
                        n.c_str(), label, histogram_quantile(v.buckets, q));
          out += buf;
        }
        break;
      }
    }
  }
  return out;
}

std::vector<MetricValue> metrics_from_json(const JsonValue& doc) {
  std::vector<MetricValue> out;
  if (!doc.is_object()) return out;
  for (const auto& [name, entry] : doc.object) {
    if (!entry.is_object()) continue;
    const auto kind = entry.get_string("kind");
    if (!kind) continue;
    MetricValue v;
    v.name = name;
    if (*kind == "counter" || *kind == "gauge") {
      v.kind = *kind == "counter" ? MetricKind::kCounter : MetricKind::kGauge;
      const auto value = entry.get_number("value");
      if (!value) continue;
      v.value = static_cast<std::int64_t>(*value);
    } else if (*kind == "histogram") {
      v.kind = MetricKind::kHistogram;
      v.value = static_cast<std::int64_t>(
          entry.get_number("count").value_or(0.0));
      v.sum = entry.get_number("sum").value_or(0.0);
      const JsonValue* buckets = entry.get("buckets");
      if (buckets != nullptr && buckets->kind == JsonValue::Kind::kArray) {
        for (const JsonValue& triple : buckets->array) {
          if (triple.kind != JsonValue::Kind::kArray ||
              triple.array.size() != 3) {
            continue;
          }
          v.buckets.push_back(
              {triple.array[0].number, triple.array[1].number,
               static_cast<std::uint64_t>(triple.array[2].number)});
        }
      }
    } else {
      continue;
    }
    out.push_back(std::move(v));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricValue& a, const MetricValue& b) {
              return a.name < b.name;
            });
  return out;
}

void set_phase_timing(bool on) {
  g_phase_timing.store(on, std::memory_order_relaxed);
}

bool phase_timing() {
  return g_phase_timing.load(std::memory_order_relaxed);
}

}  // namespace optalloc::obs
