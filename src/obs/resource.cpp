#include "obs/resource.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <stdexcept>

#include "obs/events.hpp"
#include "util/mutex.hpp"

namespace optalloc::obs {
namespace {

/// Upper bound on distinct resources: shards are fixed-size arrays whose
/// slots never move, so writers stay lock-free while snapshot reads them.
/// Far above the handful of stateful subsystems; raise if it ever fills.
constexpr std::size_t kMaxResources = 256;

struct ResShard {
  // Signed byte/item deltas, indexed by resource id. Only the owning
  // thread writes; snapshot reads concurrently (relaxed).
  std::atomic<std::int64_t> bytes[kMaxResources] = {};
  std::atomic<std::int64_t> items[kMaxResources] = {};
};

struct Watermark {
  std::int64_t high = 0;
  std::int64_t low = 0;
  bool above = false;  ///< last reported side (hysteresis state)
};

struct ResRegistry {
  util::Mutex mutex;
  std::vector<std::string> names OPTALLOC_GUARDED_BY(mutex);
  std::map<std::string, std::uint32_t, std::less<>> by_name
      OPTALLOC_GUARDED_BY(mutex);
  std::vector<ResShard*> live OPTALLOC_GUARDED_BY(mutex);
  // Totals folded in from exited threads. A thread that allocated and
  // released on behalf of a still-live owner nets to zero here; a
  // tracker destroyed on another thread leaves the balancing negative
  // delta in that thread's shard, which also folds in here.
  std::int64_t retired_bytes[kMaxResources] OPTALLOC_GUARDED_BY(mutex) = {};
  std::int64_t retired_items[kMaxResources] OPTALLOC_GUARDED_BY(mutex) = {};
  std::map<std::string, Watermark, std::less<>> watermarks
      OPTALLOC_GUARDED_BY(mutex);
  // Lock-free fast-out for check_resource_watermarks().
  std::atomic<int> num_watermarks{0};
};

ResRegistry& res_registry() {
  static ResRegistry* r = new ResRegistry();  // leaked: outlives all threads
  return *r;
}

std::atomic<bool> g_resources{true};

struct ResShardOwner {
  ResShard* shard = new ResShard();

  ResShardOwner() {
    ResRegistry& r = res_registry();
    util::MutexLock lock(r.mutex);
    r.live.push_back(shard);
  }

  ~ResShardOwner() {
    ResRegistry& r = res_registry();
    util::MutexLock lock(r.mutex);
    for (std::size_t i = 0; i < kMaxResources; ++i) {
      r.retired_bytes[i] += shard->bytes[i].load(std::memory_order_relaxed);
      r.retired_items[i] += shard->items[i].load(std::memory_order_relaxed);
    }
    r.live.erase(std::find(r.live.begin(), r.live.end(), shard));
    delete shard;
  }
};

ResShard& local_res_shard() {
  thread_local ResShardOwner owner;
  return *owner.shard;
}

}  // namespace

Resource resource(std::string_view name) {
  ResRegistry& r = res_registry();
  util::MutexLock lock(r.mutex);
  const auto it = r.by_name.find(name);
  if (it != r.by_name.end()) return {it->second};
  if (r.names.size() >= kMaxResources) {
    throw std::logic_error("resource registry full");
  }
  const auto id = static_cast<std::uint32_t>(r.names.size());
  r.names.emplace_back(name);
  r.by_name.emplace(std::string(name), id);
  return {id};
}

void res_add(Resource r, std::int64_t bytes_delta, std::int64_t items_delta) {
  if (!g_resources.load(std::memory_order_relaxed)) return;
  ResShard& s = local_res_shard();
  if (bytes_delta != 0) {
    s.bytes[r.id].fetch_add(bytes_delta, std::memory_order_relaxed);
  }
  if (items_delta != 0) {
    s.items[r.id].fetch_add(items_delta, std::memory_order_relaxed);
  }
}

void set_resources(bool on) {
  g_resources.store(on, std::memory_order_relaxed);
}

bool resources_enabled() {
  return g_resources.load(std::memory_order_relaxed);
}

std::vector<ResourceValue> resource_snapshot() {
  ResRegistry& r = res_registry();
  util::MutexLock lock(r.mutex);
  const std::size_t n = r.names.size();
  std::vector<ResourceValue> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    ResourceValue& v = out[i];
    v.name = r.names[i];
    v.bytes = r.retired_bytes[i];
    v.items = r.retired_items[i];
    for (const ResShard* s : r.live) {
      v.bytes += s->bytes[i].load(std::memory_order_relaxed);
      v.items += s->items[i].load(std::memory_order_relaxed);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ResourceValue& a, const ResourceValue& b) {
              return a.name < b.name;
            });
  return out;
}

void reset_resources() {
  ResRegistry& r = res_registry();
  util::MutexLock lock(r.mutex);
  for (std::size_t i = 0; i < kMaxResources; ++i) {
    r.retired_bytes[i] = 0;
    r.retired_items[i] = 0;
    for (ResShard* s : r.live) {
      s->bytes[i].store(0, std::memory_order_relaxed);
      s->items[i].store(0, std::memory_order_relaxed);
    }
  }
  for (auto& [name, w] : r.watermarks) w.above = false;
}

void ResourceTracker::set(std::int64_t bytes, std::int64_t items) {
  if (!bound_) return;
  res_add(res_, bytes - bytes_, items - items_);
  bytes_ = bytes;
  items_ = items;
}

void set_resource_watermark(std::string_view name, std::int64_t high_bytes,
                            std::int64_t low_bytes) {
  ResRegistry& r = res_registry();
  util::MutexLock lock(r.mutex);
  if (high_bytes <= 0) {
    r.watermarks.erase(std::string(name));
  } else {
    Watermark& w = r.watermarks[std::string(name)];
    w.high = high_bytes;
    w.low = low_bytes >= 0 ? low_bytes : high_bytes / 4 * 3;
    if (w.low > w.high) w.low = w.high;
  }
  r.num_watermarks.store(static_cast<int>(r.watermarks.size()),
                         std::memory_order_relaxed);
}

void check_resource_watermarks() {
  ResRegistry& r = res_registry();
  if (r.num_watermarks.load(std::memory_order_relaxed) == 0) return;
  // Snapshot first (takes the mutex itself), then walk the watermark
  // table; crossings are emitted outside any per-shard hot path.
  const std::vector<ResourceValue> snap = resource_snapshot();
  struct Crossing {
    std::string name;
    bool above = false;
    std::int64_t bytes = 0;
    std::int64_t threshold = 0;
  };
  std::vector<Crossing> crossings;
  {
    util::MutexLock lock(r.mutex);
    for (auto& [name, w] : r.watermarks) {
      const auto it = std::lower_bound(
          snap.begin(), snap.end(), name,
          [](const ResourceValue& v, const std::string& n) {
            return v.name < n;
          });
      const std::int64_t bytes =
          (it != snap.end() && it->name == name) ? it->bytes : 0;
      if (!w.above && bytes >= w.high) {
        w.above = true;
        crossings.push_back({name, true, bytes, w.high});
      } else if (w.above && bytes <= w.low) {
        w.above = false;
        crossings.push_back({name, false, bytes, w.low});
      }
    }
  }
  for (const Crossing& c : crossings) {
    Event(ev::resource_watermark)
        .str("resource", c.name)
        .str("level", c.above ? "high" : "normal")
        .num("bytes", c.bytes)
        .num("threshold", c.threshold);
  }
}

}  // namespace optalloc::obs
