#include "obs/perfctr.hpp"

#include <cstdlib>

#include "obs/json.hpp"

#ifdef __linux__
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace optalloc::obs {

namespace {

#ifdef __linux__

constexpr int kCounters = 5;
constexpr std::uint64_t kConfigs[kCounters] = {
    PERF_COUNT_HW_CPU_CYCLES,       PERF_COUNT_HW_INSTRUCTIONS,
    PERF_COUNT_HW_CACHE_REFERENCES, PERF_COUNT_HW_CACHE_MISSES,
    PERF_COUNT_HW_BRANCH_MISSES,
};

/// One perf group per thread, opened lazily, closed at thread exit. The
/// leader (cycles) gates everything: if it cannot be opened the thread
/// has no counters. Siblings that fail individually stay at fd -1 and
/// read as -1 (null in JSON) while the rest of the group counts.
struct Group {
  int fd[kCounters] = {-1, -1, -1, -1, -1};
  std::uint64_t id[kCounters] = {};
  bool open = false;

  Group() {
    // Read-only env probe; nothing in the process calls setenv, so the
    // getenv data race the check guards against cannot occur here.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    if (std::getenv("OPTALLOC_NO_PERFCTR") != nullptr) return;
    for (int i = 0; i < kCounters; ++i) {
      perf_event_attr attr{};
      attr.size = sizeof attr;
      attr.type = PERF_TYPE_HARDWARE;
      attr.config = kConfigs[i];
      attr.disabled = i == 0 ? 1 : 0;  // group enabled as a unit below
      attr.exclude_kernel = 1;
      attr.exclude_hv = 1;
      attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_ID;
      const long r = ::syscall(SYS_perf_event_open, &attr, /*pid=*/0,
                               /*cpu=*/-1, /*group_fd=*/i == 0 ? -1 : fd[0],
                               /*flags=*/0UL);
      fd[i] = static_cast<int>(r);
      if (i == 0 && fd[0] < 0) return;  // no leader: no group at all
      if (fd[i] >= 0) ::ioctl(fd[i], PERF_EVENT_IOC_ID, &id[i]);
    }
    ::ioctl(fd[0], PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
    open = true;
  }

  ~Group() {
    for (const int f : fd) {
      if (f >= 0) ::close(f);
    }
  }

  PerfCounts read() const {
    PerfCounts out;
    if (!open) return out;
    // PERF_FORMAT_GROUP|PERF_FORMAT_ID layout: nr, then (value, id) pairs.
    std::uint64_t buf[1 + 2 * kCounters] = {};
    const ssize_t n = ::read(fd[0], buf, sizeof buf);
    if (n < static_cast<ssize_t>(sizeof(std::uint64_t))) return out;
    out.available = true;
    const std::uint64_t nr =
        buf[0] <= kCounters ? buf[0] : static_cast<std::uint64_t>(kCounters);
    const auto value_of = [&](int idx) -> std::int64_t {
      if (fd[idx] < 0) return -1;
      for (std::uint64_t k = 0; k < nr; ++k) {
        if (buf[2 + 2 * k] == id[idx]) {
          return static_cast<std::int64_t>(buf[1 + 2 * k]);
        }
      }
      return -1;
    };
    out.cycles = value_of(0);
    out.instructions = value_of(1);
    out.cache_references = value_of(2);
    out.cache_misses = value_of(3);
    out.branch_misses = value_of(4);
    return out;
  }
};

Group& group() {
  thread_local Group g;
  return g;
}

#endif  // __linux__

}  // namespace

bool perf_available() {
#ifdef __linux__
  return group().open;
#else
  return false;
#endif
}

PerfCounts perf_read() {
#ifdef __linux__
  return group().read();
#else
  return {};
#endif
}

PerfCounts perf_delta(const PerfCounts& a, const PerfCounts& b) {
  PerfCounts d;
  d.available = a.available && b.available;
  const auto sub = [](std::int64_t x, std::int64_t y) -> std::int64_t {
    if (x < 0 || y < 0) return -1;
    return x >= y ? x - y : 0;
  };
  d.cycles = sub(a.cycles, b.cycles);
  d.instructions = sub(a.instructions, b.instructions);
  d.cache_references = sub(a.cache_references, b.cache_references);
  d.cache_misses = sub(a.cache_misses, b.cache_misses);
  d.branch_misses = sub(a.branch_misses, b.branch_misses);
  return d;
}

std::string perf_json(const PerfCounts& c) {
  JsonObject o;
  const auto put = [&](const char* key, std::int64_t v) {
    if (!c.available || v < 0) {
      o.raw(key, "null");
    } else {
      o.num(key, v);
    }
  };
  put("cycles", c.cycles);
  put("instructions", c.instructions);
  put("cache_references", c.cache_references);
  put("cache_misses", c.cache_misses);
  put("branch_misses", c.branch_misses);
  return o.build();
}

}  // namespace optalloc::obs
