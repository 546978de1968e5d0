#include "obs/flight.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace optalloc::obs {

namespace detail {
std::atomic<bool> g_flight_on{true};
}

namespace {

// Per-slot seqlock: a record at logical index i is committed when its
// slot's seq reads exactly 2*i+2. The writer (the owning thread) marks
// the slot odd, fills the payload, marks it even; a dumper that observes
// anything else — odd (mid-write), or the even value of a different
// logical index (overwritten) — skips the slot. All payload fields are
// relaxed atomics so a racing dump is merely stale, never undefined.
struct Slot {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<const char*> type{nullptr};
  std::atomic<std::uint64_t> ts_ns{0};
  std::atomic<std::uint64_t> req{0};
  std::atomic<std::int32_t> nfields{0};
  std::atomic<const char*> keys[kFlightFields] = {};
  std::atomic<double> vals[kFlightFields] = {};
};

struct Ring {
  std::atomic<std::uint64_t> head{0};  ///< next logical index to write
  int tid = 0;
  Slot slots[kFlightCapacity];
};

// Fixed-size registry published with release stores so the (signal-safe)
// dump path can walk it without locks. Rings are deliberately leaked:
// they must outlive their threads for post-mortem dumps.
std::atomic<Ring*> g_rings[kFlightMaxRings] = {};
std::atomic<std::size_t> g_ring_count{0};
std::atomic<std::uint64_t> g_epoch_ns{0};  ///< "ts" base (first ring)

Ring* this_ring() {
  thread_local Ring* ring = [] {
    const std::size_t idx =
        g_ring_count.fetch_add(1, std::memory_order_relaxed);
    if (idx >= kFlightMaxRings) return static_cast<Ring*>(nullptr);
    Ring* r = new Ring();
    r->tid = thread_ordinal();
    std::uint64_t expected = 0;
    g_epoch_ns.compare_exchange_strong(expected, monotonic_ns(),
                                       std::memory_order_relaxed);
    g_rings[idx].store(r, std::memory_order_release);
    return r;
  }();
  return ring;
}

/// A record staged out of a slot (plain memory, safe to sort/render).
struct Rec {
  const char* type = nullptr;
  std::uint64_t ts_ns = 0;
  std::uint64_t req = 0;
  int tid = 0;
  int n = 0;
  const char* keys[kFlightFields] = {};
  double vals[kFlightFields] = {};
};

bool read_slot(const Slot& s, std::uint64_t logical, int tid, Rec* out) {
  const std::uint64_t want = 2 * logical + 2;
  const std::uint64_t s1 = s.seq.load(std::memory_order_acquire);
  if (s1 != want) return false;
  out->type = s.type.load(std::memory_order_relaxed);
  out->ts_ns = s.ts_ns.load(std::memory_order_relaxed);
  out->req = s.req.load(std::memory_order_relaxed);
  out->tid = tid;
  out->n = std::clamp<int>(s.nfields.load(std::memory_order_relaxed), 0,
                           kFlightFields);
  for (int j = 0; j < out->n; ++j) {
    out->keys[j] = s.keys[j].load(std::memory_order_relaxed);
    out->vals[j] = s.vals[j].load(std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_acquire);
  if (s.seq.load(std::memory_order_relaxed) != s1) return false;
  return out->type != nullptr;
}

// --- Signal-safe rendering ----------------------------------------------
// The crash path cannot call snprintf (not async-signal-safe) or touch
// the heap, so records are formatted with local integer arithmetic into
// a caller-provided buffer.

struct Buf {
  char* p;
  std::size_t cap;
  std::size_t n = 0;
};

void put_char(Buf& b, char c) {
  if (b.n < b.cap) b.p[b.n++] = c;
}

void put_str(Buf& b, const char* s) {
  for (; *s != '\0'; ++s) put_char(b, *s);
}

void put_u64(Buf& b, std::uint64_t v) {
  char tmp[20];
  int k = 0;
  do {
    tmp[k++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (k > 0) put_char(b, tmp[--k]);
}

void put_double(Buf& b, double v) {
  if (!std::isfinite(v)) {
    put_char(b, '0');
    return;
  }
  if (v < 0) {
    put_char(b, '-');
    v = -v;
  }
  if (v >= 1.8e19) v = 1.8e19;  // keep the integer part within uint64
  std::uint64_t ip = static_cast<std::uint64_t>(v);
  std::uint64_t frac =
      static_cast<std::uint64_t>((v - static_cast<double>(ip)) * 1e6 + 0.5);
  if (frac >= 1000000) {
    ++ip;
    frac = 0;
  }
  put_u64(b, ip);
  if (frac == 0) return;
  int width = 6;  // frac is scaled by 1e6; trim trailing zeros
  while (frac % 10 == 0) {
    frac /= 10;
    --width;
  }
  int digits = 1;
  for (std::uint64_t probe = frac; probe >= 10; probe /= 10) ++digits;
  put_char(b, '.');
  for (int d = width; d > digits; --d) put_char(b, '0');
  put_u64(b, frac);
}

void render(Buf& b, const Rec& r, std::uint64_t epoch) {
  put_str(b, "{\"type\":\"");
  put_str(b, r.type);
  put_str(b, "\",\"ts\":");
  const std::uint64_t rel = r.ts_ns > epoch ? r.ts_ns - epoch : 0;
  put_double(b, static_cast<double>(rel) * 1e-9);
  put_str(b, ",\"tid\":");
  put_u64(b, static_cast<std::uint64_t>(r.tid < 0 ? 0 : r.tid));
  if (r.req != 0) {
    put_str(b, ",\"req\":");
    put_u64(b, r.req);
  }
  for (int j = 0; j < r.n; ++j) {
    if (r.keys[j] == nullptr) continue;
    put_str(b, ",\"");
    put_str(b, r.keys[j]);
    put_str(b, "\":");
    put_double(b, r.vals[j]);
  }
  put_char(b, '}');
}

/// Collect every committed record (optionally filtered by request id),
/// oldest first per ring, then globally sorted by timestamp.
std::vector<Rec> collect(std::uint64_t req) {
  std::vector<Rec> out;
  const std::size_t rings =
      std::min(g_ring_count.load(std::memory_order_relaxed), kFlightMaxRings);
  for (std::size_t i = 0; i < rings; ++i) {
    const Ring* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t count =
        std::min<std::uint64_t>(head, kFlightCapacity);
    for (std::uint64_t logical = head - count; logical < head; ++logical) {
      Rec rec;
      if (!read_slot(ring->slots[logical % kFlightCapacity], logical,
                     ring->tid, &rec)) {
        continue;
      }
      if (req != 0 && rec.req != req) continue;
      out.push_back(rec);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Rec& a, const Rec& b) { return a.ts_ns < b.ts_ns; });
  return out;
}

constexpr std::size_t kLineCap = 1024;

}  // namespace

void set_flight(bool on) {
  detail::g_flight_on.store(on, std::memory_order_relaxed);
}

void flight_reset() {
  const std::size_t rings =
      std::min(g_ring_count.load(std::memory_order_relaxed), kFlightMaxRings);
  for (std::size_t i = 0; i < rings; ++i) {
    Ring* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    for (Slot& s : ring->slots) s.seq.store(0, std::memory_order_relaxed);
    ring->head.store(0, std::memory_order_release);
  }
}

void detail::flight_commit(const char* type, std::uint64_t req,
                           const char* const* keys, const double* values,
                           int n) {
  Ring* ring = this_ring();
  if (ring == nullptr) return;  // more than kFlightMaxRings threads
  const std::uint64_t i = ring->head.load(std::memory_order_relaxed);
  Slot& s = ring->slots[i % kFlightCapacity];
  s.seq.store(2 * i + 1, std::memory_order_relaxed);
  // The release fence keeps the odd marker visible before any payload
  // store: a dumper can then never pair fresh payload with a stale even
  // seq (the torn-read case the seqlock exists to detect).
  std::atomic_thread_fence(std::memory_order_release);
  s.type.store(type, std::memory_order_relaxed);
  s.ts_ns.store(monotonic_ns(), std::memory_order_relaxed);
  s.req.store(req, std::memory_order_relaxed);
  s.nfields.store(n, std::memory_order_relaxed);
  for (int j = 0; j < n; ++j) {
    s.keys[j].store(keys[j], std::memory_order_relaxed);
    s.vals[j].store(values[j], std::memory_order_relaxed);
  }
  s.seq.store(2 * i + 2, std::memory_order_release);
  ring->head.store(i + 1, std::memory_order_release);
}

std::string flight_dump_events(std::uint64_t req, std::size_t* count) {
  const std::vector<Rec> recs = collect(req);
  const std::uint64_t epoch = g_epoch_ns.load(std::memory_order_relaxed);
  std::string out = "[";
  char line[kLineCap];
  for (std::size_t i = 0; i < recs.size(); ++i) {
    Buf b{line, sizeof line};
    render(b, recs[i], epoch);
    if (i > 0) out += ',';
    out.append(line, b.n);
  }
  out += ']';
  if (count != nullptr) *count = recs.size();
  return out;
}

std::string flight_dump_jsonl(std::uint64_t req) {
  const std::vector<Rec> recs = collect(req);
  const std::uint64_t epoch = g_epoch_ns.load(std::memory_order_relaxed);
  std::string out;
  char line[kLineCap];
  for (const Rec& rec : recs) {
    Buf b{line, sizeof line};
    render(b, rec, epoch);
    out.append(line, b.n);
    out += '\n';
  }
  return out;
}

std::size_t flight_dump_fd(int fd) {
  const std::uint64_t epoch = g_epoch_ns.load(std::memory_order_relaxed);
  const std::size_t rings =
      std::min(g_ring_count.load(std::memory_order_relaxed), kFlightMaxRings);
  std::size_t written = 0;
  char line[kLineCap];
  // No sorting here: sorting needs scratch memory the signal handler must
  // not allocate. Rings are emitted in registration order, records oldest
  // first within a ring; consumers order by the "ts" field.
  for (std::size_t i = 0; i < rings; ++i) {
    const Ring* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t count =
        std::min<std::uint64_t>(head, kFlightCapacity);
    for (std::uint64_t logical = head - count; logical < head; ++logical) {
      Rec rec;
      if (!read_slot(ring->slots[logical % kFlightCapacity], logical,
                     ring->tid, &rec)) {
        continue;
      }
      Buf b{line, sizeof line - 1};
      render(b, rec, epoch);
      line[b.n++] = '\n';
      std::size_t off = 0;
      while (off < b.n) {
        const ssize_t n = ::write(fd, line + off, b.n - off);
        if (n < 0) {
          if (errno == EINTR) continue;
          return written;
        }
        off += static_cast<std::size_t>(n);
      }
      written += b.n;
    }
  }
  return written;
}

namespace {

std::atomic<int> g_crash_fd{-1};

void crash_handler(int sig) {
  const int fd = g_crash_fd.load(std::memory_order_relaxed);
  if (fd >= 0) flight_dump_fd(fd);
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

void flight_install_crash_handler(int fd) {
  g_crash_fd.store(fd, std::memory_order_relaxed);
  const int signals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT};
  for (const int sig : signals) {
    std::signal(sig, fd >= 0 ? crash_handler : SIG_DFL);
  }
}

}  // namespace optalloc::obs
