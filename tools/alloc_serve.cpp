// Allocation daemon: serves the NDJSON allocation protocol (see
// src/svc/protocol.hpp) over a Unix-domain or TCP socket, with a worker
// pool, canonical result cache and anytime deadline answers.
//
//   alloc_serve --socket /tmp/alloc.sock [--workers 2] [--queue 64]
//               [--cache 256] [--anneal 2000] [--trace FILE] [--stats]
//               [--metrics-interval S] [--flight-dump FILE]
//               [--no-inprocess] [--inprocess-interval N]
//               [--watermark GAUGE:HIGH[:LOW]]
//   alloc_serve --tcp 7421 ...
//
// Numeric flags take plain numbers and exit 2 on a suffix, an overflow
// or a value out of range: --tcp 0..65535, --workers 1..256 (one
// flight-recorder ring per thread), --queue >= 1, --inprocess-interval
// >= 1, --metrics-interval 0..86400 seconds.
//
// SIGTERM / SIGINT trigger a graceful drain: no new requests are
// accepted, every queued job still gets its answer, the trace sink is
// flushed and closed, then the process exits 0. --stats prints the
// service counters on exit. --metrics-interval S drives the sampler
// thread every S seconds: each tick records the whole registry into the
// in-process time-series rings (the `query` verb / alloc_top's data),
// checks the armed watermarks, and — while tracing is on — emits a
// "metrics_snapshot" trace event (full registry, typed form).
// --watermark arms a threshold on a gauge ("sat.arena.bytes:8388608" or
// "svc.cache.bytes:1048576:786432"; plain decimal integers, LOW <= HIGH);
// crossings emit `watermark` trace events with hysteresis (LOW defaults
// to 3/4 of HIGH).
//
// Post-mortem: a fatal signal (SIGSEGV/SIGBUS/SIGFPE/SIGILL/SIGABRT)
// dumps the flight-recorder rings — the last telemetry records of every
// thread — as JSONL before the process dies: to stderr by default, or to
// --flight-dump FILE (opened at startup so the handler never allocates).

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <type_traits>

#include "obs/events.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "svc/server.hpp"

namespace {

optalloc::svc::Server* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

int usage() {
  std::cerr
      << "usage: alloc_serve (--socket PATH | --tcp PORT)\n"
      << "                   [--workers N] [--queue N] [--cache N]\n"
      << "                   [--anneal ITERS] [--trace FILE] [--stats]\n"
      << "                   [--metrics-interval S] [--flight-dump FILE]\n"
      << "                   [--no-inprocess] [--inprocess-interval N]\n"
      << "                   [--watermark GAUGE:HIGH[:LOW]]\n";
  return 2;
}

/// The whole of `s` as a number in [lo, hi]: false on a suffix, an
/// overflow, NaN or a value out of range (`out` is then left alone).
template <class T>
bool parse_number(std::string_view s, std::type_identity_t<T> lo,
                  std::type_identity_t<T> hi, T& out) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end || !(v >= lo && v <= hi)) return false;
  out = v;
  return true;
}

constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

/// Parse "GAUGE:HIGH[:LOW]" and arm the watermark. False on bad syntax,
/// a non-positive HIGH or LOW > HIGH.
bool arm_watermark(std::string_view spec) {
  const std::size_t c1 = spec.find(':');
  if (c1 == std::string_view::npos || c1 == 0) return false;
  const std::string_view name = spec.substr(0, c1);
  const std::string_view levels = spec.substr(c1 + 1);
  const std::size_t c2 = levels.find(':');
  std::int64_t high = 0;
  if (!parse_number(levels.substr(0, c2), 1, kInt64Max, high)) return false;
  std::int64_t low = -1;
  if (c2 != std::string_view::npos &&
      !parse_number(levels.substr(c2 + 1), 0, high, low)) {
    return false;
  }
  optalloc::obs::set_watermark(name, high, low);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  int tcp_port = -1;
  bool print_stats = false;
  std::string trace_path;
  std::string flight_dump_path;
  double metrics_interval_s = 0.0;
  optalloc::svc::ServerOptions options;

  optalloc::svc::SchedulerOptions& sched = options.scheduler;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // The flag's value as a number in [lo, hi]; false when it is missing
    // or is not one.
    auto number = [&]<class T>(std::type_identity_t<T> lo,
                               std::type_identity_t<T> hi, T& out) {
      const char* v = next();
      return v != nullptr && parse_number(v, lo, hi, out);
    };
    bool ok = true;
    if (arg == "--socket") {
      const char* v = next();
      if (v == nullptr) return usage();
      socket_path = v;
    } else if (arg == "--tcp") {
      ok = number(0, 65535, tcp_port);
    } else if (arg == "--workers") {
      // The flight recorder keeps no ring for threads past its cap.
      ok = number(1, static_cast<int>(optalloc::obs::kFlightMaxRings),
                  sched.workers);
    } else if (arg == "--queue") {
      ok = number(std::size_t{1}, SIZE_MAX, sched.queue_capacity);
    } else if (arg == "--cache") {
      ok = number(std::size_t{0}, SIZE_MAX, sched.cache_entries);
    } else if (arg == "--anneal") {
      ok = number(0, INT_MAX, sched.anneal_iterations);
    } else if (arg == "--no-inprocess") {
      sched.inprocess = false;
    } else if (arg == "--inprocess-interval") {
      ok = number(1, kInt64Max, sched.inprocess_interval);
    } else if (arg == "--trace") {
      const char* v = next();
      if (v == nullptr) return usage();
      trace_path = v;
    } else if (arg == "--metrics-interval") {
      // Capped at a day, far inside what the sampler's clock can hold.
      ok = number(0.0, 86400.0, metrics_interval_s);
    } else if (arg == "--flight-dump") {
      const char* v = next();
      if (v == nullptr) return usage();
      flight_dump_path = v;
    } else if (arg == "--watermark") {
      const char* v = next();
      if (v == nullptr || !arm_watermark(v)) {
        std::cerr << "alloc_serve: --watermark wants GAUGE:HIGH[:LOW] "
                     "(decimal integers, LOW <= HIGH)\n";
        return usage();
      }
    } else if (arg == "--stats") {
      print_stats = true;
    } else {
      std::cerr << "alloc_serve: unknown option " << arg << "\n";
      return usage();
    }
    if (!ok) {
      std::cerr << "alloc_serve: " << arg << " wants a plain number in range\n";
      return usage();
    }
  }
  if (socket_path.empty() == (tcp_port < 0)) return usage();

  if (!trace_path.empty() && !optalloc::obs::trace_open(trace_path)) {
    std::cerr << "alloc_serve: cannot open trace file " << trace_path << "\n";
    return 1;
  }

  // Crash-path telemetry: open the dump destination NOW (the fatal-signal
  // handler may not open files or allocate) and keep the fd for the
  // process lifetime. Default is stderr.
  int flight_fd = STDERR_FILENO;
  if (!flight_dump_path.empty()) {
    flight_fd = ::open(flight_dump_path.c_str(),
                       O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (flight_fd < 0) {
      std::cerr << "alloc_serve: cannot open flight dump file "
                << flight_dump_path << "\n";
      optalloc::obs::trace_close();
      return 1;
    }
  }
  optalloc::obs::flight_install_crash_handler(flight_fd);

  optalloc::svc::Server server(options);
  if (!socket_path.empty()) {
    if (!server.listen_unix(socket_path)) {
      std::cerr << "alloc_serve: cannot listen on " << socket_path << "\n";
      optalloc::obs::flight_install_crash_handler(-1);
      optalloc::obs::trace_close();
      return 1;
    }
    std::cout << "listening on unix socket " << socket_path << std::endl;
  } else {
    if (!server.listen_tcp(tcp_port)) {
      std::cerr << "alloc_serve: cannot listen on tcp port " << tcp_port
                << "\n";
      optalloc::obs::flight_install_crash_handler(-1);
      optalloc::obs::trace_close();
      return 1;
    }
    std::cout << "listening on tcp 127.0.0.1:" << server.tcp_port()
              << std::endl;
  }

  g_server = &server;
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGINT, handle_signal);

  // Periodic sampler: every tick feeds the in-process time-series rings
  // (the `query` verb's data), checks the watermarks, and — with
  // tracing on — snapshots the registry into the trace, so a long run's
  // JSONL is also a coarse time series of every counter/histogram.
  std::thread snapshotter;
  std::atomic<bool> snapshot_stop{false};
  if (metrics_interval_s > 0.0) {
    snapshotter = std::thread([&] {
      const auto interval = std::chrono::duration_cast<
          std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(metrics_interval_s));
      auto wake = std::chrono::steady_clock::now() + interval;
      while (!snapshot_stop.load(std::memory_order_relaxed)) {
        if (std::chrono::steady_clock::now() < wake) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          continue;
        }
        wake += interval;
        optalloc::obs::timeseries_sample_now();
        optalloc::obs::check_watermarks();
        if (optalloc::obs::trace_enabled()) {
          optalloc::obs::Event(optalloc::obs::ev::metrics_snapshot)
              .raw("metrics", optalloc::obs::metrics_full_json());
        }
      }
    });
  }

  server.run();

  if (snapshotter.joinable()) {
    snapshot_stop.store(true, std::memory_order_relaxed);
    snapshotter.join();
  }
  if (print_stats) {
    const auto stats = server.scheduler().stats();
    std::cout << optalloc::svc::stats_line(stats) << "\n";
    std::cout << optalloc::obs::render_metrics();
  }
  // The sink is process-global and deliberately leaked; without this
  // explicit flush+close the tail of the trace (the drain's last events)
  // would be lost in the ofstream buffer.
  optalloc::obs::flight_install_crash_handler(-1);
  if (flight_fd != STDERR_FILENO) ::close(flight_fd);
  optalloc::obs::trace_close();
  return 0;
}
