// Terminal capacity dashboard for a running alloc_serve: polls the
// stats + query verbs and renders queue depth, worker utilization, cache
// occupancy, session dead-guard fraction, arena bytes and latency
// sparklines — curses-free, plain ANSI, usable over ssh.
//
//   alloc_top --socket PATH [--interval S] [--window S] [--once]
//   alloc_top --tcp HOST PORT ...
//
// --once prints a single frame and exits (scripting / CI assertions);
// otherwise the screen is redrawn every --interval seconds (default 2)
// until interrupted. --window W sets the sparkline time window (default
// 60 s). The time-series rows need the daemon's sampler running (start
// alloc_serve with --metrics-interval); without it the dashboard still
// renders the stats-verb counters and says what is missing.
//
// Output is line-oriented `key=value` so the smoke test (and any shell)
// can scrape it: e.g. `arena bytes=147456 wasted=1024 learnts=37`.
//
// Exit codes: 0 rendered at least one frame; 1 connect/protocol error;
// 2 usage.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "svc/client.hpp"

namespace {

using optalloc::obs::JsonValue;

int usage() {
  std::cerr << "usage: alloc_top (--socket PATH | --tcp HOST PORT)\n"
            << "                 [--interval S] [--window S] [--once]\n";
  return 2;
}

struct Endpoint {
  std::string socket_path;
  std::string tcp_host;
  int tcp_port = -1;

  int connect() const {
    return !socket_path.empty()
               ? optalloc::svc::connect_unix_retry(socket_path)
               : optalloc::svc::connect_tcp_retry(tcp_host, tcp_port);
  }
  std::string describe() const {
    return !socket_path.empty()
               ? "unix:" + socket_path
               : "tcp:" + tcp_host + ":" + std::to_string(tcp_port);
  }
};

/// One request/response cycle on an open connection.
std::optional<JsonValue> roundtrip(int fd, std::string& buffer,
                                   const std::string& line) {
  std::string response;
  if (!optalloc::svc::send_line(fd, line) ||
      !optalloc::svc::recv_line(fd, buffer, response)) {
    return std::nullopt;
  }
  auto doc = optalloc::obs::json_parse(response);
  if (!doc || !doc->is_object()) return std::nullopt;
  return doc;
}

double num_or(const JsonValue& doc, std::string_view key, double dflt) {
  return doc.get_number(key).value_or(dflt);
}

/// Latest value per series from the query catalogue.
std::map<std::string, double> catalogue(const JsonValue& doc) {
  std::map<std::string, double> last;
  const JsonValue* series = doc.get("series");
  if (series == nullptr || series->kind != JsonValue::Kind::kArray) {
    return last;
  }
  for (const JsonValue& row : series->array) {
    if (!row.is_object()) continue;
    const auto name = row.get_string("metric");
    if (!name) continue;
    last[*name] = num_or(row, "last", 0.0);
  }
  return last;
}

std::vector<double> series_values(const JsonValue& doc) {
  std::vector<double> out;
  const JsonValue* samples = doc.get("samples");
  if (samples == nullptr || samples->kind != JsonValue::Kind::kArray) {
    return out;
  }
  for (const JsonValue& pair : samples->array) {
    if (pair.kind != JsonValue::Kind::kArray || pair.array.size() != 2) {
      continue;
    }
    out.push_back(pair.array[1].number);
  }
  return out;
}

/// Unicode block sparkline; empty input -> "(no samples)".
std::string sparkline(const std::vector<double>& values) {
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"};
  if (values.empty()) return "(no samples)";
  double lo = values[0], hi = values[0];
  for (const double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::string out;
  for (const double v : values) {
    int idx = hi > lo ? static_cast<int>((v - lo) / (hi - lo) * 7.0) : 3;
    if (idx < 0) idx = 0;
    if (idx > 7) idx = 7;
    out += kBlocks[idx];
  }
  return out;
}

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

/// Fetch everything and render one frame into `out`. False only when the
/// connection or the stats verb failed (partial telemetry still renders).
bool render_frame(const Endpoint& endpoint, double window_s,
                  std::string& out) {
  const int fd = endpoint.connect();
  if (fd < 0) return false;
  std::string buffer;
  const auto stats =
      roundtrip(fd, buffer, "{\"verb\":\"stats\"}");
  if (!stats) return false;
  const auto list = roundtrip(fd, buffer, "{\"verb\":\"query\"}");
  const std::map<std::string, double> last =
      list ? catalogue(*list) : std::map<std::string, double>{};
  const auto window = fmt("%.0f", window_s);
  const auto fetch_series = [&](const std::string& metric) {
    const auto doc = roundtrip(
        fd, buffer, "{\"verb\":\"query\",\"metric\":\"" + metric +
                        "\",\"last_s\":" + window + ",\"max_samples\":64}");
    return doc ? series_values(*doc) : std::vector<double>{};
  };
  const std::vector<double> p50 = fetch_series("svc.request_ms.p50");
  const std::vector<double> p99 = fetch_series("svc.request_ms.p99");

  const double uptime = num_or(*stats, "uptime_s", 0.0);
  const double workers = num_or(*stats, "workers", 1.0);
  const double hits = num_or(*stats, "cache_hits", 0.0);
  const double misses = num_or(*stats, "cache_misses", 0.0);
  const double lookups = hits + misses;
  const auto get = [&last](const char* name) {
    const auto it = last.find(name);
    return it != last.end() ? it->second : 0.0;
  };
  const double solve_s = get("svc.time.solve.seconds");
  const double utilization =
      uptime > 0.0 && workers > 0.0
          ? std::min(1.0, solve_s / (uptime * workers))
          : 0.0;
  const double guards = get("inc.guards");
  const double dead = get("inc.dead_guards");
  const double guard_total = guards + dead;

  out.clear();
  out += "alloc_top " + endpoint.describe() +
         "  uptime=" + fmt("%.1f", uptime) + "s" +
         "  workers=" + fmt("%.0f", workers) + "\n";
  out += "requests   submitted=" + fmt("%.0f", num_or(*stats, "submitted", 0)) +
         " completed=" + fmt("%.0f", num_or(*stats, "completed", 0)) +
         " rejected=" + fmt("%.0f", num_or(*stats, "rejected", 0)) +
         " cancelled=" + fmt("%.0f", num_or(*stats, "cancelled", 0)) +
         " deadline_expired=" +
         fmt("%.0f", num_or(*stats, "deadline_expired", 0)) + "\n";
  out += "queue      depth=" + fmt("%.0f", num_or(*stats, "queue_depth", 0)) +
         " bytes=" + fmt("%.0f", get("svc.queue.bytes")) + "\n";
  out += "workers    utilization=" + fmt("%.1f", utilization * 100.0) +
         "% solve_s=" + fmt("%.2f", solve_s) + "\n";
  out += "cache      hits=" + fmt("%.0f", hits) +
         " misses=" + fmt("%.0f", misses) + " hit_rate=" +
         fmt("%.1f", lookups > 0 ? hits / lookups * 100.0 : 0.0) +
         "% entries=" + fmt("%.0f", get("svc.cache.entries")) +
         " bytes=" + fmt("%.0f", get("svc.cache.bytes")) + "\n";
  out += "sessions   active=" +
         fmt("%.0f", num_or(*stats, "active_sessions", 0)) +
         " revises=" + fmt("%.0f", num_or(*stats, "revises", 0)) +
         " guards=" + fmt("%.0f", guards) + " dead=" + fmt("%.0f", dead) +
         " dead_fraction=" +
         fmt("%.1f", guard_total > 0 ? dead / guard_total * 100.0 : 0.0) +
         "%\n";
  out += "arena      bytes=" + fmt("%.0f", get("sat.arena.bytes")) +
         " wasted=" + fmt("%.0f", get("sat.arena.wasted_bytes")) +
         " learnts=" + fmt("%.0f", get("sat.learnts")) + "\n";
  out += "latency    p50=" + fmt("%.1f", num_or(*stats, "p50_ms", 0)) +
         "ms p99=" + fmt("%.1f", num_or(*stats, "p99_ms", 0)) +
         "ms max=" + fmt("%.1f", num_or(*stats, "max_ms", 0)) + "ms\n";
  out += "p50_ms     [" + window + "s] " + sparkline(p50) +
         (p50.empty() ? "" : " last=" + fmt("%.1f", p50.back())) + "\n";
  out += "p99_ms     [" + window + "s] " + sparkline(p99) +
         (p99.empty() ? "" : " last=" + fmt("%.1f", p99.back())) + "\n";
  if (last.empty()) {
    out += "(time-series empty: start alloc_serve with "
           "--metrics-interval S)\n";
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Endpoint endpoint;
  double interval_s = 2.0;
  double window_s = 60.0;
  bool once = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--socket") {
      const char* v = next();
      if (v == nullptr) return usage();
      endpoint.socket_path = v;
    } else if (arg == "--tcp") {
      const char* host = next();
      const char* port = next();
      if (host == nullptr || port == nullptr) return usage();
      endpoint.tcp_host = host;
      endpoint.tcp_port = std::atoi(port);
    } else if (arg == "--interval") {
      const char* v = next();
      if (v == nullptr) return usage();
      interval_s = std::atof(v);
      if (interval_s <= 0.0) return usage();
    } else if (arg == "--window") {
      const char* v = next();
      if (v == nullptr) return usage();
      window_s = std::atof(v);
      if (window_s <= 0.0) return usage();
    } else if (arg == "--once") {
      once = true;
    } else {
      std::cerr << "alloc_top: unknown option " << arg << "\n";
      return usage();
    }
  }
  if (endpoint.socket_path.empty() == (endpoint.tcp_port < 0)) {
    return usage();
  }

  for (;;) {
    std::string frame;
    if (!render_frame(endpoint, window_s, frame)) {
      std::cerr << "alloc_top: cannot reach " << endpoint.describe() << "\n";
      return 1;
    }
    if (!once) std::cout << "\x1b[2J\x1b[H";  // clear + home
    std::cout << frame << std::flush;
    if (once) return 0;
    std::this_thread::sleep_for(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::duration<double>(interval_s)));
  }
}
