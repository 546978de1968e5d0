// Offline analysis of a JSONL trace (obs::trace_open output): reassembles
// requests from their "req" correlation fields and reports where each
// one's wall time went.
//
//   trace_report [--json] [--search] [--top N] [FILE]
//
// FILE defaults to stdin. Views:
//   * per-request phase breakdown — queue -> encode -> solve -> certify
//     (milliseconds, from the span_end events of each request);
//   * critical path of the slowest requests — the chain of heaviest
//     nested spans from the request root down;
//   * per-worker utilization — span-covered seconds per tid over the
//     trace's wall span;
//   * --search: per-request search trajectory — one row per
//     "search_sample" event (conflicts, props/sec, conflict rate, trail
//     depth, learnt-DB size, running LBD mean) so a stall or a learnt-DB
//     explosion is visible as a shape, not a single aggregate.
// Flight-recorder post-mortems ("flight_dump" events — see
// src/obs/flight.hpp) are summarized too: per dump, the embedded event
// count and whether the request's own final "search_sample" made it in.
// --json emits the same as one JSON object (plus span-balance counters),
// so benches and CI can gate on "parses, and every span_end matches a
// span_begin". Exit code: 0 when every line parses and spans balance,
// 1 otherwise, 2 on a usage error (--top takes a plain count).

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "obs/json.hpp"

namespace {

using optalloc::obs::JsonArray;
using optalloc::obs::JsonObject;
using optalloc::obs::JsonValue;

struct SpanRec {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  double begin_ts = -1.0;  ///< -1 = no span_begin seen
  double seconds = 0.0;
  int tid = -1;
  bool ended = false;
};

/// One "search_sample" row of a request's trajectory.
struct SampleRec {
  double ts = 0.0;
  double conflicts = 0.0;
  double restarts = 0.0;
  double trail = 0.0;
  double learnts = 0.0;
  double props_per_sec = 0.0;
  double conflicts_per_sec = 0.0;
  double lbd_mean = 0.0;
  bool final_sample = false;
};

/// One "flight_dump" post-mortem event: a request's flight-recorder tail
/// embedded into the trace on deadline expiry / cancellation / panic.
struct FlightDumpRec {
  std::uint64_t req = 0;
  std::string id;
  std::string reason;
  std::int64_t count = 0;        ///< the event's own "count" field
  std::int64_t embedded = 0;     ///< elements actually in "events"
  bool has_search_sample = false;
};

struct RequestRec {
  std::uint64_t req = 0;
  std::string id;              ///< scheduler id ("r1"), from request_received
  std::string state;           ///< from request_done
  bool done = false;
  double total_s = 0.0;        ///< request_done "seconds"
  std::map<std::string, double> phase_s;  ///< span name -> summed seconds
  std::map<std::uint64_t, SpanRec> spans;
  std::vector<SampleRec> samples;  ///< search trajectory, trace order
  int begun = 0;
  int ended = 0;
  int unmatched_end = 0;
  bool balanced() const { return begun == ended && unmatched_end == 0; }
};

struct WorkerRec {
  double busy_s = 0.0;  ///< sum of leaf span_end seconds on this tid
  int spans = 0;
};

/// Phase key for the breakdown table: SOLVE steps fold into "solve",
/// everything else keeps its span name.
std::string phase_key(const std::string& name) {
  return name == "SOLVE" ? "solve" : name;
}

double phase(const RequestRec& r, const char* key) {
  const auto it = r.phase_s.find(key);
  return it == r.phase_s.end() ? 0.0 : it->second;
}

/// Heaviest root-to-leaf chain of a request's span tree.
std::vector<const SpanRec*> critical_path(const RequestRec& r) {
  std::map<std::uint64_t, std::vector<const SpanRec*>> children;
  for (const auto& [id, s] : r.spans) children[s.parent].push_back(&s);
  std::vector<const SpanRec*> path;
  std::uint64_t at = 0;  // root spans have parent 0
  for (;;) {
    const auto it = children.find(at);
    if (it == children.end()) break;
    const SpanRec* heaviest = nullptr;
    for (const SpanRec* s : it->second) {
      if (heaviest == nullptr || s->seconds > heaviest->seconds) heaviest = s;
    }
    if (heaviest == nullptr) break;
    path.push_back(heaviest);
    at = heaviest->id;
  }
  return path;
}

int usage() {
  std::cerr << "usage: trace_report [--json] [--search] [--top N] [FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool json_out = false;
  bool search_view = false;
  std::size_t top = 5;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json_out = true;
    } else if (arg == "--search") {
      search_view = true;
    } else if (arg == "--top") {
      if (i + 1 >= argc) return usage();
      // A plain count: a sign or a suffix ("-1", "3x") is a usage error.
      const std::string_view v = argv[++i];
      const char* end = v.data() + v.size();
      const auto [ptr, ec] = std::from_chars(v.data(), end, top);
      if (ec != std::errc() || ptr != end) return usage();
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      return usage();
    } else {
      path = arg;
    }
  }

  std::ifstream file;
  std::istream* in = &std::cin;
  if (!path.empty() && path != "-") {
    file.open(path);
    if (!file) {
      std::cerr << "trace_report: cannot read " << path << "\n";
      return 1;
    }
    in = &file;
  }

  std::map<std::uint64_t, RequestRec> requests;
  std::map<int, WorkerRec> workers;
  std::vector<FlightDumpRec> flight_dumps;
  std::uint64_t events = 0, bad_lines = 0;
  double min_ts = 0.0, max_ts = 0.0;
  bool any_ts = false;
  std::string line;
  while (std::getline(*in, line)) {
    if (line.empty()) continue;
    const auto doc = optalloc::obs::json_parse(line);
    if (!doc || !doc->is_object()) {
      ++bad_lines;
      continue;
    }
    ++events;
    const auto type = doc->get_string("type").value_or("");
    if (const auto ts = doc->get_number("ts")) {
      if (!any_ts) {
        min_ts = max_ts = *ts;
        any_ts = true;
      }
      min_ts = std::min(min_ts, *ts);
      max_ts = std::max(max_ts, *ts);
    }
    const std::uint64_t req =
        static_cast<std::uint64_t>(doc->get_number("req").value_or(0.0));
    if (type == "flight_dump") {
      FlightDumpRec fd;
      fd.req = req;
      fd.id = doc->get_string("id").value_or("");
      fd.reason = doc->get_string("reason").value_or("");
      fd.count =
          static_cast<std::int64_t>(doc->get_number("count").value_or(0.0));
      if (const JsonValue* ev = doc->get("events");
          ev != nullptr && ev->kind == JsonValue::Kind::kArray) {
        fd.embedded = static_cast<std::int64_t>(ev->array.size());
        for (const JsonValue& e : ev->array) {
          if (e.get_string("type").value_or("") == "search_sample") {
            fd.has_search_sample = true;
          }
        }
      }
      flight_dumps.push_back(std::move(fd));
      continue;
    }
    if (req == 0) continue;  // events outside any request
    RequestRec& r = requests[req];
    r.req = req;
    if (type == "search_sample") {
      SampleRec s;
      s.ts = doc->get_number("ts").value_or(0.0);
      s.conflicts = doc->get_number("conflicts").value_or(0.0);
      s.restarts = doc->get_number("restarts").value_or(0.0);
      s.trail = doc->get_number("trail").value_or(0.0);
      s.learnts = doc->get_number("learnts").value_or(0.0);
      s.props_per_sec = doc->get_number("props_per_sec").value_or(0.0);
      s.conflicts_per_sec = doc->get_number("conflicts_per_sec").value_or(0.0);
      s.lbd_mean = doc->get_number("lbd_mean").value_or(0.0);
      if (const JsonValue* f = doc->get("final")) {
        s.final_sample = f->kind == JsonValue::Kind::kBool && f->b;
      }
      r.samples.push_back(s);
    } else if (type == "request_received") {
      r.id = doc->get_string("id").value_or("");
    } else if (type == "request_done") {
      r.done = true;
      r.state = doc->get_string("state").value_or("");
      r.total_s = doc->get_number("seconds").value_or(0.0);
    } else if (type == "span_begin" || type == "span_end") {
      const std::uint64_t span =
          static_cast<std::uint64_t>(doc->get_number("span").value_or(0.0));
      if (span == 0) continue;
      if (type == "span_begin") {
        SpanRec& s = r.spans[span];
        s.id = span;
        s.name = doc->get_string("name").value_or("");
        s.parent = static_cast<std::uint64_t>(
            doc->get_number("parent").value_or(0.0));
        s.begin_ts = doc->get_number("ts").value_or(0.0);
        s.tid = static_cast<int>(doc->get_number("tid").value_or(-1.0));
        ++r.begun;
      } else {
        const auto it = r.spans.find(span);
        if (it == r.spans.end() || it->second.begin_ts < 0.0 ||
            it->second.ended) {
          ++r.unmatched_end;
          continue;
        }
        SpanRec& s = it->second;
        s.ended = true;
        s.seconds = doc->get_number("seconds").value_or(0.0);
        ++r.ended;
        r.phase_s[phase_key(s.name)] += s.seconds;
        if (s.name != "queue_wait") {  // waiting is not worker busy time
          WorkerRec& w = workers[static_cast<int>(
              doc->get_number("tid").value_or(-1.0))];
          w.busy_s += s.seconds;
          ++w.spans;
        }
      }
    }
  }

  std::uint64_t completed = 0, reconstructed = 0;
  int begun = 0, ended = 0, unmatched = 0;
  for (const auto& [req, r] : requests) {
    begun += r.begun;
    ended += r.ended;
    unmatched += r.unmatched_end;
    if (!r.done) continue;
    ++completed;
    if (r.balanced()) ++reconstructed;
  }
  const bool balanced = begun == ended && unmatched == 0;
  const double wall_s = any_ts ? max_ts - min_ts : 0.0;

  std::vector<const RequestRec*> slowest;
  for (const auto& [req, r] : requests) {
    if (r.done) slowest.push_back(&r);
  }
  std::sort(slowest.begin(), slowest.end(),
            [](const RequestRec* a, const RequestRec* b) {
              return a->total_s > b->total_s;
            });
  if (slowest.size() > top) slowest.resize(top);

  if (json_out) {
    JsonObject out;
    out.num("events", static_cast<std::int64_t>(events))
        .num("bad_lines", static_cast<std::int64_t>(bad_lines))
        .num("requests", static_cast<std::int64_t>(requests.size()))
        .num("completed", static_cast<std::int64_t>(completed))
        .num("reconstructed", static_cast<std::int64_t>(reconstructed))
        .num("reconstructed_fraction",
             completed == 0 ? 1.0
                            : static_cast<double>(reconstructed) /
                                  static_cast<double>(completed))
        .raw("spans", JsonObject()
                          .num("begun", static_cast<std::int64_t>(begun))
                          .num("ended", static_cast<std::int64_t>(ended))
                          .num("unmatched_end",
                               static_cast<std::int64_t>(unmatched))
                          .boolean("balanced", balanced)
                          .build())
        .num("wall_seconds", wall_s);
    JsonArray reqs;
    for (const auto& [req, r] : requests) {
      JsonObject o;
      o.num("req", static_cast<std::int64_t>(req))
          .str("id", r.id)
          .str("state", r.done ? r.state : "open")
          .boolean("balanced", r.balanced())
          .num("queue_ms", phase(r, "queue_wait") * 1000.0)
          .num("encode_ms", phase(r, "encode") * 1000.0)
          .num("solve_ms", phase(r, "solve") * 1000.0)
          .num("certify_ms", phase(r, "certify") * 1000.0)
          .num("cache_lookup_ms", phase(r, "cache_lookup") * 1000.0)
          .num("total_ms", r.total_s * 1000.0)
          .num("search_samples", static_cast<std::int64_t>(r.samples.size()));
      if (!r.samples.empty()) {
        const SampleRec& last = r.samples.back();
        o.num("last_sample_conflicts", last.conflicts)
            .boolean("last_sample_final", last.final_sample);
      }
      reqs.push(o.build());
    }
    out.raw("requests_detail", reqs.build());
    JsonArray fds;
    for (const FlightDumpRec& fd : flight_dumps) {
      fds.push(JsonObject()
                   .str("id", fd.id)
                   .str("reason", fd.reason)
                   .num("req", static_cast<std::int64_t>(fd.req))
                   .num("count", fd.count)
                   .num("embedded", fd.embedded)
                   .boolean("has_search_sample", fd.has_search_sample)
                   .build());
    }
    out.raw("flight_dumps", fds.build());
    JsonArray crit;
    for (const RequestRec* r : slowest) {
      JsonArray chain;
      for (const SpanRec* s : critical_path(*r)) {
        chain.push(JsonObject()
                       .str("name", s->name)
                       .num("ms", s->seconds * 1000.0)
                       .build());
      }
      crit.push(JsonObject()
                    .str("id", r->id)
                    .num("total_ms", r->total_s * 1000.0)
                    .raw("path", chain.build())
                    .build());
    }
    out.raw("critical_paths", crit.build());
    JsonArray wk;
    for (const auto& [tid, w] : workers) {
      wk.push(JsonObject()
                  .num("tid", static_cast<std::int64_t>(tid))
                  .num("spans", static_cast<std::int64_t>(w.spans))
                  .num("busy_seconds", w.busy_s)
                  .num("utilization",
                       wall_s > 0.0 ? std::min(1.0, w.busy_s / wall_s) : 0.0)
                  .build());
    }
    out.raw("workers", wk.build());
    std::cout << out.build() << "\n";
    return balanced && bad_lines == 0 ? 0 : 1;
  }

  std::printf(
      "trace: %llu events (%llu malformed), %zu requests (%llu completed, "
      "%llu reconstructed), wall %.3fs\n",
      static_cast<unsigned long long>(events),
      static_cast<unsigned long long>(bad_lines), requests.size(),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(reconstructed), wall_s);
  std::printf("spans: %d begun, %d ended, %d unmatched -> %s\n", begun, ended,
              unmatched, balanced ? "balanced" : "UNBALANCED");

  std::printf("\nper-request phases (ms):\n");
  std::printf("  %-8s %9s %9s %9s %9s %9s  %s\n", "id", "queue", "encode",
              "solve", "certify", "total", "state");
  for (const auto& [req, r] : requests) {
    std::printf("  %-8s %9.2f %9.2f %9.2f %9.2f %9.2f  %s%s\n",
                r.id.empty() ? std::to_string(req).c_str() : r.id.c_str(),
                phase(r, "queue_wait") * 1000.0, phase(r, "encode") * 1000.0,
                phase(r, "solve") * 1000.0, phase(r, "certify") * 1000.0,
                r.total_s * 1000.0, r.done ? r.state.c_str() : "open",
                r.balanced() ? "" : " [unbalanced]");
  }

  std::printf("\nslowest requests (critical path):\n");
  for (const RequestRec* r : slowest) {
    std::printf("  %-8s total=%.2fms  ", r->id.c_str(), r->total_s * 1000.0);
    bool first = true;
    for (const SpanRec* s : critical_path(*r)) {
      std::printf("%s%s(%.2fms)", first ? "" : " -> ", s->name.c_str(),
                  s->seconds * 1000.0);
      first = false;
    }
    std::printf("\n");
  }

  std::printf("\nworker utilization:\n");
  std::printf("  %-5s %8s %12s %6s\n", "tid", "spans", "busy_s", "util%");
  for (const auto& [tid, w] : workers) {
    std::printf("  %-5d %8d %12.3f %5.1f%%\n", tid, w.spans, w.busy_s,
                wall_s > 0.0 ? std::min(100.0, 100.0 * w.busy_s / wall_s)
                             : 0.0);
  }

  if (!flight_dumps.empty()) {
    std::printf("\nflight-recorder post-mortems:\n");
    for (const FlightDumpRec& fd : flight_dumps) {
      std::printf("  %-8s reason=%s events=%lld%s\n", fd.id.c_str(),
                  fd.reason.c_str(), static_cast<long long>(fd.embedded),
                  fd.has_search_sample ? " (incl. search_sample)" : "");
    }
  }

  if (search_view) {
    std::printf("\nsearch trajectories (one row per search_sample):\n");
    for (const auto& [req, r] : requests) {
      if (r.samples.empty()) continue;
      std::printf("  %s:\n",
                  r.id.empty() ? std::to_string(req).c_str() : r.id.c_str());
      std::printf("    %9s %10s %9s %11s %8s %8s %6s\n", "ts(s)", "conflicts",
                  "restarts", "props/s", "trail", "learnts", "lbd");
      for (const SampleRec& s : r.samples) {
        std::printf("    %9.3f %10.0f %9.0f %11.0f %8.0f %8.0f %6.2f%s\n",
                    s.ts, s.conflicts, s.restarts, s.props_per_sec, s.trail,
                    s.learnts, s.lbd_mean, s.final_sample ? " [final]" : "");
      }
    }
  }
  return balanced && bad_lines == 0 ? 0 : 1;
}
