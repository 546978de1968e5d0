// Standalone JSONL trace validator, used by the `smoke_allocate_trace`
// and `svc_smoke` ctest targets (and handy manually:
// `trace_schema_check run.jsonl`). Checks that every line is a JSON
// object carrying the standard fields, that the per-type required fields
// are present, that every span_end matches a span_begin with the same
// req+span, that every "flight_dump" post-mortem embeds schema-valid
// events with a matching "count", and — in service traces — that every
// solver-side event carries a "req" correlation field; prints a per-type
// event census on success.
//
// Exit status: 0 = valid, 1 = schema violation, 2 = usage/IO error.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace {

using optalloc::obs::JsonValue;

/// type -> fields that must be present on every event of that type.
const std::map<std::string, std::vector<const char*>>& required_fields() {
  static const std::map<std::string, std::vector<const char*>> kSchema = {
      {"solve", {"call", "result", "conflicts", "seconds"}},
      {"interval", {"lower", "upper", "sat_calls"}},
      {"optimum", {"status", "lower", "sat_calls", "seconds"}},
      // Certification checkpoints (model / proof / allocation re-checks);
      // "error" and proof-lemma counts are conditional, "kind"/"ok" are not.
      {"certify", {"kind", "ok"}},
      {"solver_restart", {"restarts", "conflicts", "learnts"}},
      // Search-trajectory samples (sat::Solver::sample_interval).
      {"search_sample",
       {"conflicts", "restarts", "trail", "learnts", "props_per_sec",
        "conflicts_per_sec", "lbd_mean", "final"}},
      // Per-span hardware counters (obs/perfctr.hpp); absent siblings are
      // -1, never missing.
      {"perf_counters",
       {"name", "cycles", "instructions", "cache_references",
        "cache_misses", "branch_misses"}},
      // Flight-recorder post-mortems (deadline expiry, cancellation,
      // worker panic): carry the embedded ring contents.
      {"flight_dump", {"id", "reason", "count", "events"}},
      {"solver_gc", {"gc_runs", "arena_before", "arena_after"}},
      // Inprocessing passes (sat/inprocess.hpp): per-pass rewrite counts
      // and the arena words the pass turned into garbage.
      {"inprocess_pass",
       {"subsumed", "strengthened", "eliminated", "reclaimed_words",
        "seconds"}},
      {"anneal", {"feasible", "iterations", "accepted", "seconds"}},
      // Allocation service (alloc_serve) request lifecycle.
      {"request_received", {"id", "objective"}},
      {"cache_hit", {"id"}},
      // A scheduler worker caught an exception from the optimizer; the
      // job is failed, not lost.
      {"worker_panic", {"id", "error"}},
      {"deadline_expired", {"id"}},
      {"request_done", {"id", "state", "proven_optimal", "seconds"}},
      // Incremental re-solve sessions (session_open / revise verbs).
      {"session_open", {"session", "objective"}},
      // Every session solve (the opening solve has edits=0).
      {"revise", {"session", "edits", "status", "seconds"}},
      // Infeasible edits: the named constraint groups that conflict.
      {"unsat_core", {"session", "size", "core"}},
      {"session_close", {"session"}},
      // Request correlation (see src/obs/trace.hpp).
      {"span_begin", {"name", "span", "parent"}},
      {"span_end", {"name", "span", "parent", "seconds"}},
      {"metrics_snapshot", {"metrics"}},
      // Resource watermark crossings (obs/resource.hpp): level is "high"
      // on the way up, "normal" once usage falls back under the low mark.
      {"resource_watermark", {"resource", "level", "bytes", "threshold"}},
      {"service_stop", {"drain"}},
  };
  return kSchema;
}

/// Solver/optimizer-side event types: inside a service run every one of
/// them is emitted on behalf of some request and must carry "req".
bool solver_side(const std::string& type) {
  static const std::set<std::string> kTypes = {
      "solve",     "interval",       "optimum",       "solver_restart",
      "solver_gc", "inprocess_pass", "search_sample", "perf_counters"};
  return kTypes.count(type) > 0;
}

/// One event embedded in a flight_dump's "events" array. Flight records
/// share the trace vocabulary but are numeric-only, so `search_sample`
/// lacks the "final" boolean; everything else matches the schema map.
bool check_embedded_event(int line_no, std::size_t idx, const JsonValue& ev) {
  const auto fail_at = [line_no, idx](const std::string& why) {
    std::fprintf(stderr,
                 "trace_schema_check: line %d: flight_dump event %zu: %s\n",
                 line_no, idx, why.c_str());
    return false;
  };
  if (!ev.is_object()) return fail_at("not a JSON object");
  const auto type = ev.get_string("type");
  if (!type) return fail_at("missing \"type\"");
  const auto ts = ev.get_number("ts");
  if (!ts || *ts < 0.0) return fail_at("missing/negative \"ts\"");
  if (!ev.get_number("tid")) return fail_at("missing \"tid\"");
  const auto& schema = required_fields();
  const auto it = schema.find(*type);
  if (it == schema.end()) return true;
  for (const char* field : it->second) {
    if (*type == "search_sample" && std::string(field) == "final") continue;
    if (!ev.get(field)) {
      return fail_at("event \"" + *type + "\" missing \"" + field + "\"");
    }
  }
  return true;
}

/// Cross-line state threaded through the whole trace.
struct TraceState {
  std::map<std::string, int> census;
  /// (req, span) pairs with an open span_begin (span ids are process-
  /// unique, so a pair can only be opened once).
  std::set<std::pair<std::uint64_t, std::uint64_t>> open_spans;
  int span_errors = 0;
  int solver_events_without_req = 0;
  int first_unattributed_line = 0;
};

bool fail(int line, const std::string& why) {
  std::fprintf(stderr, "trace_schema_check: line %d: %s\n", line,
               why.c_str());
  return false;
}

bool check_line(int line_no, const std::string& line, TraceState& state) {
  const auto parsed = optalloc::obs::json_parse(line);
  if (!parsed) return fail(line_no, "not valid JSON");
  if (!parsed->is_object()) return fail(line_no, "not a JSON object");
  const auto type = parsed->get_string("type");
  if (!type) return fail(line_no, "missing \"type\"");
  const auto ts = parsed->get_number("ts");
  if (!ts || *ts < 0.0) return fail(line_no, "missing/negative \"ts\"");
  if (!parsed->get_number("tid")) return fail(line_no, "missing \"tid\"");

  const auto& schema = required_fields();
  const auto it = schema.find(*type);
  if (it != schema.end()) {
    for (const char* field : it->second) {
      if (!parsed->get(field)) {
        return fail(line_no, "event \"" + *type + "\" missing \"" + field +
                                 "\"");
      }
    }
  }
  ++state.census[*type];

  if (*type == "flight_dump") {
    // The embedded ring contents must themselves be schema-valid events
    // (they are what a post-mortem consumer reads), and "count" must match.
    // They are validated but not folded into the census/span state: a
    // flight dump replays history the outer trace already accounts for.
    const JsonValue* events = parsed->get("events");
    if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
      return fail(line_no, "flight_dump \"events\" is not an array");
    }
    const auto count = parsed->get_number("count");
    if (!count || *count != static_cast<double>(events->array.size())) {
      return fail(line_no, "flight_dump \"count\" (" +
                               std::to_string(static_cast<long long>(
                                   count.value_or(-1.0))) +
                               ") != events length (" +
                               std::to_string(events->array.size()) + ")");
    }
    for (std::size_t i = 0; i < events->array.size(); ++i) {
      if (!check_embedded_event(line_no, i, events->array[i])) return false;
    }
  }

  const std::uint64_t req =
      static_cast<std::uint64_t>(parsed->get_number("req").value_or(0.0));
  if (*type == "span_begin" || *type == "span_end") {
    const auto key = std::make_pair(
        req,
        static_cast<std::uint64_t>(parsed->get_number("span").value_or(0.0)));
    if (*type == "span_begin") {
      if (!state.open_spans.insert(key).second) {
        ++state.span_errors;
        return fail(line_no, "duplicate span_begin for span " +
                                 std::to_string(key.second));
      }
    } else if (state.open_spans.erase(key) == 0) {
      ++state.span_errors;
      return fail(line_no,
                  "span_end without a matching span_begin (req " +
                      std::to_string(key.first) + ", span " +
                      std::to_string(key.second) + ")");
    }
  }
  if (req == 0 && solver_side(*type) &&
      state.solver_events_without_req++ == 0) {
    state.first_unattributed_line = line_no;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <trace.jsonl>\n", argv[0]);
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "trace_schema_check: cannot open %s\n", argv[1]);
    return 2;
  }
  TraceState state;
  std::map<std::string, int>& census = state.census;
  std::string line;
  int line_no = 0;
  bool ok = true;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    ok = check_line(line_no, line, state) && ok;
  }
  if (line_no == 0) {
    std::fprintf(stderr, "trace_schema_check: %s is empty\n", argv[1]);
    return 1;
  }
  for (const auto& [type, count] : census) {
    std::printf("%-16s %d\n", type.c_str(), count);
  }
  if (state.span_errors > 0) ok = false;
  // Service traces interleave many optimizer runs (and may contain none
  // at all when every request was a cache hit), so the single-run census
  // invariants below don't apply. Their own invariant: every request that
  // was received either finished or is still in flight — never more
  // completions than receipts — and a non-empty service trace must have
  // completed something. A trace holding only session traffic (the
  // revise verb) is a service trace too.
  if (census["request_received"] > 0 || census["session_open"] > 0) {
    if (census["request_received"] > 0 && census["request_done"] < 1) {
      std::fprintf(stderr,
                   "trace_schema_check: service trace without any "
                   "\"request_done\"\n");
      ok = false;
    }
    if (census["request_done"] > census["request_received"]) {
      std::fprintf(stderr,
                   "trace_schema_check: %d \"request_done\" for %d "
                   "\"request_received\"\n",
                   census["request_done"], census["request_received"]);
      ok = false;
    }
    if (census["cache_hit"] > census["request_received"]) {
      std::fprintf(stderr,
                   "trace_schema_check: more \"cache_hit\" than requests\n");
      ok = false;
    }
    // Sessions: the opening solve emits a "revise" event (edits=0), so a
    // trace can never hold more opens than solves; closes and cores are
    // bounded by their opens/solves.
    if (census["revise"] < census["session_open"]) {
      std::fprintf(stderr,
                   "trace_schema_check: %d \"revise\" for %d "
                   "\"session_open\" (the opening solve must emit one)\n",
                   census["revise"], census["session_open"]);
      ok = false;
    }
    if (census["session_close"] > census["session_open"]) {
      std::fprintf(stderr,
                   "trace_schema_check: more \"session_close\" than "
                   "\"session_open\"\n");
      ok = false;
    }
    if (census["unsat_core"] > census["revise"]) {
      std::fprintf(stderr,
                   "trace_schema_check: more \"unsat_core\" than "
                   "\"revise\"\n");
      ok = false;
    }
    if (census["revise"] > 0 && census["session_open"] == 0) {
      std::fprintf(stderr,
                   "trace_schema_check: \"revise\" without any "
                   "\"session_open\"\n");
      ok = false;
    }
    // A drained service trace must have closed every span it opened, and
    // every solver-side event must have been attributed to a request.
    if (!state.open_spans.empty()) {
      std::fprintf(stderr,
                   "trace_schema_check: %zu span_begin without span_end\n",
                   state.open_spans.size());
      ok = false;
    }
    if (state.solver_events_without_req > 0) {
      std::fprintf(stderr,
                   "trace_schema_check: %d solver events without \"req\" in "
                   "a service trace (first at line %d)\n",
                   state.solver_events_without_req,
                   state.first_unattributed_line);
      ok = false;
    }
    return ok ? 0 : 1;
  }
  // An optimizer run must have produced solves and exactly one verdict.
  if (census["solve"] < 1) {
    std::fprintf(stderr, "trace_schema_check: no \"solve\" events\n");
    ok = false;
  }
  if (census["optimum"] != 1) {
    std::fprintf(stderr,
                 "trace_schema_check: saw %d \"optimum\" events for one "
                 "optimizer run\n",
                 census["optimum"]);
    ok = false;
  }
  return ok ? 0 : 1;
}
