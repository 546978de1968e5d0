// Standalone JSONL trace validator, used by the `smoke_allocate_trace`
// and `svc_smoke` ctest targets (and handy manually:
// `trace_schema_check run.jsonl`). Checks that every line is a JSON
// object carrying the standard fields, that its type is declared in
// src/obs/events.def and carries the fields the table requires, that
// every span_end matches a span_begin with the same req+span, that every
// "flight_dump" post-mortem embeds schema-valid events with a matching
// "count", and — in service traces — that every event the table marks
// solver-side carries a "req" correlation field; prints a per-type event
// census on success.
//
// Exit status: 0 = valid, 1 = schema violation, 2 = usage/IO error.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "obs/events.hpp"
#include "obs/json.hpp"

namespace {

using optalloc::obs::JsonValue;

/// The declared kind named `type` (obs/events.def), or nullptr.
const optalloc::obs::EventInfo* declared(const std::string& type) {
  for (const auto& info : optalloc::obs::kEvents) {
    if (type == info.name) return &info;
  }
  return nullptr;
}

/// The first required field of `info` that `ev` lacks, or "" if none.
std::string missing_field(const optalloc::obs::EventInfo& info,
                          const JsonValue& ev) {
  std::istringstream fields{std::string(info.fields)};
  std::string field;
  while (fields >> field) {
    if (!ev.get(field)) return field;
  }
  return "";
}

/// Standard fields, a declared type and its required fields. Returns the
/// violation, or "" when `ev` is a valid event.
std::string check_event(const JsonValue& ev) {
  if (!ev.is_object()) return "not a JSON object";
  const auto type = ev.get_string("type");
  if (!type) return "missing \"type\"";
  const auto ts = ev.get_number("ts");
  if (!ts || *ts < 0.0) return "missing/negative \"ts\"";
  if (!ev.get_number("tid")) return "missing \"tid\"";
  const auto* info = declared(*type);
  if (info == nullptr) {
    return "event type \"" + *type + "\" is not declared in events.def";
  }
  if (const std::string field = missing_field(*info, ev); !field.empty()) {
    return "event \"" + *type + "\" missing \"" + field + "\"";
  }
  return "";
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
  if (const std::string why = check_event(*parsed); !why.empty()) {
    return fail(line_no, why);
  }
  const auto type = parsed->get_string("type");
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
      if (const std::string why = check_event(events->array[i]);
          !why.empty()) {
        return fail(line_no,
                    "flight_dump event " + std::to_string(i) + ": " + why);
      }
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
  if (req == 0 && declared(*type)->solver_side &&
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
