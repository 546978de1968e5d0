#include "svc/protocol.hpp"

#include <cmath>
#include <utility>

#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

namespace optalloc::svc {

namespace {

bool get_bool(const obs::JsonValue& v, std::string_view key, bool dflt) {
  const obs::JsonValue* m = v.get(key);
  if (m == nullptr || m->kind != obs::JsonValue::Kind::kBool) return dflt;
  return m->b;
}

/// Range-check a numeric field before anything casts it (JSON admits
/// 1e300, and an overflowing literal parses as infinity). False when the
/// field is present but non-finite or above `max`.
bool read_number(const obs::JsonValue& doc, std::string_view key,
                 double max, std::optional<double>& out) {
  out = doc.get_number(key);
  return !out || (std::isfinite(*out) && *out <= max);
}

/// The budget fields of submit, session_open and revise.
bool read_budget(const obs::JsonValue& doc, Request& req) {
  std::optional<double> deadline;
  std::optional<double> conflicts;
  if (!read_number(doc, "deadline_ms", kMaxDeadlineMs, deadline) ||
      !read_number(doc, "conflicts", kMaxConflicts, conflicts)) {
    return false;
  }
  if (deadline) req.deadline_ms = *deadline > 0 ? *deadline : 0.0;
  if (conflicts) {
    req.conflicts = static_cast<std::int64_t>(*conflicts > 0 ? *conflicts : 0);
  }
  return true;
}

constexpr const char* kBadNumber =
    "deadline_ms and conflicts must be finite and in range";

}  // namespace

std::optional<Request> parse_request(const std::string& line,
                                     std::string* error,
                                     std::string* code) {
  const auto fail = [&](const std::string& m, const char* c) {
    if (error != nullptr) *error = m;
    if (code != nullptr) *code = c;
    return std::nullopt;
  };
  const auto doc = obs::json_parse(line);
  if (!doc || !doc->is_object()) {
    return fail("malformed JSON request", "bad_json");
  }
  const auto verb = doc->get_string("verb");
  if (!verb) {
    return fail("missing \"verb\"", "bad_request");
  }
  Request req;
  if (*verb == "submit") {
    req.verb = Request::Verb::kSubmit;
    const auto problem = doc->get_string("problem");
    if (!problem || problem->empty()) {
      return fail("submit requires a \"problem\" string", "bad_request");
    }
    req.problem_text = *problem;
    if (const auto obj = doc->get_string("objective")) req.objective = *obj;
    if (!read_budget(*doc, req)) return fail(kBadNumber, "bad_request");
    if (const auto threads = doc->get_number("threads");
        threads && *threads != 1.0) {
      return fail("threads must be 1: each request is solved on one "
                  "thread; the service's worker count sets how many run in "
                  "parallel",
                  "bad_request");
    }
    req.wait = get_bool(*doc, "wait", false);
    return req;
  }
  if (*verb == "status" || *verb == "cancel" || *verb == "result" ||
      *verb == "inspect") {
    req.verb = *verb == "status"   ? Request::Verb::kStatus
               : *verb == "cancel" ? Request::Verb::kCancel
               : *verb == "result" ? Request::Verb::kResult
                                   : Request::Verb::kInspect;
    const auto id = doc->get_string("id");
    if (!id || id->empty()) {
      return fail(*verb + " requires an \"id\"", "bad_request");
    }
    req.id = *id;
    return req;
  }
  if (*verb == "dump") {
    req.verb = Request::Verb::kDump;
    if (const auto id = doc->get_string("id")) req.id = *id;
    return req;
  }
  if (*verb == "stats") {
    req.verb = Request::Verb::kStats;
    return req;
  }
  if (*verb == "metrics") {
    req.verb = Request::Verb::kMetrics;
    return req;
  }
  if (*verb == "query") {
    req.verb = Request::Verb::kQuery;
    if (const auto metric = doc->get_string("metric")) req.metric = *metric;
    if (const auto w = doc->get_number("last_s")) {
      req.last_s = *w > 0 ? *w : 0.0;
    }
    if (const auto m = doc->get_number("max_samples")) {
      req.max_samples = static_cast<std::int64_t>(*m > 0 ? *m : 0);
    }
    return req;
  }
  if (*verb == "session_open") {
    req.verb = Request::Verb::kSessionOpen;
    const auto problem = doc->get_string("problem");
    if (!problem || problem->empty()) {
      return fail("session_open requires a \"problem\" string",
                  "bad_request");
    }
    req.problem_text = *problem;
    if (const auto obj = doc->get_string("objective")) req.objective = *obj;
    if (!read_budget(*doc, req)) return fail(kBadNumber, "bad_request");
    return req;
  }
  if (*verb == "revise" || *verb == "session_close") {
    req.verb = *verb == "revise" ? Request::Verb::kRevise
                                 : Request::Verb::kSessionClose;
    const auto session = doc->get_string("session");
    if (!session || session->empty()) {
      return fail(*verb + " requires a \"session\" id", "bad_request");
    }
    req.session = *session;
    if (req.verb == Request::Verb::kRevise) {
      const obs::JsonValue* edits = doc->get("edits");
      if (edits == nullptr) {
        return fail("revise requires an \"edits\" array", "bad_request");
      }
      std::string patch_error;
      auto patch = inc::parse_patch(*edits, &patch_error);
      if (!patch) return fail(patch_error, "bad_patch");
      req.patch = std::move(*patch);
      if (!read_budget(*doc, req)) return fail(kBadNumber, "bad_request");
    }
    return req;
  }
  if (*verb == "shutdown") {
    req.verb = Request::Verb::kShutdown;
    req.drain = get_bool(*doc, "drain", true);
    return req;
  }
  return fail("unknown verb \"" + *verb + "\"", "unknown_verb");
}

std::string error_line(const std::string& message, const std::string& code) {
  return obs::JsonObject()
      .boolean("ok", false)
      .str("error", message)
      .str("code", code)
      .build();
}

std::string submit_ack_line(const std::string& id) {
  return obs::JsonObject().boolean("ok", true).str("id", id).build();
}

std::string snapshot_line(const JobSnapshot& snapshot) {
  obs::JsonObject o;
  o.boolean("ok", true)
      .str("id", snapshot.id)
      .str("state", job_state_name(snapshot.state));
  if (snapshot.state != JobState::kDone &&
      snapshot.state != JobState::kCancelled) {
    return o.build();
  }
  const JobAnswer& a = snapshot.answer;
  o.str("status", a.status)
      .boolean("proven_optimal", a.proven_optimal)
      .boolean("deadline_expired", a.deadline_expired)
      .boolean("cached", a.cached)
      .num("cost", a.cost)
      .num("lower_bound", a.lower_bound)
      .num("sat_calls", static_cast<std::int64_t>(a.sat_calls))
      .num("queue_ms", a.queue_seconds * 1000.0)
      .num("solve_ms", a.solve_seconds * 1000.0)
      .num("total_ms", a.total_seconds * 1000.0);
  if (a.has_allocation) {
    obs::JsonArray ecus;
    for (const int e : a.allocation.task_ecu) {
      ecus.push(std::to_string(e));
    }
    o.raw("task_ecu", ecus.build());
  }
  return o.build();
}

std::string stats_line(const ServiceStats& stats) {
  return obs::JsonObject()
      .boolean("ok", true)
      .num("submitted", static_cast<std::int64_t>(stats.submitted))
      .num("completed", static_cast<std::int64_t>(stats.completed))
      .num("cancelled", static_cast<std::int64_t>(stats.cancelled))
      .num("rejected", static_cast<std::int64_t>(stats.rejected))
      .num("deadline_expired",
           static_cast<std::int64_t>(stats.deadline_expired))
      .num("queue_depth", static_cast<std::int64_t>(stats.queue_depth))
      .num("workers", static_cast<std::int64_t>(stats.workers))
      .num("uptime_s", stats.uptime_s)
      .num("start_time_unix_ms", stats.start_time_unix_ms)
      .num("sessions_opened", static_cast<std::int64_t>(stats.sessions_opened))
      .num("sessions_closed", static_cast<std::int64_t>(stats.sessions_closed))
      .num("revises", static_cast<std::int64_t>(stats.revises))
      .num("active_sessions",
           static_cast<std::int64_t>(stats.active_sessions))
      .num("cache_hits", static_cast<std::int64_t>(stats.cache.hits))
      .num("cache_misses", static_cast<std::int64_t>(stats.cache.misses))
      .num("cache_insertions",
           static_cast<std::int64_t>(stats.cache.insertions))
      .num("cache_evictions",
           static_cast<std::int64_t>(stats.cache.evictions))
      .num("p50_ms", stats.p50_ms)
      .num("p95_ms", stats.p95_ms)
      .num("p99_ms", stats.p99_ms)
      .num("max_ms", stats.max_ms)
      .build();
}

std::string metrics_line() {
  return obs::JsonObject()
      .boolean("ok", true)
      .raw("metrics", obs::metrics_full_json())
      .build();
}

std::string query_line(const Request& request) {
  if (request.metric.empty()) {
    // Catalogue mode: one summary row per series.
    obs::JsonArray series;
    std::size_t n = 0;
    for (const obs::SeriesInfo& info : obs::timeseries_list()) {
      series.push(obs::JsonObject()
                      .str("metric", info.name)
                      .num("count", static_cast<std::int64_t>(info.count))
                      .num("last_unix_ms", info.last_unix_ms)
                      .num("last", info.last)
                      .build());
      ++n;
    }
    return obs::JsonObject()
        .boolean("ok", true)
        .num("count", static_cast<std::int64_t>(n))
        .raw("series", series.build())
        .build();
  }
  const std::vector<obs::TimeSample> samples = obs::timeseries_query(
      request.metric, request.last_s,
      request.max_samples > 0 ? static_cast<std::size_t>(request.max_samples)
                              : 0);
  obs::JsonArray rows;
  for (const obs::TimeSample& s : samples) {
    obs::JsonArray pair;
    pair.push(std::to_string(s.unix_ms));
    pair.push(obs::json_number(s.value));
    rows.push(pair.build());
  }
  return obs::JsonObject()
      .boolean("ok", true)
      .str("metric", request.metric)
      .num("count", static_cast<std::int64_t>(samples.size()))
      .raw("samples", rows.build())
      .build();
}

std::string inspect_line(const JobInspect& inspect) {
  obs::JsonObject o;
  o.boolean("ok", true)
      .str("id", inspect.id)
      .str("state", job_state_name(inspect.state))
      .str("phase", job_phase_name(inspect.phase))
      .num("elapsed_ms", inspect.elapsed_s * 1000.0)
      .num("deadline_ms", inspect.deadline_s * 1000.0)
      .num("lower", inspect.lower)
      .num("upper", inspect.upper)
      .num("sat_calls", inspect.sat_calls)
      .num("conflicts", inspect.conflicts)
      .num("req", static_cast<std::int64_t>(inspect.req));
  if (inspect.state == JobState::kDone ||
      inspect.state == JobState::kCancelled) {
    o.str("status", inspect.answer.status)
        .boolean("proven_optimal", inspect.answer.proven_optimal)
        .boolean("deadline_expired", inspect.answer.deadline_expired)
        .num("cost", inspect.answer.cost)
        .num("lower_bound", inspect.answer.lower_bound);
  }
  return o.build();
}

std::string dump_line(std::uint64_t req) {
  std::size_t count = 0;
  const std::string events = obs::flight_dump_events(req, &count);
  return obs::JsonObject()
      .boolean("ok", true)
      .num("count", static_cast<std::int64_t>(count))
      .raw("events", events)
      .build();
}

std::string session_line(const std::string& session,
                         const SessionAnswer& a) {
  obs::JsonObject o;
  o.boolean("ok", true)
      .str("session", session)
      .str("status", a.status)
      .boolean("proven_optimal", a.proven_optimal)
      .boolean("cache_stored", a.cache_stored)
      .num("cost", a.cost)
      .num("lower_bound", a.lower_bound)
      .num("sat_calls", static_cast<std::int64_t>(a.sat_calls))
      .num("solve_ms", a.solve_seconds * 1000.0)
      .num("groups_added", static_cast<std::int64_t>(a.groups_added))
      .num("groups_retired", static_cast<std::int64_t>(a.groups_retired))
      .num("groups_unchanged",
           static_cast<std::int64_t>(a.groups_unchanged))
      .num("clauses_added", a.clauses_added);
  if (!a.error.empty()) o.str("error", a.error);
  if (a.has_allocation) {
    obs::JsonArray ecus;
    for (const int e : a.allocation.task_ecu) {
      ecus.push(std::to_string(e));
    }
    o.raw("task_ecu", ecus.build());
  }
  if (!a.core.empty()) {
    obs::JsonArray core;
    for (const std::string& name : a.core) {
      core.push("\"" + obs::json_escape(name) + "\"");
    }
    o.raw("unsat_core", core.build());
  }
  return o.build();
}

std::string session_close_line(const std::string& session) {
  return obs::JsonObject()
      .boolean("ok", true)
      .str("session", session)
      .boolean("closed", true)
      .build();
}

std::string shutdown_ack_line(bool drain) {
  return obs::JsonObject()
      .boolean("ok", true)
      .boolean("draining", drain)
      .build();
}

}  // namespace optalloc::svc
