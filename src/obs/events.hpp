#pragma once
// The event vocabulary of obs/events.def as types, and obs::Event, the one
// way to emit an event:
//
//   obs::Event(obs::ev::search_sample).num("conflicts", c).num("trail", t);
//
// An Event reaches the JSONL trace when tracing is on, and the calling
// thread's flight-recorder ring when its kind is a ring kind and flight
// recording is on. Its constructor takes a declared kind only, so an
// undeclared kind does not compile. With tracing off it allocates nothing
// and builds no JSON.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace optalloc::obs {

enum class EventKind : std::uint8_t {
#define OBS_EVENT(name, scope, ring, fields, doc) name,
#include "obs/events.def"
#undef OBS_EVENT
};

/// The kinds as emit sites spell them: `obs::ev::solve`.
namespace ev {
using enum EventKind;
}

/// One row of the table, minus its doc column.
struct EventInfo {
  const char* name;         ///< the "type" field (static storage)
  bool solver_side;         ///< must carry "req" in a service trace
  bool ring;                ///< kept by the flight recorder
  std::string_view fields;  ///< required fields, space-separated
};

inline constexpr EventInfo kEvents[] = {
#define OBS_EVENT(name, scope, ring, fields, doc) \
  {#name, std::string_view(#scope) == "solver",   \
   std::string_view(#ring) == "ring", fields},
#include "obs/events.def"
#undef OBS_EVENT
};

constexpr const EventInfo& event_info(EventKind kind) {
  return kEvents[static_cast<std::size_t>(kind)];
}

// kFlightFields is the width of the widest ring kind.
static_assert([] {
  for (const EventInfo& e : kEvents) {
    const auto n = 1 + std::count(e.fields.begin(), e.fields.end(), ' ');
    if (e.ring && n > kFlightFields) return false;
  }
  return true;
}());

/// One event under construction; the destructor emits it. num, boolean
/// and choice fields reach the trace and the ring, str and raw fields the
/// trace only. Their keys must be string literals (the ring keeps the
/// pointer); ring fields beyond kFlightFields are dropped.
class Event {
 public:
  explicit Event(EventKind kind) : Event(kind, current_context()) {}
  /// With an explicit request context instead of the thread's.
  Event(EventKind kind, const SpanContext& ctx);
  ~Event();
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  Event& num(const char* key, std::int64_t value) {
    if (trace_) trace_->num(key, value);
    return note(key, static_cast<double>(value));
  }
  Event& num(const char* key, double value) {
    if (trace_) trace_->num(key, value);
    return note(key, value);
  }
  Event& num(const char* key, int value) {
    return num(key, static_cast<std::int64_t>(value));
  }
  Event& num(const char* key, std::uint64_t value) {
    return num(key, static_cast<std::int64_t>(value));
  }
  /// A JSON boolean in the trace, 0/1 in the ring.
  Event& boolean(const char* key, bool value) {
    if (trace_) trace_->boolean(key, value);
    return note(key, value ? 1.0 : 0.0);
  }
  /// A small enumerated value: its `name` in the trace, its `code` in the
  /// ring (solve's result: "sat"/"unsat"/"undef" and 1/0/-1).
  Event& choice(const char* key, std::string_view name, int code) {
    if (trace_) trace_->str(key, name);
    return note(key, static_cast<double>(code));
  }
  Event& str(std::string_view key, std::string_view value) {
    if (trace_) trace_->str(key, value);
    return *this;
  }
  /// Embed pre-rendered JSON (e.g. a metrics snapshot) verbatim.
  Event& raw(std::string_view key, std::string_view json) {
    if (trace_) trace_->raw(key, json);
    return *this;
  }

 private:
  Event& note(const char* key, double value) {
    if (ring_ && n_ < kFlightFields) {
      keys_[n_] = key;
      values_[n_++] = value;
    }
    return *this;
  }

  std::optional<JsonObject> trace_;  ///< engaged iff tracing was on
  const char* type_;
  std::uint64_t req_;
  bool ring_;  ///< a ring kind, with flight recording on
  int n_ = 0;
  const char* keys_[kFlightFields] = {};
  double values_[kFlightFields] = {};
};

}  // namespace optalloc::obs
