#include "inc/patch.hpp"

#include <algorithm>
#include <climits>
#include <cmath>

namespace optalloc::inc {

namespace {

using obs::JsonValue;

/// Largest magnitude a patch's time/size/memory number may have: every
/// integer up to 2^53 is exact in a double, and no real value nears it.
constexpr double kMaxMagnitude = 9007199254740992.0;
/// Largest ECU or message index a patch may name.
constexpr double kMaxIndex = INT_MAX;

int find_task(const alloc::Problem& problem, const std::string& name) {
  const auto& tasks = problem.tasks.tasks;
  for (int i = 0; i < static_cast<int>(tasks.size()); ++i) {
    if (tasks[static_cast<std::size_t>(i)].name == name) return i;
  }
  return -1;
}

std::optional<std::string> fail(const PatchOp& op, const std::string& why) {
  return op.describe() + ": " + why;
}

}  // namespace

std::string PatchOp::describe() const {
  switch (kind) {
    case Kind::kSetWcet:
      return "set_wcet " + task + "@" + std::to_string(ecu) + "=" +
             std::to_string(value);
    case Kind::kSetDeadline:
      return "set_deadline " + task + "=" + std::to_string(value);
    case Kind::kSetPeriod:
      return "set_period " + task + "=" + std::to_string(value);
    case Kind::kSetJitter:
      return "set_jitter " + task + "=" + std::to_string(value);
    case Kind::kSetMemory:
      return "set_memory " + task + "=" + std::to_string(value);
    case Kind::kAddTask: return "add_task " + task;
    case Kind::kRemoveTask: return "remove_task " + task;
    case Kind::kSetMessageDeadline:
      return "set_message_deadline " + task + "[" + std::to_string(index) +
             "]=" + std::to_string(value);
    case Kind::kSetMessageSize:
      return "set_message_size " + task + "[" + std::to_string(index) +
             "]=" + std::to_string(value);
    case Kind::kAddMessage:
      return "add_message " + task + " -> " + target;
    case Kind::kRemoveMessage:
      return "remove_message " + task + "[" + std::to_string(index) + "]";
    case Kind::kSeparate: return "separate " + task + " " + target;
    case Kind::kUnseparate: return "unseparate " + task + " " + target;
  }
  return "?";
}

std::optional<InstancePatch> parse_patch(const JsonValue& edits,
                                         std::string* error) {
  const auto fail_parse = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  if (edits.kind != JsonValue::Kind::kArray) {
    return fail_parse("\"edits\" must be a JSON array");
  }
  InstancePatch patch;
  for (std::size_t i = 0; i < edits.array.size(); ++i) {
    const JsonValue& e = edits.array[i];
    const std::string at = "edit " + std::to_string(i) + ": ";
    if (!e.is_object()) return fail_parse(at + "not a JSON object");
    const auto op_name = e.get_string("op");
    if (!op_name) return fail_parse(at + "missing \"op\"");

    PatchOp op;
    // Numbers arrive as doubles; one beyond `limit` (or NaN) is rejected
    // rather than cast, since that conversion is undefined.
    bool out_of_range = false;
    const auto whole = [&out_of_range](double v, double limit) {
      if (!(std::fabs(v) <= limit)) out_of_range = true;
      return out_of_range ? 0 : static_cast<std::int64_t>(v);
    };
    const auto num = [&](const char* key, double limit = kMaxMagnitude)
        -> std::optional<std::int64_t> {
      const auto v = e.get_number(key);
      if (!v) return std::nullopt;
      return whole(*v, limit);
    };
    // Common addressing fields; per-op requirements checked below.
    if (const auto t = e.get_string("task")) op.task = *t;
    if (const auto t = e.get_string("target")) op.target = *t;
    if (const auto v = num("ecu", kMaxIndex)) op.ecu = static_cast<int>(*v);
    if (const auto v = num("index", kMaxIndex)) {
      op.index = static_cast<int>(*v);
    }
    if (const auto v = num("jitter")) op.jitter = *v;
    if (const auto v = num("memory")) op.memory = *v;

    if (op.task.empty()) return fail_parse(at + "missing \"task\"");
    if (*op_name == "set_wcet") {
      op.kind = PatchOp::Kind::kSetWcet;
      const auto v = num("wcet");
      if (op.ecu < 0 || !v) return fail_parse(at + "needs \"ecu\", \"wcet\"");
      op.value = *v;
    } else if (*op_name == "set_deadline") {
      op.kind = PatchOp::Kind::kSetDeadline;
      const auto v = num("deadline");
      if (!v) return fail_parse(at + "needs \"deadline\"");
      op.value = *v;
    } else if (*op_name == "set_period") {
      op.kind = PatchOp::Kind::kSetPeriod;
      const auto v = num("period");
      if (!v) return fail_parse(at + "needs \"period\"");
      op.value = *v;
    } else if (*op_name == "set_jitter") {
      op.kind = PatchOp::Kind::kSetJitter;
      const auto v = num("jitter");
      if (!v) return fail_parse(at + "needs \"jitter\"");
      op.value = *v;
    } else if (*op_name == "set_memory") {
      op.kind = PatchOp::Kind::kSetMemory;
      const auto v = num("memory");
      if (!v) return fail_parse(at + "needs \"memory\"");
      op.value = *v;
    } else if (*op_name == "add_task") {
      op.kind = PatchOp::Kind::kAddTask;
      const auto period = num("period");
      const auto deadline = num("deadline");
      const JsonValue* wcet = e.get("wcet");
      if (!period || !deadline || wcet == nullptr ||
          wcet->kind != JsonValue::Kind::kArray) {
        return fail_parse(at +
                          "needs \"period\", \"deadline\", \"wcet\" array");
      }
      op.value = *period;
      op.value2 = *deadline;
      for (const JsonValue& w : wcet->array) {
        if (!w.is_number()) return fail_parse(at + "non-numeric wcet entry");
        op.wcet.push_back(whole(w.number, kMaxMagnitude));
      }
    } else if (*op_name == "remove_task") {
      op.kind = PatchOp::Kind::kRemoveTask;
    } else if (*op_name == "set_message_deadline") {
      op.kind = PatchOp::Kind::kSetMessageDeadline;
      const auto v = num("deadline");
      if (op.index < 0 || !v) {
        return fail_parse(at + "needs \"index\", \"deadline\"");
      }
      op.value = *v;
    } else if (*op_name == "set_message_size") {
      op.kind = PatchOp::Kind::kSetMessageSize;
      const auto v = num("bytes");
      if (op.index < 0 || !v) {
        return fail_parse(at + "needs \"index\", \"bytes\"");
      }
      op.value = *v;
    } else if (*op_name == "add_message") {
      op.kind = PatchOp::Kind::kAddMessage;
      const auto bytes = num("bytes");
      const auto deadline = num("deadline");
      if (op.target.empty() || !bytes || !deadline) {
        return fail_parse(at + "needs \"target\", \"bytes\", \"deadline\"");
      }
      op.value = *bytes;
      op.value2 = *deadline;
    } else if (*op_name == "remove_message") {
      op.kind = PatchOp::Kind::kRemoveMessage;
      if (op.index < 0) return fail_parse(at + "needs \"index\"");
    } else if (*op_name == "separate" || *op_name == "unseparate") {
      op.kind = *op_name == "separate" ? PatchOp::Kind::kSeparate
                                       : PatchOp::Kind::kUnseparate;
      if (op.target.empty()) return fail_parse(at + "needs \"target\"");
    } else {
      return fail_parse(at + "unknown op \"" + *op_name + "\"");
    }
    if (out_of_range) return fail_parse(at + "number out of range");
    patch.ops.push_back(std::move(op));
  }
  return patch;
}

std::optional<std::string> apply_patch(const InstancePatch& patch,
                                       alloc::Problem& problem) {
  auto& tasks = problem.tasks.tasks;
  for (const PatchOp& op : patch.ops) {
    const int ti = find_task(problem, op.task);
    if (op.kind == PatchOp::Kind::kAddTask) {
      if (ti >= 0) return fail(op, "task already exists");
      if (static_cast<int>(op.wcet.size()) != problem.arch.num_ecus) {
        return fail(op, "wcet array must have one entry per ECU");
      }
      if (op.value <= 0 || op.value2 <= 0 || op.value2 > op.value) {
        return fail(op, "need period > 0 and 0 < deadline <= period");
      }
      rt::Task t;
      t.name = op.task;
      t.period = op.value;
      t.deadline = op.value2;
      t.release_jitter = op.jitter;
      t.memory = op.memory;
      t.wcet.assign(op.wcet.begin(), op.wcet.end());
      tasks.push_back(std::move(t));
      continue;
    }
    if (ti < 0) return fail(op, "unknown task");
    rt::Task& t = tasks[static_cast<std::size_t>(ti)];
    switch (op.kind) {
      case PatchOp::Kind::kSetWcet:
        if (op.ecu >= problem.arch.num_ecus) return fail(op, "bad ecu");
        if (op.value != rt::kForbidden && op.value <= 0) {
          return fail(op, "wcet must be positive or -1 (forbidden)");
        }
        t.wcet[static_cast<std::size_t>(op.ecu)] = op.value;
        break;
      case PatchOp::Kind::kSetDeadline:
        if (op.value <= 0 || op.value > t.period) {
          return fail(op, "need 0 < deadline <= period");
        }
        t.deadline = op.value;
        break;
      case PatchOp::Kind::kSetPeriod:
        if (op.value < t.deadline) return fail(op, "period < deadline");
        t.period = op.value;
        break;
      case PatchOp::Kind::kSetJitter:
        if (op.value < 0) return fail(op, "negative jitter");
        t.release_jitter = op.value;
        break;
      case PatchOp::Kind::kSetMemory:
        if (op.value < 0) return fail(op, "negative memory");
        t.memory = op.value;
        break;
      case PatchOp::Kind::kRemoveTask: {
        // Drop the task, then re-index every cross-reference: separation
        // sets and message targets hold task indices. Messages *to* the
        // removed task go with it.
        tasks.erase(tasks.begin() + ti);
        for (rt::Task& u : tasks) {
          std::erase(u.separated_from, ti);
          for (int& s : u.separated_from) {
            if (s > ti) --s;
          }
          std::erase_if(u.messages, [ti](const rt::Message& m) {
            return m.target_task == ti;
          });
          for (rt::Message& m : u.messages) {
            if (m.target_task > ti) --m.target_task;
          }
        }
        break;
      }
      case PatchOp::Kind::kSetMessageDeadline:
      case PatchOp::Kind::kSetMessageSize: {
        if (op.index >= static_cast<int>(t.messages.size())) {
          return fail(op, "bad message index");
        }
        if (op.value <= 0) return fail(op, "value must be positive");
        rt::Message& m = t.messages[static_cast<std::size_t>(op.index)];
        if (op.kind == PatchOp::Kind::kSetMessageDeadline) {
          m.deadline = op.value;
        } else {
          m.size_bytes = op.value;
        }
        break;
      }
      case PatchOp::Kind::kAddMessage: {
        const int target = find_task(problem, op.target);
        if (target < 0) return fail(op, "unknown target task");
        if (target == ti) return fail(op, "message to itself");
        if (op.value <= 0 || op.value2 <= 0) {
          return fail(op, "need bytes > 0 and deadline > 0");
        }
        rt::Message m;
        m.target_task = target;
        m.size_bytes = op.value;
        m.deadline = op.value2;
        m.release_jitter = op.jitter;
        t.messages.push_back(m);
        break;
      }
      case PatchOp::Kind::kRemoveMessage:
        if (op.index >= static_cast<int>(t.messages.size())) {
          return fail(op, "bad message index");
        }
        t.messages.erase(t.messages.begin() + op.index);
        break;
      case PatchOp::Kind::kSeparate:
      case PatchOp::Kind::kUnseparate: {
        const int other = find_task(problem, op.target);
        if (other < 0) return fail(op, "unknown target task");
        if (other == ti) return fail(op, "task separated from itself");
        auto& sep = t.separated_from;
        if (op.kind == PatchOp::Kind::kSeparate) {
          if (std::find(sep.begin(), sep.end(), other) == sep.end()) {
            sep.push_back(other);
          }
        } else {
          auto& back = tasks[static_cast<std::size_t>(other)].separated_from;
          const bool had = std::erase(sep, other) > 0;
          const bool had_back = std::erase(back, ti) > 0;
          if (!had && !had_back) {
            return fail(op, "tasks are not separated");
          }
        }
        break;
      }
      case PatchOp::Kind::kAddTask:
        break;  // handled above
    }
  }
  return std::nullopt;
}

}  // namespace optalloc::inc
