#include "alloc/io.hpp"

#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace optalloc::alloc {

namespace {

/// Name of the input being parsed, reported in every diagnostic. Thread
/// local because the service parses submissions on connection threads.
thread_local std::string t_source = "problem file";

[[noreturn]] void fail(int line, const std::string& msg) {
  throw std::runtime_error(t_source + ", line " + std::to_string(line) +
                           ": " + msg);
}

/// Split "key=value" tokens into a map; plain tokens go to `positional`.
std::map<std::string, std::string> key_values(
    std::istringstream& in, std::vector<std::string>& positional) {
  std::map<std::string, std::string> kv;
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      positional.push_back(token);
    } else {
      kv[token.substr(0, eq)] = token.substr(eq + 1);
    }
  }
  return kv;
}

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::string current;
  for (const char c : s) {
    if (c == ',') {
      out.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  out.push_back(current);
  return out;
}

std::int64_t to_int(const std::string& s, int line) {
  try {
    std::size_t pos = 0;
    const std::int64_t v = std::stoll(s, &pos);
    if (pos != s.size()) fail(line, "bad integer '" + s + "'");
    return v;
  } catch (const std::exception&) {
    fail(line, "bad integer '" + s + "'");
  }
}

}  // namespace

Problem parse_problem(std::istream& in, std::string_view source) {
  t_source = source.empty() ? "problem file" : std::string(source);
  Problem p;
  std::map<std::string, int> task_index;
  bool system_seen = false;
  std::string raw;
  int line = 0;

  auto require_system = [&] {
    if (!system_seen) fail(line, "'system <num_ecus>' must come first");
  };

  while (std::getline(in, raw)) {
    ++line;
    const auto hash = raw.find('#');
    const std::string text = hash == std::string::npos
                                 ? raw
                                 : raw.substr(0, hash);
    std::istringstream body(text);
    std::string keyword;
    if (!(body >> keyword)) continue;  // blank / comment-only line

    if (keyword == "system") {
      int n = 0;
      if (!(body >> n) || n <= 0) fail(line, "bad ECU count");
      if (n > kMaxEcus) {
        fail(line, "ECU count " + std::to_string(n) + " exceeds " +
                       std::to_string(kMaxEcus));
      }
      p.arch.num_ecus = n;
      p.arch.ecu_memory.assign(static_cast<std::size_t>(n), 0);
      p.arch.gateway_only.assign(static_cast<std::size_t>(n), 0);
      system_seen = true;
    } else if (keyword == "memory") {
      require_system();
      int ecu = -1;
      std::int64_t cap = 0;
      if (!(body >> ecu >> cap) || ecu < 0 || ecu >= p.arch.num_ecus) {
        fail(line, "bad memory line");
      }
      p.arch.ecu_memory[static_cast<std::size_t>(ecu)] = cap;
    } else if (keyword == "gateway_only") {
      require_system();
      int ecu = -1;
      if (!(body >> ecu) || ecu < 0 || ecu >= p.arch.num_ecus) {
        fail(line, "bad gateway_only line");
      }
      p.arch.gateway_only[static_cast<std::size_t>(ecu)] = 1;
    } else if (keyword == "medium") {
      require_system();
      std::vector<std::string> positional;
      const auto kv = key_values(body, positional);
      if (positional.size() != 2) {
        fail(line, "medium needs '<name> <token_ring|can>'");
      }
      rt::Medium m;
      m.name = positional[0];
      if (positional[1] == "token_ring") {
        m.type = rt::MediumType::kTokenRing;
      } else if (positional[1] == "can") {
        m.type = rt::MediumType::kCan;
      } else {
        fail(line, "unknown medium type '" + positional[1] + "'");
      }
      const auto it = kv.find("ecus");
      if (it == kv.end()) fail(line, "medium needs ecus=...");
      for (const std::string& e : split_commas(it->second)) {
        const auto ecu = to_int(e, line);
        if (ecu < 0 || ecu >= p.arch.num_ecus) fail(line, "ECU out of range");
        m.ecus.push_back(static_cast<int>(ecu));
      }
      auto opt = [&](const char* key, rt::Ticks fallback) {
        const auto f = kv.find(key);
        return f == kv.end() ? fallback : to_int(f->second, line);
      };
      m.slot_min = opt("slot_min", 1);
      m.slot_max = opt("slot_max", 64);
      m.ring_byte_ticks = opt("byte_ticks", 1);
      m.can_bit_ticks = opt("bit_ticks", 1);
      m.can_bits_per_tick = opt("bits_per_tick", 1);
      m.gateway_cost = opt("gateway_cost", 0);
      p.arch.media.push_back(std::move(m));
    } else if (keyword == "task") {
      require_system();
      std::vector<std::string> positional;
      const auto kv = key_values(body, positional);
      if (positional.size() != 1) fail(line, "task needs a name");
      rt::Task t;
      t.name = positional[0];
      if (task_index.count(t.name)) fail(line, "duplicate task " + t.name);
      auto req = [&](const char* key) {
        const auto f = kv.find(key);
        if (f == kv.end()) {
          fail(line, std::string("task missing ") + key + "=");
        }
        return to_int(f->second, line);
      };
      t.period = req("period");
      t.deadline = req("deadline");
      if (const auto f = kv.find("jitter"); f != kv.end()) {
        t.release_jitter = to_int(f->second, line);
      }
      if (const auto f = kv.find("memory"); f != kv.end()) {
        t.memory = to_int(f->second, line);
      }
      const auto w = kv.find("wcet");
      if (w == kv.end()) fail(line, "task missing wcet=");
      for (const std::string& c : split_commas(w->second)) {
        t.wcet.push_back(c == "-" ? rt::kForbidden : to_int(c, line));
      }
      if (static_cast<int>(t.wcet.size()) != p.arch.num_ecus) {
        fail(line, "wcet list must have one entry per ECU");
      }
      task_index.emplace(t.name, static_cast<int>(p.tasks.tasks.size()));
      p.tasks.tasks.push_back(std::move(t));
    } else if (keyword == "message") {
      std::string from, arrow, to;
      if (!(body >> from >> arrow >> to) || arrow != "->") {
        fail(line, "message needs '<from> -> <to>'");
      }
      const auto fi = task_index.find(from);
      const auto ti = task_index.find(to);
      if (fi == task_index.end() || ti == task_index.end()) {
        fail(line, "message references unknown task");
      }
      std::vector<std::string> positional;
      const auto kv = key_values(body, positional);
      rt::Message m;
      m.target_task = ti->second;
      const auto b = kv.find("bytes");
      const auto d = kv.find("deadline");
      if (b == kv.end() || d == kv.end()) {
        fail(line, "message missing bytes=/deadline=");
      }
      m.size_bytes = to_int(b->second, line);
      m.deadline = to_int(d->second, line);
      if (const auto j = kv.find("jitter"); j != kv.end()) {
        m.release_jitter = to_int(j->second, line);
      }
      p.tasks.tasks[static_cast<std::size_t>(fi->second)]
          .messages.push_back(m);
    } else if (keyword == "separate") {
      std::string a, b;
      if (!(body >> a >> b)) fail(line, "separate needs two task names");
      const auto ai = task_index.find(a);
      const auto bi = task_index.find(b);
      if (ai == task_index.end() || bi == task_index.end()) {
        fail(line, "separate references unknown task");
      }
      p.tasks.tasks[static_cast<std::size_t>(ai->second)]
          .separated_from.push_back(bi->second);
      p.tasks.tasks[static_cast<std::size_t>(bi->second)]
          .separated_from.push_back(ai->second);
    } else {
      fail(line, "unknown keyword '" + keyword + "'");
    }
  }
  if (!system_seen) fail(line, "empty problem (no 'system' line)");
  return p;
}

void write_problem(std::ostream& out, const Problem& p) {
  out << "system " << p.arch.num_ecus << "\n";
  for (std::size_t e = 0; e < p.arch.ecu_memory.size(); ++e) {
    if (p.arch.ecu_memory[e] > 0) {
      out << "memory " << e << " " << p.arch.ecu_memory[e] << "\n";
    }
  }
  for (std::size_t e = 0; e < p.arch.gateway_only.size(); ++e) {
    if (p.arch.gateway_only[e]) out << "gateway_only " << e << "\n";
  }
  for (const rt::Medium& m : p.arch.media) {
    out << "medium " << m.name << " "
        << (m.type == rt::MediumType::kTokenRing ? "token_ring" : "can")
        << " ecus=";
    for (std::size_t i = 0; i < m.ecus.size(); ++i) {
      out << (i ? "," : "") << m.ecus[i];
    }
    if (m.type == rt::MediumType::kTokenRing) {
      out << " slot_min=" << m.slot_min << " slot_max=" << m.slot_max
          << " byte_ticks=" << m.ring_byte_ticks;
    } else {
      out << " bit_ticks=" << m.can_bit_ticks
          << " bits_per_tick=" << m.can_bits_per_tick;
    }
    out << " gateway_cost=" << m.gateway_cost << "\n";
  }
  for (const rt::Task& t : p.tasks.tasks) {
    out << "task " << t.name << " period=" << t.period
        << " deadline=" << t.deadline;
    if (t.release_jitter > 0) out << " jitter=" << t.release_jitter;
    if (t.memory > 0) out << " memory=" << t.memory;
    out << " wcet=";
    for (std::size_t e = 0; e < t.wcet.size(); ++e) {
      if (e) out << ",";
      if (t.wcet[e] == rt::kForbidden) {
        out << "-";
      } else {
        out << t.wcet[e];
      }
    }
    out << "\n";
  }
  for (const rt::Task& t : p.tasks.tasks) {
    for (const rt::Message& m : t.messages) {
      out << "message " << t.name << " -> "
          << p.tasks.tasks[static_cast<std::size_t>(m.target_task)].name
          << " bytes=" << m.size_bytes << " deadline=" << m.deadline;
      if (m.release_jitter > 0) out << " jitter=" << m.release_jitter;
      out << "\n";
    }
  }
  // Emit each symmetric separation pair once.
  for (std::size_t i = 0; i < p.tasks.tasks.size(); ++i) {
    for (const int j : p.tasks.tasks[i].separated_from) {
      if (static_cast<int>(i) < j) {
        out << "separate " << p.tasks.tasks[i].name << " "
            << p.tasks.tasks[static_cast<std::size_t>(j)].name << "\n";
      }
    }
  }
}

Objective parse_objective(const std::string& spec) {
  if (spec == "feasibility") return Objective::feasibility();
  if (spec == "sum-trt") return Objective::sum_trt();
  if (spec == "max-util") return Objective::max_utilization();
  if (spec.rfind("trt:", 0) == 0) {
    return Objective::ring_trt(std::stoi(spec.substr(4)));
  }
  if (spec.rfind("can-load:", 0) == 0) {
    return Objective::can_load(std::stoi(spec.substr(9)));
  }
  throw std::runtime_error(
      "unknown objective '" + spec +
      "' (expected feasibility | trt:<m> | sum-trt | can-load:<m> | "
      "max-util)");
}

}  // namespace optalloc::alloc
