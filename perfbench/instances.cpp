#include "instances.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "alloc/io.hpp"
#include "inc/patch.hpp"
#include "obs/json.hpp"
#include "workload/generator.hpp"
#include "workload/tindell.hpp"

namespace perfbench {

using optalloc::alloc::Problem;
namespace rt = optalloc::rt;
namespace workload = optalloc::workload;

namespace {

Instance tindell(int n) {
  return {"tindell:" + std::to_string(n), workload::tindell_prefix(n),
          "trt:0", false};
}

void add_architectures(std::vector<Instance>& out, int n) {
  const std::string s = ":" + std::to_string(n);
  out.push_back({"A" + s, workload::architecture_a(n), "sum-trt", true});
  out.push_back({"B" + s, workload::architecture_b(n), "sum-trt", true});
  out.push_back({"C" + s, workload::architecture_c(false, n), "sum-trt", true});
  out.push_back({"Ccan" + s, workload::architecture_c(true, n), "sum-trt", true});
}

rt::Ticks min_wcet(const rt::Task& t) {
  rt::Ticks best = -1;
  for (const rt::Ticks w : t.wcet) {
    if (w != rt::kForbidden && (best < 0 || w < best)) best = w;
  }
  return best;
}

std::string set_deadline(const std::string& task, rt::Ticks d) {
  return "{\"op\":\"set_deadline\",\"task\":\"" + task +
         "\",\"deadline\":" + std::to_string(d) + "}";
}

std::string set_wcet(const std::string& task, int ecu, rt::Ticks w) {
  return "{\"op\":\"set_wcet\",\"task\":\"" + task +
         "\",\"ecu\":" + std::to_string(ecu) + ",\"wcet\":" +
         std::to_string(w) + "}";
}

std::string set_jitter(const std::string& task, rt::Ticks j) {
  return "{\"op\":\"set_jitter\",\"task\":\"" + task +
         "\",\"jitter\":" + std::to_string(j) + "}";
}

}  // namespace

std::vector<Instance> paper_families(bool certified) {
  std::vector<Instance> out;
  if (certified) {
    for (const int n : {8, 10, 12}) out.push_back(tindell(n));
    add_architectures(out, 8);
  } else {
    for (const int n : {12, 14, 16, 18, 20}) out.push_back(tindell(n));
    add_architectures(out, 8);
    add_architectures(out, 10);
  }
  return out;
}

Instance pool_instance(int k) {
  workload::GenOptions gen;
  gen.num_tasks = 10;
  gen.num_ecus = 4;
  gen.num_chains = 3;
  const int seed = kPoolSeeds[k];
  gen.seed = static_cast<std::uint64_t>(seed);
  return {"gen:" + std::to_string(seed), workload::generate(gen), "sum-trt",
          false};
}

Instance session_base(int client) {
  workload::GenOptions gen;
  gen.num_tasks = 12;
  gen.num_ecus = 4;
  gen.num_chains = 3;
  gen.seed = 0xA11C + static_cast<std::uint64_t>(client);
  return {"sess" + std::to_string(client) + ":S0", workload::generate(gen),
          "sum-trt", false};
}

std::vector<ChainStep> session_chain(const Instance& base, int client) {
  const auto& tasks = base.problem.tasks.tasks;
  const int n = static_cast<int>(tasks.size());
  auto task = [&](int i) -> const rt::Task& {
    return tasks[static_cast<std::size_t>(i * 7 % n)];
  };
  const rt::Task& a = task(1);
  const rt::Task& b = task(2);
  const rt::Task& c = task(3);
  const rt::Task& d = task(4);
  int b_ecu = 0;
  while (b.wcet[static_cast<std::size_t>(b_ecu)] == rt::kForbidden) ++b_ecu;
  const rt::Ticks b_w = b.wcet[static_cast<std::size_t>(b_ecu)];

  const std::string sess = "sess" + std::to_string(client) + ":S";
  auto step = [&](const std::string& op, int state) {
    return ChainStep{"[" + op + "]", sess + std::to_string(state)};
  };
  return {
      step(set_deadline(a.name, std::max(min_wcet(a) + 1, a.deadline * 9 / 10)),
           1),
      step(set_wcet(b.name, b_ecu, b_w + std::max<rt::Ticks>(1, b_w / 8)), 2),
      step(set_jitter(c.name, c.release_jitter + 2), 3),
      // No ECU finishes d inside this deadline: the edit is infeasible.
      step(set_deadline(d.name, std::max<rt::Ticks>(1, min_wcet(d) - 1)), 4),
      step(set_deadline(d.name, d.deadline), 3),
      step(set_jitter(c.name, c.release_jitter), 2),
      step(set_wcet(b.name, b_ecu, b_w), 1),
      step(set_deadline(a.name, a.deadline), 0),
  };
}

std::vector<Instance> session_states(int client) {
  const Instance base = session_base(client);
  std::vector<Instance> states{base};
  Problem current = base.problem;
  for (const ChainStep& s : session_chain(base, client)) {
    std::string error;
    const auto doc = optalloc::obs::json_parse(s.edits_json);
    const auto patch =
        doc ? optalloc::inc::parse_patch(*doc, &error) : std::nullopt;
    if (!patch) throw std::runtime_error("bad chain edit: " + s.edits_json);
    if (const auto bad = optalloc::inc::apply_patch(*patch, current)) {
      throw std::runtime_error("chain edit rejected: " + *bad);
    }
    const bool seen = std::any_of(states.begin(), states.end(),
                                  [&](const Instance& i) {
                                    return i.id == s.state_id;
                                  });
    if (!seen) states.push_back({s.state_id, current, base.objective, false});
  }
  return states;
}

Problem rotate_tasks(const Problem& p, int k) {
  Problem q = p;
  const int n = static_cast<int>(q.tasks.tasks.size());
  if (n < 2) return q;
  k = ((k % n) + n) % n;
  std::rotate(q.tasks.tasks.begin(), q.tasks.tasks.begin() + k,
              q.tasks.tasks.end());
  auto remap = [n, k](int t) { return (t - k + n) % n; };
  for (rt::Task& t : q.tasks.tasks) {
    for (int& s : t.separated_from) s = remap(s);
    for (rt::Message& m : t.messages) m.target_task = remap(m.target_task);
  }
  return q;
}

Problem prefix_names(const Problem& p, const std::string& prefix) {
  Problem q = p;
  for (rt::Task& t : q.tasks.tasks) t.name = prefix + t.name;
  return q;
}

std::string problem_text(const Problem& p) {
  std::ostringstream out;
  optalloc::alloc::write_problem(out, p);
  return out.str();
}

}  // namespace perfbench
