#include "heur/common.hpp"

#include <algorithm>

#include "rt/analysis.hpp"
#include "util/intmath.hpp"

namespace optalloc::heur {

using rt::Ticks;

std::optional<rt::Allocation> complete_allocation(
    const alloc::Problem& problem, const net::PathClosures& closures,
    const std::vector<int>& task_ecu,
    const std::vector<std::vector<Ticks>>& slot_extra) {
  const auto refs = problem.tasks.message_refs();
  const auto num_media = static_cast<int>(problem.arch.media.size());

  rt::Allocation alloc;
  alloc.task_ecu = task_ecu;
  alloc.task_prio = rt::deadline_monotonic_ranks(problem.tasks);

  // Routes: shortest valid path per message; budgets: beta per leg plus an
  // equal split of the remaining slack.
  alloc.msg_route.resize(refs.size());
  alloc.msg_local_deadline.resize(refs.size());
  for (std::size_t g = 0; g < refs.size(); ++g) {
    const rt::Message& msg = problem.tasks.message(refs[g]);
    const int src = task_ecu[static_cast<std::size_t>(refs[g].task)];
    const int dst = task_ecu[static_cast<std::size_t>(msg.target_task)];
    const auto candidates = closures.routes_between(src, dst);
    if (candidates.empty()) return std::nullopt;
    const net::Path* best = nullptr;
    for (const int c : candidates) {
      const net::Path& path = closures.routes()[static_cast<std::size_t>(c)];
      if (best == nullptr || path.size() < best->size()) best = &path;
    }
    alloc.msg_route[g] = *best;
    if (best->empty()) continue;

    Ticks serv = 0;
    std::vector<Ticks> betas;
    for (std::size_t l = 0; l < best->size(); ++l) {
      const rt::Medium& medium =
          problem.arch.media[static_cast<std::size_t>((*best)[l])];
      betas.push_back(rt::transmission_ticks(medium, msg.size_bytes));
      if (l + 1 < best->size()) serv += medium.gateway_cost;
    }
    Ticks slack = msg.deadline - serv;
    for (const Ticks b : betas) slack -= b;
    if (slack < 0) return std::nullopt;  // cannot even transmit once per leg
    const auto legs = static_cast<Ticks>(best->size());
    for (std::size_t l = 0; l < best->size(); ++l) {
      const Ticks share =
          slack / legs + (static_cast<Ticks>(l) < slack % legs ? 1 : 0);
      alloc.msg_local_deadline[g].push_back(betas[l] + share);
    }
  }

  // Slots: minimal table — slot_min, or the largest message queued at the
  // station — plus the caller's extras.
  alloc.slots.resize(static_cast<std::size_t>(num_media));
  for (int k = 0; k < num_media; ++k) {
    const rt::Medium& medium = problem.arch.media[static_cast<std::size_t>(k)];
    if (medium.type != rt::MediumType::kTokenRing) continue;
    auto& table = alloc.slots[static_cast<std::size_t>(k)];
    table.assign(medium.ecus.size(), medium.slot_min);
    for (std::size_t g = 0; g < refs.size(); ++g) {
      const auto& route = alloc.msg_route[g];
      for (std::size_t l = 0; l < route.size(); ++l) {
        if (route[l] != k) continue;
        const int station = closures.leg_station(
            route, l, task_ecu[static_cast<std::size_t>(refs[g].task)]);
        const Ticks rho = rt::transmission_ticks(
            medium, problem.tasks.message(refs[g]).size_bytes);
        for (std::size_t j = 0; j < medium.ecus.size(); ++j) {
          if (medium.ecus[j] == station) {
            table[j] = std::max(table[j], rho);
          }
        }
      }
    }
    if (k < static_cast<int>(slot_extra.size())) {
      for (std::size_t j = 0;
           j < table.size() && j < slot_extra[static_cast<std::size_t>(k)].size();
           ++j) {
        table[j] = std::min(
            medium.slot_max,
            table[j] + slot_extra[static_cast<std::size_t>(k)][j]);
      }
    }
    for (const Ticks slot : table) {
      if (slot > medium.slot_max) return std::nullopt;  // message too big
    }
  }
  return alloc;
}

}  // namespace optalloc::heur
