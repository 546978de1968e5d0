#include "inc/core_explain.hpp"

#include <algorithm>
#include <map>

namespace optalloc::inc {

CoreExplainer::CoreExplainer(sat::Solver& solver, const GroupMap& groups)
    : solver_(solver), groups_(groups) {}

std::vector<std::string> CoreExplainer::explain(
    std::span<const sat::Lit> core) const {
  // conflict_core() holds the clause the solver could learn: the negation
  // of the failed assumptions. Guards are assumed positive, so look the
  // underlying variable up regardless of sign.
  std::map<sat::Var, const std::string*> by_var;
  for (const auto& [name, group] : groups_) {
    by_var.emplace(group.guard.var(), &name);
  }
  std::vector<std::string> names;
  for (const sat::Lit l : core) {
    const auto it = by_var.find(l.var());
    if (it != by_var.end()) names.push_back(*it->second);
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

std::vector<sat::Lit> CoreExplainer::guards_of(
    std::span<const std::string> names) const {
  std::vector<sat::Lit> lits;
  for (const std::string& name : names) {
    const auto it = groups_.find(name);
    if (it != groups_.end()) lits.push_back(it->second.guard);
  }
  return lits;
}

std::vector<std::string> CoreExplainer::minimize(
    std::vector<std::string> core,
    const std::function<std::optional<sat::Budget>()>& probe_budget) {
  // Classic destructive deletion: try dropping each member once. When a
  // probe without member i is still unsat, the solver's new core is a
  // subset not containing i — adopt it wholesale, which can drop several
  // members per probe.
  for (std::size_t i = 0; i < core.size() && core.size() > 1;) {
    std::vector<std::string> without;
    without.reserve(core.size() - 1);
    for (std::size_t j = 0; j < core.size(); ++j) {
      if (j != i) without.push_back(core[j]);
    }
    const std::optional<sat::Budget> budget = probe_budget();
    if (!budget) break;
    const auto result = solver_.solve(guards_of(without), *budget);
    if (result == sat::LBool::kFalse) {
      auto shrunk = explain(solver_.conflict_core());
      // Keep only members we were still assuming (defensive: explain()
      // never returns others, but the intersection is what's sound).
      std::erase_if(shrunk, [&without](const std::string& n) {
        return std::find(without.begin(), without.end(), n) == without.end();
      });
      core = shrunk.empty() ? std::move(without) : std::move(shrunk);
      i = 0;  // restart: indices shifted, earlier members may now drop
    } else {
      ++i;  // needed (or probe inconclusive): keep it
    }
  }
  return core;
}

bool CoreExplainer::is_conflicting(std::span<const std::string> core) {
  return solver_.solve(guards_of(core), {}) == sat::LBool::kFalse;
}

}  // namespace optalloc::inc
