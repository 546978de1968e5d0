#include "sat/dimacs.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace optalloc::sat {

DimacsProblem parse_dimacs(std::istream& in) {
  DimacsProblem problem;
  std::string line;
  std::vector<Lit> current;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == 'c') continue;
    if (line[0] == 'p') {
      // The declared clause count is checked for syntax only: mismatched
      // counts are common in the wild and tolerated.
      std::istringstream header(line);
      std::string p, fmt;
      std::int64_t vars = -1, clauses = -1;
      header >> p >> fmt >> vars >> clauses;
      if (p != "p" || fmt != "cnf" || !header || vars < 0 ||
          vars > kMaxVars || clauses < 0) {
        throw std::runtime_error("dimacs: malformed problem line: " + line);
      }
      problem.num_vars = static_cast<std::int32_t>(vars);
      continue;
    }
    std::istringstream body(line);
    std::int64_t raw;
    while (body >> raw) {
      if (raw == 0) {
        problem.clauses.push_back(current);
        current.clear();
        continue;
      }
      // Range-check the 64-bit value: a narrowing cast first would wrap
      // 2^32 + 1 onto x1.
      if (raw < -problem.num_vars || raw > problem.num_vars) {
        throw std::runtime_error("dimacs: literal out of declared range");
      }
      current.push_back(Lit(static_cast<Var>(raw < 0 ? -raw : raw) - 1,
                            raw < 0));
    }
    // A token that is not an integer would otherwise end the line early
    // and merge the rest of its clause into the next line's.
    if (!body.eof()) {
      throw std::runtime_error("dimacs: not a literal in: " + line);
    }
  }
  if (!current.empty()) {
    throw std::runtime_error("dimacs: clause not terminated by 0");
  }
  return problem;
}

bool load_into(const DimacsProblem& problem, Solver& solver) {
  while (solver.num_vars() < problem.num_vars) solver.new_var();
  bool ok = true;
  for (const auto& clause : problem.clauses) {
    ok = solver.add_clause(clause) && ok;
  }
  return solver.ok();
}

void write_dimacs(std::ostream& out, const DimacsProblem& problem) {
  out << "p cnf " << problem.num_vars << ' ' << problem.clauses.size()
      << '\n';
  for (const auto& clause : problem.clauses) {
    for (const Lit l : clause) {
      out << (l.sign() ? -(l.var() + 1) : (l.var() + 1)) << ' ';
    }
    out << "0\n";
  }
}

}  // namespace optalloc::sat
