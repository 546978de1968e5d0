#include "pb/opb.hpp"

#include <charconv>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "sat/solver.hpp"

namespace optalloc::pb {

namespace {

/// `text` as a whole decimal integer in [lo, hi], or runtime_error naming
/// `what`: no suffix, no overflow, and only the one sign a value needs.
std::int64_t parse_int(
    std::string_view text, const char* what,
    std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
    std::int64_t hi = std::numeric_limits<std::int64_t>::max()) {
  if (text.size() > 1 && text[0] == '+' && text[1] != '-') {
    text.remove_prefix(1);
  }
  std::int64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v < lo || v > hi) {
    throw std::runtime_error("opb: bad " + std::string(what) + ": '" +
                             std::string(text) + "'");
  }
  return v;
}

/// Parse a literal token "x12" or "~x12" (1-based) into a Lit.
sat::Lit parse_literal(std::string_view token, std::int32_t num_vars) {
  bool negated = false;
  if (!token.empty() && token[0] == '~') {
    negated = true;
    token.remove_prefix(1);
  }
  if (token.size() < 2 || token[0] != 'x' || token[1] == '+') {
    throw std::runtime_error("opb: expected literal, got '" +
                             std::string(token) + "'");
  }
  const std::int64_t index =
      parse_int(token.substr(1), "variable", 1, num_vars);
  return sat::Lit(static_cast<sat::Var>(index - 1), negated);
}

/// Parse "<coef> <lit> <coef> <lit> ..." until a relation or ';'.
std::vector<Term> parse_terms(std::istringstream& in, std::string& stop,
                              std::int32_t num_vars) {
  std::vector<Term> terms;
  std::string token;
  while (in >> token) {
    if (token == ">=" || token == "<=" || token == "=" || token == ";") {
      stop = token;
      return terms;
    }
    const std::int64_t coef = parse_int(token, "coefficient");
    std::string lit_token;
    if (!(in >> lit_token)) {
      throw std::runtime_error("opb: coefficient without literal");
    }
    terms.push_back({coef, parse_literal(lit_token, num_vars)});
  }
  stop.clear();
  return terms;
}

}  // namespace

OpbProblem parse_opb(std::istream& in) {
  OpbProblem problem;
  std::string line;
  bool header_seen = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '*') {
      // Header comment: "* #variable= N #constraint= M".
      const auto var_pos = line.find("#variable=");
      if (var_pos != std::string::npos) {
        std::string count;
        std::istringstream(line.substr(var_pos + 10)) >> count;
        problem.num_vars = static_cast<std::int32_t>(
            parse_int(count, "#variable= count", 0, sat::kMaxVars));
        header_seen = true;
      }
      continue;
    }
    if (!header_seen) {
      throw std::runtime_error("opb: missing '* #variable=' header");
    }
    std::istringstream body(line);
    if (line.rfind("min:", 0) == 0) {
      body.ignore(4);
      std::string stop;
      problem.objective = parse_terms(body, stop, problem.num_vars);
      if (stop != ";") throw std::runtime_error("opb: objective missing ';'");
      continue;
    }
    OpbConstraint c;
    std::string stop;
    c.terms = parse_terms(body, stop, problem.num_vars);
    if (stop == ">=") {
      c.relation = OpbConstraint::Relation::kGe;
    } else if (stop == "<=") {
      c.relation = OpbConstraint::Relation::kLe;
    } else if (stop == "=") {
      c.relation = OpbConstraint::Relation::kEq;
    } else {
      throw std::runtime_error("opb: constraint without relation: " + line);
    }
    std::string rhs_token, semi;
    if (!(body >> rhs_token)) {
      throw std::runtime_error("opb: missing right-hand side: " + line);
    }
    // The grammar lets the ';' touch the right-hand side.
    const bool terminated = rhs_token.size() > 1 && rhs_token.back() == ';';
    if (terminated) rhs_token.pop_back();
    c.rhs = parse_int(rhs_token, "right-hand side");
    if (body >> semi && (terminated || semi != ";")) {
      throw std::runtime_error("opb: trailing tokens: " + line);
    }
    problem.constraints.push_back(std::move(c));
  }
  return problem;
}

bool load_into(const OpbProblem& problem, sat::Solver& solver,
               PbPropagator& pb) {
  while (solver.num_vars() < problem.num_vars) solver.new_var();
  bool ok = true;
  for (const OpbConstraint& c : problem.constraints) {
    switch (c.relation) {
      case OpbConstraint::Relation::kGe:
        ok = pb.add_ge(c.terms, c.rhs) && ok;
        break;
      case OpbConstraint::Relation::kLe:
        ok = pb.add_le(c.terms, c.rhs) && ok;
        break;
      case OpbConstraint::Relation::kEq:
        ok = pb.add_eq(c.terms, c.rhs) && ok;
        break;
    }
  }
  return solver.ok() && ok;
}

namespace {

void write_terms(std::ostream& out, const std::vector<Term>& terms) {
  for (const Term& t : terms) {
    out << (t.coef >= 0 ? "+" : "") << t.coef << " "
        << (t.lit.sign() ? "~" : "") << "x" << (t.lit.var() + 1) << " ";
  }
}

}  // namespace

void write_opb(std::ostream& out, const OpbProblem& problem) {
  out << "* #variable= " << problem.num_vars
      << " #constraint= " << problem.constraints.size() << "\n";
  if (problem.objective) {
    out << "min: ";
    write_terms(out, *problem.objective);
    out << ";\n";
  }
  for (const OpbConstraint& c : problem.constraints) {
    write_terms(out, c.terms);
    switch (c.relation) {
      case OpbConstraint::Relation::kGe: out << ">= "; break;
      case OpbConstraint::Relation::kLe: out << "<= "; break;
      case OpbConstraint::Relation::kEq: out << "= "; break;
    }
    out << c.rhs << " ;\n";
  }
}

}  // namespace optalloc::pb
