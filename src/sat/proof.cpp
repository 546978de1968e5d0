#include "sat/proof.hpp"

#include <cctype>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

namespace optalloc::sat {
namespace {

// DIMACS convention: variable v -> v+1, negative literal -> negative int.
long long to_dimacs(Lit l) {
  const long long v = l.var() + 1;
  return l.sign() ? -v : v;
}

Lit from_dimacs(long long d) {
  const Var v = static_cast<Var>(d < 0 ? -d : d) - 1;
  return Lit(v, /*sign=*/d < 0);
}

}  // namespace

ProofId ProofLog::push(ProofStepKind kind, std::span<const Lit> lits,
                      std::span<const ProofId> hints) {
  ProofStep s;
  s.kind = kind;
  s.begin = static_cast<std::uint32_t>(pool_.size());
  pool_.insert(pool_.end(), lits.begin(), lits.end());
  s.end = static_cast<std::uint32_t>(pool_.size());
  s.hint_begin = static_cast<std::uint32_t>(hints_.size());
  hints_.insert(hints_.end(), hints.begin(), hints.end());
  s.hint_end = static_cast<std::uint32_t>(hints_.size());
  steps_.push_back(s);
  if (kind == ProofStepKind::kLemma) ++num_lemmas_;
  return static_cast<ProofId>(steps_.size() - 1);
}

void ProofLog::add_pb_ge(std::span<const ProofPbTerm> terms, std::int64_t rhs) {
  ProofPbConstraint c;
  c.terms.assign(terms.begin(), terms.end());
  c.rhs = rhs;
  pb_.push_back(std::move(c));
}

void ProofLog::write_text(std::ostream& os) const {
  // PB axioms first: the checker needs them before any `t` line, and the
  // solver registers them all before search starts anyway.
  for (const ProofPbConstraint& c : pb_) {
    os << "p " << c.rhs;
    for (const ProofPbTerm& t : c.terms) {
      os << ' ' << t.coef << ' ' << to_dimacs(t.lit);
    }
    os << " 0\n";
  }
  auto write_lits = [&](std::span<const Lit> ls, bool first) {
    for (const Lit l : ls) {
      if (!first) os << ' ';
      first = false;
      os << to_dimacs(l);
    }
    if (!first) os << ' ';
    os << '0';
  };
  for (const ProofStep& s : steps_) {
    switch (s.kind) {
      case ProofStepKind::kInput:
        os << "i";
        break;
      case ProofStepKind::kTheory:
        os << "t";
        break;
      case ProofStepKind::kLemma:
        break;
      case ProofStepKind::kDelete:
        os << "d";
        break;
    }
    const bool bare = s.kind == ProofStepKind::kLemma;
    if (s.kind == ProofStepKind::kDelete && deleted(s) != kNoProofId) {
      // Echo the deleted clause's literals so the line reads as DRAT.
      const ProofId id = deleted(s);
      write_lits(id < steps_.size() ? lits(steps_[id])
                                    : std::span<const Lit>{},
                 bare);
    } else {
      write_lits(lits(s), bare);
    }
    if (s.hint_end > s.hint_begin) {
      for (const ProofId h : hints(s)) os << ' ' << std::uint64_t{h} + 1;
      os << " 0";
    }
    os << '\n';
  }
}

bool ProofLog::parse_text(std::istream& is, std::string* error) {
  auto fail = [&](const std::string& msg, std::size_t line) {
    if (error) {
      *error = "proof line " + std::to_string(line) + ": " + msg;
    }
    return false;
  };
  std::string line;
  std::size_t lineno = 0;
  std::vector<Lit> lits;
  std::vector<ProofId> hints;
  // Text IDs are 1-based and relative to the parsed text.
  const long long base = static_cast<long long>(steps_.size());
  const long long max_text_id = static_cast<long long>(kNoProofId) - base;
  while (std::getline(is, line)) {
    ++lineno;
    std::istringstream ls(line);
    ls >> std::ws;
    if (ls.eof()) continue;
    const int head = ls.peek();
    if (head == 'c') continue;  // comment
    ProofStepKind kind = ProofStepKind::kLemma;
    bool is_pb = false;
    if (head == 'i' || head == 't' || head == 'd' || head == 'p') {
      ls.get();
      is_pb = head == 'p';
      kind = head == 'i'   ? ProofStepKind::kInput
             : head == 't' ? ProofStepKind::kTheory
                           : ProofStepKind::kDelete;
    }
    if (is_pb) {
      ProofPbConstraint c;
      if (!(ls >> c.rhs)) return fail("missing rhs on p line", lineno);
      long long coef = 0;
      while (ls >> coef) {
        if (coef == 0) break;
        long long d = 0;
        if (!(ls >> d) || d == 0) {
          return fail("truncated term on p line", lineno);
        }
        c.terms.push_back({coef, from_dimacs(d)});
      }
      if (coef != 0) return fail("p line not 0-terminated", lineno);
      pb_.push_back(std::move(c));
      continue;
    }
    lits.clear();
    long long d = 0;
    bool terminated = false;
    while (ls >> d) {
      if (d == 0) {
        terminated = true;
        break;
      }
      lits.push_back(from_dimacs(d));
    }
    if (!terminated) return fail("clause line not 0-terminated", lineno);
    // Optional hint suffix: positive step IDs, 0-terminated.
    hints.clear();
    bool has_suffix = false;
    terminated = false;
    while (ls >> d) {
      has_suffix = true;
      if (d == 0) {
        terminated = true;
        break;
      }
      if (d < 0 || d > max_text_id) return fail("bad step ID", lineno);
      hints.push_back(static_cast<ProofId>(base + (d - 1)));
    }
    if (has_suffix && !terminated) {
      return fail("hint list not 0-terminated", lineno);
    }
    ls.clear();
    ls >> std::ws;
    if (!ls.eof()) return fail("trailing garbage", lineno);
    if (kind == ProofStepKind::kDelete && !hints.empty()) {
      if (hints.size() != 1) {
        return fail("deletion names several steps", lineno);
      }
      add_delete(hints[0]);  // the echoed literals are informative only
      continue;
    }
    if (!hints.empty() && kind != ProofStepKind::kLemma) {
      return fail("hints on an input or theory line", lineno);
    }
    push(kind, lits, hints);
  }
  return true;
}

}  // namespace optalloc::sat
