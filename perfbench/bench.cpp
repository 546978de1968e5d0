#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::size_t samples_beyond(std::size_t n, double p) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// --- Tracer ----------------------------------------------------------------

std::uint32_t Tracer::begin_op(const char* name) {
  const std::uint32_t op = next_op_++;
  root_ = -1;
  if (!on_) return op;
  root_ = static_cast<int>(spans_.size());
  spans_.push_back({op, -1, name, now(), 0.0, false, true});
  return op;
}

void Tracer::end_op() {
  if (root_ >= 0) spans_[static_cast<std::size_t>(root_)].end = now();
  root_ = -1;
}

int Tracer::open(const char* name, bool gap) {
  if (!on_ || root_ < 0) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({spans_[static_cast<std::size_t>(root_)].op, root_, name,
                    now(), 0.0, false, gap});
  return id;
}

void Tracer::close(int span) {
  if (span >= 0) spans_[static_cast<std::size_t>(span)].end = now();
}

void Tracer::derive(int parent, const char* name, double seconds) {
  if (parent < 0) return;
  const Span& p = spans_[static_cast<std::size_t>(parent)];
  spans_.push_back(
      {p.op, parent, name, p.start, p.start + seconds, true, false});
}

LedgerSummary summarize(const std::vector<Span>& spans) {
  LedgerSummary out;
  std::vector<double> child_s(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::uint32_t, double> op_wall_s, op_gap_s;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double self = (s.end - s.start) - child_s[i];
    out.self_s[s.name] += self;
    ++out.count[s.name];
    if (s.gap) op_gap_s[s.op] += self;
    if (s.parent < 0) op_wall_s[s.op] = s.end - s.start;
  }
  for (const auto& [op, wall] : op_wall_s) {
    const double gap = op_gap_s[op];
    out.op_wall_s += wall;
    out.unattributed_s += gap;
    ++out.ops;
    if (gap > kLedgerTolerance * wall) ++out.open_ops;
  }
  return out;
}

void append_spans(std::vector<Span>& into, const std::vector<Span>& from) {
  std::uint32_t op_base = 0;
  for (const Span& s : into) op_base = std::max(op_base, s.op + 1);
  const int index_base = static_cast<int>(into.size());
  for (Span s : from) {
    s.op += op_base;
    if (s.parent >= 0) s.parent += index_base;
    into.push_back(std::move(s));
  }
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"op\":%u,\"id\":%zu,\"parent\":%d,\"name\":\"%s\","
                 "\"start\":%.9f,\"end\":%.9f,\"derived\":%s,"
                 "\"gap\":%s}\n",
                 s.op, i, s.parent, s.name.c_str(), s.start, s.end,
                 s.derived ? "true" : "false", s.gap ? "true" : "false");
  }
  return std::fclose(f) == 0;
}

// --- References --------------------------------------------------------------

std::map<std::string, Reference> load_references(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::map<std::string, Reference> refs;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string id, objective, status, cost;
    std::getline(fields, id, '\t');
    std::getline(fields, objective, '\t');
    std::getline(fields, status, '\t');
    std::getline(fields, cost, '\t');
    if (id.empty() || (status != "optimal" && status != "infeasible")) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": malformed reference row");
    }
    Reference ref;
    ref.status = status;
    if (status == "optimal") ref.cost = std::stoll(cost);
    refs[id] = ref;
  }
  return refs;
}

// --- Determinism ---------------------------------------------------------------

bool DeterminismLog::check(const std::string& id, const ExactCounts& counts) {
  const auto [it, inserted] = first_.emplace(id, counts);
  if (inserted || it->second == counts) return true;
  ++mismatches_;
  std::fprintf(stderr,
               "perfbench: nondeterministic counts for %s: vars %lld/%lld "
               "lits %llu/%llu conflicts %llu/%llu calls %d/%d lemmas "
               "%llu/%llu\n",
               id.c_str(), static_cast<long long>(it->second.vars),
               static_cast<long long>(counts.vars),
               static_cast<unsigned long long>(it->second.lits),
               static_cast<unsigned long long>(counts.lits),
               static_cast<unsigned long long>(it->second.conflicts),
               static_cast<unsigned long long>(counts.conflicts),
               it->second.sat_calls, counts.sat_calls,
               static_cast<unsigned long long>(it->second.lemmas),
               static_cast<unsigned long long>(counts.lemmas));
  return false;
}

// --- Output --------------------------------------------------------------------

std::string result_line(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : result.metrics) {
    char value[64];
    // A non-finite value is not JSON; report it as 0 rather than break
    // the line (it only arises for a layer with no work in this run).
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

double reference_kernel_ms() {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t acc = 0;
  for (int i = 0; i < (1 << 24); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x % 1000003;
  }
  const double ms = seconds_since(t0) * 1000.0;
  // Keeps the loop observable so it cannot be folded away.
  if (acc == 42) std::fprintf(stderr, "perfbench: kernel sentinel\n");
  return ms;
}

}  // namespace perfbench
