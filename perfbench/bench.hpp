#pragma once
// Shared pieces of the benchmark driver: timing and order statistics, the
// span recorder of the traced run (and its per-layer ledger), the
// committed reference optima, the determinism registry, and the result
// line. Nothing here calls into the program; the workload files do.

#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Order statistics ----------------------------------------------------

double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> v, double p);
/// Samples ranked strictly above the nearest-rank p-th percentile.
std::size_t samples_beyond(std::size_t n, double p);
double mean(const std::vector<double>& v);

/// Seeded draws for the workload inputs. mt19937_64 output is fixed by
/// the standard, and the index draw below avoids the implementation-
/// defined std::uniform_int_distribution, so a seed means the same inputs
/// on every standard library.
class Draw {
 public:
  explicit Draw(std::uint64_t seed) : gen_(seed) {}
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(gen_() % n);
  }
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::mt19937_64 gen_;
};

// --- Spans and the per-layer ledger -------------------------------------

/// One recorded span. Spans of one operation share `op`; `parent` is the
/// index of the causing span in the recorder (-1 for an op's root).
/// Derived spans carry a duration an API reported for work inside its
/// parent (e.g. OptimizeStats::solve_seconds) and start at the parent's
/// start. A `gap` span's self time is claimed by no layer: an op's root,
/// and a call whose reported sub-timings should cover it (its self time
/// is the API's attribution gap, e.g. alloc.other_ms).
struct Span {
  std::uint32_t op = 0;
  int parent = -1;
  std::string name;
  double start = 0.0;  ///< seconds since the recorder's epoch
  double end = 0.0;
  bool derived = false;
  bool gap = false;
};

/// In-memory span recorder. When off, open/close/derive cost one branch,
/// which is what makes the untraced passes the tracing-overhead baseline.
class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  void set_enabled(bool on) { on_ = on; }
  bool enabled() const { return on_; }

  /// Opens an op's root span and returns its op id.
  std::uint32_t begin_op(const char* name);
  void end_op();
  /// `gap`: the span's self time counts as unattributed (see Span).
  int open(const char* name, bool gap = false);
  void close(int span);
  /// A child of `parent` lasting `seconds`, as reported by the API.
  void derive(int parent, const char* name, double seconds);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now() const { return seconds_since(epoch_); }

  Clock::time_point epoch_;
  bool on_ = false;
  std::uint32_t next_op_ = 0;
  int root_ = -1;
  std::vector<Span> spans_;
};

/// Self time (duration minus the children's durations) summed per span
/// name. The self times of an op's spans add up to its wall time; the
/// self times of its gap spans are the part no layer claims
/// (unattributed).
struct LedgerSummary {
  std::map<std::string, double> self_s;   ///< per span name, summed
  std::map<std::string, std::size_t> count;  ///< spans per name
  double op_wall_s = 0.0;                 ///< sum of root durations
  double unattributed_s = 0.0;            ///< sum of gap spans' self times
  std::size_t ops = 0;
  std::size_t open_ops = 0;  ///< ops whose unattributed share > tolerance
};

/// Bound on the aggregate unattributed share for the traced run to count
/// as closed; also the per-op threshold behind open_ops. The measured
/// shares are 0.045 (paper_cold, nearly all alloc.other), 0.027
/// (paper_certified) and 0.003 (whatif_service); leaving out any one
/// derived timer pushes at least one workload past the bound.
inline constexpr double kLedgerTolerance = 0.10;

LedgerSummary summarize(const std::vector<Span>& spans);

/// Appends another recorder's spans, renumbering their ops and parents.
void append_spans(std::vector<Span>& into, const std::vector<Span>& from);

/// One JSON object per span (op, id, parent, name, start/end in seconds,
/// derived, gap); false when the file cannot be written.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

// --- Reference optima ----------------------------------------------------

struct Reference {
  std::string status;  ///< "optimal" | "infeasible"
  std::int64_t cost = -1;
};

/// Loads `id<TAB>objective<TAB>status<TAB>cost<TAB>...` rows; '#' starts
/// a comment. Throws std::runtime_error on a malformed file.
std::map<std::string, Reference> load_references(const std::string& path);

// --- Determinism registry ------------------------------------------------

/// Exact counts of one solve. Every repeat of an instance inside a run
/// must reproduce the first one bit for bit.
struct ExactCounts {
  std::int64_t vars = 0;
  std::uint64_t lits = 0;
  std::uint64_t pb = 0;
  std::uint64_t conflicts = 0;
  int sat_calls = 0;
  std::uint64_t lemmas = 0;
  std::int64_t sa_cost = 0;

  bool operator==(const ExactCounts&) const = default;
};

class DeterminismLog {
 public:
  /// False (with a message on stderr) when `counts` differ from the
  /// first record of `id`.
  bool check(const std::string& id, const ExactCounts& counts);
  std::size_t mismatches() const { return mismatches_; }

 private:
  std::map<std::string, ExactCounts> first_;
  std::size_t mismatches_ = 0;
};

// --- Result --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// The driver's last stdout line: {"correct":..,"attempted":..,
/// "failed":..,"metrics":{name:{"value":v,"unit":u},..}} with every value
/// printed to full double precision.
std::string result_line(const RunResult& result);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Fixed integer kernel used as a host-speed probe; milliseconds.
double reference_kernel_ms();

}  // namespace perfbench
