// Benchmark driver: runs one workload for a fixed time and prints, as its
// last stdout line, the JSON result (correct / attempted / failed /
// metrics). Usually started through run.py, which builds it first:
//
//   perfbench --workload paper_cold|paper_certified|whatif_service
//             --seed N --seconds S --trace 0|1
//             --reference perfbench/reference.tsv --socket PATH
//             [--spans FILE]
//   perfbench --make-reference > perfbench/reference.tsv
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// and writes the recorded spans (JSON lines) to --spans.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "workloads.hpp"

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs{
      {"setup_s", "s"},         {"throughput_rps", "1/s"},
      {"p50_ms", "ms"},         {"p90_ms", "ms"},
      {"ok_share", "share"},    {"goodput_share", "share"},
      {"peak_rss_mb", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs{
      {"heur.anneal_ms", "ms"},
      {"heur.warm_gap", "ratio"},
      {"alloc.parse_ms", "ms"},
      {"alloc.encode_ms", "ms"},
      {"alloc.vars", "count"},
      {"alloc.lits", "count"},
      {"alloc.pb", "count"},
      {"alloc.other_ms", "ms"},
      {"sat.solve_ms", "ms"},
      {"sat.conflicts", "count"},
      {"sat.calls", "count"},
      {"sat.calls_unsat", "count"},
      {"sat.conflicts_per_s", "1/s"},
      {"check.certify_ms", "ms"},
      {"check.lemmas", "count"},
      {"check.share", "share"},
      {"rt.verify_ms", "ms"},
      {"svc.queue_ms", "ms"},
      {"svc.solve_ms", "ms"},
      {"svc.sched_ms", "ms"},
      {"svc.overhead_ms", "ms"},
      {"svc.hit_p50_ms", "ms"},
      {"svc.cache_hit_share", "share"},
      {"svc.redundant_solves", "ratio"},
      {"inc.revise_solve_ms", "ms"},
      {"inc.revise_p50_ms", "ms"},
      {"inc.revise_p90_ms", "ms"},
      {"inc.clauses_added", "count"},
      {"inc.groups_added", "count"},
      {"inc.sat_calls", "count"},
      {"inc.open_s", "s"},
      {"bench.check_ms", "ms"},
      {"ledger.unattributed_share", "share"},
      {"ledger.open_ops", "count"},
      {"trace.overhead_share", "share"},
      {"host.kernel_start_ms", "ms"},
      {"host.kernel_end_ms", "ms"},
  };
  return specs;
}

namespace {

void fill_metrics(RunResult& result, const std::vector<MetricSpec>& specs,
                  const std::map<std::string, double>& values,
                  bool missing_is_error) {
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    if (it == values.end() && missing_is_error) {
      std::fprintf(stderr, "perfbench: no value for %s\n", spec.name);
      result.correct = false;
    }
    result.add(spec.name, it == values.end() ? 0.0 : it->second, spec.unit);
  }
}

}  // namespace

void finish_result(RunResult& result, bool trace, const LedgerSummary& ledger,
                   const RunTimes& times,
                   const std::map<std::string, double>& e2e,
                   std::map<std::string, double> layer) {
  if (!trace) {
    fill_metrics(result, end_to_end_metrics(), e2e, true);
    return;
  }
  const double unattributed =
      ledger.op_wall_s > 0 ? ledger.unattributed_s / ledger.op_wall_s : 1.0;
  std::fprintf(stderr,
               "perfbench: ledger: %zu traced ops, unattributed share %.4f "
               "(tolerance %.2f), %zu ops above it\n",
               ledger.ops, unattributed, kLedgerTolerance, ledger.open_ops);
  if (ledger.ops == 0 || unattributed > kLedgerTolerance) {
    std::fprintf(stderr, "perfbench: ledger does not close\n");
    result.correct = false;
  }
  layer["ledger.unattributed_share"] = unattributed;
  layer["ledger.open_ops"] = static_cast<double>(ledger.open_ops);
  layer["trace.overhead_share"] =
      times.traced_pass_s > 0 && times.untraced_pass_s > 0
          ? times.traced_pass_s / times.untraced_pass_s - 1.0
          : 0.0;
  layer["host.kernel_start_ms"] = times.kernel_start_ms;
  layer["host.kernel_end_ms"] = times.kernel_end_ms;
  fill_metrics(result, per_layer_metrics(), layer, false);
}

}  // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --reference FILE --socket PATH [--spans FILE]\n"
               "       perfbench --make-reference\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string workload;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--make-reference") return perfbench::make_reference();
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) return usage();
    args[key.substr(2)] = argv[++i];
  }
  for (const char* required :
       {"workload", "seed", "seconds", "trace", "reference", "socket"}) {
    if (!args.count(required)) return usage();
  }
  workload = args["workload"];
  options.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  options.seconds = std::atof(args["seconds"].c_str());
  options.trace = args["trace"] == "1";
  options.reference_path = args["reference"];
  options.socket_path = args["socket"];
  if (options.trace && args.count("spans")) options.spans_path = args["spans"];
  if (options.seconds <= 0) return usage();

  try {
    perfbench::RunResult result;
    if (workload == "paper_cold") {
      result = perfbench::run_paper(options, false);
    } else if (workload == "paper_certified") {
      result = perfbench::run_paper(options, true);
    } else if (workload == "whatif_service") {
      result = perfbench::run_service(options);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   workload.c_str());
      return 2;
    }
    std::printf("%s\n", perfbench::result_line(result).c_str());
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
