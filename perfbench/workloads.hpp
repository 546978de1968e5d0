#pragma once
// The three workloads. Each returns its end-to-end metrics (untraced run)
// or its per-layer metrics (traced run) in a RunResult; the driver checks
// the names against metric_catalogue() and prints the result line.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string reference_path;  ///< reference.tsv
  std::string socket_path;     ///< whatif_service's Unix socket
  std::string spans_path;      ///< traced runs write their spans here
};

/// paper_cold (`certified` = false) and paper_certified.
RunResult run_paper(const RunOptions& options, bool certified);
RunResult run_service(const RunOptions& options);

/// Solves every catalogue instance with certification, cross-checks it
/// against exhaustive search where that is exact, and prints reference.tsv
/// rows to stdout. Returns 0 when every check passed.
int make_reference();

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric, in output order.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Every per-layer metric, in output order. A workload reports 0 for a
/// layer it does not exercise.
const std::vector<MetricSpec>& per_layer_metrics();

/// Pass and probe times every workload reports in its traced run.
struct RunTimes {
  double traced_pass_s = 0.0;    ///< median traced pass
  double untraced_pass_s = 0.0;  ///< median untraced pass
  double kernel_start_ms = 0.0;  ///< host-speed probe before the passes
  double kernel_end_ms = 0.0;    ///< and after them
};

/// Completes a workload's result. A traced run adds the per-layer values
/// every workload shares (ledger closure, tracing overhead, host-speed
/// probe), fails when its ledger does not close, and reports `layer`; an
/// untraced run reports `e2e`. Metrics come in catalogue order; a layer a
/// workload did not set is 0, and a missing end-to-end metric marks the
/// result incorrect.
void finish_result(RunResult& result, bool trace, const LedgerSummary& ledger,
                   const RunTimes& times,
                   const std::map<std::string, double>& e2e,
                   std::map<std::string, double> layer);

}  // namespace perfbench
