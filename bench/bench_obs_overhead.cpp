// Observability overhead bench: the same optimization workload under the
// telemetry configurations —
//   off        tracing off, histograms off, flight recorder off (the
//              hot-path baseline: every producer site pays one relaxed
//              atomic load)
//   flight     flight recorder on, everything else off — the production
//              default (the recorder is always-on); the gate below keys
//              on this config
//   hist       tracing off, histograms on (bucket index + two relaxed
//              atomic adds per observation)
//   trace      tracing on (to a file), histograms off
//   all        everything on (trace + histograms + flight)
// — and writes BENCH_obs_overhead.json with per-config wall times and
// the overhead ratio of each config against "off". The configs run
// interleaved: each round times one optimize() run per config, and the
// config that goes first rotates from round to round, so host drift
// lands on every config alike. A config's ratio is the median of its
// per-round config/off ratios. Acceptance gates: tracing-off overhead
// must stay within noise (a few percent) of the untelemetered baseline,
// because production services run that way; the flight recorder (on,
// trace off) must cost <= 5% — it is the always-on post-mortem path and
// may not tax the solver.
//
// Environment knobs:
//   OPTALLOC_OBS_BENCH_REPEATS  rounds, i.e. optimize() runs per config
//                               (default 5)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "alloc/optimizer.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"
#include "workload/generator.hpp"

using namespace optalloc;

namespace {

int repeats() {
  if (const char* env = std::getenv("OPTALLOC_OBS_BENCH_REPEATS")) {
    return std::max(1, std::atoi(env));
  }
  return 5;
}

struct Config {
  const char* name;
  bool trace;
  bool histograms;
  bool flight;
};

/// One timed optimize() run over `problem` under `cfg`.
double run_config(const alloc::Problem& problem, const Config& cfg,
                  const std::string& trace_path) {
  obs::set_histograms(cfg.histograms);
  obs::set_flight(cfg.flight);
  if (cfg.trace) {
    if (!obs::trace_open(trace_path)) {
      std::fprintf(stderr, "cannot open %s\n", trace_path.c_str());
      std::exit(1);
    }
  }
  Stopwatch sw;
  alloc::OptimizeOptions opts;
  opts.time_limit_s = 60.0;
  const auto res = alloc::optimize(problem, alloc::Objective::sum_trt(), opts);
  if (res.status != alloc::OptimizeResult::Status::kOptimal) {
    std::fprintf(stderr, "bench instance did not reach the optimum\n");
    std::exit(1);
  }
  const double secs = sw.seconds();
  if (cfg.trace) obs::trace_close();
  obs::set_histograms(true);
  obs::set_flight(true);
  return secs;
}

/// Linear-interpolated quantile `q` in [0, 1] of `v` (non-empty).
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

}  // namespace

int main() {
  workload::GenOptions gen;
  gen.num_tasks = 20;
  gen.num_ecus = 5;
  const alloc::Problem problem = workload::generate(gen);
  const int reps = repeats();

  const Config configs[] = {
      {"off", false, false, false},
      {"flight", false, false, true},
      {"hist", false, true, false},
      {"trace", true, false, false},
      {"all", true, true, true},
  };

  constexpr std::size_t kConfigs = std::size(configs);
  std::printf("observability overhead: %d interleaved rounds of one "
              "optimize() run per config\n",
              reps);

  // Warm-up pass (allocator, branch predictors, metric registrations) so
  // the first measured config isn't penalized.
  run_config(problem, configs[0], "");

  // secs[c][r]: config c's run in round r. Round r starts at config
  // r mod kConfigs and wraps, so no config is always first.
  std::vector<std::vector<double>> secs(kConfigs);
  for (int r = 0; r < reps; ++r) {
    for (std::size_t k = 0; k < kConfigs; ++k) {
      const std::size_t c = (static_cast<std::size_t>(r) + k) % kConfigs;
      secs[c].push_back(
          run_config(problem, configs[c], "BENCH_obs_overhead_trace.jsonl"));
    }
  }

  std::printf("%-10s %10s %21s %8s %18s\n", "config", "s/run", "s/run q1..q3",
              "vs off", "ratio q1..q3");
  obs::JsonArray rows;
  double flight_ratio = 1.0;
  for (std::size_t c = 0; c < kConfigs; ++c) {
    const Config& cfg = configs[c];
    std::vector<double> ratios;
    for (int r = 0; r < reps; ++r) ratios.push_back(secs[c][r] / secs[0][r]);
    const double ratio = quantile(ratios, 0.5);
    if (std::string(cfg.name) == "flight") flight_ratio = ratio;
    const double s_q1 = quantile(secs[c], 0.25);
    const double s_med = quantile(secs[c], 0.5);
    const double s_q3 = quantile(secs[c], 0.75);
    const double r_q1 = quantile(ratios, 0.25);
    const double r_q3 = quantile(ratios, 0.75);
    std::printf("%-10s %10.3f %10.3f..%-9.3f %7.3fx %8.3f..%-8.3f\n",
                cfg.name, s_med, s_q1, s_q3, ratio, r_q1, r_q3);
    rows.push(obs::JsonObject()
                  .str("config", cfg.name)
                  .boolean("trace", cfg.trace)
                  .boolean("histograms", cfg.histograms)
                  .boolean("flight", cfg.flight)
                  .num("seconds_per_run", s_med)
                  .num("seconds_q1", s_q1)
                  .num("seconds_q3", s_q3)
                  .num("overhead_ratio", ratio)
                  .num("ratio_q1", r_q1)
                  .num("ratio_q3", r_q3)
                  .build());
  }
  // The flight recorder is always-on in production; it gets a 5% budget.
  const bool flight_ok = flight_ratio <= 1.05;
  std::printf("flight-recorder overhead: %.1f%% (budget 5%%) -> %s\n",
              (flight_ratio - 1.0) * 100.0, flight_ok ? "OK" : "OVER");

  const std::string path = "BENCH_obs_overhead.json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return 1;
  }
  out << obs::JsonObject()
             .str("bench", "obs_overhead")
             .num("repeats", static_cast<std::int64_t>(reps))
             .num("tasks", static_cast<std::int64_t>(gen.num_tasks))
             .num("ecus", static_cast<std::int64_t>(gen.num_ecus))
             .num("flight_overhead_ratio", flight_ratio)
             .boolean("flight_overhead_ok", flight_ok)
             .raw("configs", rows.build())
             .build()
      << '\n';
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
