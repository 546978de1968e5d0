// Compare two benchmark artifacts (BENCH_*.json) row by row.
//
//   bench_diff OLD.json NEW.json [--metrics seconds,conflicts,...]
//              [--threshold 1.20] [--json]
//
// Rows are matched by their "instance" key (table benches,
// bench_incremental) or "config" key (bench_obs_overhead). For every
// numeric metric present in both versions of a row the tool prints
// per-row ratios (new/old) and the geometric mean across rows — the
// number the performance gate in EXPERIMENTS.md is stated in. Rows
// carrying a "cost" field are additionally checked for *equality*: a
// benchmark run that got faster but reports a different optimum is a
// correctness bug, not a speedup.
//
// Exit status: 0 = clean; 1 = regression (a --threshold metric's geomean
// ratio exceeded the threshold, or a cost or status mismatch); 2 = usage
// error, or a missing or unparseable artifact. Without --threshold the
// run is informational and only cost mismatches fail it — that is the
// mode the CI steps use, diffing a fresh run against the committed
// baseline.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace obs = optalloc::obs;

namespace {

struct Row {
  std::string name;
  std::string status;  ///< empty when the artifact carries no status
  std::map<std::string, double> metrics;  ///< every numeric field
};

// Locate the row array ("instances" for the table benches and
// bench_incremental, "configs" for bench_obs_overhead) and read each
// row under its key.
bool extract_rows(const obs::JsonValue& root, const char* path,
                  std::vector<Row>& rows) {
  const obs::JsonValue* arr = root.get("instances");
  const char* key = "instance";
  if (arr == nullptr) {
    arr = root.get("configs");
    key = "config";
  }
  if (arr == nullptr || arr->kind != obs::JsonValue::Kind::kArray) {
    std::fprintf(stderr,
                 "bench_diff: %s has no \"instances\" or \"configs\" array\n",
                 path);
    return false;
  }
  for (const obs::JsonValue& item : arr->array) {
    if (!item.is_object()) continue;
    Row row;
    row.name =
        item.get_string(key).value_or("#" + std::to_string(rows.size()));
    row.status = item.get_string("status").value_or("");
    for (const auto& [field, val] : item.object) {
      if (val.is_number()) row.metrics[field] = val.number;
    }
    rows.push_back(std::move(row));
  }
  return true;
}

bool load(const char* path, std::vector<Row>& rows) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_diff: cannot open %s\n", path);
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::optional<obs::JsonValue> root = obs::json_parse(buf.str());
  if (!root || !root->is_object()) {
    std::fprintf(stderr, "bench_diff: %s: not a parseable JSON object\n",
                 path);
    return false;
  }
  return extract_rows(*root, path, rows);
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_diff OLD.json NEW.json "
               "[--metrics a,b,...] [--threshold R] [--json]\n"
               "  --metrics    restrict the report to these metrics "
               "(default: all shared numeric fields)\n"
               "  --threshold  fail (exit 1) when a reported metric's "
               "geomean new/old ratio exceeds R\n"
               "  --json       machine-readable output\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const char* old_path = nullptr;
  const char* new_path = nullptr;
  std::set<std::string> wanted;
  double threshold = 0.0;  // 0 = informational
  bool json_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      std::stringstream ss(argv[++i]);
      std::string m;
      while (std::getline(ss, m, ',')) {
        if (!m.empty()) wanted.insert(m);
      }
    } else if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
      threshold = std::atof(argv[++i]);
      if (threshold <= 0.0) {
        std::fprintf(stderr, "bench_diff: --threshold wants a ratio > 0\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_out = true;
    } else if (argv[i][0] == '-') {
      return usage();
    } else if (old_path == nullptr) {
      old_path = argv[i];
    } else if (new_path == nullptr) {
      new_path = argv[i];
    } else {
      return usage();
    }
  }
  if (old_path == nullptr || new_path == nullptr) return usage();

  std::vector<Row> old_rows;
  std::vector<Row> new_rows;
  if (!load(old_path, old_rows) || !load(new_path, new_rows)) return 2;

  std::map<std::string, const Row*> new_by_name;
  for (const Row& r : new_rows) new_by_name[r.name] = &r;

  // Per-metric log-ratio accumulation over matched rows, plus the cost /
  // status agreement check.
  struct Accum {
    double log_sum = 0.0;
    int n = 0;
  };
  std::map<std::string, Accum> accum;
  std::vector<std::string> cost_mismatches;
  struct RowDiff {
    std::string name;
    std::map<std::string, std::pair<double, double>> vals;  // old, new
  };
  std::vector<RowDiff> diffs;
  int matched = 0;

  for (const Row& o : old_rows) {
    const auto it = new_by_name.find(o.name);
    if (it == new_by_name.end()) continue;
    const Row& n = *it->second;
    ++matched;
    if (!o.status.empty() && !n.status.empty() && o.status != n.status) {
      cost_mismatches.push_back(o.name + ": status " + o.status + " -> " +
                                n.status);
    }
    const auto oc = o.metrics.find("cost");
    const auto nc = n.metrics.find("cost");
    if (oc != o.metrics.end() && nc != n.metrics.end() &&
        oc->second != nc->second) {
      cost_mismatches.push_back(
          o.name + ": cost " + std::to_string(oc->second) + " -> " +
          std::to_string(nc->second));
    }
    RowDiff d;
    d.name = o.name;
    for (const auto& [metric, old_val] : o.metrics) {
      if (!wanted.empty() && wanted.count(metric) == 0) continue;
      if (metric == "cost" || metric == "lower_bound") continue;
      const auto nv = n.metrics.find(metric);
      if (nv == n.metrics.end()) continue;
      d.vals[metric] = {old_val, nv->second};
      // Geomean only over strictly positive pairs — a zero on either
      // side (e.g. 0 conflicts) carries no ratio information.
      if (old_val > 0.0 && nv->second > 0.0) {
        Accum& a = accum[metric];
        a.log_sum += std::log(nv->second / old_val);
        ++a.n;
      }
    }
    diffs.push_back(std::move(d));
  }

  if (matched == 0) {
    std::fprintf(stderr, "bench_diff: no rows matched between %s and %s\n",
                 old_path, new_path);
    return 2;
  }

  std::map<std::string, double> geomeans;
  for (const auto& [metric, a] : accum) {
    if (a.n > 0) geomeans[metric] = std::exp(a.log_sum / a.n);
  }

  bool regression = !cost_mismatches.empty();
  std::vector<std::string> over_threshold;
  if (threshold > 0.0) {
    for (const auto& [metric, g] : geomeans) {
      if (g > threshold) {
        over_threshold.push_back(metric);
        regression = true;
      }
    }
  }

  if (json_out) {
    std::printf("{\"old\":\"%s\",\"new\":\"%s\",\"matched_rows\":%d,",
                obs::json_escape(old_path).c_str(),
                obs::json_escape(new_path).c_str(), matched);
    std::printf("\"geomean_ratios\":{");
    bool first = true;
    for (const auto& [metric, g] : geomeans) {
      std::printf("%s\"%s\":%.6f", first ? "" : ",",
                  obs::json_escape(metric).c_str(), g);
      first = false;
    }
    std::printf("},\"cost_mismatches\":[");
    first = true;
    for (const std::string& m : cost_mismatches) {
      std::printf("%s\"%s\"", first ? "" : ",", obs::json_escape(m).c_str());
      first = false;
    }
    std::printf("],\"over_threshold\":[");
    first = true;
    for (const std::string& m : over_threshold) {
      std::printf("%s\"%s\"", first ? "" : ",", obs::json_escape(m).c_str());
      first = false;
    }
    std::printf("],\"regression\":%s}\n", regression ? "true" : "false");
    return regression ? 1 : 0;
  }

  std::printf("bench_diff: %s -> %s (%d matched row%s)\n", old_path, new_path,
              matched, matched == 1 ? "" : "s");
  for (const RowDiff& d : diffs) {
    std::printf("  %s\n", d.name.c_str());
    for (const auto& [metric, vals] : d.vals) {
      const auto [ov, nv] = vals;
      if (ov > 0.0 && nv > 0.0) {
        std::printf("    %-24s %12.6g -> %12.6g   (x%.3f)\n", metric.c_str(),
                    ov, nv, nv / ov);
      } else {
        std::printf("    %-24s %12.6g -> %12.6g\n", metric.c_str(), ov, nv);
      }
    }
  }
  std::printf("geomean ratios (new/old; <1 is an improvement):\n");
  for (const auto& [metric, g] : geomeans) {
    std::printf("  %-26s x%.3f\n", metric.c_str(), g);
  }
  for (const std::string& m : cost_mismatches) {
    std::printf("COST MISMATCH: %s\n", m.c_str());
  }
  for (const std::string& m : over_threshold) {
    std::printf("REGRESSION: %s geomean x%.3f exceeds threshold x%.3f\n",
                m.c_str(), geomeans[m], threshold);
  }
  if (!regression) std::printf("ok\n");
  return regression ? 1 : 0;
}
