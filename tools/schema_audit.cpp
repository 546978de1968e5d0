// Static schema-drift audit for the trace vocabulary and the metric
// namespace.
//
// Every trace event kind is declared once, in src/obs/events.def, and
// emitted as `obs::Event(obs::ev::<kind>)`; an emit site naming an
// undeclared kind does not compile. What the compiler cannot see is a
// stale row: a kind still declared (and so still validated and
// documented) that no source emits any more. This tool reads the table
// and fails on any declared kind that no file under src/ or tools/ names
// as `ev::<kind>`.
//
// The metric namespace has no such table: every registration literal —
// `obs::counter("<name>")`, gauge, timer and histogram — found under
// src/ and tools/ must have a row (with the matching kind) in README.md's
// "Metrics reference" table, and every table row must correspond to a
// live registration site.
//
// It runs as a ctest on every build, so drift breaks the suite
// immediately instead of surfacing as an archaeology project.
//
// Usage: schema_audit <repo-root> [--also <file-or-dir>]...
//                     [--events <table.def>]...
//   --also adds extra scan roots; --events audits an extra events table
//   next to src/obs/events.def (the drift-fixture tests use both to
//   plant an undocumented metric and a kind nothing emits).
//
// Exit status: 0 = in sync, 1 = drift, 2 = usage/IO error.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

bool read_file(const fs::path& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

/// Blank out // and /* */ comments and the contents of character
/// literals, preserving string literals and offsets (so line numbers in
/// diagnostics stay honest). Good enough for this codebase's C++ — raw
/// strings and digraphs are not used at emit sites.
std::string strip_comments(const std::string& src) {
  std::string out = src;
  enum class St { kCode, kLine, kBlock, kString, kChar } st = St::kCode;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const char next = i + 1 < out.size() ? out[i + 1] : '\0';
    switch (st) {
      case St::kCode:
        if (c == '/' && next == '/') {
          st = St::kLine;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          st = St::kBlock;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          st = St::kString;
        } else if (c == '\'') {
          st = St::kChar;
        }
        break;
      case St::kLine:
        if (c == '\n') st = St::kCode;
        else out[i] = ' ';
        break;
      case St::kBlock:
        if (c == '*' && next == '/') {
          st = St::kCode;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kString:
        if (c == '\\') ++i;
        else if (c == '"') st = St::kCode;
        break;
      case St::kChar:
        if (c == '\\') { out[++i] = ' '; }
        else if (c == '\'') st = St::kCode;
        else out[i] = ' ';
        break;
    }
  }
  return out;
}

int line_of(const std::string& text, std::size_t pos) {
  return 1 + static_cast<int>(std::count(text.begin(),
                                         text.begin() +
                                             static_cast<std::ptrdiff_t>(pos),
                                         '\n'));
}

bool identifier_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Record every kind `text` names as `ev::<kind>` (a whole-token `ev`, so
/// `prev::x` does not count).
void scan_event_names(const std::string& raw, std::set<std::string>& named) {
  const std::string text = strip_comments(raw);
  std::size_t pos = 0;
  while ((pos = text.find("ev::", pos)) != std::string::npos) {
    const std::size_t start = pos;
    pos += 4;
    if (start > 0 && identifier_char(text[start - 1])) continue;
    std::size_t end = pos;
    while (end < text.size() && identifier_char(text[end])) ++end;
    if (end > pos) named.insert(text.substr(pos, end - pos));
  }
}

bool metric_name_like(const std::string& s) {
  if (s.empty()) return false;
  return std::all_of(s.begin(), s.end(), [](unsigned char c) {
    return std::islower(c) || std::isdigit(c) || c == '_' || c == '.';
  });
}

/// A metric registration site: file:line, the registering function
/// (counter/gauge/timer/histogram) and the name literal.
struct MetricSite {
  std::string file;
  int line = 0;
  std::string kind;
  std::string name;
};

/// Find `obs::counter("<name>")`-style registrations in `text`. Only the
/// qualified form with an immediate string literal counts — that is the
/// codebase idiom, and it keeps helper functions that merely *take* a
/// name (histogram_quantile and friends) out of the inventory.
void scan_metric_sites(const std::string& display_path,
                       const std::string& raw,
                       std::vector<MetricSite>& sites) {
  const std::string text = strip_comments(raw);
  static const std::pair<const char*, const char*> kFns[] = {
      {"obs::counter(\"", "counter"},   {"obs::gauge(\"", "gauge"},
      {"obs::timer(\"", "timer"},       {"obs::histogram(\"", "histogram"},
  };
  for (const auto& [pattern, kind] : kFns) {
    const std::size_t skip = std::strlen(pattern);
    std::size_t pos = 0;
    while ((pos = text.find(pattern, pos)) != std::string::npos) {
      const std::size_t start = pos;
      pos += skip;
      const std::size_t close = text.find('"', pos);
      if (close == std::string::npos) break;
      const std::string name = text.substr(pos, close - pos);
      pos = close + 1;
      if (metric_name_like(name)) {
        sites.push_back({display_path, line_of(text, start), kind, name});
      }
    }
  }
}

bool has_ext(const fs::path& p) {
  const auto ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

bool scan_root(const fs::path& repo_root, const fs::path& root,
               std::set<std::string>& named,
               std::vector<MetricSite>& metric_sites) {
  std::error_code ec;
  if (fs::is_regular_file(root, ec)) {
    std::string raw;
    if (!read_file(root, raw)) return false;
    scan_event_names(raw, named);
    scan_metric_sites(root.string(), raw, metric_sites);
    return true;
  }
  if (!fs::is_directory(root, ec)) return false;
  std::vector<fs::path> files;
  for (auto it = fs::recursive_directory_iterator(root, ec);
       it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (ec) return false;
    if (it->is_regular_file() && has_ext(it->path())) {
      files.push_back(it->path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const auto& f : files) {
    std::string raw;
    if (!read_file(f, raw)) return false;
    const std::string rel = fs::relative(f, repo_root, ec).generic_string();
    scan_event_names(raw, named);
    scan_metric_sites(rel, raw, metric_sites);
  }
  return true;
}

/// The kinds an events table declares: the first argument of every
/// `OBS_EVENT(` row.
bool parse_events_table(const fs::path& path,
                        std::vector<std::string>& kinds) {
  std::string raw;
  if (!read_file(path, raw)) {
    std::fprintf(stderr, "schema_audit: cannot read %s\n",
                 path.string().c_str());
    return false;
  }
  const std::string text = strip_comments(raw);
  const std::string row = "OBS_EVENT(";
  const std::size_t before = kinds.size();
  std::size_t pos = 0;
  while ((pos = text.find(row, pos)) != std::string::npos) {
    pos += row.size();
    std::size_t end = pos;
    while (end < text.size() && identifier_char(text[end])) ++end;
    if (end > pos) kinds.push_back(text.substr(pos, end - pos));
  }
  if (kinds.size() == before) {
    std::fprintf(stderr, "schema_audit: events table %s parsed empty\n",
                 path.string().c_str());
    return false;
  }
  return true;
}

/// Pull the documented metrics out of README.md's "Metrics reference"
/// table — the one whose header row mentions both "metric" and "kind".
/// Each row's first cell carries the backticked name, the second cell
/// the kind word (counter/gauge/timer/histogram).
bool parse_metrics_table(const fs::path& path,
                         std::map<std::string, std::string>& kind_by_name) {
  std::string raw;
  if (!read_file(path, raw)) {
    std::fprintf(stderr, "schema_audit: cannot read %s\n",
                 path.string().c_str());
    return false;
  }
  std::istringstream in(raw);
  std::string line;
  bool in_table = false;
  while (std::getline(in, line)) {
    if (!in_table) {
      if (line.find('|') != std::string::npos &&
          line.find("metric") != std::string::npos &&
          line.find("kind") != std::string::npos) {
        in_table = true;
      }
      continue;
    }
    const std::size_t i = line.find_first_not_of(" \t");
    if (i == std::string::npos || line[i] != '|') break;  // table ended
    const std::size_t c1 = line.find('|', i + 1);
    if (c1 == std::string::npos) continue;
    const std::size_t c2 = line.find('|', c1 + 1);
    if (c2 == std::string::npos) continue;
    const std::string name_cell = line.substr(i + 1, c1 - i - 1);
    const std::size_t bq = name_cell.find('`');
    if (bq == std::string::npos) continue;  // |---|---| separator row
    const std::size_t eq = name_cell.find('`', bq + 1);
    if (eq == std::string::npos) continue;
    const std::string name = name_cell.substr(bq + 1, eq - bq - 1);
    std::string kind = line.substr(c1 + 1, c2 - c1 - 1);
    kind.erase(0, kind.find_first_not_of(" \t"));
    kind.erase(kind.find_last_not_of(" \t") + 1);
    if (metric_name_like(name) && !kind.empty()) kind_by_name[name] = kind;
  }
  if (kind_by_name.empty()) {
    std::fprintf(stderr,
                 "schema_audit: metrics reference table in %s parsed "
                 "empty\n",
                 path.string().c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <repo-root> [--also <file-or-dir>]... "
                 "[--events <table.def>]...\n",
                 argv[0]);
    return 2;
  }
  const fs::path root = argv[1];
  std::vector<fs::path> scan_roots = {root / "src", root / "tools"};
  std::vector<fs::path> tables = {root / "src" / "obs" / "events.def"};
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--also" && i + 1 < argc) {
      scan_roots.emplace_back(argv[++i]);
    } else if (arg == "--events" && i + 1 < argc) {
      tables.emplace_back(argv[++i]);
    } else {
      std::fprintf(stderr, "schema_audit: unknown argument %s\n", argv[i]);
      return 2;
    }
  }

  std::set<std::string> named;
  std::vector<MetricSite> metric_sites;
  for (const auto& r : scan_roots) {
    if (!scan_root(root, r, named, metric_sites)) {
      std::fprintf(stderr, "schema_audit: cannot scan %s\n",
                   r.string().c_str());
      return 2;
    }
  }
  if (metric_sites.empty()) {
    std::fprintf(stderr,
                 "schema_audit: found no metric registrations — wrong "
                 "root?\n");
    return 2;
  }

  std::vector<std::string> declared;
  std::map<std::string, std::string> metric_docs;
  for (const auto& t : tables) {
    if (!parse_events_table(t, declared)) return 2;
  }
  if (!parse_metrics_table(root / "README.md", metric_docs)) return 2;

  int drift = 0;
  for (const auto& kind : declared) {
    if (named.count(kind) == 0) {
      std::fprintf(stderr,
                   "schema_audit: events.def declares \"%s\" but no source "
                   "emits ev::%s\n",
                   kind.c_str(), kind.c_str());
      ++drift;
    }
  }

  // --- Metric namespace vs README "Metrics reference" ---
  std::map<std::string, std::vector<const MetricSite*>> metrics_by_name;
  for (const auto& site : metric_sites) {
    metrics_by_name[site.name].push_back(&site);
  }
  for (const auto& [name, where] : metrics_by_name) {
    const auto doc = metric_docs.find(name);
    if (doc == metric_docs.end()) {
      for (const auto* site : where) {
        std::fprintf(stderr,
                     "schema_audit: %s:%d: metric \"%s\" has no row in the "
                     "README metrics reference table\n",
                     site->file.c_str(), site->line, name.c_str());
      }
      ++drift;
      continue;
    }
    for (const auto* site : where) {
      if (site->kind != doc->second) {
        std::fprintf(stderr,
                     "schema_audit: %s:%d: metric \"%s\" is a %s but the "
                     "README metrics reference says %s\n",
                     site->file.c_str(), site->line, name.c_str(),
                     site->kind.c_str(), doc->second.c_str());
        ++drift;
      }
    }
  }
  for (const auto& [name, kind] : metric_docs) {
    if (metrics_by_name.count(name) == 0) {
      std::fprintf(stderr,
                   "schema_audit: README metrics reference documents %s "
                   "\"%s\" but nothing registers it\n",
                   kind.c_str(), name.c_str());
      ++drift;
    }
  }

  std::printf("schema_audit: %zu declared event kinds; %zu metric sites, "
              "%zu metrics, %zu documented metrics\n",
              declared.size(), metric_sites.size(), metrics_by_name.size(),
              metric_docs.size());
  if (drift > 0) {
    std::fprintf(stderr, "schema_audit: %d schema drift problem(s)\n", drift);
    return 1;
  }
  return 0;
}
