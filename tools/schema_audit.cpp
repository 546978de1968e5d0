// Static schema-drift audit for the trace vocabulary and the metric
// namespace.
//
// The trace event schema lives in three places that must agree:
//   1. the emit sites — every `obs::TraceEvent("<kind>")` /
//      `obs::FlightNote("<kind>")` construction under src/ and tools/;
//   2. the validator's rule table — `required_fields()` in
//      tests/trace_schema_check.cpp;
//   3. the human-facing event table in README.md.
//
// This tool re-derives (1) by scanning the sources, parses (2) and (3),
// and fails when any emitted kind is missing a validation rule or a
// README row, or when a rule/row names a kind nothing emits any more.
// It runs as a ctest on every build, so adding an event without teaching
// the validator and the docs about it breaks the suite immediately —
// schema drift is a compile-adjacent error, not an archaeology project.
//
// The metric namespace gets the same treatment: every registration
// literal — `obs::counter("<name>")`, gauge, timer, histogram and
// `obs::resource("<name>")` — found under src/ and tools/ must have a
// row (with the matching kind) in README.md's "Metrics reference" table,
// and every table row must correspond to a live registration site.
//
// Usage: schema_audit <repo-root> [--also <file-or-dir>]...
//   --also adds extra scan roots (the drift-fixture test points one at a
//   file with a deliberately undocumented event).
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

bool kind_like(const std::string& s) {
  if (s.empty()) return false;
  return std::all_of(s.begin(), s.end(), [](unsigned char c) {
    return std::islower(c) || std::isdigit(c) || c == '_';
  });
}

int line_of(const std::string& text, std::size_t pos) {
  return 1 + static_cast<int>(std::count(text.begin(),
                                         text.begin() +
                                             static_cast<std::ptrdiff_t>(pos),
                                         '\n'));
}

/// An emit site: file:line plus every kind the constructor can produce
/// (a ternary argument yields several).
struct EmitSite {
  std::string file;
  int line = 0;
  std::string kind;
};

/// Find `TraceEvent`/`FlightNote` constructions in `text` and pull the
/// kind-shaped string literals out of the constructor's own parentheses
/// (balanced-paren scan, so literals in chained `.str(...)` calls are
/// never picked up). Declarations without a literal argument contribute
/// nothing.
void scan_source(const std::string& display_path, const std::string& raw,
                 std::vector<EmitSite>& sites) {
  const std::string text = strip_comments(raw);
  static const std::string kNames[] = {"TraceEvent", "FlightNote"};
  for (const auto& name : kNames) {
    std::size_t pos = 0;
    while ((pos = text.find(name, pos)) != std::string::npos) {
      const std::size_t start = pos;
      pos += name.size();
      // Reject identifier contexts like "kTraceEventMax" or
      // "TraceEventImpl" (the name must be a whole token).
      if (start > 0 &&
          (std::isalnum(static_cast<unsigned char>(text[start - 1])) ||
           text[start - 1] == '_')) {
        continue;
      }
      std::size_t i = pos;
      // Skip an optional variable name: `obs::TraceEvent e("interval")`.
      while (i < text.size() &&
             std::isspace(static_cast<unsigned char>(text[i]))) ++i;
      if (i < text.size() &&
          (std::isalpha(static_cast<unsigned char>(text[i])) ||
           text[i] == '_')) {
        while (i < text.size() &&
               (std::isalnum(static_cast<unsigned char>(text[i])) ||
                text[i] == '_')) ++i;
        while (i < text.size() &&
               std::isspace(static_cast<unsigned char>(text[i]))) ++i;
      }
      if (i >= text.size() || text[i] != '(') continue;
      // Balanced scan over the constructor argument list only.
      int depth = 0;
      std::vector<std::string> literals;
      for (; i < text.size(); ++i) {
        const char c = text[i];
        if (c == '(') {
          ++depth;
        } else if (c == ')') {
          if (--depth == 0) break;
        } else if (c == '"') {
          std::string lit;
          for (++i; i < text.size() && text[i] != '"'; ++i) {
            if (text[i] == '\\') ++i;
            else lit.push_back(text[i]);
          }
          literals.push_back(std::move(lit));
        }
      }
      for (auto& lit : literals) {
        if (!kind_like(lit)) continue;
        sites.push_back({display_path, line_of(text, start), std::move(lit)});
      }
    }
  }
}

bool metric_name_like(const std::string& s) {
  if (s.empty()) return false;
  return std::all_of(s.begin(), s.end(), [](unsigned char c) {
    return std::islower(c) || std::isdigit(c) || c == '_' || c == '.';
  });
}

/// A metric registration site: file:line, the registering function
/// (counter/gauge/timer/histogram/resource) and the name literal.
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
      {"obs::resource(\"", "resource"},
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
               std::vector<EmitSite>& sites,
               std::vector<MetricSite>& metric_sites) {
  std::error_code ec;
  if (fs::is_regular_file(root, ec)) {
    std::string raw;
    if (!read_file(root, raw)) return false;
    scan_source(root.string(), raw, sites);
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
    scan_source(rel, raw, sites);
    scan_metric_sites(rel, raw, metric_sites);
  }
  return true;
}

/// Pull the ruled kinds out of required_fields() in
/// tests/trace_schema_check.cpp: every `{"<kind>",` between
/// `kSchema = {` and the closing `};`.
bool parse_rule_table(const fs::path& path, std::set<std::string>& kinds) {
  std::string raw;
  if (!read_file(path, raw)) {
    std::fprintf(stderr, "schema_audit: cannot read %s\n",
                 path.string().c_str());
    return false;
  }
  const std::string text = strip_comments(raw);
  const std::size_t begin = text.find("kSchema = {");
  if (begin == std::string::npos) {
    std::fprintf(stderr, "schema_audit: no `kSchema = {` in %s\n",
                 path.string().c_str());
    return false;
  }
  const std::size_t end = text.find("};", begin);
  if (end == std::string::npos) return false;
  std::size_t pos = begin;
  while ((pos = text.find("{\"", pos)) != std::string::npos && pos < end) {
    pos += 2;
    const std::size_t close = text.find('"', pos);
    if (close == std::string::npos || close > end) break;
    const std::string kind = text.substr(pos, close - pos);
    pos = close;
    // A rule entry is `{"<kind>", {<fields>}}`; the nested field vectors
    // `{"call", "result", ...}` have `, "` after their first literal, so
    // requiring `, {` here keeps field names out of the kind set.
    std::size_t after = close + 1;
    while (after < end &&
           std::isspace(static_cast<unsigned char>(text[after]))) ++after;
    if (after >= end || text[after] != ',') continue;
    ++after;
    while (after < end &&
           std::isspace(static_cast<unsigned char>(text[after]))) ++after;
    if (after >= end || text[after] != '{') continue;
    if (kind_like(kind)) kinds.insert(kind);
  }
  if (kinds.empty()) {
    std::fprintf(stderr, "schema_audit: rule table in %s parsed empty\n",
                 path.string().c_str());
    return false;
  }
  return true;
}

/// Pull the documented kinds out of README.md's event table: the
/// backticked tokens in the first cell of each `| \`...\` |` row
/// (`span_begin` / `span_end` is two separate backticked tokens).
bool parse_readme_table(const fs::path& path, std::set<std::string>& kinds) {
  std::string raw;
  if (!read_file(path, raw)) {
    std::fprintf(stderr, "schema_audit: cannot read %s\n",
                 path.string().c_str());
    return false;
  }
  std::istringstream in(raw);
  std::string line;
  // README has several tables; the event table is the one whose header
  // row is "| `type` | emitted by | payload |".
  bool in_table = false;
  while (std::getline(in, line)) {
    if (!in_table) {
      if (line.find("emitted by") != std::string::npos &&
          line.find('|') != std::string::npos) {
        in_table = true;
      }
      continue;
    }
    std::size_t i = line.find_first_not_of(" \t");
    if (i == std::string::npos || line[i] != '|') break;  // table ended
    const std::size_t cell_end = line.find('|', i + 1);
    if (cell_end == std::string::npos) continue;
    const std::string cell = line.substr(i + 1, cell_end - i - 1);
    if (cell.find('`') == std::string::npos) continue;  // |---|---| row
    // Every backticked token in the first cell.
    std::size_t p = 0;
    while ((p = cell.find('`', p)) != std::string::npos) {
      const std::size_t q = cell.find('`', p + 1);
      if (q == std::string::npos) break;
      const std::string tok = cell.substr(p + 1, q - p - 1);
      p = q + 1;
      if (kind_like(tok)) kinds.insert(tok);
    }
  }
  if (kinds.empty()) {
    std::fprintf(stderr, "schema_audit: event table in %s parsed empty\n",
                 path.string().c_str());
    return false;
  }
  return true;
}

/// Pull the documented metrics out of README.md's "Metrics reference"
/// table — the one whose header row mentions both "metric" and "kind".
/// Each row's first cell carries the backticked name, the second cell
/// the kind word (counter/gauge/timer/histogram/resource).
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
                 "usage: %s <repo-root> [--also <file-or-dir>]...\n", argv[0]);
    return 2;
  }
  const fs::path root = argv[1];
  std::vector<fs::path> scan_roots = {root / "src", root / "tools"};
  for (int i = 2; i < argc; ++i) {
    if (std::string(argv[i]) == "--also" && i + 1 < argc) {
      scan_roots.emplace_back(argv[++i]);
    } else {
      std::fprintf(stderr, "schema_audit: unknown argument %s\n", argv[i]);
      return 2;
    }
  }

  std::vector<EmitSite> sites;
  std::vector<MetricSite> metric_sites;
  for (const auto& r : scan_roots) {
    if (!scan_root(root, r, sites, metric_sites)) {
      std::fprintf(stderr, "schema_audit: cannot scan %s\n",
                   r.string().c_str());
      return 2;
    }
  }
  if (sites.empty()) {
    std::fprintf(stderr, "schema_audit: found no emit sites — wrong root?\n");
    return 2;
  }
  if (metric_sites.empty()) {
    std::fprintf(stderr,
                 "schema_audit: found no metric registrations — wrong "
                 "root?\n");
    return 2;
  }

  std::set<std::string> ruled;
  std::set<std::string> documented;
  std::map<std::string, std::string> metric_docs;
  if (!parse_rule_table(root / "tests" / "trace_schema_check.cpp", ruled) ||
      !parse_readme_table(root / "README.md", documented) ||
      !parse_metrics_table(root / "README.md", metric_docs)) {
    return 2;
  }

  std::map<std::string, std::vector<const EmitSite*>> by_kind;
  for (const auto& site : sites) by_kind[site.kind].push_back(&site);

  int drift = 0;
  for (const auto& [kind, where] : by_kind) {
    const bool has_rule = ruled.count(kind) > 0;
    const bool has_doc = documented.count(kind) > 0;
    if (has_rule && has_doc) continue;
    for (const auto* site : where) {
      std::fprintf(stderr, "schema_audit: %s:%d: event \"%s\" %s%s%s\n",
                   site->file.c_str(), site->line, kind.c_str(),
                   has_rule ? "" : "has no rule in trace_schema_check.cpp",
                   !has_rule && !has_doc ? " and " : "",
                   has_doc ? "" : "has no row in the README event table");
    }
    ++drift;
  }
  for (const auto& kind : ruled) {
    if (by_kind.count(kind) == 0) {
      std::fprintf(stderr,
                   "schema_audit: rule for \"%s\" in trace_schema_check.cpp "
                   "but nothing emits it\n",
                   kind.c_str());
      ++drift;
    }
  }
  for (const auto& kind : documented) {
    if (by_kind.count(kind) == 0) {
      std::fprintf(stderr,
                   "schema_audit: README documents \"%s\" but nothing "
                   "emits it\n",
                   kind.c_str());
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

  std::printf("schema_audit: %zu emit sites, %zu kinds, %zu ruled, "
              "%zu documented; %zu metric sites, %zu metrics, "
              "%zu documented metrics\n",
              sites.size(), by_kind.size(), ruled.size(), documented.size(),
              metric_sites.size(), metrics_by_name.size(),
              metric_docs.size());
  if (drift > 0) {
    std::fprintf(stderr, "schema_audit: %d schema drift problem(s)\n", drift);
    return 1;
  }
  for (const auto& [kind, where] : by_kind) {
    std::printf("  %-18s %zu site(s)\n", kind.c_str(), where.size());
  }
  return 0;
}
