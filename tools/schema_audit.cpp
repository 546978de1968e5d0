// Static schema-drift audit for the trace vocabulary and the metric
// namespace.
//
// Every trace event kind is declared once, in src/obs/events.def, and
// emitted as `obs::Event(obs::ev::<kind>)`; every metric is declared
// once, in src/obs/metrics.def, and written as `obs::m::<id>`. A site
// naming an undeclared kind or metric does not compile. What the
// compiler cannot see is a stale row: one still declared (and so still
// validated, listed and documented) that no source uses any more. This
// tool reads both tables and fails on any `OBS_EVENT` row that no file
// under src/ or tools/ names as `ev::<kind>`, and on any `OBS_METRIC` row
// that none names as `m::<id>`.
//
// It runs as a ctest on every build, so drift breaks the suite
// immediately instead of surfacing as an archaeology project.
//
// Usage: schema_audit <repo-root> [--events <table.def>]...
//   --events audits an extra table (of either macro) next to the two
//   under src/obs/ (the drift-fixture tests use it to plant a row
//   nothing names).
//
// Exit status: 0 = in sync, 1 = drift, 2 = usage/IO error.

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
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
/// literals, preserving string literals, so a comment mentioning a row is
/// not a use of it. Good enough for this codebase's C++ — raw strings and
/// digraphs are not used at emit sites.
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

bool identifier_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// The two row macros and the prefix their ids are used with.
struct RowKind {
  const char* macro;   ///< "OBS_EVENT(" / "OBS_METRIC("
  const char* prefix;  ///< "ev::" / "m::"
};
constexpr RowKind kRowKinds[] = {{"OBS_EVENT(", "ev::"},
                                 {"OBS_METRIC(", "m::"}};

/// Record every id `text` names as `<prefix><id>` for either prefix (a
/// whole-token prefix, so `prev::x` does not count as `ev::x`).
void scan_names(const std::string& raw, std::set<std::string>& named) {
  const std::string text = strip_comments(raw);
  for (const RowKind& rk : kRowKinds) {
    const std::string prefix = rk.prefix;
    std::size_t pos = 0;
    while ((pos = text.find(prefix, pos)) != std::string::npos) {
      const std::size_t start = pos;
      pos += prefix.size();
      if (start > 0 && identifier_char(text[start - 1])) continue;
      std::size_t end = pos;
      while (end < text.size() && identifier_char(text[end])) ++end;
      if (end > pos) named.insert(prefix + text.substr(pos, end - pos));
    }
  }
}

bool has_ext(const fs::path& p) {
  const auto ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

bool scan_root(const fs::path& root, std::set<std::string>& named) {
  std::error_code ec;
  if (!fs::is_directory(root, ec)) return false;
  for (auto it = fs::recursive_directory_iterator(root, ec);
       it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (ec) return false;
    if (!it->is_regular_file() || !has_ext(it->path())) continue;
    std::string raw;
    if (!read_file(it->path(), raw)) return false;
    scan_names(raw, named);
  }
  return true;
}

/// A declared row: the table it came from and how sources must name it.
struct Row {
  std::string table;
  std::string use;  ///< "ev::<kind>" or "m::<id>"
};

/// The rows a table declares: the first argument of every `OBS_EVENT(`
/// and `OBS_METRIC(` row.
bool parse_table(const fs::path& path, std::vector<Row>& rows) {
  std::string raw;
  if (!read_file(path, raw)) {
    std::fprintf(stderr, "schema_audit: cannot read %s\n",
                 path.string().c_str());
    return false;
  }
  const std::string text = strip_comments(raw);
  const std::size_t before = rows.size();
  for (const RowKind& rk : kRowKinds) {
    const std::string macro = rk.macro;
    std::size_t pos = 0;
    while ((pos = text.find(macro, pos)) != std::string::npos) {
      pos += macro.size();
      std::size_t end = pos;
      while (end < text.size() && identifier_char(text[end])) ++end;
      if (end > pos) {
        rows.push_back({path.filename().string(),
                        rk.prefix + text.substr(pos, end - pos)});
      }
    }
  }
  if (rows.size() == before) {
    std::fprintf(stderr, "schema_audit: table %s parsed empty\n",
                 path.string().c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <repo-root> [--events <table.def>]...\n",
                 argv[0]);
    return 2;
  }
  const fs::path root = argv[1];
  std::vector<fs::path> tables = {root / "src" / "obs" / "events.def",
                                  root / "src" / "obs" / "metrics.def"};
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--events" && i + 1 < argc) {
      tables.emplace_back(argv[++i]);
    } else {
      std::fprintf(stderr, "schema_audit: unknown argument %s\n", argv[i]);
      return 2;
    }
  }

  std::set<std::string> named;
  for (const auto& r : {root / "src", root / "tools"}) {
    if (!scan_root(r, named)) {
      std::fprintf(stderr, "schema_audit: cannot scan %s\n",
                   r.string().c_str());
      return 2;
    }
  }

  std::vector<Row> declared;
  for (const auto& t : tables) {
    if (!parse_table(t, declared)) return 2;
  }

  int drift = 0;
  for (const Row& row : declared) {
    if (named.count(row.use) == 0) {
      std::fprintf(stderr,
                   "schema_audit: %s declares a row that no source names "
                   "as %s\n",
                   row.table.c_str(), row.use.c_str());
      ++drift;
    }
  }

  std::printf("schema_audit: %zu declared rows, %d stale\n", declared.size(),
              drift);
  if (drift > 0) {
    std::fprintf(stderr, "schema_audit: %d schema drift problem(s)\n", drift);
    return 1;
  }
  return 0;
}
