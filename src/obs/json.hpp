#pragma once
// Minimal JSON support for the observability layer: an append-only object
// writer (used by the trace sink and the bench summaries) and a small
// recursive-descent parser (used by the trace schema validator and tests).
// Deliberately tiny — no external dependency, no DOM mutation, numbers are
// doubles (exact for the integer magnitudes telemetry emits).

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace optalloc::obs {

/// Escape a string for inclusion in a JSON string literal (no quotes).
std::string json_escape(std::string_view s);

/// Format a double the way JSON expects (no inf/nan; %.6g-style).
std::string json_number(double v);

/// Builder for one flat-or-nested JSON object. Keys are appended in call
/// order; the caller is responsible for key uniqueness.
class JsonObject {
 public:
  JsonObject& str(std::string_view key, std::string_view value);
  JsonObject& num(std::string_view key, std::int64_t value);
  JsonObject& num(std::string_view key, double value);
  JsonObject& boolean(std::string_view key, bool value);
  /// Append pre-rendered JSON (object/array/number) verbatim.
  JsonObject& raw(std::string_view key, std::string_view json);

  /// Rendered "{...}".
  std::string build() const { return body_ + "}"; }

 private:
  void key(std::string_view k);
  std::string body_ = "{";
};

/// Builder for a JSON array of pre-rendered elements.
class JsonArray {
 public:
  JsonArray& push(std::string_view json);
  std::string build() const { return body_ + "]"; }

 private:
  std::string body_ = "[";
};

// --- Parsing -----------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_object() const { return kind == Kind::kObject; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* get(std::string_view key) const;
  /// get(key) as a string/number, or nullopt on absence/kind mismatch.
  std::optional<std::string> get_string(std::string_view key) const;
  std::optional<double> get_number(std::string_view key) const;
};

/// Parse a complete JSON document. Returns nullopt on any syntax error,
/// trailing garbage, or arrays/objects nested more than 256 deep.
std::optional<JsonValue> json_parse(std::string_view text);

}  // namespace optalloc::obs
