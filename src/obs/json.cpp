#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace optalloc::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  // Integers within the exactly-representable range print without a
  // fraction so counters stay grep-friendly.
  if (v == std::floor(v) && std::fabs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void JsonObject::key(std::string_view k) {
  if (body_.size() > 1) body_ += ',';
  body_ += '"';
  body_ += json_escape(k);
  body_ += "\":";
}

JsonObject& JsonObject::str(std::string_view k, std::string_view value) {
  key(k);
  body_ += '"';
  body_ += json_escape(value);
  body_ += '"';
  return *this;
}

JsonObject& JsonObject::num(std::string_view k, std::int64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::num(std::string_view k, double value) {
  key(k);
  body_ += json_number(value);
  return *this;
}

JsonObject& JsonObject::boolean(std::string_view k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::raw(std::string_view k, std::string_view json) {
  key(k);
  body_ += json;
  return *this;
}

JsonArray& JsonArray::push(std::string_view json) {
  if (body_.size() > 1) body_ += ',';
  body_ += json;
  return *this;
}

// --- Parsing -----------------------------------------------------------

const JsonValue* JsonValue::get(std::string_view k) const {
  if (kind != Kind::kObject) return nullptr;
  const auto it = object.find(std::string(k));
  return it == object.end() ? nullptr : &it->second;
}

std::optional<std::string> JsonValue::get_string(std::string_view k) const {
  const JsonValue* v = get(k);
  if (v == nullptr || !v->is_string()) return std::nullopt;
  return v->string;
}

std::optional<double> JsonValue::get_number(std::string_view k) const {
  const JsonValue* v = get(k);
  if (v == nullptr || !v->is_number()) return std::nullopt;
  return v->number;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> run() {
    JsonValue v;
    if (!value(v)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool string(std::string& out) {
    if (!eat('"')) return false;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return false;
            }
            // Telemetry only escapes control characters; encode the BMP
            // code point as UTF-8 without surrogate-pair handling.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: return false;
        }
      } else {
        out += c;
      }
    }
    return false;  // unterminated
  }

  bool value(JsonValue& out) {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return object(out);
    if (c == '[') return array(out);
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return string(out.string);
    }
    if (c == 't') {
      out.kind = JsonValue::Kind::kBool;
      out.b = true;
      return literal("true");
    }
    if (c == 'f') {
      out.kind = JsonValue::Kind::kBool;
      out.b = false;
      return literal("false");
    }
    if (c == 'n') {
      out.kind = JsonValue::Kind::kNull;
      return literal("null");
    }
    return number(out);
  }

  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out.number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return false;
    out.kind = JsonValue::Kind::kNumber;
    return true;
  }

  bool array(JsonValue& out) {
    if (!eat('[') || !enter()) return false;
    out.kind = JsonValue::Kind::kArray;
    if (eat(']')) return leave();
    for (;;) {
      JsonValue elem;
      if (!value(elem)) return false;
      out.array.push_back(std::move(elem));
      if (eat(']')) return leave();
      if (!eat(',')) return false;
    }
  }

  bool object(JsonValue& out) {
    if (!eat('{') || !enter()) return false;
    out.kind = JsonValue::Kind::kObject;
    if (eat('}')) return leave();
    for (;;) {
      std::string k;
      skip_ws();
      if (!string(k)) return false;
      if (!eat(':')) return false;
      JsonValue v;
      if (!value(v)) return false;
      out.object.emplace(std::move(k), std::move(v));
      if (eat('}')) return leave();
      if (!eat(',')) return false;
    }
  }

  // Nesting bound: every level is a recursive call here and in
  // ~JsonValue, so an unbounded "[[[[..." line would overflow the stack.
  bool enter() { return ++depth_ <= kMaxDepth; }
  bool leave() {
    --depth_;
    return true;
  }

  static constexpr int kMaxDepth = 256;
  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::optional<JsonValue> json_parse(std::string_view text) {
  return Parser(text).run();
}

}  // namespace optalloc::obs
