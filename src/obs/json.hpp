// Minimal self-contained JSON value: ordered objects, deterministic number
// formatting, a writer and a recursive-descent parser. This is the single
// serialization primitive behind the observability layer (Chrome traces,
// metrics snapshots, BENCH_*.json perf reports) and the schema validators
// the smoke tests run — deliberately no third-party dependency.
//
// Determinism contract: dumping the same value twice yields byte-identical
// text, and object members keep insertion order, so "same run => same
// bytes" holds for every emitted artifact.
#pragma once

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hg::obs {

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : kind_(Kind::kNull) {}
  Json(std::nullptr_t) : kind_(Kind::kNull) {}
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}
  Json(double d) : kind_(Kind::kNumber), num_(d) {}
  Json(int v) : kind_(Kind::kNumber), num_(v) {}
  Json(std::int64_t v) : kind_(Kind::kNumber), num_(static_cast<double>(v)) {}
  Json(std::uint64_t v)
      : kind_(Kind::kNumber), num_(static_cast<double>(v)) {}
  Json(const char* s) : kind_(Kind::kString), str_(s) {}
  Json(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  Json(std::string_view s) : kind_(Kind::kString), str_(s) {}

  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  bool is_string() const noexcept { return kind_ == Kind::kString; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }

  double as_double() const { return num_; }
  const std::string& as_string() const { return str_; }

  // --- array ---------------------------------------------------------------
  Json& push(Json v) {
    arr_.push_back(std::move(v));
    return arr_.back();
  }
  std::size_t size() const noexcept {
    return kind_ == Kind::kObject ? obj_.size() : arr_.size();
  }
  const Json& at(std::size_t i) const { return arr_.at(i); }
  const std::vector<Json>& items() const noexcept { return arr_; }

  // --- object (insertion-ordered) ------------------------------------------
  Json& set(std::string key, Json v) {
    for (auto& kv : obj_) {
      if (kv.first == key) {
        kv.second = std::move(v);
        return kv.second;
      }
    }
    obj_.emplace_back(std::move(key), std::move(v));
    return obj_.back().second;
  }
  const Json* find(std::string_view key) const {
    for (const auto& kv : obj_) {
      if (kv.first == key) return &kv.second;
    }
    return nullptr;
  }
  bool contains(std::string_view key) const { return find(key) != nullptr; }
  const std::vector<std::pair<std::string, Json>>& members() const noexcept {
    return obj_;
  }

  // --- writer --------------------------------------------------------------
  // indent < 0: compact single line; indent >= 0: pretty-printed.
  std::string dump(int indent = -1) const {
    std::string out;
    dump_to(out, indent, 0);
    return out;
  }

  // Deterministic shortest-round-trip number formatting.
  static std::string number_to_string(double v) {
    if (!std::isfinite(v)) return v > 0 ? "1e999" : (v < 0 ? "-1e999" : "0");
    if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(v));
      return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.15g", v);
    if (std::strtod(buf, nullptr) != v) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    }
    return buf;
  }

  // --- parser --------------------------------------------------------------
  // Throws std::runtime_error with an offset-annotated message on bad input,
  // including arrays and objects nested deeper than kMaxDepth: the parser
  // recurses once per level, so an unbounded depth would overflow the stack.
  // The repo's own documents nest a handful of levels.
  static constexpr int kMaxDepth = 512;

  static Json parse(std::string_view text) {
    Parser p{text, 0};
    Json v = p.parse_value();
    p.skip_ws();
    if (p.pos != text.size()) p.fail("trailing characters");
    return v;
  }

 private:
  struct Parser {
    std::string_view s;
    std::size_t pos = 0;
    int depth = 0;

    [[noreturn]] void fail(const char* what) const {
      throw std::runtime_error("json parse error at offset " +
                               std::to_string(pos) + ": " + what);
    }
    void skip_ws() {
      while (pos < s.size() &&
             (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' ||
              s[pos] == '\r')) {
        ++pos;
      }
    }
    char peek() {
      if (pos >= s.size()) fail("unexpected end of input");
      return s[pos];
    }
    void expect(char c) {
      if (peek() != c) fail("unexpected character");
      ++pos;
    }
    bool consume_lit(std::string_view lit) {
      if (s.substr(pos, lit.size()) != lit) return false;
      pos += lit.size();
      return true;
    }

    Json parse_value() {
      skip_ws();
      const char c = peek();
      if (c == '{' || c == '[') {
        if (++depth > kMaxDepth) fail("nesting too deep");
        Json v = c == '{' ? parse_object() : parse_array();
        --depth;
        return v;
      }
      if (c == '"') return Json(parse_string());
      if (c == 't') {
        if (!consume_lit("true")) fail("bad literal");
        return Json(true);
      }
      if (c == 'f') {
        if (!consume_lit("false")) fail("bad literal");
        return Json(false);
      }
      if (c == 'n') {
        if (!consume_lit("null")) fail("bad literal");
        return Json();
      }
      return parse_number();
    }

    Json parse_object() {
      expect('{');
      Json obj = Json::object();
      skip_ws();
      if (peek() == '}') {
        ++pos;
        return obj;
      }
      while (true) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        obj.set(std::move(key), parse_value());
        skip_ws();
        if (peek() == ',') {
          ++pos;
          continue;
        }
        expect('}');
        return obj;
      }
    }

    Json parse_array() {
      expect('[');
      Json arr = Json::array();
      skip_ws();
      if (peek() == ']') {
        ++pos;
        return arr;
      }
      while (true) {
        arr.push(parse_value());
        skip_ws();
        if (peek() == ',') {
          ++pos;
          continue;
        }
        expect(']');
        return arr;
      }
    }

    std::string parse_string() {
      expect('"');
      std::string out;
      while (true) {
        if (pos >= s.size()) fail("unterminated string");
        const char c = s[pos++];
        if (c == '"') return out;
        if (c != '\\') {
          out.push_back(c);
          continue;
        }
        if (pos >= s.size()) fail("bad escape");
        const char e = s[pos++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos + 4 > s.size()) fail("bad \\u escape");
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = s[pos++];
              cp <<= 4;
              if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape");
            }
            // Encode as UTF-8 (surrogate pairs untreated: BMP is enough for
            // the ASCII-ish identifiers these artifacts carry).
            if (cp < 0x80) {
              out.push_back(static_cast<char>(cp));
            } else if (cp < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
              out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
              out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            }
            break;
          }
          default: fail("bad escape");
        }
      }
    }

    Json parse_number() {
      const std::size_t start = pos;
      if (pos < s.size() && s[pos] == '-') ++pos;
      while (pos < s.size() &&
             (std::isdigit(static_cast<unsigned char>(s[pos])) ||
              s[pos] == '.' || s[pos] == 'e' || s[pos] == 'E' ||
              s[pos] == '+' || s[pos] == '-')) {
        ++pos;
      }
      if (pos == start) fail("expected a value");
      const std::string tok(s.substr(start, pos - start));
      char* end = nullptr;
      const double v = std::strtod(tok.c_str(), &end);
      if (end == nullptr || *end != '\0') fail("bad number");
      return Json(v);
    }
  };

  static void escape_to(std::string& out, const std::string& s) {
    out.push_back('"');
    for (const char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(static_cast<unsigned char>(c)));
            out += buf;
          } else {
            out.push_back(c);
          }
      }
    }
    out.push_back('"');
  }

  void dump_to(std::string& out, int indent, int depth) const {
    const bool pretty = indent >= 0;
    const auto pad = [&](int d) {
      if (pretty) {
        out.push_back('\n');
        out.append(static_cast<std::size_t>(indent * d), ' ');
      }
    };
    switch (kind_) {
      case Kind::kNull: out += "null"; return;
      case Kind::kBool: out += bool_ ? "true" : "false"; return;
      case Kind::kNumber: out += number_to_string(num_); return;
      case Kind::kString: escape_to(out, str_); return;
      case Kind::kArray: {
        if (arr_.empty()) {
          out += "[]";
          return;
        }
        out.push_back('[');
        for (std::size_t i = 0; i < arr_.size(); ++i) {
          if (i > 0) out.push_back(',');
          pad(depth + 1);
          arr_[i].dump_to(out, indent, depth + 1);
        }
        pad(depth);
        out.push_back(']');
        return;
      }
      case Kind::kObject: {
        if (obj_.empty()) {
          out += "{}";
          return;
        }
        out.push_back('{');
        for (std::size_t i = 0; i < obj_.size(); ++i) {
          if (i > 0) out.push_back(',');
          pad(depth + 1);
          escape_to(out, obj_[i].first);
          out.push_back(':');
          if (pretty) out.push_back(' ');
          obj_[i].second.dump_to(out, indent, depth + 1);
        }
        pad(depth);
        out.push_back('}');
        return;
      }
    }
  }

  Kind kind_;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

}  // namespace hg::obs
