#include "io/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "core/assert.hpp"

namespace pfair {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  PFAIR_REQUIRE_INPUT(v != nullptr, "missing JSON key '" << key << "'");
  return *v;
}

namespace {

class Parser {
 public:
  /// Deepest array/object nesting accepted.  The parser recurses once
  /// per level (and so does JsonValue's destructor), so a hostile
  /// document of unbounded depth would overflow the stack; none of the
  /// documents this project writes nests more than a handful of levels.
  static constexpr int kMaxDepth = 256;

  explicit Parser(std::string_view text) : s_(text) {}

  JsonValue document() {
    JsonValue v = value();
    skip_ws();
    PFAIR_REQUIRE_INPUT(pos_ == s_.size(),
                        "trailing characters after JSON document at offset "
                            << pos_);
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    PFAIR_REQUIRE_INPUT(pos_ < s_.size(), "unexpected end of JSON input");
    return s_[pos_];
  }

  void expect(char c) {
    PFAIR_REQUIRE_INPUT(pos_ < s_.size() && s_[pos_] == c,
                        "expected '" << c << "' at offset " << pos_);
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      PFAIR_REQUIRE_INPUT(depth_ < kMaxDepth,
                          "JSON nesting deeper than "
                              << kMaxDepth << " levels at offset " << pos_);
      ++depth_;
      JsonValue v = c == '{' ? object() : array();
      --depth_;
      return v;
    }
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      v.string = string();
      return v;
    }
    if (consume_literal("true")) {
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      return v;
    }
    if (consume_literal("null")) return {};
    return number();
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      const char e = peek();
      ++pos_;
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out += e;
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          PFAIR_REQUIRE_INPUT(pos_ + 4 <= s_.size(),
                              "truncated \\u escape at offset " << pos_);
          unsigned code = 0;
          const auto res = std::from_chars(
              s_.data() + pos_, s_.data() + pos_ + 4, code, 16);
          PFAIR_REQUIRE_INPUT(res.ptr == s_.data() + pos_ + 4,
                              "bad \\u escape at offset " << pos_);
          pos_ += 4;
          // BMP-only, encoded as UTF-8 (enough for our own documents).
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
        default:
          PFAIR_REQUIRE_INPUT(
              false, "bad escape '\\" << e << "' at offset " << pos_);
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    const std::string_view tok = s_.substr(start, pos_ - start);
    PFAIR_REQUIRE_INPUT(!tok.empty() && tok != "-",
                        "expected a JSON value at offset " << start);
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    const bool integral = tok.find_first_of(".eE") == std::string_view::npos;
    if (integral) {
      const auto res = std::from_chars(tok.data(), tok.data() + tok.size(),
                                       v.integer);
      PFAIR_REQUIRE_INPUT(res.ec == std::errc() &&
                              res.ptr == tok.data() + tok.size(),
                          "bad integer literal '" << tok << "'");
      v.is_integer = true;
      v.number = static_cast<double>(v.integer);
    } else {
      try {
        v.number = std::stod(std::string(tok));
      } catch (const std::exception&) {
        PFAIR_REQUIRE_INPUT(false, "bad number literal '" << tok << "'");
      }
    }
    return v;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // arrays/objects open around the current value
};

void indent_to(std::ostream& os, int level) {
  for (int i = 0; i < level; ++i) os << ' ';
}

}  // namespace

JsonValue parse_json(std::string_view text) {
  return Parser(text).document();
}

std::string metrics_to_json(const MetricsSnapshot& snap, int indent) {
  std::ostringstream os;
  const int i1 = indent + 2, i2 = indent + 4;
  auto scalar_map = [&](const char* name,
                        const std::map<std::string, std::int64_t>& m,
                        bool trailing_comma) {
    indent_to(os, i1);
    os << '"' << name << "\": {";
    bool first = true;
    for (const auto& [k, v] : m) {
      os << (first ? "\n" : ",\n");
      first = false;
      indent_to(os, i2);
      os << '"' << json_escape(k) << "\": " << v;
    }
    if (!first) {
      os << '\n';
      indent_to(os, i1);
    }
    os << (trailing_comma ? "},\n" : "}\n");
  };

  os << "{\n";
  scalar_map("counters", snap.counters, true);
  scalar_map("gauges", snap.gauges, true);
  indent_to(os, i1);
  os << "\"histograms\": {";
  bool first = true;
  for (const auto& [k, h] : snap.histograms) {
    os << (first ? "\n" : ",\n");
    first = false;
    indent_to(os, i2);
    os << '"' << json_escape(k) << "\": {\"count\": " << h.count
       << ", \"sum\": " << h.sum << ", \"min\": " << h.min
       << ", \"max\": " << h.max << ", \"buckets\": [";
    bool bfirst = true;
    for (const auto& [b, n] : h.buckets) {
      if (!bfirst) os << ", ";
      bfirst = false;
      os << '[' << b << ", " << n << ']';
    }
    os << "]}";
  }
  if (!first) {
    os << '\n';
    indent_to(os, i1);
  }
  os << "}\n";
  indent_to(os, indent);
  os << "}";
  return os.str();
}

}  // namespace pfair
