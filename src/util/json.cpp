#include "util/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace nonmask::util {

const char* JsonValue::type_name() const noexcept {
  switch (type) {
    case Type::kNull: return "null";
    case Type::kBool: return "bool";
    case Type::kInt: return "int";
    case Type::kDouble: return "number";
    case Type::kString: return "string";
    case Type::kArray: return "array";
    case Type::kObject: return "object";
  }
  return "?";
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    skip_ws();
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw JsonParseError(message, line_, col_);
  }

  bool eof() const noexcept { return pos_ >= text_.size(); }
  char peek() const noexcept { return text_[pos_]; }

  char advance() {
    const char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        advance();
      } else {
        break;
      }
    }
  }

  void expect(char c, const char* what) {
    if (eof() || peek() != c) fail(std::string("expected ") + what);
    advance();
  }

  JsonValue parse_value() {
    if (eof()) fail("unexpected end of input");
    JsonValue v;
    v.line = line_;
    v.col = col_;
    const char c = peek();
    switch (c) {
      case '{':
      case '[':
        if (++depth_ > kMaxJsonDepth) {
          fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
               " levels");
        }
        if (c == '{') {
          parse_object(v);
        } else {
          parse_array(v);
        }
        --depth_;
        return v;
      case '"':
        v.type = JsonValue::Type::kString;
        v.string_value = parse_string();
        return v;
      case 't':
        parse_literal("true");
        v.type = JsonValue::Type::kBool;
        v.bool_value = true;
        return v;
      case 'f':
        parse_literal("false");
        v.type = JsonValue::Type::kBool;
        v.bool_value = false;
        return v;
      case 'n':
        parse_literal("null");
        v.type = JsonValue::Type::kNull;
        return v;
      default:
        if (c == '-' || (c >= '0' && c <= '9')) {
          parse_number(v);
          return v;
        }
        fail(std::string("unexpected character '") + c + "'");
    }
  }

  void parse_literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (eof() || peek() != *p) {
        fail(std::string("invalid literal (expected '") + word + "')");
      }
      advance();
    }
  }

  void parse_object(JsonValue& v) {
    v.type = JsonValue::Type::kObject;
    advance();  // '{'
    skip_ws();
    if (!eof() && peek() == '}') {
      advance();
      return;
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      for (const auto& [existing, unused] : v.object) {
        (void)unused;
        if (existing == key) fail("duplicate object key \"" + key + "\"");
      }
      skip_ws();
      expect(':', "':' after object key");
      skip_ws();
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (eof()) fail("unterminated object");
      if (peek() == ',') {
        advance();
        continue;
      }
      if (peek() == '}') {
        advance();
        return;
      }
      fail("expected ',' or '}' in object");
    }
  }

  void parse_array(JsonValue& v) {
    v.type = JsonValue::Type::kArray;
    advance();  // '['
    skip_ws();
    if (!eof() && peek() == ']') {
      advance();
      return;
    }
    while (true) {
      skip_ws();
      v.array.push_back(parse_value());
      skip_ws();
      if (eof()) fail("unterminated array");
      if (peek() == ',') {
        advance();
        continue;
      }
      if (peek() == ']') {
        advance();
        return;
      }
      fail("expected ',' or ']' in array");
    }
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      if (eof()) fail("unterminated \\u escape");
      const char c = advance();
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape digit");
      }
    }
    return value;
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80u) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800u) {
      out.push_back(static_cast<char>(0xC0u | (cp >> 6)));
      out.push_back(static_cast<char>(0x80u | (cp & 0x3Fu)));
    } else if (cp < 0x10000u) {
      out.push_back(static_cast<char>(0xE0u | (cp >> 12)));
      out.push_back(static_cast<char>(0x80u | ((cp >> 6) & 0x3Fu)));
      out.push_back(static_cast<char>(0x80u | (cp & 0x3Fu)));
    } else {
      out.push_back(static_cast<char>(0xF0u | (cp >> 18)));
      out.push_back(static_cast<char>(0x80u | ((cp >> 12) & 0x3Fu)));
      out.push_back(static_cast<char>(0x80u | ((cp >> 6) & 0x3Fu)));
      out.push_back(static_cast<char>(0x80u | (cp & 0x3Fu)));
    }
  }

  std::string parse_string() {
    advance();  // '"'
    std::string out;
    while (true) {
      if (eof()) fail("unterminated string");
      const char c = advance();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20u) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (eof()) fail("unterminated escape");
      const char e = advance();
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
          unsigned cp = parse_hex4();
          if (cp >= 0xD800u && cp <= 0xDBFFu) {
            if (eof() || peek() != '\\') fail("unpaired high surrogate");
            advance();
            if (eof() || peek() != 'u') fail("unpaired high surrogate");
            advance();
            const unsigned low = parse_hex4();
            if (low < 0xDC00u || low > 0xDFFFu) {
              fail("invalid low surrogate");
            }
            cp = 0x10000u + ((cp - 0xD800u) << 10) + (low - 0xDC00u);
          } else if (cp >= 0xDC00u && cp <= 0xDFFFu) {
            fail("unexpected low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("invalid escape character");
      }
    }
  }

  void parse_number(JsonValue& v) {
    const std::size_t start = pos_;
    bool integral = true;
    if (!eof() && peek() == '-') advance();
    if (eof() || peek() < '0' || peek() > '9') fail("invalid number");
    while (!eof() && peek() >= '0' && peek() <= '9') advance();
    if (!eof() && peek() == '.') {
      integral = false;
      advance();
      if (eof() || peek() < '0' || peek() > '9') {
        fail("digit required after decimal point");
      }
      while (!eof() && peek() >= '0' && peek() <= '9') advance();
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      integral = false;
      advance();
      if (!eof() && (peek() == '+' || peek() == '-')) advance();
      if (eof() || peek() < '0' || peek() > '9') {
        fail("digit required in exponent");
      }
      while (!eof() && peek() >= '0' && peek() <= '9') advance();
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long parsed = std::strtoll(token.c_str(), &end, 10);
      if (errno != 0 || end == token.c_str() || *end != '\0') {
        fail("integer out of range");
      }
      v.type = JsonValue::Type::kInt;
      v.int_value = parsed;
    } else {
      errno = 0;
      char* end = nullptr;
      const double parsed = std::strtod(token.c_str(), &end);
      if (end == token.c_str() || *end != '\0' || !std::isfinite(parsed)) {
        fail("invalid number");
      }
      v.type = JsonValue::Type::kDouble;
      v.double_value = parsed;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
  int depth_ = 0;  ///< arrays/objects open at the current position
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

JsonValue jnull() { return JsonValue{}; }

JsonValue jbool(bool v) {
  JsonValue j;
  j.type = JsonValue::Type::kBool;
  j.bool_value = v;
  return j;
}

JsonValue jint(std::int64_t v) {
  JsonValue j;
  j.type = JsonValue::Type::kInt;
  j.int_value = v;
  return j;
}

JsonValue jstr(std::string v) {
  JsonValue j;
  j.type = JsonValue::Type::kString;
  j.string_value = std::move(v);
  return j;
}

JsonValue jarr() {
  JsonValue j;
  j.type = JsonValue::Type::kArray;
  return j;
}

JsonValue jobj() {
  JsonValue j;
  j.type = JsonValue::Type::kObject;
  return j;
}

std::string json_quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20u) {
          static const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(static_cast<unsigned char>(c) >> 4) & 0xF];
          out += kHex[static_cast<unsigned char>(c) & 0xF];
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

namespace {

void dump_value(const JsonValue& v, int depth, std::string& out) {
  const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
  const std::string pad_in(static_cast<std::size_t>(depth + 1) * 2, ' ');
  switch (v.type) {
    case JsonValue::Type::kNull: out += "null"; return;
    case JsonValue::Type::kBool: out += v.bool_value ? "true" : "false"; return;
    case JsonValue::Type::kInt: out += std::to_string(v.int_value); return;
    case JsonValue::Type::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", v.double_value);
      out += buf;
      return;
    }
    case JsonValue::Type::kString: out += json_quote(v.string_value); return;
    case JsonValue::Type::kArray: {
      if (v.array.empty()) {
        out += "[]";
        return;
      }
      out += "[\n";
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        out += pad_in;
        dump_value(v.array[i], depth + 1, out);
        if (i + 1 < v.array.size()) out += ',';
        out += '\n';
      }
      out += pad + "]";
      return;
    }
    case JsonValue::Type::kObject: {
      if (v.object.empty()) {
        out += "{}";
        return;
      }
      out += "{\n";
      for (std::size_t i = 0; i < v.object.size(); ++i) {
        out += pad_in + json_quote(v.object[i].first) + ": ";
        dump_value(v.object[i].second, depth + 1, out);
        if (i + 1 < v.object.size()) out += ',';
        out += '\n';
      }
      out += pad + "}";
      return;
    }
  }
}

}  // namespace

std::string dump_json(const JsonValue& v) {
  std::string out;
  dump_value(v, 0, out);
  out += '\n';
  return out;
}

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) out_->push_back(',');
    has_element_.back() = true;
  }
}

void JsonWriter::begin_object() {
  separate();
  out_->push_back('{');
  has_element_.push_back(false);
}

void JsonWriter::end_object() {
  has_element_.pop_back();
  out_->push_back('}');
}

void JsonWriter::begin_array() {
  separate();
  out_->push_back('[');
  has_element_.push_back(false);
}

void JsonWriter::end_array() {
  has_element_.pop_back();
  out_->push_back(']');
}

void JsonWriter::key(std::string_view k) {
  separate();
  *out_ += json_quote(k);
  out_->push_back(':');
  after_key_ = true;
}

void JsonWriter::value(std::string_view v) {
  separate();
  *out_ += json_quote(v);
}

void JsonWriter::value(std::uint64_t v) {
  separate();
  *out_ += std::to_string(v);
}

void JsonWriter::value(std::int64_t v) {
  separate();
  *out_ += std::to_string(v);
}

void JsonWriter::value(double v) {
  separate();
  if (!std::isfinite(v)) {
    *out_ += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out_ += buf;
}

void JsonWriter::value(bool v) {
  separate();
  *out_ += v ? "true" : "false";
}

void JsonWriter::null() {
  separate();
  *out_ += "null";
}

void JsonWriter::raw(std::string_view json) {
  separate();
  *out_ += json;
}

}  // namespace nonmask::util
