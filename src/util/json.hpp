// Hand-rolled recursive-descent JSON parser (RFC 8259 subset, no external
// dependency) plus the two writers: a JsonValue tree dumped with
// indentation, and a streaming JsonWriter for compact one-line documents
// (metrics snapshots, Chrome trace events, run reports, heartbeats). The
// spec DSL (src/spec/) and the job server (src/serve/) parse documents
// through this module. Every writer quotes strings with json_quote.
//
// Every parsed value carries the line/column where it started, so the spec
// schema validator can report field-precise errors ("$.actions[2].guard:
// expected string (line 14)"). Object member order is preserved — the spec
// round-trip tests rely on deterministic iteration.
//
// Deliberate limits (documented, tested): numbers are either int64 or
// double (integral tokens without '.', 'e', 'E' parse exactly as int64);
// \uXXXX escapes outside the BMP surrogate-pair form decode per RFC;
// duplicate object keys are rejected (a spec with two "job" members is a
// mistake, not a merge).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nonmask::util {

class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(const std::string& message, int line, int col)
      : std::runtime_error(message + " (line " + std::to_string(line) +
                           ", col " + std::to_string(col) + ")"),
        line_(line),
        col_(col) {}
  int line() const noexcept { return line_; }
  int col() const noexcept { return col_; }

 private:
  int line_;
  int col_;
};

class JsonValue {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Type type = Type::kNull;
  bool bool_value = false;
  std::int64_t int_value = 0;
  double double_value = 0.0;
  std::string string_value;
  std::vector<JsonValue> array;
  /// Members in document order.
  std::vector<std::pair<std::string, JsonValue>> object;
  /// Position where this value's first token starts (1-based).
  int line = 0;
  int col = 0;

  bool is_null() const noexcept { return type == Type::kNull; }
  bool is_bool() const noexcept { return type == Type::kBool; }
  bool is_int() const noexcept { return type == Type::kInt; }
  bool is_number() const noexcept {
    return type == Type::kInt || type == Type::kDouble;
  }
  bool is_string() const noexcept { return type == Type::kString; }
  bool is_array() const noexcept { return type == Type::kArray; }
  bool is_object() const noexcept { return type == Type::kObject; }

  double as_double() const noexcept {
    return type == Type::kInt ? static_cast<double>(int_value) : double_value;
  }

  /// Pointer to the member value, or nullptr when absent (objects only).
  const JsonValue* find(std::string_view key) const noexcept {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  const char* type_name() const noexcept;

  // --- builder conveniences (the emitters construct documents in code) ---

  /// Append a member (objects). Returns *this for chaining.
  JsonValue& add(std::string key, JsonValue value) {
    object.emplace_back(std::move(key), std::move(value));
    return *this;
  }
  /// Append an element (arrays). Returns *this for chaining.
  JsonValue& push(JsonValue value) {
    array.push_back(std::move(value));
    return *this;
  }
};

JsonValue jnull();
JsonValue jbool(bool v);
JsonValue jint(std::int64_t v);
JsonValue jstr(std::string v);
JsonValue jarr();
JsonValue jobj();

/// Deepest array/object nesting parse_json accepts. The parser recurses
/// once per level, so the bound keeps a hostile document (a few hundred KB
/// of '[' fits well under any request cap) from exhausting the stack.
inline constexpr int kMaxJsonDepth = 256;

/// Parse one JSON document (trailing whitespace allowed, trailing garbage
/// rejected, nesting past kMaxJsonDepth rejected). Throws JsonParseError.
JsonValue parse_json(std::string_view text);

/// Render with 2-space indentation and "key": value member order as built.
/// Round-trips through parse_json (doubles print with max_digits10).
std::string dump_json(const JsonValue& v);

/// Escape and quote one string as a JSON literal.
std::string json_quote(std::string_view s);

/// Streaming writer of compact JSON: handles comma insertion and string
/// quoting; callers are responsible for pairing begin/end calls.
class JsonWriter {
 public:
  /// Appends to `out`; the string must outlive the writer.
  explicit JsonWriter(std::string* out) : out_(out) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Object key; must be followed by exactly one value or container.
  void key(std::string_view k);

  void value(std::string_view v);  ///< quoted + escaped
  void value(const char* v) { value(std::string_view(v)); }
  void value(std::uint64_t v);
  void value(std::int64_t v);
  /// Plain int / size_t literals would otherwise be ambiguous between the
  /// integer overloads; forward them explicitly.
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(unsigned v) { value(static_cast<std::uint64_t>(v)); }
  void value(double v);  ///< non-finite values serialize as null
  void value(bool v);
  void null();
  /// Splice a pre-rendered JSON value verbatim.
  void raw(std::string_view json);

 private:
  void separate();

  std::string* out_;
  // One frame per open container: true once the first element was written.
  std::vector<bool> has_element_;
  bool after_key_ = false;
};

}  // namespace nonmask::util
