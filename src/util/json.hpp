// Minimal JSON support for the service protocol and machine-readable CLI
// output.
//
// Three parts, all dependency-free:
//  - JsonWriter: a streaming writer with automatic comma/nesting handling
//    and full string escaping.  Key order is exactly the call order, so
//    serialized output is byte-deterministic — the service's parity tests
//    and the bench harness diff response lines directly.
//  - JsonCursor: a pull reader over one document — whitespace, literals,
//    strings with escapes and \u surrogate pairs, numbers, and skipping
//    one whole value, with a 64-level nesting limit.  It is the only code
//    that tokenizes JSON bytes: parse_json builds a tree on it, the
//    service's parse_request reads request members straight into typed
//    slots with it, and the cluster router walks top-level members with
//    it to splice ids.  Syntax errors throw CheckError("JSON parse error
//    at offset N: ...").
//  - JsonValue / parse_json: a document tree for the callers that want
//    one (replication responses, stats, tests).  Objects preserve member
//    order in a flat vector; lookups are linear, which is the right trade
//    for request-sized documents.
//
// Tree numbers are held as double: integers are exact up to 2^53, far
// beyond any node count, seed, or counter the protocol carries.  The
// cursor reads plain integer literals (up to 18 digits) exactly as int64.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace tgroom {

/// Appends a JSON-escaped copy of `text` (no surrounding quotes) to `out`.
void json_escape(std::string_view text, std::string& out);

class JsonWriter {
 public:
  /// Rewinds to an empty document but keeps every buffer's capacity, so a
  /// reused writer serializes without heap allocation once warm.  The
  /// service workers keep one writer per thread and clear() it between
  /// responses.
  void clear() {
    out_.clear();
    stack_.clear();
    first_.clear();
    key_pending_ = false;
  }

  /// Pre-grows the output buffer (capacity survives clear()).
  void reserve(std::size_t bytes) { out_.reserve(bytes); }

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Writes an object key; must be followed by a value or container.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(bool b);
  JsonWriter& value(int v) { return value(static_cast<long long>(v)); }
  JsonWriter& value(long long v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(double v);
  JsonWriter& null();

  /// Injects pre-serialized JSON verbatim in value position (comma and
  /// key handling as for value()).  The caller vouches that `json` is one
  /// complete, well-formed JSON value — the cluster router uses this to
  /// embed backend response payloads without a parse/re-serialize round
  /// trip, keeping forwarded bytes exactly the backend's bytes.
  JsonWriter& raw(std::string_view json) {
    comma();
    out_.append(json);
    return *this;
  }

  /// key() + value() in one call.
  template <typename T>
  JsonWriter& kv(std::string_view name, T&& v) {
    key(name);
    return value(std::forward<T>(v));
  }

  /// The document built so far; valid once every container is closed.
  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void comma();

  std::string out_;
  std::vector<char> stack_;  // 'o' / 'a' per open container
  std::vector<bool> first_;  // first element pending in each container
  bool key_pending_ = false;
};

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // member order kept

  bool is_null() const { return type == Type::kNull; }
  bool is_bool() const { return type == Type::kBool; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view name) const;

  /// The number as an integer; throws CheckError unless the value is a
  /// number that is integral and representable.
  std::int64_t as_int() const;
};

/// One number token as the cursor read it.
struct JsonNumber {
  double value = 0.0;        // the nearest double (what a JsonValue holds)
  std::int64_t integer = 0;  // the integer, when `exact`
  // A plain integer literal of at most 18 digits, read exactly; or any
  // other spelling whose value passes JsonValue::as_int()'s rule.
  bool exact = false;
};

/// Pull reader over one JSON document.  Every read first skips
/// whitespace; a read that finds malformed input throws CheckError with
/// the byte offset.  A container is walked as
///
///   if (c.enter_object()) do { key = c.key(); <read or skip the value> }
///   while (c.next_member());
///
/// and likewise enter_array()/next_element().  Views returned by key() and
/// string() alias the input, or the cursor's own buffer when the text had
/// escapes — valid until the next key() or string() call.
class JsonCursor {
 public:
  static constexpr int kMaxDepth = 64;

  explicit JsonCursor(std::string_view text) : text_(text) {}

  /// The type of the next value (numbers include anything that is not
  /// another type's first byte: number() reports it).  Enforces the
  /// nesting limit; throws at end of input.
  JsonValue::Type peek() {
    if (depth_ > kMaxDepth) fail("nesting too deep");
    skip_ws();
    switch (peek_char()) {
      case '{': return JsonValue::Type::kObject;
      case '[': return JsonValue::Type::kArray;
      case '"': return JsonValue::Type::kString;
      case 't':
      case 'f': return JsonValue::Type::kBool;
      case 'n': return JsonValue::Type::kNull;
      default: return JsonValue::Type::kNumber;
    }
  }

  /// Under peek() == kObject / kArray: consumes the opening bracket.
  /// False when the container is empty (its closing bracket is consumed).
  bool enter_object() { return enter('{', '}'); }
  bool enter_array() { return enter('[', ']'); }
  /// Inside an object: the next member's key, with its ':' consumed.
  std::string_view key();
  /// After a member value / element: true when a ',' follows (consumed),
  /// false after consuming the closing bracket.
  bool next_member() { return next('}'); }
  bool next_element() { return next(']'); }

  std::string_view string();
  JsonNumber number() {
    JsonNumber out;
    bool negative = false;
    skip_ws();
    if (!scan_integer(text_, pos_, out.integer, negative)) {
      return number_token();
    }
    out.value = static_cast<double>(out.integer);
    if (negative) {
      out.value = -out.value;  // keeps -0 negative, as strtod does
      out.integer = -out.integer;
    }
    out.exact = true;
    return out;
  }
  /// `[i0,...]`: an array of exactly `arity` plain integers, read as
  /// number() reads them — the hot shape of edge and pair lists, in one
  /// step.  False, consuming nothing, for anything else; the caller then
  /// walks the value with the general reads.
  bool integer_tuple(std::int64_t* out, std::size_t arity) {
    if (depth_ >= kMaxDepth) return false;  // the elements sit one deeper
    // Locals throughout: stores to `out` cannot alias them.
    const std::string_view t = text_;
    std::size_t i = ws_end(t, pos_);
    if (i >= t.size() || t[i] != '[') return false;
    ++i;
    for (std::size_t k = 0; k < arity; ++k) {
      std::int64_t magnitude = 0;
      bool negative = false;
      if (!scan_integer(t, i, magnitude, negative)) return false;
      out[k] = negative ? -magnitude : magnitude;
      i = ws_end(t, i);
      if (i >= t.size() || t[i] != (k + 1 < arity ? ',' : ']')) return false;
      ++i;
    }
    pos_ = i;
    return true;
  }
  bool boolean();
  void null();
  /// Consumes one whole value of any type, checking its syntax.
  void skip();
  /// After the document's value: only whitespace may remain.
  void finish();

  /// Bytes consumed so far.
  std::size_t offset() const { return pos_; }

 private:
  static bool is_digit(char c) { return c >= '0' && c <= '9'; }
  // The bytes a number token runs over; strtod then decides what it means.
  static bool is_number_char(char c) {
    return is_digit(c) || c == '.' || c == 'e' || c == 'E' || c == '+' ||
           c == '-';
  }

  [[noreturn]] void fail(std::string_view what) const;

  // A plain integer at t[i...] (up to 18 digits, so no overflow): `i`
  // moves past it.  False, `i` untouched, for any longer token or one
  // with a leading zero, fraction or exponent: number_token() reads those.
  static bool scan_integer(std::string_view t, std::size_t& i,
                           std::int64_t& magnitude, bool& negative) {
    std::size_t j = i;
    negative = j < t.size() && t[j] == '-';
    if (negative) ++j;
    const std::size_t digits = j;
    std::int64_t value = 0;
    while (j < t.size() && j - digits < 18 && is_digit(t[j])) {
      value = value * 10 + (t[j++] - '0');
    }
    if (j == digits || (j - digits > 1 && t[digits] == '0') ||
        (j < t.size() && is_number_char(t[j]))) {
      return false;
    }
    i = j;
    magnitude = value;
    return true;
  }

  static std::size_t ws_end(std::string_view t, std::size_t i) {
    // Every byte above ' ' ends the run with one compare.
    while (i < t.size() && t[i] <= ' ' &&
           (t[i] == ' ' || t[i] == '\t' || t[i] == '\n' || t[i] == '\r')) {
      ++i;
    }
    return i;
  }

  void skip_ws() { pos_ = ws_end(text_, pos_); }

  char peek_char() {  // throws at end of input
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) expected(c);
    ++pos_;
  }
  [[noreturn]] void expected(char c) const;  // out of line: the cold path

  bool enter(char open, char close) {
    skip_ws();
    expect(open);
    ++depth_;
    skip_ws();
    if (peek_char() != close) return true;
    ++pos_;
    --depth_;
    return false;
  }

  bool next(char close) {
    skip_ws();
    if (peek_char() == ',') {
      ++pos_;
      return true;
    }
    expect(close);
    --depth_;
    return false;
  }

  JsonNumber number_token();
  unsigned hex4();
  void append_codepoint();

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string buf_;  // decoded text of an escaped key or string
};

/// Parses one JSON document (trailing whitespace allowed, nothing else).
/// Throws CheckError with a position-annotated message on malformed input.
JsonValue parse_json(std::string_view text);

}  // namespace tgroom
