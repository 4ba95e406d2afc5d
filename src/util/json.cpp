#include "util/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace tgroom {

void json_escape(std::string_view text, std::string& out) {
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void JsonWriter::comma() {
  if (key_pending_) {
    key_pending_ = false;
    return;  // the key already placed the comma
  }
  if (!stack_.empty()) {
    if (first_.back()) {
      first_.back() = false;
    } else {
      out_ += ',';
    }
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  stack_.push_back('o');
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  TGROOM_CHECK_MSG(!stack_.empty() && stack_.back() == 'o',
                   "end_object outside an object");
  out_ += '}';
  stack_.pop_back();
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_ += '[';
  stack_.push_back('a');
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  TGROOM_CHECK_MSG(!stack_.empty() && stack_.back() == 'a',
                   "end_array outside an array");
  out_ += ']';
  stack_.pop_back();
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  TGROOM_CHECK_MSG(!stack_.empty() && stack_.back() == 'o',
                   "key outside an object");
  if (first_.back()) {
    first_.back() = false;
  } else {
    out_ += ',';
  }
  out_ += '"';
  json_escape(name, out_);
  out_ += "\":";
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  comma();
  out_ += '"';
  json_escape(text, out_);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  comma();
  out_ += b ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(long long v) {
  comma();
  // snprintf into a stack buffer: no std::string temporary, so number-heavy
  // documents (partition arrays) serialize allocation-free once the output
  // buffer is warm.
  char buf[24];
  int len = std::snprintf(buf, sizeof buf, "%lld", v);
  out_.append(buf, static_cast<std::size_t>(len));
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma();
  char buf[24];
  int len = std::snprintf(buf, sizeof buf, "%llu",
                          static_cast<unsigned long long>(v));
  out_.append(buf, static_cast<std::size_t>(len));
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  comma();
  if (std::nearbyint(v) == v && std::abs(v) < 1e15) {
    // Integral doubles print without an exponent so counters stay readable.
    out_ += std::to_string(static_cast<long long>(v));
  } else {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    out_ += buf;
  }
  return *this;
}

JsonWriter& JsonWriter::null() {
  comma();
  out_ += "null";
  return *this;
}

const JsonValue* JsonValue::find(std::string_view name) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [key, value] : object) {
    if (key == name) return &value;
  }
  return nullptr;
}

namespace {

// as_int()'s rule: integral and within the range a double holds exactly.
bool exact_integer(double number) {
  return std::nearbyint(number) == number &&
         std::abs(number) <= 9.007199254740992e15;
}

}  // namespace

std::int64_t JsonValue::as_int() const {
  TGROOM_CHECK_MSG(type == Type::kNumber, "JSON value is not a number");
  TGROOM_CHECK_MSG(exact_integer(number),
                   "JSON number is not an exact integer");
  return static_cast<std::int64_t>(number);
}

void JsonCursor::fail(std::string_view what) const {
  throw CheckError("JSON parse error at offset " + std::to_string(pos_) +
                   ": " + std::string(what));
}

void JsonCursor::expected(char c) const {
  fail(std::string("expected '") + c + "'");
}

std::string_view JsonCursor::key() {
  skip_ws();
  if (peek_char() != '"') fail("expected object key string");
  const std::string_view name = string();
  skip_ws();
  expect(':');
  return name;
}

std::string_view JsonCursor::string() {
  skip_ws();
  expect('"');
  // Escape-free strings (nearly all of them) are returned in place.
  const std::size_t start = pos_;
  while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') {
    ++pos_;
  }
  if (pos_ < text_.size() && text_[pos_] == '"') {
    return text_.substr(start, pos_++ - start);
  }
  buf_.assign(text_.substr(start, pos_ - start));
  while (true) {
    if (pos_ >= text_.size()) fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') return buf_;
    if (c != '\\') {
      buf_ += c;
      continue;
    }
    if (pos_ >= text_.size()) fail("unterminated escape");
    switch (text_[pos_++]) {
      case '"': buf_ += '"'; break;
      case '\\': buf_ += '\\'; break;
      case '/': buf_ += '/'; break;
      case 'b': buf_ += '\b'; break;
      case 'f': buf_ += '\f'; break;
      case 'n': buf_ += '\n'; break;
      case 'r': buf_ += '\r'; break;
      case 't': buf_ += '\t'; break;
      case 'u': append_codepoint(); break;
      default: fail("bad escape character");
    }
  }
}

unsigned JsonCursor::hex4() {
  if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
  unsigned code = 0;
  for (int i = 0; i < 4; ++i) {
    const char c = text_[pos_++];
    code <<= 4;
    if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
    else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
    else fail("bad hex digit in \\u escape");
  }
  return code;
}

void JsonCursor::append_codepoint() {
  unsigned code = hex4();
  if (code >= 0xD800 && code <= 0xDBFF) {
    // High surrogate: must pair with \uDC00..\uDFFF.
    if (text_.substr(pos_, 2) != "\\u") fail("unpaired surrogate");
    pos_ += 2;
    const unsigned low = hex4();
    if (low < 0xDC00 || low > 0xDFFF) fail("bad low surrogate");
    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
  } else if (code >= 0xDC00 && code <= 0xDFFF) {
    fail("unpaired surrogate");
  }
  if (code < 0x80) {
    buf_ += static_cast<char>(code);
  } else if (code < 0x800) {
    buf_ += static_cast<char>(0xC0 | (code >> 6));
    buf_ += static_cast<char>(0x80 | (code & 0x3F));
  } else if (code < 0x10000) {
    buf_ += static_cast<char>(0xE0 | (code >> 12));
    buf_ += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    buf_ += static_cast<char>(0x80 | (code & 0x3F));
  } else {
    buf_ += static_cast<char>(0xF0 | (code >> 18));
    buf_ += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
    buf_ += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    buf_ += static_cast<char>(0x80 | (code & 0x3F));
  }
}

JsonNumber JsonCursor::number_token() {
  const std::size_t start = pos_;
  while (pos_ < text_.size() && is_number_char(text_[pos_])) ++pos_;
  if (pos_ == start) fail("expected a value");
  const std::string token(text_.substr(start, pos_ - start));
  // strtod is lenient about leading zeros; JSON is not ("01" is invalid).
  const std::size_t lead = token[0] == '-' ? 1 : 0;
  if (token.size() > lead + 1 && token[lead] == '0' &&
      is_digit(token[lead + 1])) {
    fail("malformed number (leading zero)");
  }
  char* end = nullptr;
  JsonNumber out;
  out.value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) fail("malformed number");
  out.exact = exact_integer(out.value);
  if (out.exact) out.integer = static_cast<std::int64_t>(out.value);
  return out;
}

bool JsonCursor::boolean() {
  skip_ws();
  if (text_.substr(pos_, 4) == "true") {
    pos_ += 4;
    return true;
  }
  if (text_.substr(pos_, 5) != "false") fail("bad literal");
  pos_ += 5;
  return false;
}

void JsonCursor::null() {
  skip_ws();
  if (text_.substr(pos_, 4) != "null") fail("bad literal");
  pos_ += 4;
}

void JsonCursor::skip() {
  switch (peek()) {
    case JsonValue::Type::kObject:
      if (enter_object()) {
        do {
          key();
          skip();
        } while (next_member());
      }
      break;
    case JsonValue::Type::kArray:
      if (enter_array()) {
        do {
          skip();
        } while (next_element());
      }
      break;
    case JsonValue::Type::kString: string(); break;
    case JsonValue::Type::kBool: boolean(); break;
    case JsonValue::Type::kNull: null(); break;
    case JsonValue::Type::kNumber: number(); break;
  }
}

void JsonCursor::finish() {
  skip_ws();
  if (pos_ != text_.size()) fail("trailing characters after document");
}

namespace {

JsonValue read_tree(JsonCursor& c) {
  JsonValue value;
  value.type = c.peek();
  switch (value.type) {
    case JsonValue::Type::kObject:
      if (c.enter_object()) {
        do {
          std::string key(c.key());
          value.object.emplace_back(std::move(key), read_tree(c));
        } while (c.next_member());
      }
      break;
    case JsonValue::Type::kArray:
      if (c.enter_array()) {
        do {
          value.array.push_back(read_tree(c));
        } while (c.next_element());
      }
      break;
    case JsonValue::Type::kString: value.string = c.string(); break;
    case JsonValue::Type::kBool: value.boolean = c.boolean(); break;
    case JsonValue::Type::kNull: c.null(); break;
    case JsonValue::Type::kNumber: value.number = c.number().value; break;
  }
  return value;
}

}  // namespace

JsonValue parse_json(std::string_view text) {
  JsonCursor c(text);
  JsonValue value = read_tree(c);
  c.finish();
  return value;
}

}  // namespace tgroom
