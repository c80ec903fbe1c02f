#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/diagnostics.hpp"

namespace speccc::util::json {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw util::ParseError("json: " + what);
}

}  // namespace

bool Value::as_bool() const {
  if (kind_ != Kind::kBool) fail("expected a boolean");
  return bool_;
}

double Value::as_number() const {
  if (kind_ != Kind::kNumber) fail("expected a number");
  return number_;
}

std::uint64_t Value::as_count() const {
  constexpr double kMaxExact = 9007199254740992.0;  // 2^53
  const double n = as_number();
  if (!(n >= 0.0 && n <= kMaxExact && n == std::floor(n))) {
    fail("expected a non-negative integer");
  }
  return static_cast<std::uint64_t>(n);
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::kString) fail("expected a string");
  return string_;
}

const Array& Value::as_array() const {
  if (kind_ != Kind::kArray) fail("expected an array");
  return array_;
}

const Object& Value::as_object() const {
  if (kind_ != Kind::kObject) fail("expected an object");
  return object_;
}

const Value* Value::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = object_.find(std::string(key));
  return it == object_.end() ? nullptr : &it->second;
}

const Value& Value::at(std::string_view key) const {
  const Value* member = find(key);
  if (member == nullptr) fail("missing \"" + std::string(key) + "\"");
  return *member;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value run() {
    Value v = value(0);
    skip_space();
    if (pos_ != text_.size()) fail("trailing characters after the document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;  // reports nest a few levels deep

  void skip_space() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_keyword(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Value value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_space();
    const char c = peek();
    switch (c) {
      case '{': return object(depth);
      case '[': return array(depth);
      case '"': return Value(string());
      case 't':
        if (consume_keyword("true")) return Value(true);
        fail("invalid literal");
      case 'f':
        if (consume_keyword("false")) return Value(false);
        fail("invalid literal");
      case 'n':
        if (consume_keyword("null")) return Value();
        fail("invalid literal");
      default: return number();
    }
  }

  Value object(int depth) {
    expect('{');
    Object members;
    skip_space();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(members));
    }
    for (;;) {
      skip_space();
      std::string key = string();
      skip_space();
      expect(':');
      members[std::move(key)] = value(depth + 1);
      skip_space();
      const char c = peek();
      ++pos_;
      if (c == '}') return Value(std::move(members));
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Value array(int depth) {
    expect('[');
    Array items;
    skip_space();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(items));
    }
    for (;;) {
      items.push_back(value(depth + 1));
      skip_space();
      const char c = peek();
      ++pos_;
      if (c == ']') return Value(std::move(items));
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
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
        case 'u': append_utf8(out, parse_hex4()); break;
        default: fail("unknown escape");
      }
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') code += static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code += static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code += static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid \\u escape digit");
    }
    return code;
  }

  void append_utf8(std::string& out, unsigned code) {
    // Surrogate pair: a high surrogate must be followed by \uDC00-\uDFFF.
    if (code >= 0xD800 && code <= 0xDBFF) {
      if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
          text_[pos_ + 1] != 'u') {
        fail("unpaired surrogate");
      }
      pos_ += 2;
      const unsigned low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      fail("unpaired surrogate");
    }
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  Value number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double parsed = 0.0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, parsed);
    if (ec != std::errc{} || end != text_.data() + pos_ || pos_ == start) {
      fail("invalid number");
    }
    return Value(parsed);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).run(); }

void write_string(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
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
  out += '"';
}

void write_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "0";  // JSON has no NaN/Inf; no report produces them
    return;
  }
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(value));
    out += buf;
    return;
  }
  char buf[32];  // shortest form that parses back to the same double
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

void write(std::string& out, const Value& value) {
  switch (value.kind()) {
    case Kind::kNull: out += "null"; return;
    case Kind::kBool: out += value.as_bool() ? "true" : "false"; return;
    case Kind::kNumber: write_number(out, value.as_number()); return;
    case Kind::kString: write_string(out, value.as_string()); return;
    case Kind::kArray: {
      out += '[';
      const Array& items = value.as_array();
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out += ',';
        write(out, items[i]);
      }
      out += ']';
      return;
    }
    case Kind::kObject: {
      out += '{';
      const Object& members = value.as_object();
      std::size_t i = 0;
      for (const auto& [key, member] : members) {
        if (i++ > 0) out += ',';
        write_string(out, key);
        out += ':';
        write(out, member);
      }
      out += '}';
      return;
    }
  }
}

}  // namespace speccc::util::json
