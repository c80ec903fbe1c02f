// The project's one JSON layer: a tree value type, a strict
// recursive-descent parser, and a deterministic writer. Every JSON
// document SpecCC emits goes through write() -- the serve protocol lines
// (serve/protocol.hpp), the batch report (batch::to_json), and the merged
// shard report (shard::to_json) -- and every document it reads goes
// through parse(): serve requests, and the per-shard batch reports the
// shard coordinator merges.
//
// Scope: UTF-8 passthrough (\uXXXX escapes are decoded to UTF-8 on
// parse), doubles for every number, no comments, no trailing commas.
// Output is compact (no whitespace), object members come out in key
// order, integers are exact and other doubles round-trip. The nesting
// depth cap is small and malformed input is a util::ParseError, never
// UB. This is deliberately not a general JSON library.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace speccc::util::json {

class Value;
using Array = std::vector<Value>;
/// std::map, not unordered: rendering iterates members in key order, so
/// emitted objects are deterministic (the serve protocol tests pin bytes).
using Object = std::map<std::string, Value>;

enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

class Value {
 public:
  Value() = default;  // null
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  Value(double n) : kind_(Kind::kNumber), number_(n) {}
  /// Any integer type (counts, ids, millisecond figures); exact up to
  /// 2^53, the range a double holds.
  template <typename Int>
    requires(std::is_integral_v<Int> && !std::is_same_v<Int, bool>)
  Value(Int n) : kind_(Kind::kNumber), number_(static_cast<double>(n)) {}
  Value(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}
  Value(const char* s) : kind_(Kind::kString), string_(s) {}
  Value(Array a) : kind_(Kind::kArray), array_(std::move(a)) {}
  Value(Object o) : kind_(Kind::kObject), object_(std::move(o)) {}

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }

  // Checked accessors: util::ParseError on kind mismatch, so readers can
  // cast freely and report one coherent error per document.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  /// A number that is a non-negative integer of at most 2^53.
  [[nodiscard]] std::uint64_t as_count() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object member lookup; nullptr when absent (or when not an object).
  [[nodiscard]] const Value* find(std::string_view key) const;
  /// Object member lookup; util::ParseError when absent.
  [[nodiscard]] const Value& at(std::string_view key) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Parse one complete JSON document. Trailing non-whitespace (a second
/// value on the line) is an error. Throws util::ParseError.
[[nodiscard]] Value parse(std::string_view text);

/// Append the JSON string literal (quotes included) for `text`.
void write_string(std::string& out, std::string_view text);

/// Append a JSON number: integers exactly, other doubles in the shortest
/// form that round-trips.
void write_number(std::string& out, double value);

/// Render a full value tree (object members in key order).
void write(std::string& out, const Value& value);

}  // namespace speccc::util::json
