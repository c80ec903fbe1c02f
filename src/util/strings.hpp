// Small string helpers shared across the NLP and reporting code.
#pragma once

#include <charconv>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace speccc::util {

/// Lower-case an ASCII string (the structured-English subset is ASCII).
[[nodiscard]] std::string to_lower(std::string_view s);

/// Strip leading/trailing whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Split on a single character, dropping empty pieces if drop_empty.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep,
                                             bool drop_empty = true);

/// Join pieces with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& pieces,
                               std::string_view sep);

[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);
[[nodiscard]] bool ends_with(std::string_view s, std::string_view suffix);

/// True if every character is an ASCII letter, digit, or underscore.
[[nodiscard]] bool is_identifier(std::string_view s);

/// Parse all of `text` as a T -- a base-10 integer, or a finite decimal
/// double -- within [min, max]. nullopt on empty input, a sign or space
/// the type does not take, any trailing character ("2x"), overflow, or a
/// value out of range. The command-line tools parse every numeric flag
/// value through this.
template <typename T>
[[nodiscard]] std::optional<T> parse_number(
    std::string_view text, T min = std::numeric_limits<T>::lowest(),
    T max = std::numeric_limits<T>::max()) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  if (text.empty()) return std::nullopt;
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || stop != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  if (value < min || value > max) return std::nullopt;
  return value;
}

}  // namespace speccc::util
