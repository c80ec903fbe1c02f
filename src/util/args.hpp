// The argv cursor every command-line front end parses its flags with.
//
// A front end steps through its tokens with advance(), compares flag()
// against the flags it owns, and takes a flag's argument with next() or
// number(). A missing or malformed argument is a UsageError carrying the
// one message every tool prints: `X needs an argument` or
// `X: bad value "…"`. Each main catches UsageError once, prints the
// message, then its usage text, and returns its usage exit code.
#pragma once

#include <limits>
#include <span>
#include <string>
#include <vector>

#include "util/diagnostics.hpp"
#include "util/strings.hpp"

namespace speccc::util {

/// A command line the program cannot run: an unknown flag, a missing or
/// malformed argument, or a value the flag does not take.
class UsageError : public SpecError {
 public:
  explicit UsageError(const std::string& what) : SpecError(what) {}
};

class Args {
 public:
  /// The tokens after argv[0].
  Args(int argc, const char* const* argv);

  /// Step to the next flag (or positional token); false when none is left.
  [[nodiscard]] bool advance();

  /// The current flag token (valid once advance() has returned true).
  [[nodiscard]] const std::string& flag() const { return tokens_[flag_]; }

  /// Consume and return the current flag's argument.
  std::string next();

  /// Consume the current flag's argument, whole, as a number in
  /// [min, max] ("2x" is not 2).
  template <typename T>
  T number(T min, T max = std::numeric_limits<T>::max()) {
    const std::string text = next();
    if (const auto value = parse_number(text, min, max)) return *value;
    bad_value(text);
  }

  /// The tokens the current flag consumed: the flag and its arguments.
  [[nodiscard]] std::span<const std::string> taken() const {
    return std::span<const std::string>(tokens_).subspan(flag_,
                                                         next_ - flag_);
  }

 private:
  [[noreturn]] void bad_value(const std::string& text) const;

  std::vector<std::string> tokens_;
  std::size_t flag_ = 0;  // index of the current flag
  std::size_t next_ = 0;  // index of the first unconsumed token
};

}  // namespace speccc::util
