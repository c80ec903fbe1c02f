#include "util/args.hpp"

namespace speccc::util {

Args::Args(int argc, const char* const* argv)
    : tokens_(argc > 0 ? argv + 1 : argv, argv + argc) {}

bool Args::advance() {
  if (next_ >= tokens_.size()) return false;
  flag_ = next_++;
  return true;
}

std::string Args::next() {
  if (next_ >= tokens_.size()) throw UsageError(flag() + " needs an argument");
  return tokens_[next_++];
}

void Args::bad_value(const std::string& text) const {
  throw UsageError(flag() + ": bad value \"" + text + "\"");
}

}  // namespace speccc::util
