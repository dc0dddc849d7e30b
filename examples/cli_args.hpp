// Strict numeric flag values for the command-line tools (train_cli and
// hgcheck): a value counts only when the whole string is one number in
// range, so `abc`, `3x` or `-1` never becomes a silent 0, 3 or 2^64 - 1.
#pragma once

#include <cerrno>
#include <cfloat>
#include <charconv>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <cstring>

namespace hg::cli {

// Whole-string base-10 int; false on junk, trailing text or overflow.
inline bool parse_int(const char* s, int& out) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || errno != 0 || v < INT_MIN || v > INT_MAX) {
    return false;
  }
  out = static_cast<int>(v);
  return true;
}

// Whole-string learning rate: finite, and still > 0 as a float.
inline bool parse_lr(const char* s, float& out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !(v > 0) || v > FLT_MAX) return false;
  const auto lr = static_cast<float>(v);
  if (lr == 0.0f) return false;
  out = lr;
  return true;
}

// Whole-string seed: base-10 digits only (no sign) that fit 64 bits.
inline bool parse_seed(const char* s, std::uint64_t& out) {
  const char* end = s + std::strlen(s);
  const auto [stop, ec] = std::from_chars(s, end, out);
  return ec == std::errc() && stop == end;
}

}  // namespace hg::cli
