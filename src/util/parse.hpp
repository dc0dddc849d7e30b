// Strict parsing of the text that enters the process: env variables, the
// spec grammars (HALFGNN_FAULTS / _SANITIZE / _PROF) and command-line flag
// values. A number is read from the whole string or rejected, so `abc`,
// `3x`, `2.5` or `-1` never becomes a silent 0, 3, 2 or 2^64 - 1, and no
// out-of-range value reaches a cast. Rejected forms strtol/strtod took
// (DESIGN.md §9): a leading '+', surrounding whitespace (the grammars trim
// their items first), hex, and for integers leading zeros, "-0", fractions
// and exponents, so an accepted integer prints back as its own text.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace hg::util {

// `s` without leading and trailing spaces and tabs.
constexpr std::string_view trim(std::string_view s) {
  const auto b = s.find_first_not_of(" \t");
  if (b == std::string_view::npos) return {};
  return s.substr(b, s.find_last_not_of(" \t") - b + 1);
}

// Calls `f(item)` for every non-empty item of `s` split at `sep`, trimmed.
template <class F>
void for_each_item(std::string_view s, char sep, F&& f) {
  while (!s.empty()) {
    const auto at = s.find(sep);
    const std::string_view item = trim(s.substr(0, at));
    s = at == std::string_view::npos ? std::string_view{} : s.substr(at + 1);
    if (!item.empty()) f(item);
  }
}

// Calls `take(key, value)` for every trimmed pair of "k1=v1,k2=v2"; `take`
// returns false for a key it does not know. Throws std::invalid_argument
// (where + why) for an item without '=', an empty value or an unknown key.
template <class Take>
void for_each_pair(std::string_view body, const std::string& where,
                   Take&& take) {
  for_each_item(body, ',', [&](std::string_view pair) {
    const auto eq = pair.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument(where + "expected key=value, got '" +
                                  std::string(pair) + "'");
    }
    const std::string key(trim(pair.substr(0, eq)));
    const std::string_view val = trim(pair.substr(eq + 1));
    if (val.empty()) {
      throw std::invalid_argument(where + "empty value for '" + key + "'");
    }
    if (!take(std::string_view(key), val)) {
      throw std::invalid_argument(where + "unknown key '" + key + "'");
    }
  });
}

// A whole-string base-10 integer in [lo, hi]: an optional '-' (signed T
// only), then "0" or digits without a leading zero.
template <class T>
std::optional<T> to_int(std::string_view s,
                        T lo = std::numeric_limits<T>::min(),
                        T hi = std::numeric_limits<T>::max()) {
  const std::string_view digits = s.starts_with('-') ? s.substr(1) : s;
  if (digits.empty() || (digits.front() == '0' && s.size() > 1)) return {};
  T v{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size() || v < lo || v > hi) {
    return {};
  }
  return v;
}

// A whole-string decimal real with the value strtod reads from it (inf,
// nan and out-of-range magnitudes included).
inline std::optional<double> to_real(std::string_view s) {
  double v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (end != s.data() + s.size()) return {};
  if (ec == std::errc::result_out_of_range) {
    return std::strtod(std::string(s).c_str(), nullptr);  // +-inf or +-0
  }
  if (ec != std::errc()) return {};
  return v;
}

// to_real restricted to finite values in [lo, hi].
inline std::optional<double> to_finite(std::string_view s, double lo,
                                       double hi) {
  const std::optional<double> v = to_real(s);
  if (!v || !std::isfinite(*v) || *v < lo || *v > hi) return {};
  return v;
}

// `s` as a T in [lo, hi]: a whole number (to_int) or, for double, a finite
// real (to_finite). Anything else throws std::invalid_argument(where +
// "expected a whole number >= lo, got 's'").
template <class T>
T require(std::string_view s, const std::string& where, T lo,
          T hi = std::numeric_limits<T>::max()) {
  std::optional<T> v;
  if constexpr (std::is_integral_v<T>) {
    v = to_int<T>(s, lo, hi);
  } else {
    v = to_finite(s, lo, hi);
  }
  if (v) return *v;
  const auto str = [](T x) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, x).ptr);
  };
  const std::string range = hi == std::numeric_limits<T>::max()
                                ? ">= " + str(lo)
                                : "in " + str(lo) + ".." + str(hi);
  throw std::invalid_argument(
      where + "expected a " + (std::is_integral_v<T> ? "whole" : "finite") +
      " number " + range + ", got '" + std::string(s) + "'");
}

// A command-line flag value by the flag's type: a whole number, or for a
// float (the learning rate) a finite real that is still > 0 as a float.
template <class T>
std::optional<T> flag_value(std::string_view s) {
  if constexpr (std::is_integral_v<T>) {
    return to_int<T>(s);
  } else {
    const std::optional<double> v =
        to_finite(s, 0, std::numeric_limits<float>::max());
    if (!v || !(static_cast<T>(*v) > 0)) return {};
    return static_cast<T>(*v);
  }
}

// One spelling of a closed vocabulary and what it means: a grammar token
// and its bits, or a flag spelling and its enum value.
template <class T>
struct Token {
  std::string_view token;
  T value;
};

// The row of `table` whose `token` is `s`; nullptr when none is.
template <class Table>
auto find(const Table& table, std::string_view s)
    -> decltype(&*std::begin(table)) {
  for (const auto& row : table) {
    if (row.token == s) return &row;
  }
  return nullptr;
}

// "a|b|c" over the tokens of `table`, for "expected ..." texts.
template <class Table>
std::string alternatives(const Table& table) {
  std::string out;
  for (const auto& row : table) {
    if (!out.empty()) out += '|';
    out += row.token;
  }
  return out;
}

// The OR of the values of the ','-separated tokens of `spec`; throws
// std::invalid_argument("<env>: unknown <noun> '<tok>' (expected a|b|c)").
template <class Table>
unsigned parse_flags(std::string_view spec, const Table& table,
                     const std::string& env, const std::string& noun) {
  unsigned bits = 0;
  for_each_item(spec, ',', [&](std::string_view tok) {
    const auto* row = find(table, tok);
    if (row == nullptr) {
      throw std::invalid_argument(env + ": unknown " + noun + " '" +
                                  std::string(tok) + "' (expected " +
                                  alternatives(table) + ")");
    }
    bits |= row->value;
  });
  return bits;
}

}  // namespace hg::util
