// Deterministic, fast pseudo-random number generation (xoshiro256**).
//
// Everything in this repository that needs randomness (graph generators,
// feature synthesis, weight init, dropout) draws from this generator with an
// explicit seed, so every experiment is bit-reproducible run to run.
#pragma once

#include <cmath>
#include <cstdint>

namespace hg {

class Rng {
 public:
  // Full generator image (xoshiro state + the Box-Muller cache), so a
  // checkpoint restore continues the exact same stream — including a
  // pending cached normal — rather than reseeding.
  struct State {
    std::uint64_t s[4] = {};
    double cached = 0;
    bool has_cached = false;

    template <class Ar>
    void fields(Ar& ar) {
      ar(s, cached, has_cached);
    }
  };

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) noexcept {
    // SplitMix64 seeding, as recommended by the xoshiro authors.
    std::uint64_t z = seed;
    for (auto& si : st_.s) {
      z += 0x9E3779B97F4A7C15ull;
      std::uint64_t w = z;
      w = (w ^ (w >> 30)) * 0xBF58476D1CE4E5B9ull;
      w = (w ^ (w >> 27)) * 0x94D049BB133111EBull;
      si = w ^ (w >> 31);
    }
  }

  std::uint64_t next_u64() noexcept {
    std::uint64_t* s = st_.s;
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
  }

  // Uniform in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }
  float next_float() noexcept {
    return static_cast<float>(next_u64() >> 40) * 0x1.0p-24f;
  }

  // Uniform integer in [0, n).
  std::uint64_t next_below(std::uint64_t n) noexcept {
    // Lemire's multiply-shift rejection-free approximation is fine here;
    // the modulo bias for our n (< 2^32) is negligible for data synthesis.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next_u64()) * n) >> 64);
  }

  // Standard normal via Box-Muller (cached second value).
  double next_normal() noexcept {
    if (st_.has_cached) {
      st_.has_cached = false;
      return st_.cached;
    }
    double u1 = next_double();
    while (u1 <= 1e-300) u1 = next_double();
    const double u2 = next_double();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * 3.14159265358979323846 * u2;
    st_.cached = r * std::sin(theta);
    st_.has_cached = true;
    return r * std::cos(theta);
  }

  const State& state() const noexcept { return st_; }
  void set_state(const State& st) noexcept { st_ = st; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  State st_;
};

}  // namespace hg
