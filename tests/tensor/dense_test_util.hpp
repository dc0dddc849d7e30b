// Shared helpers of the dense-op tests (dense_simd_test.cpp,
// dense_pool_test.cpp): the SIMD path loop, the special-value input mix
// and a bitwise tensor compare.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "simt/simd.hpp"
#include "tensor/tensor.hpp"

namespace hg::dense_test {

namespace simd = simt::simd;

// Runs f(path) under every tier this build and CPU have, scalar first;
// restores the process path afterwards.
template <class F>
inline void for_each_path(F&& f) {
  const simd::Path prev = simd::active_path();
  for (const simd::Path p : simd::kPaths) {
    if (simd::set_path(p)) f(p);
  }
  simd::set_path(prev);
}

// Runs f(path) under each vector tier, naming on stdout each one this build
// or CPU lacks; restores the process path afterwards.
template <class F>
inline void for_each_vector_path(F&& f) {
  const simd::Path prev = simd::active_path();
  for (const simd::Path p : simd::kPaths) {
    if (p == simd::Path::kScalar) continue;
    if (simd::set_path(p)) {
      f(p);
    } else {
      std::printf("skipped the %s tier: unavailable in this build/CPU\n",
                  simd::path_name(p));
    }
  }
  simd::set_path(prev);
}

// A float from the special-value mix. `finite` leaves out Inf and NaN;
// `sparse` makes the special classes rare (f32 subnormal arithmetic takes
// microcode assists, which the large GEMM shapes cannot afford densely).
inline float special_float(std::mt19937& rng, bool finite = false,
                           bool sparse = false) {
  switch (rng() % (sparse ? 160 : 12)) {
    case 0:
      return (rng() & 1u) != 0 ? 0.0f : -0.0f;
    case 1:  // f32 subnormal
      return std::bit_cast<float>(
          static_cast<std::uint32_t>((rng() & 0x807FFFFFu) | 1u));
    case 2: {  // half subnormal magnitude
      const float v = std::ldexp(static_cast<float>(rng() % 1023 + 1), -24);
      return (rng() & 1u) != 0 ? v : -v;
    }
    case 3:
      if (!finite) return (rng() & 1u) != 0 ? INFINITY : -INFINITY;
      [[fallthrough]];
    case 4:
      if (!finite) {  // NaN, either sign, quiet or signaling, payload in the
                      // top mantissa bits so it survives f16/bf16 storage
        std::uint32_t b = 0x7F800000u | (rng() & 0x80000000u) |
                          ((rng() & 0x7Fu) << 16) | 0x00010000u;
        if ((rng() & 1u) != 0) b |= 0x00400000u;
        return std::bit_cast<float>(b);
      }
      [[fallthrough]];
    default: {
      std::uniform_real_distribution<float> d(-4.0f, 4.0f);
      return d(rng);
    }
  }
}

// Half bits of the mix; NaNs keep a payload.
inline std::uint16_t special_half_bits(std::mt19937& rng,
                                       bool finite = false,
                                       bool sparse = false) {
  const float v = special_float(rng, finite, sparse);
  if (!std::isnan(v)) return half_t(v).bits();
  const std::uint32_t b = std::bit_cast<std::uint32_t>(v);
  const auto h = static_cast<std::uint16_t>(((b >> 16) & 0x8000u) | 0x7C00u |
                                            ((b >> 13) & 0x3FFu));
  return (h & 0x3FFu) != 0 ? h : static_cast<std::uint16_t>(h | 1u);
}

inline half_t special_half(std::mt19937& rng, bool finite = false) {
  return half_t::from_bits(special_half_bits(rng, finite));
}

inline MTensor special_tensor(Dtype dt, std::int64_t rows,
                              std::int64_t cols, std::mt19937& rng,
                              bool finite, bool sparse = false) {
  MTensor t = MTensor::zeros(dt, rows, cols);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    switch (dt) {
      case Dtype::kF16:
        t.h()[i] = half_t::from_bits(special_half_bits(rng, finite, sparse));
        break;
      case Dtype::kBf16: {
        const float v = special_float(rng, finite, sparse);
        auto b = static_cast<std::uint16_t>(std::bit_cast<std::uint32_t>(v) >>
                                            16);
        if (std::isnan(v) && (b & 0x7Fu) == 0) b |= 1u;
        t.b()[i] = std::isnan(v) ? bf16_t::from_bits(b) : bf16_t(v);
        break;
      }
      default:
        t.f()[i] = special_float(rng, finite, sparse);
        break;
    }
  }
  return t;
}

inline std::vector<std::uint16_t> bits16(const MTensor& t) {
  std::vector<std::uint16_t> out;
  if (t.dtype() == Dtype::kF16) {
    for (const half_t v : t.h()) out.push_back(v.bits());
  } else {
    for (const bf16_t v : t.b()) out.push_back(v.bits());
  }
  return out;
}

inline std::span<const std::byte> storage_bytes(const MTensor& t) {
  switch (t.dtype()) {
    case Dtype::kF16:
      return std::as_bytes(t.h());
    case Dtype::kBf16:
      return std::as_bytes(t.b());
    default:
      return std::as_bytes(t.f());
  }
}

inline void expect_same_bits(const MTensor& a, const MTensor& b,
                             const std::string& what) {
  ASSERT_EQ(a.dtype(), b.dtype()) << what;
  ASSERT_EQ(a.numel(), b.numel()) << what;
  // Equal storage passes in one compare; otherwise find the first element
  // that differs.
  if (std::ranges::equal(storage_bytes(a), storage_bytes(b))) return;
  if (a.dtype() == Dtype::kF32) {
    for (std::size_t i = 0; i < a.numel(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(a.f()[i]),
                std::bit_cast<std::uint32_t>(b.f()[i]))
          << what << " elem " << i;
    }
  } else {
    const auto x = bits16(a);
    const auto y = bits16(b);
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(x[i], y[i]) << what << " elem " << i;
    }
  }
}

}  // namespace hg::dense_test
