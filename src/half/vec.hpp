// Vector data types for half precision (paper Sec. 2.2, 4, 5.1.2).
//
//  - half2  : 32-bit pack of two halves. GPUs support *both* data-load and
//             arithmetic natively; h2-arithmetic performs two half ops per
//             instruction (double throughput vs float / scalar half).
//  - half4  : 64-bit pack (the paper's new type). Data-load rides on the
//             float2 load path; arithmetic is lowered to 2x half2.
//  - half8  : 128-bit pack (the paper's new type). Data-load rides on the
//             float4 load path; arithmetic is lowered to 4x half2.
//  - float2 / float4 : load-only packs, mirroring the GPU situation where
//             they have native loads but no packed arithmetic.
//
// The types here provide the *functional* semantics; the SIMT cost model
// (src/simt) charges the corresponding instruction/transaction costs when a
// kernel issues loads or arithmetic in these widths.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>

#include "half/half.hpp"

namespace hg {

// ---------------------------------------------------------------------------
// half2
// ---------------------------------------------------------------------------
struct half2 {
  half_t lo;  // element 0 (lower address)
  half_t hi;  // element 1

  constexpr half2() noexcept = default;
  half2(half_t l, half_t h) noexcept : lo(l), hi(h) {}
  explicit half2(float l, float h) noexcept : lo(l), hi(h) {}

  static half2 broadcast(half_t v) noexcept { return half2{v, v}; }
  static half2 zero() noexcept { return half2{}; }
};
static_assert(sizeof(half2) == 4, "half2 must be 32 bits");

// Packed arithmetic: one *instruction* performing two half operations.
inline half2 h2add(half2 a, half2 b) noexcept {
  return half2{a.lo + b.lo, a.hi + b.hi};
}
inline half2 h2mul(half2 a, half2 b) noexcept {
  return half2{a.lo * b.lo, a.hi * b.hi};
}
inline half2 h2div(half2 a, half2 b) noexcept {
  return half2{a.lo / b.lo, a.hi / b.hi};
}
inline half2 h2fma(half2 a, half2 b, half2 c) noexcept {
  return half2{hfma(a.lo, b.lo, c.lo), hfma(a.hi, b.hi, c.hi)};
}
inline half2 h2max(half2 a, half2 b) noexcept {
  return half2{hmax(a.lo, b.lo), hmax(a.hi, b.hi)};
}

// Edge-feature mirroring (paper Sec. 4.2): split one loaded half2 edge pair
// {w_e, w_e'} into the two broadcast pairs {w_e, w_e} and {w_e', w_e'} so
// each edge weight multiplies both halves of its column's half2 feature.
inline half2 mirror_lo(half2 a) noexcept { return half2{a.lo, a.lo}; }
inline half2 mirror_hi(half2 a) noexcept { return half2{a.hi, a.hi}; }

// Sum of the two packed halves, rounded once per add (half accumulate).
inline half_t h2reduce_add(half2 a) noexcept { return a.lo + a.hi; }

// ---------------------------------------------------------------------------
// half4 / half8 — the paper's proposed load-width types (Sec. 5.1.2)
// ---------------------------------------------------------------------------
struct half4 {
  std::array<half2, 2> h2;  // 64 bits total

  static half4 zero() noexcept { return half4{}; }
};
static_assert(sizeof(half4) == 8, "half4 must be 64 bits (float2 width)");

struct half8 {
  std::array<half2, 4> h2;  // 128 bits total

  static half8 zero() noexcept { return half8{}; }
};
static_assert(sizeof(half8) == 16, "half8 must be 128 bits (float4 width)");

// Arithmetic on half4/half8 is *not* a hardware capability; as the paper
// specifies, it lowers onto half2 instructions (2 resp. 4 of them).
inline half4 h4fma(half4 a, half4 b, half4 c) noexcept {
  return half4{{{h2fma(a.h2[0], b.h2[0], c.h2[0]),
                 h2fma(a.h2[1], b.h2[1], c.h2[1])}}};
}
inline half8 h8fma(half8 a, half8 b, half8 c) noexcept {
  return half8{{{h2fma(a.h2[0], b.h2[0], c.h2[0]),
                 h2fma(a.h2[1], b.h2[1], c.h2[1]),
                 h2fma(a.h2[2], b.h2[2], c.h2[2]),
                 h2fma(a.h2[3], b.h2[3], c.h2[3])}}};
}

// ---------------------------------------------------------------------------
// float2 / float4 — load-only packs
// ---------------------------------------------------------------------------
struct float2 {
  float x = 0, y = 0;
};
struct float4 {
  float x = 0, y = 0, z = 0, w = 0;
};
static_assert(sizeof(float2) == 8 && sizeof(float4) == 16);

// ---------------------------------------------------------------------------
// Alignment-checked reinterpreting loads
// ---------------------------------------------------------------------------
// The paper's feature-padding rule exists because the hardware rejects a
// half->half2 pointer cast at an odd offset (address not a multiple of
// 4 bytes). We enforce the same contract: these helpers assert the address
// alignment that the corresponding GPU load instruction would require.

inline bool is_aligned_for(const void* p, std::size_t bytes) noexcept {
  return reinterpret_cast<std::uintptr_t>(p) % bytes == 0;
}

inline half2 load_half2(const half_t* p) noexcept {
  assert(is_aligned_for(p, 4) &&
         "half2 load requires 4-byte alignment (paper: feature padding)");
  half2 v;
  std::memcpy(static_cast<void*>(&v), static_cast<const void*>(p), sizeof v);
  return v;
}

inline half4 load_half4(const half_t* p) noexcept {
  assert(is_aligned_for(p, 8) && "half4 load requires 8-byte alignment");
  half4 v;
  std::memcpy(static_cast<void*>(&v), static_cast<const void*>(p), sizeof v);
  return v;
}

inline half8 load_half8(const half_t* p) noexcept {
  assert(is_aligned_for(p, 16) && "half8 load requires 16-byte alignment");
  half8 v;
  std::memcpy(static_cast<void*>(&v), static_cast<const void*>(p), sizeof v);
  return v;
}

}  // namespace hg
