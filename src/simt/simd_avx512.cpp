// AVX-512 FP16 tier of the lane primitives in simd.hpp: the avx2 table
// with the two entries that own most of a GCN training epoch's host time
// replaced. Everything else is avx2's, so the tier can only differ from it
// in these two functions, and the property tests compare both against the
// scalar reference.
//
//  * gemm_panel: a kGemmRows x 32 tile of C in eight zmm registers, plus a
//    16-column remainder. With kGemmExact each term is one FMA. The flag
//    says every A and B value is a finite half: a product of two finite
//    halves has at most 22 significant bits and a magnitude in
//    [2^-48, 65504^2 < 2^32), so it is exact in f32 and
//    RN(a*b + c) == RN(RN(a*b) + c) for every c, Inf and NaN included.
//    Without the flag (an Inf, NaN or f32/bf16 operand) it is not: after a
//    NaN sum, a term Inf*0 gives the default NaN where an FMA keeps the
//    sum's NaN, so the tile keeps avx2's pinned multiply then add.
//  * h2_spmm_run: native half arithmetic, 32 halves per register and up to
//    four registers per pass. Each avx2 step is vcvtph2ps, one f32 add or
//    mul (or an LT_OQ compare) and vcvtps2ph; the f32 result of a half add
//    or mul rounds to half exactly like the direct half op (24 >= 2*11 + 2
//    bits), and over all 2^32 operand pairs vaddph / vmulph with the same
//    src1, and the vcmpph LT_OQ select, give those bits, NaN payloads and
//    subnormals included (SimdAvx512.H2SpmmRunMatchesAvx2OnAllHalfPairs).
//
// Two traps keep the bits only if guarded. GCC contracts a mul intrinsic
// feeding an add intrinsic into an FMA (vfmadd231ph / vfmadd231ps) even
// under -std=c++20, so every add and mul goes through the asm wrappers
// below, which also pin src1 the way avx2's ordered_add / ordered_mul do;
// the one FMA is an explicit _mm512_fmadd_ps. And the AVX-512 code must not
// leak into functions other TUs share: it sits in a target region, so
// inline functions from headers that this TU emits out of line keep the
// TU's baseline codegen.
#include <immintrin.h>

#include <cstdint>
#include <cstring>

#include "simt/simd.hpp"

namespace hg::simt::simd {

// Defined in simd_avx2.cpp; the table this tier copies.
const SimdOps* avx2_ops_or_null() noexcept;

namespace {

// Everything up to the matching pop is compiled for the tier's ISA.
#if defined(__clang__)
#pragma clang attribute push(                                        \
    __attribute__((target("avx512f,avx512bw,avx512vl,avx512fp16"))), \
    apply_to = function)
#else
#pragma GCC push_options
#pragma GCC target("avx512f,avx512bw,avx512vl,avx512fp16")
#endif

// Packed add/mul with src1 pinned to `a`: when both operands are NaN the
// hardware returns src1's payload, as in avx2's ordered_add / ordered_mul.
inline __m512h add_ph(__m512h a, __m512h b) noexcept {
  __m512h r;
  asm("vaddph %2, %1, %0" : "=v"(r) : "v"(a), "v"(b));
  return r;
}
inline __m512h mul_ph(__m512h a, __m512h b) noexcept {
  __m512h r;
  asm("vmulph %2, %1, %0" : "=v"(r) : "v"(a), "v"(b));
  return r;
}
inline __m512 add_ps(__m512 a, __m512 b) noexcept {
  __m512 r;
  asm("vaddps %2, %1, %0" : "=v"(r) : "v"(a), "v"(b));
  return r;
}
inline __m512 mul_ps(__m512 a, __m512 b) noexcept {
  __m512 r;
  asm("vmulps %2, %1, %0" : "=v"(r) : "v"(a), "v"(b));
  return r;
}

// ---------------------------------------------------------------------------
// GEMM tile
// ---------------------------------------------------------------------------

// kGemmRows rows x 16 * W columns of C held in registers across the whole
// k-block. kExact: acc = fma(a, b, acc). Otherwise avx2's order: product =
// a * b (a as src1), sum = product + acc (product as src1).
template <int W, bool kExact>
void gemm_tile(float* c, std::size_t ldc, const float* a, std::size_t lda,
               const float* b, std::size_t ldb, int kc, bool first) {
  static_assert(kGemmRows == 4 && kGemmCols == 16);
  __m512 acc[4][W];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < 4; ++r) {
#pragma GCC unroll 2
    for (int w = 0; w < W; ++w) {
      acc[r][w] = first ? _mm512_setzero_ps()
                        : _mm512_loadu_ps(c + r * ldc + 16 * w);
    }
  }
  for (int kk = 0; kk < kc; ++kk) {
    const auto ku = static_cast<std::size_t>(kk);
    __m512 bv[W];
#pragma GCC unroll 2
    for (int w = 0; w < W; ++w) bv[w] = _mm512_loadu_ps(b + ku * ldb + 16 * w);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < 4; ++r) {
      const __m512 av = _mm512_set1_ps(a[r * lda + ku]);
#pragma GCC unroll 2
      for (int w = 0; w < W; ++w) {
        acc[r][w] = kExact ? _mm512_fmadd_ps(av, bv[w], acc[r][w])
                           : add_ps(mul_ps(av, bv[w]), acc[r][w]);
      }
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < 4; ++r) {
#pragma GCC unroll 2
    for (int w = 0; w < W; ++w) {
      _mm512_storeu_ps(c + r * ldc + 16 * w, acc[r][w]);
    }
  }
}

template <bool kExact>
void gemm_tiles(float* c, std::size_t ldc, const float* a, std::size_t lda,
                const float* b, std::size_t ldb, int kc, int n, bool first) {
  int j0 = 0;
  for (; j0 + 2 * kGemmCols <= n; j0 += 2 * kGemmCols) {
    const auto ju = static_cast<std::size_t>(j0);
    gemm_tile<2, kExact>(c + ju, ldc, a, lda, b + ju, ldb, kc, first);
  }
  if (j0 < n) {  // n is a multiple of kGemmCols: one 16-column remainder
    const auto ju = static_cast<std::size_t>(j0);
    gemm_tile<1, kExact>(c + ju, ldc, a, lda, b + ju, ldb, kc, first);
  }
}

void gemm_panel_avx512(float* c, std::size_t ldc, const float* a,
                       std::size_t lda, const float* b, std::size_t ldb,
                       int kc, int n, unsigned flags) {
  const bool first = (flags & kGemmFirst) != 0;
  if ((flags & kGemmExact) != 0) {
    gemm_tiles<true>(c, ldc, a, lda, b, ldb, kc, n, first);
  } else {
    gemm_tiles<false>(c, ldc, a, lda, b, ldb, kc, n, first);
  }
}

// ---------------------------------------------------------------------------
// Fused spmm row-run
// ---------------------------------------------------------------------------
// One pass carries up to kPassRegs registers of 32 halves over all of the
// run's edges, one dependency chain per register. The pass's last register
// moves through masked loads and stores: all 32 halves of a full register,
// fewer of a ragged one, whose missing lanes compute on zeros and are never
// stored.
constexpr int kPassRegs = 4;

inline __m512h bcast_h2(half2 s) noexcept {
  std::uint32_t b = 0;
  std::memcpy(&b, &s, sizeof(b));
  return _mm512_castsi512_ph(_mm512_set1_epi32(static_cast<int>(b)));
}

template <int NC, bool kMax>
void spmm_pass(half2* acc, const half2* x, const std::int32_t* cols,
               const half_t* w, __m512h pv, __m512h sv, int half_f,
               int n_edges, __mmask32 last, unsigned flags) {
  const bool has_w = (flags & kHasW) != 0;
  const bool has_pre = (flags & kHasPre) != 0;
  const auto load = [last](const half2* p, int c) {
    return _mm512_castsi512_ph(c == NC - 1 ? _mm512_maskz_loadu_epi16(last, p)
                                           : _mm512_loadu_si512(p));
  };
  const __m512h id = _mm512_castsi512_ph(_mm512_set1_epi16(
      static_cast<short>(kMax ? half_limits::kNegInf.bits() : 0)));
  __m512h a[NC];
#pragma GCC unroll 4
  for (int c = 0; c < NC; ++c) {
    a[c] = (flags & kFromIdentity) != 0 ? id : load(acc + 16 * c, c);
  }
  for (int e = 0; e < n_edges; ++e) {
    const half2* xr = x + static_cast<std::size_t>(cols[e]) *
                              static_cast<std::size_t>(half_f);
    const __m512h wv =
        has_w ? _mm512_castsi512_ph(
                    _mm512_set1_epi16(static_cast<short>(w[e].bits())))
              : id;
#pragma GCC unroll 4
    for (int c = 0; c < NC; ++c) {
      __m512h t = load(xr + 16 * c, c);
      if (has_w) t = mul_ph(t, wv);  // term = h2mul(term, w)
      if (has_pre) t = mul_ph(t, pv);
      if constexpr (kMax) {  // h2max = bit-preserving (a < t ? t : a)
        const __mmask32 lt = _mm512_cmp_ph_mask(a[c], t, _CMP_LT_OQ);
        a[c] = _mm512_castsi512_ph(_mm512_mask_mov_epi16(
            _mm512_castph_si512(a[c]), lt, _mm512_castph_si512(t)));
      } else {  // h2add
        a[c] = add_ph(a[c], t);
      }
    }
  }
#pragma GCC unroll 4
  for (int c = 0; c < NC; ++c) {
    if (flags & kHasScale) a[c] = mul_ph(a[c], sv);  // h2_scale
    const __m512i r = _mm512_castph_si512(a[c]);
    if (c == NC - 1) {
      _mm512_mask_storeu_epi16(acc + 16 * c, last, r);
    } else {
      _mm512_storeu_si512(acc + 16 * c, r);
    }
  }
}

using SpmmPass = void (*)(half2*, const half2*, const std::int32_t*,
                          const half_t*, __m512h, __m512h, int, int, __mmask32,
                          unsigned);
constexpr SpmmPass kSpmmPass[2][kPassRegs] = {
    {&spmm_pass<1, false>, &spmm_pass<2, false>, &spmm_pass<3, false>,
     &spmm_pass<4, false>},
    {&spmm_pass<1, true>, &spmm_pass<2, true>, &spmm_pass<3, true>,
     &spmm_pass<4, true>}};

void h2_spmm_run_avx512(half2* acc, const half2* x, const std::int32_t* cols,
                        const half_t* w, half2 pre, half2 scale, int half_f,
                        int n_edges, unsigned flags) {
  // Nothing to do.
  if (n_edges == 0 && (flags & (kFromIdentity | kHasScale)) == 0) return;
  const __m512h pv = bcast_h2(pre);
  const __m512h sv = bcast_h2(scale);
  const int regs = (half_f + 15) / 16;  // 16 half2 words per register
  const int ragged = 2 * half_f % 32;   // halves in a partial last register
  const SpmmPass* pass = kSpmmPass[(flags & kIsMax) != 0 ? 1 : 0];
  for (int g0 = 0; g0 < regs; g0 += kPassRegs) {
    const int nc = regs - g0 < kPassRegs ? regs - g0 : kPassRegs;
    const __mmask32 last = g0 + nc == regs && ragged != 0
                               ? (__mmask32{1} << ragged) - 1
                               : ~__mmask32{0};
    pass[nc - 1](acc + 16 * g0, x + 16 * g0, cols, w, pv, sv, half_f, n_edges,
                 last, flags);
  }
}

#if defined(__clang__)
#pragma clang attribute pop
#else
#pragma GCC pop_options
#endif

}  // namespace

const SimdOps* avx512_ops_or_null() noexcept {
  // libgcc reports the AVX-512 features only when XCR0 shows that the OS
  // saves the zmm state.
  if (!__builtin_cpu_supports("avx512f") ||
      !__builtin_cpu_supports("avx512bw") ||
      !__builtin_cpu_supports("avx512vl") ||
      !__builtin_cpu_supports("avx512fp16")) {
    return nullptr;
  }
  const SimdOps* avx2 = avx2_ops_or_null();
  if (avx2 == nullptr) return nullptr;
  static const SimdOps kOps = [avx2] {
    SimdOps o = *avx2;
    o.path = Path::kAvx512;
    o.h2_spmm_run = &h2_spmm_run_avx512;
    o.gemm_panel = &gemm_panel_avx512;
    return o;
  }();
  return &kOps;
}

}  // namespace hg::simt::simd
