// AVX2/F16C implementations of the lane primitives in simd.hpp.
//
// This TU is the only one compiled with -mavx2 (cmake gates it behind a
// check_cxx_source_runs probe, mirroring HALFGNN_F16C); everything else in
// the repo keeps its baseline codegen. Bit-identity with the scalar
// reference path rests on a few invariants, each load-bearing:
//
//  * Half arithmetic happens in float domain exactly like the scalar ops:
//    vcvtph2ps the operands, packed mul/add, vcvtps2ph wherever the scalar
//    op constructs a half_t. A half->float->half round-trip through the
//    hardware converters is exact, and arithmetic results are never
//    signaling NaNs, so the in-register round-trip matches the scalar
//    table lookup bit-for-bit. Only the public cvt_h2f batch can see sNaN
//    *inputs*, where vcvtph2ps quiets; that one entry point patches float
//    bit 22 back to reproduce the table. (The dense entries also read raw
//    f16 storage, but only into arithmetic, where a quieted and an unquieted
//    sNaN operand give the same result, or into integer compares.)
//  * No FMA contraction anywhere: explicit _mm256_mul_ps then
//    _mm256_add_ps, same as the scalar float expressions (the build never
//    enables -mfma). Where the scalar op IS a fused hfma, mul+add is still
//    exact because the product of two half-derived floats is exact in
//    float.
//  * NaN-payload operand order mirrors the scalar expressions: x86 add/mul
//    return the first source's NaN when both operands are NaN. The compiler
//    is free to commute _mm256_add_ps/_mm256_mul_ps (and the scalar float
//    `+`/`*` in any per-TU tail loop), which would silently flip which
//    payload wins, so every add/mul below goes through the ordered_add /
//    ordered_mul asm wrappers — same instruction, operand order pinned to
//    what the scalar reference TU compiled to — and remainder tails run
//    through the same pinned vector code on padded scratch instead of
//    per-lane C++ float expressions.
//  * Max is never maxps on halves: the kernels' half max is the
//    bit-preserving select (a < b ? b : a), so the vector path compares in
//    float domain and blends the ORIGINAL 16-bit values. For float max the
//    select (acc < t ? t : acc) coincides with vmaxps(t, acc), NaN and ±0
//    cases included.
#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

#include "simt/simd.hpp"

namespace hg::simt::simd {

namespace {

constexpr int kRne = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;

// vaddps/vmulps with src1 pinned to `a`: when both operands are NaN the
// hardware propagates src1's payload, and the scalar reference TU compiles
// its float expressions with the left operand as src1. Inline asm stops the
// compiler from commuting the operands (same instruction, no extra cost).
inline __m256 ordered_add(__m256 a, __m256 b) noexcept {
  __m256 r;
  asm("vaddps %2, %1, %0" : "=x"(r) : "x"(a), "x"(b));
  return r;
}
inline __m256 ordered_mul(__m256 a, __m256 b) noexcept {
  __m256 r;
  asm("vmulps %2, %1, %0" : "=x"(r) : "x"(a), "x"(b));
  return r;
}

inline __m256 cvt8(__m128i h) noexcept { return _mm256_cvtph_ps(h); }
inline __m128i cvt8b(__m256 f) noexcept { return _mm256_cvtps_ph(f, kRne); }
// A float vector rounded to half and back: the exact image of the halves.
inline __m256 round_h(__m256 x) noexcept { return cvt8(cvt8b(x)); }

inline __m128i load8h(const void* p) noexcept {
  return _mm_loadu_si128(static_cast<const __m128i*>(p));
}
inline void store8h(void* p, __m128i v) noexcept {
  _mm_storeu_si128(static_cast<__m128i*>(p), v);
}

// Broadcast a half2 as alternating [lo hi lo hi ...] floats.
inline __m256 bcast_h2(half2 s) noexcept {
  std::uint32_t b = 0;
  std::memcpy(&b, &s, sizeof(b));
  return cvt8(_mm_set1_epi32(static_cast<int>(b)));
}
inline __m256 bcast_h(half_t s) noexcept {
  const std::uint16_t b = s.bits();
  return cvt8(_mm_set1_epi16(static_cast<short>(b)));
}

// Narrow an 8x32 compare mask to the 8x16 shape half blends need.
inline __m128i narrow_mask(__m256i m32) noexcept {
  return _mm_packs_epi32(_mm256_castsi256_si128(m32),
                         _mm256_extracti128_si256(m32, 1));
}

// Expand the low 8 (resp. 4) bits of a lane mask into full-width lanes.
inline __m256i expand8(unsigned bits) noexcept {
  const __m256i kBit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256i v =
      _mm256_and_si256(_mm256_set1_epi32(static_cast<int>(bits)), kBit);
  return _mm256_cmpeq_epi32(v, kBit);
}
inline __m128i expand4(unsigned bits) noexcept {
  const __m128i kBit = _mm_setr_epi32(1, 2, 4, 8);
  const __m128i v =
      _mm_and_si128(_mm_set1_epi32(static_cast<int>(bits)), kBit);
  return _mm_cmpeq_epi32(v, kBit);
}

// ---------------------------------------------------------------------------
// Conversion batches
// ---------------------------------------------------------------------------

void cvt_h2f_avx2(const std::uint16_t* in, float* out, int n) {
  const __m256i kMag = _mm256_set1_epi32(0x7FFF);
  const __m256i kInf = _mm256_set1_epi32(0x7C00);
  const __m256i kQuiet = _mm256_set1_epi32(0x0200);
  const __m256i kBit22 = _mm256_set1_epi32(0x00400000);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h = load8h(in + i);
    __m256 f = cvt8(h);
    // vcvtph2ps quiets signaling NaNs (sets float bit 22); the scalar table
    // preserves them. Clear the bit back on exactly those lanes.
    const __m256i hw = _mm256_cvtepu16_epi32(h);
    const __m256i nan = _mm256_cmpgt_epi32(_mm256_and_si256(hw, kMag), kInf);
    const __m256i snan = _mm256_and_si256(
        nan, _mm256_cmpeq_epi32(_mm256_and_si256(hw, kQuiet),
                                _mm256_setzero_si256()));
    const __m256i patch = _mm256_and_si256(snan, kBit22);
    f = _mm256_castsi256_ps(
        _mm256_andnot_si256(patch, _mm256_castps_si256(f)));
    _mm256_storeu_ps(out + i, f);
  }
  for (; i < n; ++i) out[i] = half_bits_to_float_fast(in[i]);
}

void cvt_f2h_avx2(const float* in, std::uint16_t* out, int n) {
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    store8h(out + i, cvt8b(_mm256_loadu_ps(in + i)));
  }
  for (; i < n; ++i) out[i] = float_to_half_bits(in[i]);
}

// ---------------------------------------------------------------------------
// half2 accumulate family (4 half2 = 8 halves per step)
// ---------------------------------------------------------------------------

// One 4x half2 (8 half) step of the term-accumulate; shared by the main
// loop and the padded remainder tail.
inline void h2_term_step(half2* acc, const half2* x, __m256 wv, __m256 pv,
                         bool has_w, bool has_pre, bool is_max) noexcept {
  __m128i th = load8h(x);
  __m256 t = cvt8(th);
  if (has_w) {  // term = h2mul(term, w): round after the mul
    th = cvt8b(ordered_mul(t, wv));
    t = cvt8(th);
  }
  if (has_pre) {
    th = cvt8b(ordered_mul(t, pv));
    t = cvt8(th);
  }
  const __m128i ah = load8h(acc);
  __m128i r;
  if (is_max) {  // h2max = bit-preserving (a < t ? t : a)
    const __m256i lt =
        _mm256_castps_si256(_mm256_cmp_ps(cvt8(ah), t, _CMP_LT_OQ));
    r = _mm_blendv_epi8(ah, th, narrow_mask(lt));
  } else {  // h2add = half(a_f + t_f)
    r = cvt8b(ordered_add(cvt8(ah), t));
  }
  store8h(acc, r);
}

void h2_term_accum_avx2(half2* acc, const half2* x, half2 w, half2 pre, int n,
                        unsigned flags) {
  const bool has_w = (flags & kHasW) != 0;
  const bool has_pre = (flags & kHasPre) != 0;
  const bool is_max = (flags & kIsMax) != 0;
  const __m256 wv = bcast_h2(w);
  const __m256 pv = bcast_h2(pre);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    h2_term_step(acc + i, x + i, wv, pv, has_w, has_pre, is_max);
  }
  if (i < n) {  // padded remainder through the identical vector step
    const auto r = static_cast<std::size_t>(n - i);
    alignas(16) half2 xa[4] = {};
    alignas(16) half2 aa[4] = {};
    std::memcpy(xa, x + i, r * sizeof(half2));
    std::memcpy(aa, acc + i, r * sizeof(half2));
    h2_term_step(aa, xa, wv, pv, has_w, has_pre, is_max);
    std::memcpy(acc + i, aa, r * sizeof(half2));
  }
}

// Fused spmm row-run. The unfused loop pays, per edge, a dispatch + a
// 128-byte staging copy + an accumulator load/convert/store round-trip per
// 8-half group; fusing keeps the accumulator in registers from the run's
// first edge to its store, so each edge costs only the semantically
// required convert chain. One pass carries up to kPassGroups groups of 8
// halves over all of the run's edges, one dependency chain per group, so
// the ~18-cycle add->cvtps2ph->cvtph2ps chain of each group overlaps the
// others'. The pass's last group moves through 32-bit masked loads and
// stores: all four words of a full group, fewer of a ragged one
// (half_f % 4 != 0), whose missing lanes compute on zeros and are never
// stored.
constexpr int kPassGroups = 8;

// An add accumulator is kept only as the float image of its half bits
// (after an add it is never a signaling NaN, so converting back is exact);
// a max accumulator keeps the half bits, which its select blends.
template <int NC, bool kMax>
void spmm_pass(half2* acc, const half2* x, const std::int32_t* cols,
               const half_t* w, __m256 pv, __m256 sv, int half_f, int n_edges,
               __m128i last, unsigned flags) {
  const bool has_w = (flags & kHasW) != 0;
  const bool has_pre = (flags & kHasPre) != 0;
  const auto load = [last](const half2* p, int c) {
    return c == NC - 1 ? _mm_maskload_epi32(reinterpret_cast<const int*>(p),
                                            last)
                       : load8h(p);
  };
  __m128i ah[NC];  // kMax: the accumulator's half bits
  __m256 af[NC];   // add: their float image
#pragma GCC unroll 8
  for (int c = 0; c < NC; ++c) {
    if constexpr (kMax) {
      ah[c] = (flags & kFromIdentity) != 0
                  ? _mm_set1_epi16(static_cast<short>(
                        half_limits::kNegInf.bits()))
                  : load(acc + 4 * c, c);
    } else {
      af[c] = (flags & kFromIdentity) != 0 ? _mm256_setzero_ps()
                                           : cvt8(load(acc + 4 * c, c));
    }
  }
  for (int e = 0; e < n_edges; ++e) {
    const half2* xr = x + static_cast<std::size_t>(cols[e]) *
                              static_cast<std::size_t>(half_f);
    const __m256 wv = has_w ? bcast_h(w[e]) : _mm256_setzero_ps();
#pragma GCC unroll 8
    for (int c = 0; c < NC; ++c) {
      __m128i th = load(xr + 4 * c, c);
      __m256 t = cvt8(th);
      if (has_w) {  // term = h2mul(term, w): round after the mul
        th = cvt8b(ordered_mul(t, wv));
        t = cvt8(th);
      }
      if (has_pre) {
        th = cvt8b(ordered_mul(t, pv));
        t = cvt8(th);
      }
      if constexpr (kMax) {  // h2max = bit-preserving (a < t ? t : a)
        const __m256i lt =
            _mm256_castps_si256(_mm256_cmp_ps(cvt8(ah[c]), t, _CMP_LT_OQ));
        ah[c] = _mm_blendv_epi8(ah[c], th, narrow_mask(lt));
      } else {  // h2add = half(a_f + t_f)
        af[c] = round_h(ordered_add(af[c], t));
      }
    }
  }
#pragma GCC unroll 8
  for (int c = 0; c < NC; ++c) {
    if constexpr (kMax) {
      af[c] = cvt8(ah[c]);
    } else {
      ah[c] = cvt8b(af[c]);
    }
    if (flags & kHasScale) ah[c] = cvt8b(ordered_mul(af[c], sv));  // h2_scale
    if (c == NC - 1) {
      _mm_maskstore_epi32(reinterpret_cast<int*>(acc + 4 * c), last, ah[c]);
    } else {
      store8h(acc + 4 * c, ah[c]);
    }
  }
}

using SpmmPass = void (*)(half2*, const half2*, const std::int32_t*,
                          const half_t*, __m256, __m256, int, int, __m128i,
                          unsigned);
constexpr SpmmPass kSpmmPass[2][kPassGroups] = {
    {&spmm_pass<1, false>, &spmm_pass<2, false>, &spmm_pass<3, false>,
     &spmm_pass<4, false>, &spmm_pass<5, false>, &spmm_pass<6, false>,
     &spmm_pass<7, false>, &spmm_pass<8, false>},
    {&spmm_pass<1, true>, &spmm_pass<2, true>, &spmm_pass<3, true>,
     &spmm_pass<4, true>, &spmm_pass<5, true>, &spmm_pass<6, true>,
     &spmm_pass<7, true>, &spmm_pass<8, true>}};

void h2_spmm_run_avx2(half2* acc, const half2* x, const std::int32_t* cols,
                      const half_t* w, half2 pre, half2 scale, int half_f,
                      int n_edges, unsigned flags) {
  // Nothing to do; a pass would also quiet a signaling NaN in acc.
  if (n_edges == 0 && (flags & (kFromIdentity | kHasScale)) == 0) return;
  const __m256 pv = bcast_h2(pre);
  const __m256 sv = bcast_h2(scale);
  const int groups = (half_f + 3) / 4;
  const int ragged = half_f % 4;  // words in a partial last group
  const SpmmPass* pass = kSpmmPass[(flags & kIsMax) != 0 ? 1 : 0];
  for (int g0 = 0; g0 < groups; g0 += kPassGroups) {
    const int nc = std::min(kPassGroups, groups - g0);
    const __m128i last = g0 + nc == groups && ragged != 0
                             ? expand4((1u << ragged) - 1)
                             : _mm_set1_epi32(-1);
    pass[nc - 1](acc + 4 * g0, x + 4 * g0, cols, w, pv, sv, half_f, n_edges,
                 last, flags);
  }
}

void h2_scale_avx2(half2* v, half2 s, int n) {
  const __m256 sv = bcast_h2(s);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    store8h(v + i, cvt8b(ordered_mul(cvt8(load8h(v + i)), sv)));
  }
  if (i < n) {
    const auto r = static_cast<std::size_t>(n - i);
    alignas(16) half2 va[4] = {};
    std::memcpy(va, v + i, r * sizeof(half2));
    store8h(va, cvt8b(ordered_mul(cvt8(load8h(va)), sv)));
    std::memcpy(v + i, va, r * sizeof(half2));
  }
}

// One 8-half step of the accumulate; shared with the padded tail.
inline void h_accum_step(half_t* acc, const half_t* v, bool is_max) noexcept {
  const __m128i ah = load8h(acc);
  const __m128i vh = load8h(v);
  __m128i r;
  if (is_max) {  // hmax = bit-preserving (a < v ? v : a)
    const __m256i lt =
        _mm256_castps_si256(_mm256_cmp_ps(cvt8(ah), cvt8(vh), _CMP_LT_OQ));
    r = _mm_blendv_epi8(ah, vh, narrow_mask(lt));
  } else {
    r = cvt8b(ordered_add(cvt8(ah), cvt8(vh)));
  }
  store8h(acc, r);
}

void h_accum_avx2(half_t* acc, const half_t* v, int n, bool is_max) {
  int i = 0;
  for (; i + 8 <= n; i += 8) h_accum_step(acc + i, v + i, is_max);
  if (i < n) {
    const auto r = static_cast<std::size_t>(n - i);
    alignas(16) half_t va[8] = {};
    alignas(16) half_t aa[8] = {};
    std::memcpy(va, v + i, r * sizeof(half_t));
    std::memcpy(aa, acc + i, r * sizeof(half_t));
    h_accum_step(aa, va, is_max);
    std::memcpy(acc + i, aa, r * sizeof(half_t));
  }
}

// A half2 combine is the per-half combine over twice the elements.
void h2_combine_avx2(half2* acc, const half2* x, int n, bool is_max) {
  h_accum_avx2(reinterpret_cast<half_t*>(acc),
               reinterpret_cast<const half_t*>(x), 2 * n, is_max);
}

inline void h2_fma_step(half2* acc, const half2* x, __m256 wv,
                        bool has_w) noexcept {
  const __m256 xf = cvt8(load8h(x));
  const __m256 af = cvt8(load8h(acc));
  // h2fma(x, w, acc) = half(x_f*w_f + a_f): the float product is exact, so
  // mul+add is the single-rounded fma. h2add keeps acc as first operand.
  const __m256 s = has_w ? ordered_add(ordered_mul(xf, wv), af)
                         : ordered_add(af, xf);
  store8h(acc, cvt8b(s));
}

void h2_fma_splat_avx2(half2* acc, const half2* x, half2 w, int n,
                       bool has_w) {
  const __m256 wv = bcast_h2(w);
  int i = 0;
  for (; i + 4 <= n; i += 4) h2_fma_step(acc + i, x + i, wv, has_w);
  if (i < n) {
    const auto r = static_cast<std::size_t>(n - i);
    alignas(16) half2 xa[4] = {};
    alignas(16) half2 aa[4] = {};
    std::memcpy(xa, x + i, r * sizeof(half2));
    std::memcpy(aa, acc + i, r * sizeof(half2));
    h2_fma_step(aa, xa, wv, has_w);
    std::memcpy(acc + i, aa, r * sizeof(half2));
  }
}

inline void h_scale_step(half_t* v, __m256 sv, bool v_first) noexcept {
  const __m256 vf = cvt8(load8h(v));
  const __m256 p = v_first ? ordered_mul(vf, sv) : ordered_mul(sv, vf);
  store8h(v, cvt8b(p));
}

void h_scale_avx2(half_t* v, half_t s, int n, bool v_first) {
  const __m256 sv = bcast_h(s);
  int i = 0;
  for (; i + 8 <= n; i += 8) h_scale_step(v + i, sv, v_first);
  if (i < n) {
    const auto r = static_cast<std::size_t>(n - i);
    alignas(16) half_t va[8] = {};
    std::memcpy(va, v + i, r * sizeof(half_t));
    h_scale_step(va, sv, v_first);
    std::memcpy(v + i, va, r * sizeof(half_t));
  }
}

// ---------------------------------------------------------------------------
// float accumulate family
// ---------------------------------------------------------------------------

inline void f_accum_step(float* acc, const float* x, __m256 wv, bool has_w,
                         bool is_max) noexcept {
  const __m256 xf = _mm256_loadu_ps(x);
  const __m256 t = has_w ? ordered_mul(wv, xf) : xf;  // term = w * x
  const __m256 a = _mm256_loadu_ps(acc);
  // (acc < t ? t : acc) == vmaxps(t, acc): NaN or equal selects src2=acc.
  const __m256 r = is_max ? _mm256_max_ps(t, a) : ordered_add(a, t);
  _mm256_storeu_ps(acc, r);
}

void f_accum_avx2(float* acc, const float* x, float w, int n, unsigned flags) {
  const bool has_w = (flags & kHasW) != 0;
  const bool is_max = (flags & kIsMax) != 0;
  const __m256 wv = _mm256_set1_ps(w);
  int i = 0;
  for (; i + 8 <= n; i += 8) f_accum_step(acc + i, x + i, wv, has_w, is_max);
  if (i < n) {
    const auto r = static_cast<std::size_t>(n - i);
    alignas(32) float xa[8] = {};
    alignas(32) float aa[8] = {};
    std::memcpy(xa, x + i, r * sizeof(float));
    std::memcpy(aa, acc + i, r * sizeof(float));
    f_accum_step(aa, xa, wv, has_w, is_max);
    std::memcpy(acc + i, aa, r * sizeof(float));
  }
}

void f_scale_avx2(float* v, float s, int n) {
  const __m256 sv = _mm256_set1_ps(s);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(v + i, ordered_mul(_mm256_loadu_ps(v + i), sv));
  }
  if (i < n) {
    const auto r = static_cast<std::size_t>(n - i);
    alignas(32) float va[8] = {};
    std::memcpy(va, v + i, r * sizeof(float));
    _mm256_storeu_ps(va, ordered_mul(_mm256_loadu_ps(va), sv));
    std::memcpy(v + i, va, r * sizeof(float));
  }
}

// ---------------------------------------------------------------------------
// Masked 32-lane register ops
// ---------------------------------------------------------------------------

void h_fma_mask_avx2(Lanes<half_t>& acc, const Lanes<half_t>& a,
                     const Lanes<half_t>& b, LaneMask m) {
  for (int g = 0; g < 4; ++g) {
    const unsigned mb = (m >> (8 * g)) & 0xFFu;
    if (mb == 0) continue;
    const std::size_t off = static_cast<std::size_t>(8 * g);
    const __m128i ah = load8h(acc.data() + off);
    // hfma(a, b, acc) = half(a_f*b_f + acc_f)
    const __m256 s = ordered_add(
        ordered_mul(cvt8(load8h(a.data() + off)),
                    cvt8(load8h(b.data() + off))),
        cvt8(ah));
    __m128i r = cvt8b(s);
    if (mb != 0xFFu) r = _mm_blendv_epi8(ah, r, narrow_mask(expand8(mb)));
    store8h(acc.data() + off, r);
  }
}

void f_fma_mask_avx2(Lanes<float>& acc, const Lanes<float>& a,
                     const Lanes<float>& b, LaneMask m) {
  for (int g = 0; g < 4; ++g) {
    const unsigned mb = (m >> (8 * g)) & 0xFFu;
    if (mb == 0) continue;
    const std::size_t off = static_cast<std::size_t>(8 * g);
    const __m256 av = _mm256_loadu_ps(acc.data() + off);
    // acc += a*b: acc is the first add operand.
    __m256 r = ordered_add(av, ordered_mul(_mm256_loadu_ps(a.data() + off),
                                           _mm256_loadu_ps(b.data() + off)));
    if (mb != 0xFFu) {
      r = _mm256_blendv_ps(av, r, _mm256_castsi256_ps(expand8(mb)));
    }
    _mm256_storeu_ps(acc.data() + off, r);
  }
}

void h2_dot_mask_avx2(Lanes<half2>& acc, const half2* a, const half2* b,
                      int h2per, LaneMask m) {
  const int* ap = reinterpret_cast<const int*>(a);
  const int* bp = reinterpret_cast<const int*>(b);
  for (int g = 0; g < 8; ++g) {
    const unsigned mb = (m >> (4 * g)) & 0xFu;
    if (mb == 0) continue;
    const std::size_t off = static_cast<std::size_t>(4 * g);
    const __m128i ah = load8h(acc.data() + off);
    __m256 af = cvt8(ah);
    __m128i rh = ah;
    const int l0 = 4 * g;
    const __m128i vbase =
        _mm_setr_epi32(l0 * h2per, (l0 + 1) * h2per, (l0 + 2) * h2per,
                       (l0 + 3) * h2per);
    for (int i = 0; i < h2per; ++i) {
      const __m128i vi = _mm_add_epi32(vbase, _mm_set1_epi32(i));
      const __m128i ag = _mm_i32gather_epi32(ap, vi, 4);
      const __m128i bg = _mm_i32gather_epi32(bp, vi, 4);
      // One h2fma step, rounded to half like the scalar chain.
      rh = cvt8b(ordered_add(ordered_mul(cvt8(ag), cvt8(bg)), af));
      af = cvt8(rh);
    }
    if (mb != 0xFu) rh = _mm_blendv_epi8(ah, rh, expand4(mb));
    store8h(acc.data() + off, rh);
  }
}

// ---------------------------------------------------------------------------
// Whole-butterfly group reductions
// ---------------------------------------------------------------------------
// All rounds run on the lanes held in registers: each round permutes a
// partner copy (lane l ^ offset) in-register, combines, and blends the
// result into the active lanes only. Lanes are 8 floats, 8 half2 or 16
// halves per register; offsets inside a register are shuffles, larger ones
// swap whole registers.

// Expand the low 16 bits of a lane mask into 16-bit lanes.
inline __m256i expand16(unsigned bits) noexcept {
  const __m256i kBit =
      _mm256_setr_epi16(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048,
                        4096, 8192, 16384, static_cast<short>(0x8000));
  const __m256i v = _mm256_and_si256(
      _mm256_set1_epi16(static_cast<short>(bits & 0xFFFFu)), kBit);
  return _mm256_cmpeq_epi16(v, kBit);
}

// 16 halves: v <- combine(v, o) where `act` (16-bit lanes) is set. The half
// add rounds once per element with v as the first operand; the max is the
// bit-preserving select (v < o ? o : v).
inline __m256i combine16h(__m256i v, __m256i o, __m256i act, bool full,
                          bool is_max) noexcept {
  const __m128i vl = _mm256_castsi256_si128(v);
  const __m128i vh = _mm256_extracti128_si256(v, 1);
  const __m128i ol = _mm256_castsi256_si128(o);
  const __m128i oh = _mm256_extracti128_si256(o, 1);
  if (is_max) {
    const __m128i ltl = narrow_mask(_mm256_castps_si256(
        _mm256_cmp_ps(cvt8(vl), cvt8(ol), _CMP_LT_OQ)));
    const __m128i lth = narrow_mask(_mm256_castps_si256(
        _mm256_cmp_ps(cvt8(vh), cvt8(oh), _CMP_LT_OQ)));
    __m256i sel = _mm256_set_m128i(lth, ltl);
    if (!full) sel = _mm256_and_si256(sel, act);
    return _mm256_blendv_epi8(v, o, sel);
  }
  const __m256i r =
      _mm256_set_m128i(cvt8b(ordered_add(cvt8(vh), cvt8(oh))),
                       cvt8b(ordered_add(cvt8(vl), cvt8(ol))));
  return full ? r : _mm256_blendv_epi8(v, r, act);
}

// Partner registers for one round over four 8-lane registers of 32-bit
// lanes (float or half2): a shuffle inside each register below offset 8,
// register g ^ (offset / 8) above.
template <class V, class Shuf>
inline void partners32(const V (&v)[4], V (&o)[4], int offset,
                       Shuf&& shuf) noexcept {
  for (int g = 0; g < 4; ++g) {
    o[g] = offset < 8 ? shuf(v[g], offset) : v[g ^ (offset >> 3)];
  }
}

void group_reduce_f_avx2(Lanes<float>& vals, int width, LaneMask active,
                         bool is_max) {
  if (width <= 1) return;
  const bool full = active == ~LaneMask{0};
  __m256 v[4];
  __m256 act[4];
  for (int g = 0; g < 4; ++g) {
    v[g] = _mm256_loadu_ps(vals.data() + 8 * g);
    act[g] = _mm256_castsi256_ps(expand8((active >> (8 * g)) & 0xFFu));
  }
  for (int offset = 1; offset < width; offset <<= 1) {
    __m256 o[4];
    partners32(v, o, offset, [](__m256 x, int off) {
      return off == 1   ? _mm256_permute_ps(x, 0xB1)
             : off == 2 ? _mm256_permute_ps(x, 0x4E)
                        : _mm256_permute2f128_ps(x, x, 0x01);
    });
    for (int g = 0; g < 4; ++g) {
      // (v < o ? o : v) == vmaxps(o, v); the add keeps v first.
      const __m256 r =
          is_max ? _mm256_max_ps(o[g], v[g]) : ordered_add(v[g], o[g]);
      v[g] = full ? r : _mm256_blendv_ps(v[g], r, act[g]);
    }
  }
  for (int g = 0; g < 4; ++g) _mm256_storeu_ps(vals.data() + 8 * g, v[g]);
}

void group_reduce_h2_avx2(Lanes<half2>& vals, int width, LaneMask active,
                          bool is_max) {
  if (width <= 1) return;
  const bool full = active == ~LaneMask{0};
  __m256i v[4];
  __m256i act[4];
  for (int g = 0; g < 4; ++g) {
    v[g] = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(vals.data() + 8 * g));
    act[g] = expand8((active >> (8 * g)) & 0xFFu);  // both halves of a lane
  }
  for (int offset = 1; offset < width; offset <<= 1) {
    __m256i o[4];
    partners32(v, o, offset, [](__m256i x, int off) {
      return off == 1   ? _mm256_shuffle_epi32(x, 0xB1)
             : off == 2 ? _mm256_shuffle_epi32(x, 0x4E)
                        : _mm256_permute2x128_si256(x, x, 0x01);
    });
    for (int g = 0; g < 4; ++g) {
      v[g] = combine16h(v[g], o[g], act[g], full, is_max);
    }
  }
  for (int g = 0; g < 4; ++g) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(vals.data() + 8 * g),
                        v[g]);
  }
}

void group_reduce_h_avx2(Lanes<half_t>& vals, int width, LaneMask active,
                         bool is_max) {
  if (width <= 1) return;
  const bool full = active == ~LaneMask{0};
  __m256i v[2];
  __m256i act[2];
  for (int g = 0; g < 2; ++g) {
    v[g] = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(vals.data() + 16 * g));
    act[g] = expand16(active >> (16 * g));
  }
  for (int offset = 1; offset < width; offset <<= 1) {
    __m256i o[2];
    for (int g = 0; g < 2; ++g) {
      const __m256i x = v[g];
      switch (offset) {
        case 1:  // swap the two halves of every 32-bit word
          o[g] = _mm256_or_si256(_mm256_slli_epi32(x, 16),
                                 _mm256_srli_epi32(x, 16));
          break;
        case 2: o[g] = _mm256_shuffle_epi32(x, 0xB1); break;
        case 4: o[g] = _mm256_shuffle_epi32(x, 0x4E); break;
        case 8: o[g] = _mm256_permute2x128_si256(x, x, 0x01); break;
        default: o[g] = v[1 - g]; break;
      }
    }
    for (int g = 0; g < 2; ++g) {
      v[g] = combine16h(v[g], o[g], act[g], full, is_max);
    }
  }
  for (int g = 0; g < 2; ++g) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(vals.data() + 16 * g),
                        v[g]);
  }
}

// ---------------------------------------------------------------------------
// Fused segment reduce of one row
// ---------------------------------------------------------------------------
// The row's 32 lanes stay in four registers of float images. Half sums
// round after every add; the max select is exact on images, and no lane
// ever holds a NaN (the identity -Inf drops one on the right), so images
// and half bits stay in step. Only lane 0's value is wanted, and lanes past
// the row's edges hold the identity: folding such a subtree in leaves
// lane 0's partial unchanged (+0 into a sum that is never -0, -Inf under
// the max), so the butterfly stops at bit_ceil(n) lanes.

// Lane 0's butterfly tree over `width` lanes of four 8-lane registers;
// `fold(x, partner)` is one rounded combine.
template <class Fold>
inline __m256 lane0_tree(__m256 (&v)[4], int width, Fold&& fold) noexcept {
  const int regs = std::max(1, width / 8);
  for (int g = 0; g < regs; ++g) {
    if (width >= 2) v[g] = fold(v[g], _mm256_permute_ps(v[g], 0xB1));
    if (width >= 4) v[g] = fold(v[g], _mm256_permute_ps(v[g], 0x4E));
    if (width >= 8) {
      v[g] = fold(v[g], _mm256_permute2f128_ps(v[g], v[g], 0x01));
    }
  }
  if (width >= 16) {
    v[0] = fold(v[0], v[1]);
    if (width >= 32) {
      v[2] = fold(v[2], v[3]);
      v[0] = fold(v[0], v[2]);
    }
  }
  return v[0];
}

// The max select (x < o ? o : x), which is vmaxps(o, x).
inline __m256 max_fold(__m256 x, __m256 o) noexcept {
  return _mm256_max_ps(o, x);
}

inline int seg_width(int n) noexcept {
  return static_cast<int>(
      std::bit_ceil(static_cast<unsigned>(std::clamp(n, 1, kLanes))));
}

half_t seg_reduce_h_avx2(const half_t* vals, int n, bool is_max) {
  const __m256 id = is_max ? cvt8(_mm_set1_epi16(static_cast<short>(0xFC00)))
                           : _mm256_setzero_ps();
  __m256 v[4] = {id, id, id, id};
  for (int b = 0; b < n; b += kLanes) {
    for (int g = 0; g < 4; ++g) {
      const int k = std::min(8, n - b - 8 * g);
      if (k <= 0) break;
      const half_t* p = vals + b + 8 * g;
      __m128i h;
      if (k == 8) {
        h = load8h(p);
      } else {
        alignas(16) half_t t[8] = {};
        std::memcpy(t, p, static_cast<std::size_t>(k) * sizeof(half_t));
        h = load8h(t);
      }
      const __m256 x = cvt8(h);
      __m256 r = is_max ? _mm256_max_ps(x, v[g])  // (acc < x ? x : acc)
                        : round_h(ordered_add(v[g], x));
      if (k < 8) {
        const __m256i m = expand8((1u << static_cast<unsigned>(k)) - 1u);
        r = _mm256_blendv_ps(v[g], r, _mm256_castsi256_ps(m));
      }
      v[g] = r;
    }
  }
  const __m256 lane0 =
      is_max ? lane0_tree(v, seg_width(n), max_fold)
             : lane0_tree(v, seg_width(n), [](__m256 x, __m256 o) {
                 return round_h(ordered_add(x, o));
               });
  return half_t::from_bits(static_cast<std::uint16_t>(
      _mm_extract_epi16(cvt8b(lane0), 0)));
}

float seg_reduce_f_avx2(const float* vals, int n, bool is_max) {
  const __m256 id =
      is_max ? _mm256_set1_ps(-std::numeric_limits<float>::infinity())
             : _mm256_setzero_ps();
  __m256 v[4] = {id, id, id, id};
  for (int b = 0; b < n; b += kLanes) {
    for (int g = 0; g < 4; ++g) {
      const int k = std::min(8, n - b - 8 * g);
      if (k <= 0) break;
      const float* p = vals + b + 8 * g;
      const __m256i m = expand8((1u << static_cast<unsigned>(k)) - 1u);
      const __m256 x = k == 8 ? _mm256_loadu_ps(p) : _mm256_maskload_ps(p, m);
      __m256 r = is_max ? _mm256_max_ps(x, v[g]) : ordered_add(v[g], x);
      if (k < 8) r = _mm256_blendv_ps(v[g], r, _mm256_castsi256_ps(m));
      v[g] = r;
    }
  }
  const __m256 lane0 =
      is_max ? lane0_tree(v, seg_width(n), max_fold)
             : lane0_tree(v, seg_width(n), [](__m256 x, __m256 o) {
                 return ordered_add(x, o);
               });
  return _mm256_cvtss_f32(lane0);
}

// ---------------------------------------------------------------------------
// Fused sddmm_halfgnn edge run
// ---------------------------------------------------------------------------
// Lanes are processed in quads: four lanes' half2 accumulators are the
// exact float image of their half bits, 8 floats. A quad's h2per-word
// vectors are loaded lane by lane and transposed so step i holds word i of
// all four lanes; each step is then the h2_dot_mask chain, rounded to half
// after every fma. Only lane 0's result leaves the butterfly, so the
// reduction runs as the tree that lane sees: pairs (0,1), (0..1, 2..3),
// then whole quads, each add rounded, the lower lane first. Four edges run
// interleaved, so their independent chains hide each step's convert
// latency.

// The first `valid` 32-bit words of p (0..4); the masked load never
// touches the words past a row's end.
inline __m128i load_words(const half2* p, int valid) noexcept {
  const __m128i m =
      _mm_cmpgt_epi32(_mm_set1_epi32(valid), _mm_setr_epi32(0, 1, 2, 3));
  return _mm_maskload_epi32(reinterpret_cast<const int*>(p), m);
}

// Word i of lanes 0..3 of a quad whose lanes hold H words each, from the
// quad's H loaded 4-word groups.
template <int H>
inline void transpose_quad(const __m128i (&r)[H], __m128i (&s)[H]) noexcept {
  if constexpr (H == 1) {
    s[0] = r[0];
  } else if constexpr (H == 2) {
    const __m128 x = _mm_castsi128_ps(r[0]);
    const __m128 y = _mm_castsi128_ps(r[1]);
    s[0] = _mm_castps_si128(_mm_shuffle_ps(x, y, _MM_SHUFFLE(2, 0, 2, 0)));
    s[1] = _mm_castps_si128(_mm_shuffle_ps(x, y, _MM_SHUFFLE(3, 1, 3, 1)));
  } else {
    static_assert(H == 4);
    const __m128i t0 = _mm_unpacklo_epi32(r[0], r[1]);
    const __m128i t1 = _mm_unpacklo_epi32(r[2], r[3]);
    const __m128i t2 = _mm_unpackhi_epi32(r[0], r[1]);
    const __m128i t3 = _mm_unpackhi_epi32(r[2], r[3]);
    s[0] = _mm_unpacklo_epi64(t0, t1);
    s[1] = _mm_unpackhi_epi64(t0, t1);
    s[2] = _mm_unpacklo_epi64(t2, t3);
    s[3] = _mm_unpackhi_epi64(t2, t3);
  }
}

// Word i of the quad's lanes, for each step i; lanes past `lanes` (< 4 only
// in a row's last quad) load nothing.
template <int H>
inline void quad_words(const half2* p, int lanes, __m128i (&s)[H]) noexcept {
  __m128i r[H];
  if (lanes == 4) {
#pragma GCC unroll 4
    for (int k = 0; k < H; ++k) {
      r[k] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 4 * k));
    }
  } else {
#pragma GCC unroll 4
    for (int k = 0; k < H; ++k) {
      r[k] = load_words(p + 4 * k, lanes * H - 4 * k);
    }
  }
  transpose_quad<H>(r, s);
}

// acc += the quad's chained h2fma steps, with a's step words already in
// float; lanes past `lanes` keep their accumulator.
template <int H>
inline __m256 quad_fma(__m256 acc, const __m256 (&fa)[H],
                       const __m128i (&sb)[H], int lanes) noexcept {
  __m256 r = acc;
#pragma GCC unroll 4
  for (int i = 0; i < H; ++i) {
    r = round_h(ordered_add(ordered_mul(fa[i], cvt8(sb[i])), r));
  }
  if (lanes == 4) return r;
  // Both floats of a lane follow its mask bit.
  const __m256i keep = _mm256_cvtepi16_epi32(expand4((1u << lanes) - 1u));
  return _mm256_blendv_ps(acc, r, _mm256_castsi256_ps(keep));
}

template <int H>
inline void quad_floats(const half2* p, int lanes, __m256 (&f)[H]) noexcept {
  __m128i s[H];
  quad_words<H>(p, lanes, s);
#pragma GCC unroll 4
  for (int i = 0; i < H; ++i) f[i] = cvt8(s[i]);
}

// Four edges; rows/cols hold four entries (a short group repeats its last
// edge), and the first `n_out` results are stored. Edges in CSR order
// mostly share their row: then a's quads load and convert once.
template <int H, int Q>
void sddmm_group(half_t* out, int n_out, const half2* a, const half2* b,
                 const std::int32_t* rows, const std::int32_t* cols,
                 int fvec, int width) {
  constexpr int E = 4;
  const auto row_words =
      static_cast<std::size_t>(fvec) * static_cast<std::size_t>(H);
  const bool one_row =
      rows[0] == rows[1] && rows[0] == rows[2] && rows[0] == rows[3];
  const half2* ar[E];
  const half2* br[E];
  __m256 acc[E][Q];
#pragma GCC unroll 4
  for (int e = 0; e < E; ++e) {
    ar[e] = a + static_cast<std::size_t>(rows[e]) * row_words;
    br[e] = b + static_cast<std::size_t>(cols[e]) * row_words;
#pragma GCC unroll 8
    for (int q = 0; q < Q; ++q) acc[e][q] = _mm256_setzero_ps();
  }
  for (int c = 0; c * kLanes < fvec; ++c) {
    const int n = std::min(kLanes, fvec - c * kLanes);
#pragma GCC unroll 8
    for (int q = 0; q < Q; ++q) {
      if (4 * q >= n) break;
      const auto qo = static_cast<std::size_t>((c * kLanes + 4 * q) * H);
      const int lanes = std::min(4, n - 4 * q);
      __m256 fa[H];
      if (one_row) quad_floats<H>(ar[0] + qo, lanes, fa);
#pragma GCC unroll 4
      for (int e = 0; e < E; ++e) {
        if (!one_row) quad_floats<H>(ar[e] + qo, lanes, fa);
        __m128i sb[H];
        quad_words<H>(br[e] + qo, lanes, sb);
        acc[e][q] = quad_fma<H>(acc[e][q], fa, sb, lanes);
      }
    }
  }
  // Offsets 1 and 2 inside every quad: partners are the neighbouring
  // (lo, hi) pair, then the other 128-bit half.
#pragma GCC unroll 8
  for (int q = 0; q < Q; ++q) {
#pragma GCC unroll 4
    for (int e = 0; e < E; ++e) {
      __m256 x = acc[e][q];
      if (width >= 2) x = round_h(ordered_add(x, _mm256_permute_ps(x, 0x4E)));
      if (width >= 4) {
        x = round_h(ordered_add(x, _mm256_permute2f128_ps(x, x, 0x01)));
      }
      acc[e][q] = x;
    }
  }
  // Offsets 4, 8, 16: whole quads.
#pragma GCC unroll 4
  for (int step = 1; step < Q; step <<= 1) {
#pragma GCC unroll 4
    for (int q = 0; q < Q; q += 2 * step) {
#pragma GCC unroll 4
      for (int e = 0; e < E; ++e) {
        acc[e][q] = round_h(ordered_add(acc[e][q], acc[e][q + step]));
      }
    }
  }
  // h2reduce_add of lane 0: lo + hi, one half rounding.
  for (int e = 0; e < n_out; ++e) {
    const float lo = _mm256_cvtss_f32(acc[e][0]);
    const float hi = _mm256_cvtss_f32(_mm256_permute_ps(acc[e][0], 0x01));
    out[e] = half_t(ordered_fadd(lo, hi));
  }
}

template <int H, int Q>
void sddmm_run(half_t* out, const half2* a, const half2* b,
               const std::int32_t* rows, const std::int32_t* cols, int fvec,
               int width, int n_edges) {
  int i = 0;
  for (; i + 4 <= n_edges; i += 4) {
    sddmm_group<H, Q>(out + i, 4, a, b, rows + i, cols + i, fvec, width);
  }
  if (i < n_edges) {
    std::int32_t r[4];
    std::int32_t c[4];
    for (int k = 0; k < 4; ++k) {
      r[k] = rows[std::min(i + k, n_edges - 1)];
      c[k] = cols[std::min(i + k, n_edges - 1)];
    }
    sddmm_group<H, Q>(out + i, n_edges - i, a, b, r, c, fvec, width);
  }
}

template <int H>
void sddmm_run_h(half_t* out, const half2* a, const half2* b,
                 const std::int32_t* rows, const std::int32_t* cols, int fvec,
                 int n) {
  const int width = std::min(
      kLanes, static_cast<int>(std::bit_ceil(
                  static_cast<unsigned>(std::max(1, fvec)))));
  switch ((width + 3) / 4) {  // quads of the lane group
    case 1: return sddmm_run<H, 1>(out, a, b, rows, cols, fvec, width, n);
    case 2: return sddmm_run<H, 2>(out, a, b, rows, cols, fvec, width, n);
    case 4: return sddmm_run<H, 4>(out, a, b, rows, cols, fvec, width, n);
    default: return sddmm_run<H, 8>(out, a, b, rows, cols, fvec, width, n);
  }
}

void h2_sddmm_run_avx2(half_t* out, const half2* a, const half2* b,
                       const std::int32_t* rows, const std::int32_t* cols,
                       int h2per, int fvec, int n_edges) {
  switch (h2per) {
    case 1: sddmm_run_h<1>(out, a, b, rows, cols, fvec, n_edges); break;
    case 2: sddmm_run_h<2>(out, a, b, rows, cols, fvec, n_edges); break;
    case 4: sddmm_run_h<4>(out, a, b, rows, cols, fvec, n_edges); break;
    default:
      scalar::h2_sddmm_run(out, a, b, rows, cols, h2per, fvec, n_edges);
      break;
  }
}

// ---------------------------------------------------------------------------
// Vectorized sector/element dedup
// ---------------------------------------------------------------------------

// Full-warp sorted runs (the contiguous-feature access pattern that
// dominates every kernel here) admit an exact closed form: distinct count =
// 1 + number of adjacent transitions. The vector pass checks sortedness and
// counts transitions for both element ids and sector ids in one sweep;
// anything else falls back to the scalar small-set dedup, which is already
// exact for all patterns.
accounting::AccessCounts access_counts_avx2(const accounting::LaneIdx& idx,
                                            std::uint32_t active,
                                            std::size_t elem_size,
                                            int sector_bytes) {
  const std::size_t eps = static_cast<std::size_t>(sector_bytes) / elem_size;
  if (active == 0xFFFFFFFFu && eps > 0 && std::has_single_bit(eps) &&
      idx[0] >= 0) {
    const int shift = std::countr_zero(eps);
    bool sorted = true;
    int elem_trans = 0;
    int sec_trans = 0;
    for (int k = 0; k < 7; ++k) {
      const __m256i cur = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(idx.data() + 4 * k));
      const __m256i nxt = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(idx.data() + 4 * k + 1));
      const __m256i gt = _mm256_cmpgt_epi64(cur, nxt);
      if (!_mm256_testz_si256(gt, gt)) {
        sorted = false;
        break;
      }
      const int eq = _mm256_movemask_pd(
          _mm256_castsi256_pd(_mm256_cmpeq_epi64(cur, nxt)));
      elem_trans += 4 - std::popcount(static_cast<unsigned>(eq));
      // Logical shift is the floor division: sorted + idx[0] >= 0 means
      // every index is non-negative.
      const __m256i scur = _mm256_srli_epi64(cur, shift);
      const __m256i snxt = _mm256_srli_epi64(nxt, shift);
      const int seq = _mm256_movemask_pd(
          _mm256_castsi256_pd(_mm256_cmpeq_epi64(scur, snxt)));
      sec_trans += 4 - std::popcount(static_cast<unsigned>(seq));
    }
    if (sorted) {
      for (int i = 28; i < 31; ++i) {
        const auto iu = static_cast<std::size_t>(i);
        if (idx[iu] > idx[iu + 1]) {
          sorted = false;
          break;
        }
        elem_trans += idx[iu] != idx[iu + 1] ? 1 : 0;
        sec_trans += (idx[iu] >> shift) != (idx[iu + 1] >> shift) ? 1 : 0;
      }
    }
    if (sorted) {
      accounting::AccessCounts c;
      c.sectors = 1 + sec_trans;
      c.unique_elems = 1 + elem_trans;
      c.active = kLanes;
      return c;
    }
  }
  return accounting::access_counts(idx, active, elem_size, sector_bytes);
}

// ---------------------------------------------------------------------------
// Dense host path
// ---------------------------------------------------------------------------

// One kGemmRows x kGemmCols tile of C held in eight registers across the
// whole k-block. Per term: product = a * b (a as src1), sum = product + acc
// (product as src1), the scalar reference's pinned order.
void gemm_tile(float* c, std::size_t ldc, const float* a, std::size_t lda,
               const float* b, std::size_t ldb, int kc, bool first) {
  static_assert(kGemmRows == 4 && kGemmCols == 16);
  __m256 acc[4][2];
  for (std::size_t r = 0; r < 4; ++r) {
    acc[r][0] = first ? _mm256_setzero_ps() : _mm256_loadu_ps(c + r * ldc);
    acc[r][1] = first ? _mm256_setzero_ps() : _mm256_loadu_ps(c + r * ldc + 8);
  }
  for (int kk = 0; kk < kc; ++kk) {
    const auto ku = static_cast<std::size_t>(kk);
    const __m256 b0 = _mm256_loadu_ps(b + ku * ldb);
    const __m256 b1 = _mm256_loadu_ps(b + ku * ldb + 8);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < 4; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + r * lda + ku);
      acc[r][0] = ordered_add(ordered_mul(av, b0), acc[r][0]);
      acc[r][1] = ordered_add(ordered_mul(av, b1), acc[r][1]);
    }
  }
  for (std::size_t r = 0; r < 4; ++r) {
    _mm256_storeu_ps(c + r * ldc, acc[r][0]);
    _mm256_storeu_ps(c + r * ldc + 8, acc[r][1]);
  }
}

void gemm_panel_avx2(float* c, std::size_t ldc, const float* a,
                     std::size_t lda, const float* b, std::size_t ldb, int kc,
                     int n, unsigned flags) {
  const bool first = (flags & kGemmFirst) != 0;
  for (int j0 = 0; j0 < n; j0 += kGemmCols) {
    const auto ju = static_cast<std::size_t>(j0);
    gemm_tile(c + ju, ldc, a, lda, b + ju, ldb, kc, first);
  }
}

// Row-wise f16 ops: 8 halves per step through vcvtph2ps / vcvtps2ph, one
// rounding per scalar half_t construction. Remainders run the same step on
// zero-padded copies.
template <class Step>
void h_rows8(half_t* x, std::size_t cols, Step&& step) {
  std::size_t j = 0;
  for (; j + 8 <= cols; j += 8) step(x + j, j);
  if (j < cols) {
    const std::size_t r = cols - j;
    alignas(16) half_t xa[8] = {};
    std::memcpy(xa, x + j, r * sizeof(half_t));
    step(xa, j);
    std::memcpy(x + j, xa, r * sizeof(half_t));
  }
}

void h_add_bias_rows_avx2(half_t* x, const float* bias, std::size_t rows,
                          std::size_t cols) {
  // The bias row, zero-padded to whole vectors once per call.
  alignas(32) float tail[8] = {};
  const std::size_t full = cols / 8 * 8;
  if (full < cols) {
    std::memcpy(tail, bias + full, (cols - full) * sizeof(float));
  }
  for (std::size_t r = 0; r < rows; ++r) {
    h_rows8(x + r * cols, cols, [&](half_t* p, std::size_t j) {
      const __m256 bv = _mm256_loadu_ps(j < full ? bias + j : tail);
      store8h(p, cvt8b(ordered_add(bv, cvt8(load8h(p)))));
    });
  }
}

void h_scale_rows_avx2(half_t* x, const float* s, std::size_t rows,
                       std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    const __m256 sv = _mm256_set1_ps(s[r]);
    h_rows8(x + r * cols, cols, [&](half_t* p, std::size_t) {
      store8h(p, cvt8b(ordered_mul(sv, cvt8(load8h(p)))));
    });
  }
}

void h_colsum_avx2(const half_t* x, float* out, std::size_t rows,
                   std::size_t cols) {
  const std::size_t full = cols / 8 * 8;
  for (std::size_t r = 0; r < rows; ++r) {
    const half_t* xr = x + r * cols;
    for (std::size_t j = 0; j < full; j += 8) {
      _mm256_storeu_ps(out + j, ordered_add(_mm256_loadu_ps(out + j),
                                            cvt8(load8h(xr + j))));
    }
  }
  if (full < cols) {  // the remainder columns, column by column down x
    const std::size_t rem = cols - full;
    alignas(32) float oa[8] = {};
    std::memcpy(oa, out + full, rem * sizeof(float));
    __m256 acc = _mm256_loadu_ps(oa);
    for (std::size_t r = 0; r < rows; ++r) {
      alignas(16) half_t xa[8] = {};
      std::memcpy(xa, x + r * cols + full, rem * sizeof(half_t));
      acc = ordered_add(acc, cvt8(load8h(xa)));
    }
    _mm256_storeu_ps(oa, acc);
    std::memcpy(out + full, oa, rem * sizeof(float));
  }
}

inline void h_axpby_step(const half_t* x, __m256 av, half_t* y,
                         __m256 bv) noexcept {
  // t = half(b * y); y = half(a * x + t): hfma's exact product, one rounding.
  const __m256 t = cvt8(cvt8b(ordered_mul(bv, cvt8(load8h(y)))));
  store8h(y, cvt8b(ordered_add(ordered_mul(av, cvt8(load8h(x))), t)));
}

void h_axpby_avx2(const half_t* x, half_t a, half_t* y, half_t b,
                  std::size_t n) {
  const __m256 av = bcast_h(a);
  const __m256 bv = bcast_h(b);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) h_axpby_step(x + i, av, y + i, bv);
  if (i < n) {
    const std::size_t r = n - i;
    alignas(16) half_t xa[8] = {};
    alignas(16) half_t ya[8] = {};
    std::memcpy(xa, x + i, r * sizeof(half_t));
    std::memcpy(ya, y + i, r * sizeof(half_t));
    h_axpby_step(xa, av, ya, bv);
    std::memcpy(y + i, ya, r * sizeof(half_t));
  }
}

// ReLU on 16 half bit patterns at a time, in the integer domain: as signed
// 16-bit values the halves > 0 are exactly 1..0x7C00 (+Inf included), and
// NaNs of either sign have magnitude bits above 0x7C00.
inline void h_relu_step(half_t* x, std::uint8_t* mask) noexcept {
  const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x));
  const __m256i pos =
      _mm256_and_si256(_mm256_cmpgt_epi16(v, _mm256_setzero_si256()),
                       _mm256_cmpgt_epi16(_mm256_set1_epi16(0x7C01), v));
  const __m256i nan =
      _mm256_cmpgt_epi16(_mm256_and_si256(v, _mm256_set1_epi16(0x7FFF)),
                         _mm256_set1_epi16(0x7C00));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(x),
                      _mm256_and_si256(v, _mm256_or_si256(pos, nan)));
  const __m128i bytes = _mm_packs_epi16(_mm256_castsi256_si128(pos),
                                        _mm256_extracti128_si256(pos, 1));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(mask),
                   _mm_and_si128(bytes, _mm_set1_epi8(1)));
}

void h_relu_forward_avx2(half_t* x, std::uint8_t* mask, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) h_relu_step(x + i, mask + i);
  if (i < n) {
    const std::size_t r = n - i;
    alignas(32) half_t xa[16] = {};
    alignas(16) std::uint8_t ma[16] = {};
    std::memcpy(xa, x + i, r * sizeof(half_t));
    h_relu_step(xa, ma);
    std::memcpy(x + i, xa, r * sizeof(half_t));
    std::memcpy(mask + i, ma, r);
  }
}

inline void h_relu_backward_step(half_t* g, const std::uint8_t* mask) noexcept {
  const __m256i m = _mm256_cvtepu8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(mask)));
  const __m256i off = _mm256_cmpeq_epi16(m, _mm256_setzero_si256());
  const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(g));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(g),
                      _mm256_andnot_si256(off, v));
}

void h_relu_backward_avx2(half_t* grad, const std::uint8_t* mask,
                          std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) h_relu_backward_step(grad + i, mask + i);
  if (i < n) {
    const std::size_t r = n - i;
    alignas(32) half_t ga[16] = {};
    alignas(16) std::uint8_t ma[16] = {};
    std::memcpy(ga, grad + i, r * sizeof(half_t));
    std::memcpy(ma, mask + i, r);
    h_relu_backward_step(ga, ma);
    std::memcpy(grad + i, ga, r * sizeof(half_t));
  }
}

constexpr SimdOps kAvx2Ops = {
    "avx2",
    true,
    &cvt_h2f_avx2,
    &cvt_f2h_avx2,
    &h2_term_accum_avx2,
    &h2_spmm_run_avx2,
    &h2_scale_avx2,
    &h2_combine_avx2,
    &h2_fma_splat_avx2,
    &h_accum_avx2,
    &h_scale_avx2,
    &f_accum_avx2,
    &f_scale_avx2,
    &h_fma_mask_avx2,
    &f_fma_mask_avx2,
    &h2_dot_mask_avx2,
    &group_reduce_h2_avx2,
    &group_reduce_h_avx2,
    &group_reduce_f_avx2,
    &h2_sddmm_run_avx2,
    &seg_reduce_h_avx2,
    &seg_reduce_f_avx2,
    &access_counts_avx2,
    &gemm_panel_avx2,
    &h_add_bias_rows_avx2,
    &h_scale_rows_avx2,
    &h_colsum_avx2,
    &h_axpby_avx2,
    &h_relu_forward_avx2,
    &h_relu_backward_avx2,
};

}  // namespace

const SimdOps* avx2_ops_or_null() noexcept {
  if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("f16c")) {
    return nullptr;
  }
  return &kAvx2Ops;
}

}  // namespace hg::simt::simd
