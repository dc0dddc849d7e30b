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
#include <cstring>

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
// 8-half group; fusing keeps the accumulator bits AND their float image in
// registers across every edge of the run, so each edge costs only the
// semantically required convert chain. NC accumulator chains (8 halves
// each) run interleaved so the ~18-cycle add->cvtps2ph->cvtph2ps dependency
// chain of one group overlaps the others'.
template <int NC>
void spmm_run_block(half2* acc, const half2* x, const std::int32_t* cols,
                    const float* wf, __m256 pv, int half_f, int bn, int g0,
                    unsigned flags) {
  const bool has_w = (flags & kHasW) != 0;
  const bool has_pre = (flags & kHasPre) != 0;
  const bool is_max = (flags & kIsMax) != 0;
  __m128i ah[NC];  // accumulator half bits (the stored representation)
  __m256 af[NC];   // its exact float image, maintained after every update
  for (int c = 0; c < NC; ++c) {
    ah[c] = load8h(acc + g0 + 4 * c);
    af[c] = cvt8(ah[c]);
  }
  for (int e = 0; e < bn; ++e) {
    const half2* xr =
        x + static_cast<std::size_t>(cols[e]) * static_cast<std::size_t>(half_f) +
        g0;
    __m256 wv = _mm256_setzero_ps();
    if (has_w) {
      // Staged (lo, hi) float pair; one 64-bit broadcast rebuilds the
      // alternating bcast_h2 pattern.
      wv = _mm256_castpd_ps(
          _mm256_broadcast_sd(reinterpret_cast<const double*>(wf + 2 * e)));
    }
    for (int c = 0; c < NC; ++c) {
      __m128i th = load8h(xr + 4 * c);
      __m256 t = cvt8(th);
      if (has_w) {  // term = h2mul(term, w): round after the mul
        th = cvt8b(ordered_mul(t, wv));
        t = cvt8(th);
      }
      if (has_pre) {
        th = cvt8b(ordered_mul(t, pv));
        t = cvt8(th);
      }
      if (is_max) {  // h2max = bit-preserving (a < t ? t : a)
        const __m256i lt =
            _mm256_castps_si256(_mm256_cmp_ps(af[c], t, _CMP_LT_OQ));
        ah[c] = _mm_blendv_epi8(ah[c], th, narrow_mask(lt));
        af[c] = cvt8(ah[c]);
      } else {  // h2add = half(a_f + t_f)
        ah[c] = cvt8b(ordered_add(af[c], t));
        af[c] = cvt8(ah[c]);
      }
    }
  }
  for (int c = 0; c < NC; ++c) store8h(acc + g0 + 4 * c, ah[c]);
}

void h2_spmm_run_avx2(half2* acc, const half2* x, const std::int32_t* cols,
                      const half2* w2, half2 pre, int half_f, int n_edges,
                      unsigned flags) {
  if (half_f % 4 != 0) {  // no 8-half group structure: per-edge vector loop
    for (int e = 0; e < n_edges; ++e) {
      const half2* xr = x + static_cast<std::size_t>(cols[e]) *
                                static_cast<std::size_t>(half_f);
      const half2 w = (flags & kHasW) ? w2[e] : half2(1.0f, 1.0f);
      h2_term_accum_avx2(acc, xr, w, pre, half_f, flags);
    }
    return;
  }
  const __m256 pv = bcast_h2(pre);
  constexpr int kBlk = 64;  // edges per weight-staging block
  alignas(32) float wf[2 * kBlk];
  for (int b0 = 0; b0 < n_edges; b0 += kBlk) {
    const int bn = std::min(kBlk, n_edges - b0);
    if (flags & kHasW) {
      // Stage the block's weights as (lo, hi) float pairs. Plain vcvtph2ps
      // (no sNaN patch): the floats only feed multiplies, where the scalar
      // path's preserved-sNaN operand yields the same quieted product.
      int i = 0;
      for (; i + 4 <= bn; i += 4) {
        _mm256_storeu_ps(wf + 2 * i, cvt8(load8h(w2 + b0 + i)));
      }
      for (; i < bn; ++i) {
        std::uint32_t b = 0;
        std::memcpy(&b, w2 + b0 + i, sizeof(b));
        wf[2 * i] = half_bits_to_float_fast(static_cast<std::uint16_t>(b));
        wf[2 * i + 1] =
            half_bits_to_float_fast(static_cast<std::uint16_t>(b >> 16));
      }
    }
    const std::int32_t* cb = cols + b0;
    int g0 = 0;
    for (; g0 + 16 <= half_f; g0 += 16) {
      spmm_run_block<4>(acc, x, cb, wf, pv, half_f, bn, g0, flags);
    }
    switch ((half_f - g0) / 4) {
      case 3: spmm_run_block<3>(acc, x, cb, wf, pv, half_f, bn, g0, flags); break;
      case 2: spmm_run_block<2>(acc, x, cb, wf, pv, half_f, bn, g0, flags); break;
      case 1: spmm_run_block<1>(acc, x, cb, wf, pv, half_f, bn, g0, flags); break;
      default: break;
    }
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
void h2_rmw_avx2(half2* acc, const half2* v, int n, bool is_max) {
  h_accum_avx2(reinterpret_cast<half_t*>(acc),
               reinterpret_cast<const half_t*>(v), 2 * n, is_max);
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
// Butterfly shuffle combines
// ---------------------------------------------------------------------------

void shfl_xor_f_avx2(Lanes<float>& vals, int offset, LaneMask active,
                     bool is_max) {
  Lanes<float> other;
  for (int l = 0; l < kLanes; ++l) {
    other[static_cast<std::size_t>(l)] =
        vals[static_cast<std::size_t>(l ^ offset)];
  }
  for (int g = 0; g < 4; ++g) {
    const unsigned mb = (active >> (8 * g)) & 0xFFu;
    if (mb == 0) continue;
    const std::size_t off = static_cast<std::size_t>(8 * g);
    const __m256 v = _mm256_loadu_ps(vals.data() + off);
    const __m256 o = _mm256_loadu_ps(other.data() + off);
    // (v < o ? o : v) == vmaxps(o, v); add keeps v as first operand.
    __m256 r = is_max ? _mm256_max_ps(o, v) : ordered_add(v, o);
    if (mb != 0xFFu) {
      r = _mm256_blendv_ps(v, r, _mm256_castsi256_ps(expand8(mb)));
    }
    _mm256_storeu_ps(vals.data() + off, r);
  }
}

void shfl_xor_h_avx2(Lanes<half_t>& vals, int offset, LaneMask active,
                     bool is_max) {
  Lanes<half_t> other;
  for (int l = 0; l < kLanes; ++l) {
    other[static_cast<std::size_t>(l)] =
        vals[static_cast<std::size_t>(l ^ offset)];
  }
  for (int g = 0; g < 4; ++g) {
    const unsigned mb = (active >> (8 * g)) & 0xFFu;
    if (mb == 0) continue;
    const std::size_t off = static_cast<std::size_t>(8 * g);
    const __m128i vh = load8h(vals.data() + off);
    const __m128i oh = load8h(other.data() + off);
    __m128i r;
    if (is_max) {  // bit-preserving (v < o ? o : v) on active lanes only
      __m128i sel = narrow_mask(_mm256_castps_si256(
          _mm256_cmp_ps(cvt8(vh), cvt8(oh), _CMP_LT_OQ)));
      if (mb != 0xFFu) sel = _mm_and_si128(sel, narrow_mask(expand8(mb)));
      r = _mm_blendv_epi8(vh, oh, sel);
    } else {
      r = cvt8b(ordered_add(cvt8(vh), cvt8(oh)));
      if (mb != 0xFFu) r = _mm_blendv_epi8(vh, r, narrow_mask(expand8(mb)));
    }
    store8h(vals.data() + off, r);
  }
}

void shfl_xor_h2_avx2(Lanes<half2>& vals, int offset, LaneMask active,
                      bool is_max) {
  Lanes<half2> other;
  for (int l = 0; l < kLanes; ++l) {
    other[static_cast<std::size_t>(l)] =
        vals[static_cast<std::size_t>(l ^ offset)];
  }
  for (int g = 0; g < 8; ++g) {
    const unsigned mb = (active >> (4 * g)) & 0xFu;
    if (mb == 0) continue;
    const std::size_t off = static_cast<std::size_t>(4 * g);
    const __m128i vh = load8h(vals.data() + off);
    const __m128i oh = load8h(other.data() + off);
    __m128i r;
    if (is_max) {  // h2max per half; activity uniform across a lane's halves
      __m128i sel = narrow_mask(_mm256_castps_si256(
          _mm256_cmp_ps(cvt8(vh), cvt8(oh), _CMP_LT_OQ)));
      if (mb != 0xFu) sel = _mm_and_si128(sel, expand4(mb));
      r = _mm_blendv_epi8(vh, oh, sel);
    } else {
      r = cvt8b(ordered_add(cvt8(vh), cvt8(oh)));
      if (mb != 0xFu) r = _mm_blendv_epi8(vh, r, expand4(mb));
    }
    store8h(vals.data() + off, r);
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
    &h2_rmw_avx2,
    &h_accum_avx2,
    &h_scale_avx2,
    &f_accum_avx2,
    &f_scale_avx2,
    &h_fma_mask_avx2,
    &f_fma_mask_avx2,
    &h2_dot_mask_avx2,
    &shfl_xor_h2_avx2,
    &shfl_xor_h_avx2,
    &shfl_xor_f_avx2,
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
