// Lane-batched SIMD execution of warp arithmetic (host-side AVX2/F16C).
//
// The warp-centric kernels manipulate 32-lane register arrays whose inner
// loops are structure-of-arrays by construction: 32 half2 terms multiplied
// by a broadcast edge weight, 32 float axpys into a feature accumulator,
// 16-wide butterfly combines. This header defines a small set of *lane
// primitives* covering exactly those loops, with two interchangeable
// implementations. The same table also carries the dense host path: the
// GEMM micro-kernel and the f16 storage loops of tensor/dense_ops.cpp.
//
//   scalar  — the executable reference spec. Each primitive is the verbatim
//             per-lane loop the kernels used to inline, built on the same
//             half_t/half2 scalar ops, so HALFGNN_SIMD=scalar reproduces the
//             historical interpreter bit-for-bit.
//   avx2    — whole-warp vector execution (src/simt/simd_avx2.cpp, compiled
//             with -mavx2 -mf16c in its own TU so no other code changes
//             codegen): half<->float conversion batches via vcvtph2ps /
//             vcvtps2ph, packed arithmetic in float domain with an
//             in-register half round-trip wherever the scalar op rounds,
//             and bit-preserving compare+blend for max selects.
//
// The two paths are required to be bit-identical on every input (NaN
// payloads, signed zeros, subnormals included); tests/simt/simd_test.cpp
// property-tests that, and tests/half covers the conversion batches over
// all 2^16 half values. Cost accounting is not done here — kernels charge
// Warp::alu()/smem_access() unchanged, so the cost model cannot diverge
// between paths (DESIGN.md Sec. 13).
//
// Path selection: HALFGNN_SIMD=scalar|avx2|auto (default auto) resolved
// once at process start (kPathTokens); simd::set_path() overrides it
// programmatically (config-time only — never while a launch is in flight).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>

#include "half/half.hpp"
#include "half/vec.hpp"
#include "simt/accounting.hpp"
#include "util/parse.hpp"

namespace hg::simt::simd {

using LaneMask = std::uint32_t;
inline constexpr int kLanes = 32;
template <class T>
using Lanes = std::array<T, kLanes>;

// Flag bits for the accumulate primitives.
inline constexpr unsigned kHasW = 1u;    // multiply by the broadcast weight
inline constexpr unsigned kHasPre = 2u;  // multiply by the broadcast prescale
inline constexpr unsigned kIsMax = 4u;   // max-select instead of add
// h2_spmm_run only: start from the combine identity instead of acc's
// contents, and multiply the finished run by the broadcast scale.
inline constexpr unsigned kFromIdentity = 8u;
inline constexpr unsigned kHasScale = 16u;

// GEMM micro-kernel geometry and flag bits (gemm_panel).
inline constexpr std::size_t kGemmRows = 4;  // rows of C per call
inline constexpr int kGemmCols = 16;         // column tile; n is a multiple
inline constexpr unsigned kGemmFirst = 1u;  // start each sum at +0.0f

enum class Path { kScalar = 0, kAvx2 = 1 };

// ---------------------------------------------------------------------------
// Scalar reference implementations
// ---------------------------------------------------------------------------
// Each of these is the exact loop the corresponding kernel used to write
// inline; the vector path is property-tested against them field-for-field.
// The fused entries (h2_spmm_run, seg_reduce_{h,f}, h2_sddmm_run) are
// compositions of the per-step references, and the tests check them against
// both.
namespace scalar {

inline void cvt_h2f(const std::uint16_t* in, float* out, int n) {
  for (int i = 0; i < n; ++i) out[i] = half_bits_to_float_fast(in[i]);
}

inline void cvt_f2h(const float* in, std::uint16_t* out, int n) {
  for (int i = 0; i < n; ++i) out[i] = float_to_half_bits(in[i]);
}

// spmm_halfgnn phase-2 accumulate: term = x [* w] [* pre], rounded after
// every mul like the device half2 instructions; acc = combine(acc, term).
inline void h2_term_accum(half2* acc, const half2* x, half2 w, half2 pre,
                          int n, unsigned flags) {
  for (int i = 0; i < n; ++i) {
    half2 term = x[i];
    if (flags & kHasW) term = h2mul(term, w);
    if (flags & kHasPre) term = h2mul(term, pre);
    acc[i] = (flags & kIsMax) ? h2max(acc[i], term) : h2add(acc[i], term);
  }
}

inline void h2_scale(half2* v, half2 s, int n) {
  for (int i = 0; i < n; ++i) v[i] = h2mul(v[i], s);
}

// Fused spmm row-run (spmm_halfgnn's flat train CTA): edge e accumulates
// the contiguous feature row x[cols[e]*half_f .. +half_f) into acc with
// exactly the h2_term_accum per-edge math, its weight w[e] broadcast to
// both halves (the mirrored pair phase 1 of the per-access path caches).
// Equivalent to the unfused sequence
//   [kFromIdentity: fill acc with the combine identity;]
//   for e: { memcpy xv <- x + cols[e]*half_f; h2_term_accum(acc, xv,
//            half2::broadcast(w[e]), pre, half_f, flags); }
//   [kHasScale: h2_scale(acc, scale, half_f);]
// and fused so the vector path can keep a whole row in registers from its
// first edge to its store. w may be null when (flags & kHasW) == 0.
inline void h2_spmm_run(half2* acc, const half2* x, const std::int32_t* cols,
                        const half_t* w, half2 pre, half2 scale, int half_f,
                        int n_edges, unsigned flags) {
  if (flags & kFromIdentity) {
    std::fill(acc, acc + half_f,
              (flags & kIsMax) ? half2::broadcast(half_limits::kNegInf)
                               : half2{});
  }
  for (int e = 0; e < n_edges; ++e) {
    const half2* xr =
        x + static_cast<std::size_t>(cols[e]) * static_cast<std::size_t>(half_f);
    const half2 we =
        (flags & kHasW) ? half2::broadcast(w[e]) : half2(1.0f, 1.0f);
    h2_term_accum(acc, xr, we, pre, half_f, flags);
  }
  if (flags & kHasScale) h2_scale(acc, scale, half_f);
}

inline void h2_combine(half2* acc, const half2* x, int n, bool is_max) {
  for (int i = 0; i < n; ++i) {
    acc[i] = is_max ? h2max(acc[i], x[i]) : h2add(acc[i], x[i]);
  }
}

// huang_half2 accumulate: single-rounding fma against a broadcast weight.
inline void h2_fma_splat(half2* acc, const half2* x, half2 w, int n,
                         bool has_w) {
  for (int i = 0; i < n; ++i) {
    acc[i] = has_w ? h2fma(x[i], w, acc[i]) : h2add(acc[i], x[i]);
  }
}

// Contiguous half read-modify-write: slot + v, or the bit-preserving
// max select hmax(slot, v) == slot < v ? v : slot.
inline void h_accum(half_t* acc, const half_t* v, int n, bool is_max) {
  for (int i = 0; i < n; ++i) {
    acc[i] = is_max ? hmax(acc[i], v[i]) : acc[i] + v[i];
  }
}

// Broadcast half multiply; v_first selects operand order (NaN-payload
// visible only): v[i]*s vs s*v[i].
inline void h_scale(half_t* v, half_t s, int n, bool v_first) {
  for (int i = 0; i < n; ++i) v[i] = v_first ? v[i] * s : s * v[i];
}

// Float accumulate: term = [w *] x; acc = term-max-select or acc + term.
// The commutative float ops go through ordered_fadd/ordered_fmul so the
// two-NaN payload rule (left operand wins) is pinned, not codegen-chosen.
inline void f_accum(float* acc, const float* x, float w, int n,
                    unsigned flags) {
  for (int i = 0; i < n; ++i) {
    const float term = (flags & kHasW) ? ordered_fmul(w, x[i]) : x[i];
    acc[i] = (flags & kIsMax) ? (acc[i] < term ? term : acc[i])
                              : ordered_fadd(acc[i], term);
  }
}

inline void f_scale(float* v, float s, int n) {
  for (int i = 0; i < n; ++i) v[i] = ordered_fmul(v[i], s);
}

// sddmm_dgl per-lane dot step: acc = fma(a, b, acc) on the active lanes.
inline void h_fma_mask(Lanes<half_t>& acc, const Lanes<half_t>& a,
                       const Lanes<half_t>& b, LaneMask m) {
  for (int l = 0; l < kLanes; ++l) {
    if (m >> l & 1) {
      const auto lu = static_cast<std::size_t>(l);
      acc[lu] = hfma(a[lu], b[lu], acc[lu]);
    }
  }
}

inline void f_fma_mask(Lanes<float>& acc, const Lanes<float>& a,
                       const Lanes<float>& b, LaneMask m) {
  for (int l = 0; l < kLanes; ++l) {
    if (m >> l & 1) {
      const auto lu = static_cast<std::size_t>(l);
      acc[lu] = ordered_fadd(acc[lu], ordered_fmul(a[lu], b[lu]));
    }
  }
}

// sddmm_halfgnn vector dot: lane l chains h2per sequential h2fma steps over
// its packed element (half2/half4/half8 viewed as h2per half2 words).
inline void h2_dot_mask(Lanes<half2>& acc, const half2* a, const half2* b,
                        int h2per, LaneMask m) {
  for (int l = 0; l < kLanes; ++l) {
    if (!(m >> l & 1)) continue;
    const auto lu = static_cast<std::size_t>(l);
    for (int i = 0; i < h2per; ++i) {
      acc[lu] = h2fma(a[l * h2per + i], b[l * h2per + i], acc[lu]);
    }
  }
}

// Whole butterfly over groups of `width` lanes (a power of two, 1..32):
// rounds at offsets 1, 2, 4, .. below `width`, each a snapshot exchange
//   vals[l] <- combine(vals[l], snapshot[l ^ offset])   for active lanes l.
// Inactive lanes keep their value but still serve as partners.
template <class T, class Combine>
inline void group_reduce(Lanes<T>& vals, int width, LaneMask active,
                         Combine&& combine) {
  for (int offset = 1; offset < width; offset <<= 1) {
    const Lanes<T> other = vals;
    for (int l = 0; l < kLanes; ++l) {
      if (active >> l & 1) {
        const auto lu = static_cast<std::size_t>(l);
        const auto pu = static_cast<std::size_t>(l ^ offset);
        vals[lu] = combine(vals[lu], other[pu]);
      }
    }
  }
}

// The max combine is the kernels' bit-preserving select (x < y ? y : x).
inline void group_reduce_h2(Lanes<half2>& vals, int width, LaneMask active,
                            bool is_max) {
  group_reduce(vals, width, active, [is_max](half2 v, half2 o) {
    return is_max ? h2max(v, o) : h2add(v, o);
  });
}

inline void group_reduce_h(Lanes<half_t>& vals, int width, LaneMask active,
                           bool is_max) {
  group_reduce(vals, width, active, [is_max](half_t v, half_t o) {
    return is_max ? hmax(v, o) : v + o;
  });
}

inline void group_reduce_f(Lanes<float>& vals, int width, LaneMask active,
                           bool is_max) {
  group_reduce(vals, width, active, [is_max](float v, float o) {
    return is_max ? (v < o ? o : v) : ordered_fadd(v, o);
  });
}

// Fused segment reduce of one row of n edge values (train mode, every hook
// disarmed): the value lane 0 holds after the warp sequence of
// edge_segment_reduce — lanes start at the combine identity (+0, or -Inf
// for max), fold the row's 32-edge chunks with h_accum / f_accum, then one
// 32-lane group_reduce.
inline half_t seg_reduce_h(const half_t* vals, int n, bool is_max) {
  Lanes<half_t> acc;
  acc.fill(is_max ? half_limits::kNegInf : half_t{});
  for (int b = 0; b < n; b += kLanes) {
    h_accum(acc.data(), vals + b, std::min(kLanes, n - b), is_max);
  }
  group_reduce_h(acc, kLanes, ~LaneMask{0}, is_max);
  return acc[0];
}

inline float seg_reduce_f(const float* vals, int n, bool is_max) {
  Lanes<float> acc;
  acc.fill(is_max ? -std::numeric_limits<float>::infinity() : 0.0f);
  for (int b = 0; b < n; b += kLanes) {
    f_accum(acc.data(), vals + b, 1.0f, std::min(kLanes, n - b),
            is_max ? kIsMax : 0u);
  }
  group_reduce_f(acc, kLanes, ~LaneMask{0}, is_max);
  return acc[0];
}

// Fused sddmm_halfgnn phase 2 (train mode, every hook disarmed): out[i] is
// edge i's dot of a's row rows[i] with b's row cols[i], each row `fvec`
// packed vectors of h2per half2 words, computed exactly like one sub-warp of
// the unfused kernel: lane j of a bit_ceil(fvec)-wide group (at most 32)
// chains h2fma over vectors j, j + 32, ..; an add butterfly over the group;
// the leader's pair folded by h2reduce_add. Lanes past the row never load and
// keep their +0 accumulator.
inline void h2_sddmm_run(half_t* out, const half2* a, const half2* b,
                         const std::int32_t* rows, const std::int32_t* cols,
                         int h2per, int fvec, int n_edges) {
  const int width = std::min(
      kLanes, static_cast<int>(std::bit_ceil(
                  static_cast<unsigned>(std::max(1, fvec)))));
  const auto row_words =
      static_cast<std::size_t>(fvec) * static_cast<std::size_t>(h2per);
  for (int i = 0; i < n_edges; ++i) {
    const half2* ar = a + static_cast<std::size_t>(rows[i]) * row_words;
    const half2* br = b + static_cast<std::size_t>(cols[i]) * row_words;
    Lanes<half2> acc;
    acc.fill(half2(0.0f, 0.0f));
    for (int c = 0; c * kLanes < fvec; ++c) {
      const int n = std::min(kLanes, fvec - c * kLanes);
      const auto off = static_cast<std::size_t>(c * kLanes * h2per);
      h2_dot_mask(acc, ar + off, br + off, h2per,
                  n >= kLanes ? ~LaneMask{0} : (LaneMask{1} << n) - 1);
    }
    group_reduce_h2(acc, width, ~LaneMask{0}, false);
    out[i] = h2reduce_add(acc[0]);
  }
}

// --- Dense host path (tensor/dense_ops.cpp) --------------------------------
// The operand order of each float op is pinned to what the historical
// get/set loops compiled to, which is not uniformly "left operand wins":
// gemm adds product + accumulator, the bias add is bias + x and the row
// scale is s * x (DESIGN.md Sec. 13 lists them).

// GEMM micro-kernel over packed f32 panels: for r < kGemmRows and j < n,
//   c[r*ldc + j] = sum over kk < kc, ascending, of a[r*lda+kk] * b[kk*ldb+j]
// as separate mul and add (product first). The sum starts from +0.0f with
// kGemmFirst and from c otherwise (the exact f32 partial of the previous
// k-block). n is a multiple of kGemmCols.
inline void gemm_panel(float* c, std::size_t ldc, const float* a,
                       std::size_t lda, const float* b, std::size_t ldb,
                       int kc, int n, unsigned flags) {
  for (std::size_t r = 0; r < kGemmRows; ++r) {
    float* crow = c + r * ldc;
    if (flags & kGemmFirst) std::fill(crow, crow + n, 0.0f);
    for (int kk = 0; kk < kc; ++kk) {
      const float av = a[r * lda + static_cast<std::size_t>(kk)];
      const float* brow = b + static_cast<std::size_t>(kk) * ldb;
      for (int j = 0; j < n; ++j) {
        crow[j] = ordered_fadd(ordered_fmul(av, brow[j]), crow[j]);
      }
    }
  }
}

// x[r][j] = half(bias[j] + x[r][j]) over a row-major rows x cols block.
inline void h_add_bias_rows(half_t* x, const float* bias, std::size_t rows,
                            std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    half_t* xr = x + r * cols;
    for (std::size_t j = 0; j < cols; ++j) {
      xr[j] = half_t(ordered_fadd(bias[j], xr[j].to_float()));
    }
  }
}

// x[r][j] = half(s[r] * x[r][j]).
inline void h_scale_rows(half_t* x, const float* s, std::size_t rows,
                         std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    half_t* xr = x + r * cols;
    for (std::size_t j = 0; j < cols; ++j) {
      xr[j] = half_t(ordered_fmul(s[r], xr[j].to_float()));
    }
  }
}

// out[j] = out[j] + x[r][j] in f32, rows in increasing order.
inline void h_colsum(const half_t* x, float* out, std::size_t rows,
                     std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    const half_t* xr = x + r * cols;
    for (std::size_t j = 0; j < cols; ++j) {
      out[j] = ordered_fadd(out[j], xr[j].to_float());
    }
  }
}

// y = a * x + b * y with device rounding: the b * y product rounds to half,
// then one fma rounds once.
inline void h_axpby(const half_t* x, half_t a, half_t* y, half_t b,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = hfma(a, x[i], b * y[i]);
}

// In-place ReLU: mask[i] = x[i] > 0; other values become +0, except NaN,
// which passes through with mask 0.
inline void h_relu_forward(half_t* x, std::uint8_t* mask, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const bool pos = x[i] > half_t(0.0f);
    mask[i] = pos ? 1 : 0;
    if (!pos && !x[i].is_nan()) x[i] = half_t(0.0f);
  }
}

// grad[i] = +0 where mask[i] == 0.
inline void h_relu_backward(half_t* grad, const std::uint8_t* mask,
                            std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (!mask[i]) grad[i] = half_t(0.0f);
  }
}

}  // namespace scalar

// ---------------------------------------------------------------------------
// Dispatch table
// ---------------------------------------------------------------------------
struct SimdOps {
  const char* name;  // "scalar" | "avx2" (BENCH simd column value)
  bool vector;       // true when memcpy/vector fast paths should engage

  void (*cvt_h2f)(const std::uint16_t*, float*, int);
  void (*cvt_f2h)(const float*, std::uint16_t*, int);
  void (*h2_term_accum)(half2*, const half2*, half2, half2, int, unsigned);
  void (*h2_spmm_run)(half2*, const half2*, const std::int32_t*, const half_t*,
                      half2, half2, int, int, unsigned);
  void (*h2_scale)(half2*, half2, int);
  void (*h2_combine)(half2*, const half2*, int, bool);
  void (*h2_fma_splat)(half2*, const half2*, half2, int, bool);
  void (*h_accum)(half_t*, const half_t*, int, bool);
  void (*h_scale)(half_t*, half_t, int, bool);
  void (*f_accum)(float*, const float*, float, int, unsigned);
  void (*f_scale)(float*, float, int);
  void (*h_fma_mask)(Lanes<half_t>&, const Lanes<half_t>&,
                     const Lanes<half_t>&, LaneMask);
  void (*f_fma_mask)(Lanes<float>&, const Lanes<float>&, const Lanes<float>&,
                     LaneMask);
  void (*h2_dot_mask)(Lanes<half2>&, const half2*, const half2*, int,
                      LaneMask);
  void (*group_reduce_h2)(Lanes<half2>&, int, LaneMask, bool);
  void (*group_reduce_h)(Lanes<half_t>&, int, LaneMask, bool);
  void (*group_reduce_f)(Lanes<float>&, int, LaneMask, bool);
  void (*h2_sddmm_run)(half_t*, const half2*, const half2*,
                       const std::int32_t*, const std::int32_t*, int, int,
                       int);
  half_t (*seg_reduce_h)(const half_t*, int, bool);
  float (*seg_reduce_f)(const float*, int, bool);
  accounting::AccessCounts (*access_counts)(const accounting::LaneIdx&,
                                            std::uint32_t, std::size_t, int);
  // Dense host path.
  void (*gemm_panel)(float*, std::size_t, const float*, std::size_t,
                     const float*, std::size_t, int, int, unsigned);
  void (*h_add_bias_rows)(half_t*, const float*, std::size_t, std::size_t);
  void (*h_scale_rows)(half_t*, const float*, std::size_t, std::size_t);
  void (*h_colsum)(const half_t*, float*, std::size_t, std::size_t);
  void (*h_axpby)(const half_t*, half_t, half_t*, half_t, std::size_t);
  void (*h_relu_forward)(half_t*, std::uint8_t*, std::size_t);
  void (*h_relu_backward)(half_t*, const std::uint8_t*, std::size_t);
};

namespace detail {
// Set once before main() from HALFGNN_SIMD (see simd.cpp); set_path() swaps
// it at config time. Atomic so a test flipping paths between launches stays
// warning-free under TSan; relaxed loads cost nothing on x86.
extern std::atomic<const SimdOps*> g_ops;
}  // namespace detail

inline const SimdOps& ops() noexcept {
  return *detail::g_ops.load(std::memory_order_relaxed);
}

// True when the vectorized path is active (gates the contiguity fast paths
// in Warp so HALFGNN_SIMD=scalar runs the historical code verbatim).
inline bool vector_enabled() noexcept { return ops().vector; }

inline const char* path_name() noexcept { return ops().name; }
inline Path active_path() noexcept {
  return vector_enabled() ? Path::kAvx2 : Path::kScalar;
}

// Compiled in AND executable on this CPU.
bool avx2_available() noexcept;

// Select a path; returns false (and leaves the path unchanged) if the
// requested path is unavailable. Config-time only.
bool set_path(Path p) noexcept;

// HALFGNN_SIMD's spellings; auto (also unset or empty) picks avx2 when the
// build and CPU support it.
inline constexpr char kEnv[] = "HALFGNN_SIMD";
inline constexpr util::Token<std::optional<Path>> kPathTokens[] = {
    {"scalar", Path::kScalar}, {"avx2", Path::kAvx2}, {"auto", std::nullopt}};

// The path HALFGNN_SIMD asks for (nullopt = auto). Throws
// std::invalid_argument naming the variable on any other value. The path is
// resolved before main(), where a malformed value runs auto; Device's
// constructor and Device::check_env() reject it.
std::optional<Path> requested_path();

// If `active` is a prefix mask whose n lanes index base, base+1, ..,
// base+n-1, return n; otherwise 0. The branch-free inner compare loop keeps
// the check cheap relative to the 32-element copies/combines it unlocks.
inline int prefix_contiguous(const Lanes<std::int64_t>& idx,
                             LaneMask active) noexcept {
  if (active == 0) return 0;
  if ((active & (active + 1)) != 0) return 0;  // not a prefix
  const int n = std::popcount(active);
  const std::int64_t base = idx[0];
  bool ok = base >= 0;
  for (int l = 1; l < n; ++l) {
    ok &= idx[static_cast<std::size_t>(l)] == base + l;
  }
  return ok ? n : 0;
}

}  // namespace hg::simt::simd
