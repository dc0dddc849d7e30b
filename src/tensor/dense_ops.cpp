#include "tensor/dense_ops.hpp"

#include <algorithm>
#include <array>
#include <climits>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "simt/executor.hpp"
#include "simt/simd.hpp"

namespace hg {

namespace {

namespace simd = simt::simd;

// The innermost DensePoolScope's device on this thread.
thread_local simt::Device* t_pool = nullptr;

// --- Pool partitioning -------------------------------------------------------
// An op's work is counted in GEMM multiply-adds over the micro-kernel's
// padded columns, and each pool job is given at least kMinJobWork of it, so
// an op with less than twice that stays on the caller. An element of another
// op is weighted by what it costs against a multiply-add. Each split size
// sits at or above the size from which a warm two-thread pool measured
// faster than the serial op (DESIGN.md Sec. 8 has the sweep;
// bench_executor's *_min_split rows run each op at its split size): gemm
// splits from 2^21 MACs (2^20 already gained, 2^19 lost); softmax_xent from
// 8192 logits (kLogitWork, one exp in double each; 2624 already gained);
// the f16 axpby, add_bias_rows and scale_rows from 2^18 elements
// (kElementWork; 2^17 did not gain); relu_forward, relu_backward and
// to_dtype, which only stream memory, from 2^21 elements (kStreamWork; 2^20
// did not gain). Cora-sized tensors (2708 x 64) stay serial in every family.
constexpr std::int64_t kMinJobWork = std::int64_t{1} << 20;
constexpr std::int64_t kLogitWork = 256;
constexpr std::int64_t kElementWork = 8;
constexpr std::int64_t kStreamWork = 1;
// Element ranges start on a 64-element boundary, so two jobs never write
// one cache line of f32 data (or of a ReLU mask).
constexpr std::int64_t kElementAlign = 64;

// Jobs for an op over `count` rows (or elements), split in multiples of
// `align`: 1, the serial path, unless a pool of two or more threads is in
// scope and `work` pays for at least two jobs.
int pool_jobs(std::int64_t count, std::int64_t align, std::int64_t work) {
  const simt::Device* dev = t_pool;
  if (dev == nullptr || dev->threads() < 2) return 1;
  const std::int64_t units = (count + align - 1) / align;
  const std::int64_t jobs =
      std::min({std::int64_t{dev->threads()}, units, work / kMinJobWork});
  return static_cast<int>(std::max<std::int64_t>(jobs, 1));
}

// Runs body(begin, end) over [0, count): whole on the caller when jobs is
// 1, otherwise as `jobs` contiguous ranges on the pool in scope, every
// interior boundary a multiple of `align`.
template <class F>
void run_ranges(int jobs, std::int64_t count, std::int64_t align, F&& body) {
  if (jobs <= 1) {
    body(std::int64_t{0}, count);
    return;
  }
  struct Split {
    std::int64_t count, align, units, jobs;
  };
  const Split s{count, align, (count + align - 1) / align, jobs};
  // Two references: the job fits std::function's inline buffer, so a
  // pooled op adds no heap block.
  t_pool->run_host_jobs(jobs, [&s, &body](int j) {
    const auto at = [&s](std::int64_t i) {
      return std::min(s.count, i * s.units / s.jobs * s.align);
    };
    body(at(j), at(j + 1));
  });
}

template <class F>
void for_ranges(std::int64_t count, std::int64_t align, std::int64_t work,
                F&& body) {
  run_ranges(pool_jobs(count, align, work), count, align, body);
}

// GEMM blocking. A k-block of op(B) is packed once into an f32 panel of
// kKc x np floats (np = n rounded up to the micro-kernel's column tile);
// the f32 partial sums of up to kMc rows of C live in a panel of the same
// size, and each kGemmRows-row slice of op(A) is packed into kGemmRows x kKc
// floats. None of it scales with m or k, and the buffers are reused across
// calls (one set per thread, so pool jobs pack their own panels).
constexpr std::int64_t kKc = 256;
constexpr std::int64_t kMc = 256;
constexpr auto kRows = static_cast<std::int64_t>(simd::kGemmRows);

struct GemmScratch {
  AlignedVec<float> a, b, c;
};

float* reserve(AlignedVec<float>& v, std::size_t n) {
  n = std::max<std::size_t>(n, 1);  // a real base pointer even when k == 0
  if (v.size() < n) v.resize(n);
  return v.data();
}

float to_f32(float v) { return v; }
float to_f32(half_t v) { return v.to_float(); }
float to_f32(bf16_t v) { return v.to_float(); }

// The storage value nearest v: T(v), one rounding (none for f32).
template <class T>
T from_f32(float v) {
  return T(v);
}

// out[0..n) = f32 image of the contiguous elements p[0..n): exact for every
// storage dtype, signaling NaNs kept (cvt_h2f reproduces the table lookup).
template <class T>
void load_f32(const T* p, float* out, std::int64_t n) {
  if constexpr (std::is_same_v<T, half_t>) {
    simd::ops().cvt_h2f(reinterpret_cast<const std::uint16_t*>(p), out,
                        static_cast<int>(n));
  } else {
    for (std::int64_t i = 0; i < n; ++i) out[i] = to_f32(p[i]);
  }
}

// Rows [i0, i0 + rows) x columns [k0, k0 + kc) of op(A) (m x k) into the
// row-major panel (row stride lda); rows past `rows` are zero.
template <class T>
void pack_a(const T* a, bool trans, std::int64_t m, std::int64_t k,
            std::int64_t i0, std::int64_t rows, std::int64_t k0,
            std::int64_t kc, float* panel, std::int64_t lda) {
  if (!trans) {
    for (std::int64_t r = 0; r < rows; ++r) {
      load_f32(a + (i0 + r) * k + k0, panel + r * lda, kc);
    }
  } else {  // op(A)[i][kk] = a[kk][i]: rows i0.. sit side by side in a's rows
    for (std::int64_t kk = 0; kk < kc; ++kk) {
      const T* src = a + (k0 + kk) * m + i0;
      for (std::int64_t r = 0; r < rows; ++r) {
        panel[r * lda + kk] = to_f32(src[r]);
      }
    }
  }
  for (std::int64_t r = rows; r < kRows; ++r) {
    std::fill_n(panel + r * lda, kc, 0.0f);
  }
}

// Rows [k0, k0 + kc) of op(B) (k x n) into the panel (row stride np,
// columns past n zero).
template <class T>
void pack_b(const T* b, bool trans, std::int64_t k, std::int64_t n,
            std::int64_t k0, std::int64_t kc, float* panel, std::int64_t np) {
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    float* row = panel + kk * np;
    if (!trans) {
      load_f32(b + (k0 + kk) * n, row, n);
    } else {  // op(B)[kk][j] = b[j][kk]
      for (std::int64_t j = 0; j < n; ++j) {
        row[j] = to_f32(b[j * k + k0 + kk]);
      }
    }
    std::fill(row + n, row + np, 0.0f);
  }
}

// C rows [i0, i0 + rows) from the f32 sums; the only rounding of the GEMM.
void store_c(MTensor& c, std::int64_t i0, std::int64_t rows, const float* sums,
             std::int64_t np) {
  const std::int64_t n = c.cols();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* src = sums + r * np;
    const auto off = static_cast<std::size_t>((i0 + r) * n);
    switch (c.dtype()) {
      case Dtype::kF16:
        simd::ops().cvt_f2h(
            src, reinterpret_cast<std::uint16_t*>(c.h().data() + off),
            static_cast<int>(n));
        break;
      case Dtype::kBf16:
        for (std::int64_t j = 0; j < n; ++j) {
          c.b()[off + static_cast<std::size_t>(j)] = bf16_t(src[j]);
        }
        break;
      default:
        std::copy_n(src, n, c.f().data() + off);
        break;
    }
  }
}

std::int64_t gemm_padded_cols(std::int64_t n) {
  return (n + simd::kGemmCols - 1) / simd::kGemmCols * simd::kGemmCols;
}

// Rows [row0, row1) of C = op(A) * op(B), n > 0. Per output element the
// terms are summed in increasing k from +0.0f, product + sum, with IEEE
// semantics throughout: a zero in A times an Inf or NaN in B is NaN, as on
// cuBLAS, so an overflowed gradient reaches the GradScaler even behind ReLU
// zeros. Nothing an element's bits depend on (its k-order, the k-block
// boundaries, the one rounding at the store) depends on the row range.
template <class T>
void gemm_rows(const T* a, bool trans_a, const T* b, bool trans_b, MTensor& c,
               std::int64_t m, std::int64_t n, std::int64_t k,
               std::int64_t row0, std::int64_t row1) {
  const std::int64_t np = gemm_padded_cols(n);
  const std::int64_t kc_max = std::min(k, kKc);
  const std::int64_t n_kb = std::max<std::int64_t>(1, (k + kKc - 1) / kKc);
  const std::int64_t mc_max =
      (std::min(row1 - row0, kMc) + kRows - 1) / kRows * kRows;
  thread_local GemmScratch scratch;
  float* apanel = reserve(scratch.a, static_cast<std::size_t>(kRows * kc_max));
  float* bpanel = reserve(scratch.b, static_cast<std::size_t>(kc_max * np));
  float* sums = reserve(scratch.c, static_cast<std::size_t>(mc_max * np));
  const auto& ops = simd::ops();
  for (std::int64_t i0 = row0; i0 < row1; i0 += kMc) {
    const std::int64_t mb = std::min(kMc, row1 - i0);
    for (std::int64_t kb = 0; kb < n_kb; ++kb) {
      const std::int64_t k0 = kb * kKc;
      const std::int64_t kc = std::min(kKc, k - k0);
      // A single k-block's panel serves every row block.
      if (n_kb > 1 || i0 == row0) pack_b(b, trans_b, k, n, k0, kc, bpanel, np);
      const unsigned flags = kb == 0 ? simd::kGemmFirst : 0u;
      for (std::int64_t r0 = 0; r0 < mb; r0 += kRows) {
        pack_a(a, trans_a, m, k, i0 + r0, std::min(kRows, mb - r0), k0, kc,
               apanel, kc_max);
        ops.gemm_panel(sums + r0 * np, static_cast<std::size_t>(np), apanel,
                       static_cast<std::size_t>(kc_max), bpanel,
                       static_cast<std::size_t>(np), static_cast<int>(kc),
                       static_cast<int>(np), flags);
      }
    }
    store_c(c, i0, mb, sums, np);
  }
}

// C = op(A) * op(B), m, n > 0, its rows split over the pool in whole
// micro-kernel tiles; each job packs its own op(B) panels.
template <class T>
void gemm_blocked(const T* a, bool trans_a, const T* b, bool trans_b,
                  MTensor& c, std::int64_t m, std::int64_t n, std::int64_t k) {
  for_ranges(m, kRows, m * gemm_padded_cols(n) * k,
             [&](std::int64_t row0, std::int64_t row1) {
               gemm_rows(a, trans_a, b, trans_b, c, m, n, k, row0, row1);
             });
}

// dst[i] = src[i] converted for i in [begin, end): f32 <-> f16 through the
// batch conversions, every other pair through float like get/set (exact for
// f16 -> f32 and bf16 -> f32; one rounding at the store otherwise).
template <class S, class D>
void convert_range(const S* src, D* dst, std::int64_t begin,
                   std::int64_t end) {
  constexpr std::int64_t kChunk = INT_MAX;
  for (std::int64_t i = begin; i < end; i += kChunk) {
    const auto len = static_cast<int>(std::min(kChunk, end - i));
    if constexpr (std::is_same_v<S, D>) {
      std::copy_n(src + i, len, dst + i);
    } else if constexpr (std::is_same_v<S, float> &&
                         std::is_same_v<D, half_t>) {
      simd::ops().cvt_f2h(src + i,
                          reinterpret_cast<std::uint16_t*>(dst + i), len);
    } else if constexpr (std::is_same_v<S, half_t> &&
                         std::is_same_v<D, float>) {
      simd::ops().cvt_h2f(reinterpret_cast<const std::uint16_t*>(src + i),
                          dst + i, len);
    } else {
      for (std::int64_t j = i; j < i + len; ++j) {
        dst[j] = from_f32<D>(to_f32(src[j]));
      }
    }
  }
}

// Calls f(p) with p the typed storage pointer of t.
template <class Tensor, class F>
void with_data(Tensor& t, F&& f) {
  switch (t.dtype()) {
    case Dtype::kF16:
      f(t.h().data());
      break;
    case Dtype::kBf16:
      f(t.b().data());
      break;
    default:
      f(t.f().data());
      break;
  }
}

// One in-loss row of softmax_xent: log p(label), and whether its argmax is
// the label.
struct XentRow {
  double logp = 0;
  bool hit = false;
};

template <class T>
struct XentArgs {
  const T* logits;
  T* dlogits;  // nullptr: no gradient
  std::int64_t cols;
  int valid;
  std::span<const int> labels;
  std::span<const std::uint8_t> mask;
  bool use_masked;
  float grad_scale;
  float inv;  // the mean-reduction factor, float(1 / count)

  bool in_loss(std::int64_t r) const {
    return !use_masked || mask[static_cast<std::size_t>(r)] != 0;
  }
};

// Rows [r0, r1) of softmax_xent, one pass per row: the logits are read
// once, each exp serves both the sum and the gradient, and the gradient is
// written once with the mean factor applied. Every bit must equal the
// two-pass reference loop (dense_pool_test.cpp), operation for operation:
// a float max (NaN skipped), a double sum of exp(double(v) - max) in
// column order, the gradient float(g * grad_scale) rounded to storage,
// and, where that rounded value is nonzero, its float product with `inv`,
// rounded again. The sum adds the new term first (exp + sum), so with two
// NaN terms the later one's payload wins, as in the reference.
// sink(r, row) receives every in-loss row in increasing order.
template <class T, class Sink>
void xent_rows(const XentArgs<T>& x, std::int64_t r0, std::int64_t r1,
               Sink&& sink) {
  // Row buffers on the stack for every realistic class count.
  constexpr int kInline = 256;
  std::array<float, kInline> v_inline{};
  std::array<double, kInline> e_inline{};
  std::vector<float> v_heap;
  std::vector<double> e_heap;
  float* v = v_inline.data();
  double* ex = e_inline.data();
  if (x.valid > kInline) {
    v_heap.resize(static_cast<std::size_t>(x.valid));
    e_heap.resize(static_cast<std::size_t>(x.valid));
    v = v_heap.data();
    ex = e_heap.data();
  }
  for (std::int64_t r = r0; r < r1; ++r) {
    if (!x.in_loss(r)) continue;
    const T* row = x.logits + r * x.cols;
    load_f32(row, v, x.valid);
    float mx = -std::numeric_limits<float>::infinity();
    for (int j = 0; j < x.valid; ++j) mx = std::max(mx, v[j]);
    double denom = 0;
    for (int j = 0; j < x.valid; ++j) {
      ex[j] = std::exp(static_cast<double>(v[j]) - mx);
      denom = ordered_dadd(ex[j], denom);
    }
    const int y = x.labels[static_cast<std::size_t>(r)];
    XentRow out;
    out.logp = static_cast<double>(to_f32(row[y])) - mx - std::log(denom);
    int argmax = 0;
    for (int j = 1; j < x.valid; ++j) {
      if (v[j] > v[argmax]) argmax = j;
    }
    out.hit = argmax == y;
    if (x.dlogits != nullptr) {
      T* drow = x.dlogits + r * x.cols;
      for (int j = 0; j < x.valid; ++j) {
        const double g = ex[j] / denom - (j == y ? 1.0 : 0.0);
        const T stored = from_f32<T>(static_cast<float>(g * x.grad_scale));
        const float back = to_f32(stored);
        drow[j] = back != 0.0f ? from_f32<T>(back * x.inv) : stored;
      }
    }
    sink(r, out);
  }
}

// f16 axpby with its elements split over the pool. The f32 and bf16 loops
// stay serial: they pin their operand order with ordered_fmul/ordered_fadd
// (alpha * x's NaN payload wins, as in hfma), which keeps them scalar.
void h_axpby_pooled(const MTensor& x, float alpha, MTensor& y, float beta) {
  const auto n = static_cast<std::int64_t>(y.numel());
  for_ranges(n, kElementAlign, n * kElementWork,
             [&](std::int64_t begin, std::int64_t end) {
               simd::ops().h_axpby(x.h().data() + begin, half_t(alpha),
                                   y.h().data() + begin, half_t(beta),
                                   static_cast<std::size_t>(end - begin));
             });
}

}  // namespace

DensePoolScope::DensePoolScope(simt::Device* dev) noexcept : prev_(t_pool) {
  t_pool = dev;
}

DensePoolScope::~DensePoolScope() { t_pool = prev_; }

MTensor to_dtype(const MTensor& in, Dtype dt, CostLedger* ledger) {
  MTensor out = MTensor::zeros(dt, in.rows(), in.cols());
  const auto n = static_cast<std::int64_t>(in.numel());
  for_ranges(n, kElementAlign, n * kStreamWork,
             [&](std::int64_t begin, std::int64_t end) {
               with_data(in, [&](const auto* src) {
                 with_data(out, [&](auto* dst) {
                   convert_range(src, dst, begin, end);
                 });
               });
             });
  // A same-dtype copy charges no conversion.
  if (in.dtype() != dt && ledger != nullptr) {
    ledger->add_conversion(in.bytes());
  }
  return out;
}

void gemm(const MTensor& a, bool trans_a, const MTensor& b, bool trans_b,
          MTensor& c, CostLedger* ledger) {
  if (a.dtype() != b.dtype()) {
    throw std::invalid_argument("gemm: mixed input dtypes");
  }
  const std::int64_t m = trans_a ? a.cols() : a.rows();
  const std::int64_t k = trans_a ? a.rows() : a.cols();
  const std::int64_t kb = trans_b ? b.cols() : b.rows();
  const std::int64_t n = trans_b ? b.rows() : b.cols();
  if (k != kb || c.rows() != m || c.cols() != n) {
    throw std::invalid_argument("gemm: shape mismatch");
  }
  // 16-bit inputs (f16 or bf16) take the tensor-core-style pricing.
  const bool half_compute = dtype_bytes(a.dtype()) == 2;
  if (!half_compute && c.dtype() != Dtype::kF32) {
    throw std::invalid_argument("gemm: f32 inputs need f32 output");
  }

  // Float accumulation (tensor-core semantics for 16-bit inputs: the
  // products are exact in f32 because half->float is exact; only the final
  // store to a 16-bit C rounds).
  if (m > 0 && n > 0) {
    switch (a.dtype()) {
      case Dtype::kF16:
        gemm_blocked(a.h().data(), trans_a, b.h().data(), trans_b, c, m, n, k);
        break;
      case Dtype::kBf16:
        gemm_blocked(a.b().data(), trans_a, b.b().data(), trans_b, c, m, n, k);
        break;
      default:
        gemm_blocked(a.f().data(), trans_a, b.f().data(), trans_b, c, m, n, k);
        break;
    }
  }
  if (ledger != nullptr) ledger->add_gemm(m, n, k, half_compute);
}

void add_bias_rows(MTensor& x, const MTensor& bias, CostLedger* ledger) {
  if (bias.cols() != x.cols()) {
    throw std::invalid_argument("add_bias_rows: width mismatch");
  }
  const std::int64_t cols = x.cols();
  const std::int64_t work = static_cast<std::int64_t>(x.numel()) * kElementWork;
  if (x.dtype() == Dtype::kF16) {
    std::vector<float> row(static_cast<std::size_t>(cols));
    for (std::int64_t c = 0; c < cols; ++c) {
      row[static_cast<std::size_t>(c)] = bias.get(0, c);
    }
    for_ranges(x.rows(), 1, work, [&](std::int64_t r0, std::int64_t r1) {
      simd::ops().h_add_bias_rows(x.h().data() + r0 * cols, row.data(),
                                  static_cast<std::size_t>(r1 - r0),
                                  static_cast<std::size_t>(cols));
    });
  } else {  // operand order pinned to the historical loop's (DESIGN §13)
    for_ranges(x.rows(), 1, work, [&](std::int64_t r0, std::int64_t r1) {
      for (std::int64_t r = r0; r < r1; ++r) {
        for (std::int64_t c = 0; c < cols; ++c) {
          x.set(r, c, ordered_fadd(bias.get(0, c), x.get(r, c)));
        }
      }
    });
  }
  if (ledger != nullptr) ledger->add_elementwise(x.bytes() * 2);
}

void relu_forward(MTensor& x, std::vector<std::uint8_t>& mask,
                  CostLedger* ledger) {
  mask.assign(x.numel(), 0);
  // In every dtype a NaN passes through (mask 0), as on device: max(NaN, 0)
  // quirks are irrelevant here — NaN anywhere already means a poisoned run,
  // and the loss and the non-finite-gradient check must still see it.
  const auto n = static_cast<std::int64_t>(x.numel());
  for_ranges(n, kElementAlign, n * kStreamWork,
             [&](std::int64_t begin, std::int64_t end) {
               const auto b = static_cast<std::size_t>(begin);
               const auto e = static_cast<std::size_t>(end);
               if (x.dtype() == Dtype::kF32) {
                 auto s = x.f();
                 for (std::size_t i = b; i < e; ++i) {
                   if (s[i] > 0) {
                     mask[i] = 1;
                   } else if (!std::isnan(s[i])) {
                     s[i] = 0.0f;
                   }
                 }
               } else if (x.dtype() == Dtype::kF16) {
                 simd::ops().h_relu_forward(x.h().data() + b, mask.data() + b,
                                            e - b);
               } else {
                 auto s = x.b();
                 for (std::size_t i = b; i < e; ++i) {
                   if (s[i] > bf16_t(0.0f)) {
                     mask[i] = 1;
                   } else if (!s[i].is_nan()) {
                     s[i] = bf16_t(0.0f);
                   }
                 }
               }
             });
  if (ledger != nullptr) ledger->add_elementwise(x.bytes() * 2);
}

void relu_backward(MTensor& grad, const std::vector<std::uint8_t>& mask,
                   CostLedger* ledger) {
  if (mask.size() != grad.numel()) {
    throw std::invalid_argument("relu_backward: mask size mismatch");
  }
  const auto n = static_cast<std::int64_t>(grad.numel());
  for_ranges(n, kElementAlign, n * kStreamWork,
             [&](std::int64_t begin, std::int64_t end) {
               const auto b = static_cast<std::size_t>(begin);
               const auto e = static_cast<std::size_t>(end);
               if (grad.dtype() == Dtype::kF32) {
                 auto s = grad.f();
                 for (std::size_t i = b; i < e; ++i) {
                   if (!mask[i]) s[i] = 0.0f;
                 }
               } else if (grad.dtype() == Dtype::kF16) {
                 simd::ops().h_relu_backward(grad.h().data() + b,
                                             mask.data() + b, e - b);
               } else {
                 auto s = grad.b();
                 for (std::size_t i = b; i < e; ++i) {
                   if (!mask[i]) s[i] = bf16_t(0.0f);
                 }
               }
             });
  if (ledger != nullptr) ledger->add_elementwise(grad.bytes() * 2);
}

void scale_rows(MTensor& x, std::span<const float> s, CostLedger* ledger) {
  if (s.size() != static_cast<std::size_t>(x.rows())) {
    throw std::invalid_argument("scale_rows: scale size mismatch");
  }
  const std::int64_t cols = x.cols();
  for_ranges(
      x.rows(), 1, static_cast<std::int64_t>(x.numel()) * kElementWork,
      [&](std::int64_t r0, std::int64_t r1) {
        if (x.dtype() == Dtype::kF16) {
          simd::ops().h_scale_rows(x.h().data() + r0 * cols, s.data() + r0,
                                   static_cast<std::size_t>(r1 - r0),
                                   static_cast<std::size_t>(cols));
        } else {  // operand order pinned to the historical loop's (§13)
          for (std::int64_t r = r0; r < r1; ++r) {
            const float f = s[static_cast<std::size_t>(r)];
            for (std::int64_t c = 0; c < cols; ++c) {
              x.set(r, c, ordered_fmul(f, x.get(r, c)));
            }
          }
        }
      });
  if (ledger != nullptr) ledger->add_elementwise(x.bytes() * 2);
}

void colsum(const MTensor& x, MTensor& out, CostLedger* ledger) {
  if (out.dtype() != Dtype::kF32 || out.cols() != x.cols()) {
    throw std::invalid_argument("colsum: out must be f32 1 x C");
  }
  out.fill(0.0f);
  if (x.dtype() == Dtype::kF16) {
    simd::ops().h_colsum(x.h().data(), out.f().data(),
                         static_cast<std::size_t>(x.rows()),
                         static_cast<std::size_t>(x.cols()));
  } else {  // operand order pinned to the historical loop's (DESIGN §13)
    for (std::int64_t r = 0; r < x.rows(); ++r) {
      for (std::int64_t c = 0; c < x.cols(); ++c) {
        out.set(0, c, ordered_fadd(out.get(0, c), x.get(r, c)));
      }
    }
  }
  if (ledger != nullptr) ledger->add_elementwise(x.bytes());
}

void axpby(const MTensor& x, float alpha, MTensor& y, float beta,
           CostLedger* ledger) {
  if (x.numel() != y.numel() || x.dtype() != y.dtype()) {
    throw std::invalid_argument("axpby: shape/dtype mismatch");
  }
  // With two NaN operands alpha * x's payload wins on every path, build and
  // length (DESIGN.md §13).
  if (x.dtype() == Dtype::kF32) {
    auto ys = y.f();
    auto xs = x.f();
    for (std::size_t i = 0; i < ys.size(); ++i) {
      ys[i] = ordered_fadd(ordered_fmul(alpha, xs[i]),
                           ordered_fmul(beta, ys[i]));
    }
  } else if (x.dtype() == Dtype::kF16) {
    // Device-style: each op rounds in half.
    h_axpby_pooled(x, alpha, y, beta);
  } else {
    auto ys = y.b();
    auto xs = x.b();
    for (std::size_t i = 0; i < ys.size(); ++i) {
      // bf16: f32 multiply-add, one bf16 rounding at the store.
      ys[i] = bf16_t(ordered_fadd(ordered_fmul(alpha, xs[i].to_float()),
                                  ordered_fmul(beta, ys[i].to_float())));
    }
  }
  if (ledger != nullptr) ledger->add_elementwise(x.bytes() * 3);
}

LossResult softmax_xent(const MTensor& logits, std::span<const int> labels,
                        std::span<const std::uint8_t> mask, bool use_masked,
                        int valid_classes, float grad_scale,
                        MTensor* dlogits, CostLedger* ledger) {
  const std::int64_t n = logits.rows();
  const std::int64_t c = logits.cols();
  if (valid_classes > c) {
    throw std::invalid_argument("softmax_xent: valid_classes > cols");
  }
  // AMP promotes softmax/CE to float: a 16-bit input pays the round trip.
  if (logits.dtype() != Dtype::kF32 && ledger != nullptr) {
    ledger->add_conversion(logits.bytes());               // half -> float
    if (dlogits != nullptr) ledger->add_conversion(logits.bytes());  // back
  }

  LossResult res;
  for (std::int64_t r = 0; r < n; ++r) {
    if (!use_masked || mask[static_cast<std::size_t>(r)] != 0) res.count += 1;
  }
  if (dlogits != nullptr) {
    *dlogits = MTensor::zeros(logits.dtype(), n, c);
  }
  // Mean reduction: 1/count is folded into the gradient.
  const float inv = res.count > 0 ? static_cast<float>(1.0 / res.count) : 0.0f;
  const int jobs = pool_jobs(
      n, 1, static_cast<std::int64_t>(res.count) * valid_classes * kLogitWork);
  double loss_sum = 0;
  with_data(logits, [&](const auto* lg) {
    using T = std::remove_cv_t<std::remove_pointer_t<decltype(lg)>>;
    T* dl = nullptr;
    if (dlogits != nullptr) {
      with_data(*dlogits, [&dl](auto* p) {
        if constexpr (std::is_same_v<decltype(p), T*>) dl = p;
      });
    }
    const XentArgs<T> args{lg,     dl,         c,          valid_classes,
                           labels, mask, use_masked, grad_scale, inv};
    // A subtraction, not an add of -logp: a NaN logp enters the sum with
    // its own sign, as in the reference loop.
    const auto add = [&](const XentRow& row) {
      loss_sum = loss_sum - row.logp;
      res.correct += row.hit;
    };
    if (jobs == 1) {
      xent_rows(args, 0, n,
                [&](std::int64_t, const XentRow& row) { add(row); });
      return;
    }
    // Rows run on the pool; their terms are summed here in row order, so
    // the double loss_sum keeps the serial loop's association.
    std::vector<XentRow> rows(static_cast<std::size_t>(n));
    run_ranges(jobs, n, 1, [&](std::int64_t r0, std::int64_t r1) {
      xent_rows(args, r0, r1, [&rows](std::int64_t r, const XentRow& row) {
        rows[static_cast<std::size_t>(r)] = row;
      });
    });
    for (std::int64_t r = 0; r < n; ++r) {
      if (args.in_loss(r)) add(rows[static_cast<std::size_t>(r)]);
    }
  });
  res.loss = res.count > 0 ? loss_sum / res.count
                           : std::numeric_limits<double>::quiet_NaN();
  if (ledger != nullptr) {
    ledger->add_elementwise(logits.bytes() * 2);
  }
  return res;
}

double masked_accuracy(const MTensor& logits, std::span<const int> labels,
                       std::span<const std::uint8_t> mask,
                       std::uint8_t expect, int valid_classes) {
  double correct = 0, count = 0;
  for (std::int64_t r = 0; r < logits.rows(); ++r) {
    if (mask[static_cast<std::size_t>(r)] != expect) continue;
    count += 1;
    int argmax = 0;
    // NaN logits never beat the running max, so argmax degenerates to
    // column 0 — accuracy collapses toward chance, as in Fig. 1c.
    for (int j = 0; j < valid_classes; ++j) {
      if (logits.get(r, j) > logits.get(r, argmax)) argmax = j;
    }
    correct += argmax == labels[static_cast<std::size_t>(r)];
  }
  return count > 0 ? correct / count : 0.0;
}

}  // namespace hg
