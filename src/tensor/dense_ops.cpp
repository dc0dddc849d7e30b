#include "tensor/dense_ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "simt/simd.hpp"

namespace hg {

namespace {

namespace simd = simt::simd;

// GEMM blocking. A k-block of op(B) is packed once into an f32 panel of
// kKc x np floats (np = n rounded up to the micro-kernel's column tile);
// the f32 partial sums of up to kMc rows of C live in a panel of the same
// size, and each kGemmRows-row slice of op(A) is packed into kGemmRows x kKc
// floats. None of it scales with m or k, and the buffers are reused across
// calls.
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

// C = op(A) * op(B), m, n > 0. Per output element the terms are summed in
// increasing k from +0.0f, product + sum, with IEEE semantics throughout:
// a zero in A times an Inf or NaN in B is NaN, as on cuBLAS, so an
// overflowed gradient reaches the GradScaler even behind ReLU zeros.
template <class T>
void gemm_blocked(const T* a, bool trans_a, const T* b, bool trans_b,
                  MTensor& c, std::int64_t m, std::int64_t n, std::int64_t k) {
  const std::int64_t np =
      (n + simd::kGemmCols - 1) / simd::kGemmCols * simd::kGemmCols;
  const std::int64_t kc_max = std::min(k, kKc);
  const std::int64_t n_kb = std::max<std::int64_t>(1, (k + kKc - 1) / kKc);
  const std::int64_t mc_max = (std::min(m, kMc) + kRows - 1) / kRows * kRows;
  thread_local GemmScratch scratch;
  float* apanel = reserve(scratch.a, static_cast<std::size_t>(kRows * kc_max));
  float* bpanel = reserve(scratch.b, static_cast<std::size_t>(kc_max * np));
  float* sums = reserve(scratch.c, static_cast<std::size_t>(mc_max * np));
  const auto& ops = simd::ops();
  for (std::int64_t i0 = 0; i0 < m; i0 += kMc) {
    const std::int64_t mb = std::min(kMc, m - i0);
    for (std::int64_t kb = 0; kb < n_kb; ++kb) {
      const std::int64_t k0 = kb * kKc;
      const std::int64_t kc = std::min(kKc, k - k0);
      // A single k-block's panel serves every row block.
      if (n_kb > 1 || i0 == 0) pack_b(b, trans_b, k, n, k0, kc, bpanel, np);
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

}  // namespace

MTensor to_dtype(const MTensor& in, Dtype dt, CostLedger* ledger) {
  MTensor out = MTensor::zeros(dt, in.rows(), in.cols());
  if (in.dtype() == dt) {
    switch (dt) {
      case Dtype::kF32:
        std::copy(in.f().begin(), in.f().end(), out.f().begin());
        break;
      case Dtype::kF16:
        std::copy(in.h().begin(), in.h().end(), out.h().begin());
        break;
      default:
        std::copy(in.b().begin(), in.b().end(), out.b().begin());
        break;
    }
    return out;  // same-dtype copy: no conversion charged
  }
  // Cross-dtype: every pair goes through float (exact for f16->f32 and
  // bf16->f32; stores round once, matching a single device cvt).
  for (std::int64_t r = 0; r < in.rows(); ++r) {
    for (std::int64_t c = 0; c < in.cols(); ++c) {
      out.set(r, c, in.get(r, c));
    }
  }
  if (ledger != nullptr) ledger->add_conversion(in.bytes());
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
  if (x.dtype() == Dtype::kF16) {
    std::vector<float> row(static_cast<std::size_t>(x.cols()));
    for (std::int64_t c = 0; c < x.cols(); ++c) {
      row[static_cast<std::size_t>(c)] = bias.get(0, c);
    }
    simd::ops().h_add_bias_rows(x.h().data(), row.data(),
                                static_cast<std::size_t>(x.rows()),
                                static_cast<std::size_t>(x.cols()));
  } else {  // operand order pinned to the historical loop's (DESIGN §13)
    for (std::int64_t r = 0; r < x.rows(); ++r) {
      for (std::int64_t c = 0; c < x.cols(); ++c) {
        x.set(r, c, ordered_fadd(bias.get(0, c), x.get(r, c)));
      }
    }
  }
  if (ledger != nullptr) ledger->add_elementwise(x.bytes() * 2);
}

void relu_forward(MTensor& x, std::vector<std::uint8_t>& mask,
                  CostLedger* ledger) {
  mask.assign(x.numel(), 0);
  // In every dtype a NaN passes through (mask 0), as on device: max(NaN, 0)
  // quirks are irrelevant here — NaN anywhere already means a poisoned run,
  // and the loss and the non-finite-gradient check must still see it.
  if (x.dtype() == Dtype::kF32) {
    auto s = x.f();
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s[i] > 0) {
        mask[i] = 1;
      } else if (!std::isnan(s[i])) {
        s[i] = 0.0f;
      }
    }
  } else if (x.dtype() == Dtype::kF16) {
    simd::ops().h_relu_forward(x.h().data(), mask.data(), x.numel());
  } else {
    auto s = x.b();
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s[i] > bf16_t(0.0f)) {
        mask[i] = 1;
      } else if (!s[i].is_nan()) {
        s[i] = bf16_t(0.0f);
      }
    }
  }
  if (ledger != nullptr) ledger->add_elementwise(x.bytes() * 2);
}

void relu_backward(MTensor& grad, const std::vector<std::uint8_t>& mask,
                   CostLedger* ledger) {
  if (mask.size() != grad.numel()) {
    throw std::invalid_argument("relu_backward: mask size mismatch");
  }
  if (grad.dtype() == Dtype::kF32) {
    auto s = grad.f();
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (!mask[i]) s[i] = 0.0f;
    }
  } else if (grad.dtype() == Dtype::kF16) {
    simd::ops().h_relu_backward(grad.h().data(), mask.data(), grad.numel());
  } else {
    auto s = grad.b();
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (!mask[i]) s[i] = bf16_t(0.0f);
    }
  }
  if (ledger != nullptr) ledger->add_elementwise(grad.bytes() * 2);
}

void scale_rows(MTensor& x, std::span<const float> s, CostLedger* ledger) {
  if (s.size() != static_cast<std::size_t>(x.rows())) {
    throw std::invalid_argument("scale_rows: scale size mismatch");
  }
  if (x.dtype() == Dtype::kF16) {
    simd::ops().h_scale_rows(x.h().data(), s.data(),
                             static_cast<std::size_t>(x.rows()),
                             static_cast<std::size_t>(x.cols()));
  } else {  // operand order pinned to the historical loop's (DESIGN §13)
    for (std::int64_t r = 0; r < x.rows(); ++r) {
      const float f = s[static_cast<std::size_t>(r)];
      for (std::int64_t c = 0; c < x.cols(); ++c) {
        x.set(r, c, ordered_fmul(f, x.get(r, c)));
      }
    }
  }
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
  if (x.dtype() == Dtype::kF32) {
    auto ys = y.f();
    auto xs = x.f();
    for (std::size_t i = 0; i < ys.size(); ++i) {
      ys[i] = alpha * xs[i] + beta * ys[i];
    }
  } else if (x.dtype() == Dtype::kF16) {
    // Device-style: each op rounds in half.
    simd::ops().h_axpby(x.h().data(), half_t(alpha), y.h().data(),
                        half_t(beta), y.numel());
  } else {
    auto ys = y.b();
    auto xs = x.b();
    for (std::size_t i = 0; i < ys.size(); ++i) {
      // bf16 fma: exact f32 multiply-add, one rounding at the store.
      ys[i] = bf16_t(alpha * xs[i].to_float() + beta * ys[i].to_float());
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
  double loss_sum = 0;
  if (dlogits != nullptr) {
    *dlogits = MTensor::zeros(logits.dtype(), n, c);
  }
  for (std::int64_t r = 0; r < n; ++r) {
    const bool in_loss =
        !use_masked || mask[static_cast<std::size_t>(r)] != 0;
    if (!in_loss) continue;
    res.count += 1;
    // Stable log-softmax in float over the valid columns.
    float mx = -std::numeric_limits<float>::infinity();
    for (int j = 0; j < valid_classes; ++j) {
      mx = std::max(mx, logits.get(r, j));
    }
    double denom = 0;
    for (int j = 0; j < valid_classes; ++j) {
      denom += std::exp(static_cast<double>(logits.get(r, j)) - mx);
    }
    const int y = labels[static_cast<std::size_t>(r)];
    const double logp =
        static_cast<double>(logits.get(r, y)) - mx - std::log(denom);
    loss_sum += -logp;

    int argmax = 0;
    for (int j = 1; j < valid_classes; ++j) {
      if (logits.get(r, j) > logits.get(r, argmax)) argmax = j;
    }
    res.correct += argmax == y;

    if (dlogits != nullptr) {
      for (int j = 0; j < valid_classes; ++j) {
        const double p =
            std::exp(static_cast<double>(logits.get(r, j)) - mx) / denom;
        const double g = (p - (j == y ? 1.0 : 0.0)) / 1.0;
        dlogits->set(r, j, static_cast<float>(g * grad_scale));
      }
    }
  }
  // Mean reduction: fold 1/count into the gradient.
  if (res.count > 0 && dlogits != nullptr) {
    const float inv = static_cast<float>(1.0 / res.count);
    for (std::int64_t r = 0; r < n; ++r) {
      for (int j = 0; j < valid_classes; ++j) {
        const float g = dlogits->get(r, j);
        if (g != 0.0f) dlogits->set(r, j, g * inv);
      }
    }
  }
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
    bool any_nan = false;
    for (int j = 0; j < valid_classes; ++j) {
      const float v = logits.get(r, j);
      if (std::isnan(v)) any_nan = true;
      if (v > logits.get(r, argmax)) argmax = j;
    }
    // NaN logits never beat the running max, so argmax degenerates to
    // column 0 — accuracy collapses toward chance, as in Fig. 1c.
    (void)any_nan;
    correct += argmax == labels[static_cast<std::size_t>(r)];
  }
  return count > 0 ? correct / count : 0.0;
}

}  // namespace hg
