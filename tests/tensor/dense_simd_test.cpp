// Property tests for the dense host path's SIMD entries (simt/simd.hpp:
// gemm_panel and the f16 storage loops of tensor/dense_ops.cpp).
//
// Each vector tier's bodies must give the scalar reference bodies' bits on
// every input, special values included: NaN payloads of both signs (quiet
// and signaling), +-Inf, subnormals and signed zeros. Each dense op is also
// run end to end under every tier via simd::set_path, as simd_test.cpp
// does for the warp interpreter, and the blocked GEMM is checked against
// plain summation (materialize op(A) and op(B) as f32, sum in increasing k
// with product + sum).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "dense_test_util.hpp"
#include "simt/simd.hpp"
#include "tensor/dense_ops.hpp"

namespace hg {
namespace {

namespace simd = simt::simd;

using namespace dense_test;

// Plain GEMM: materialize op(A), op(B) as f32, sum in increasing k from +0
// as product + sum.
MTensor reference_gemm(const MTensor& a, bool ta, const MTensor& b, bool tb,
                       Dtype c_dtype) {
  const std::int64_t m = ta ? a.cols() : a.rows();
  const std::int64_t k = ta ? a.rows() : a.cols();
  const std::int64_t n = tb ? b.rows() : b.cols();
  std::vector<float> af(static_cast<std::size_t>(m * k));
  std::vector<float> bf(static_cast<std::size_t>(k * n));
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      af[static_cast<std::size_t>(i * k + kk)] =
          ta ? a.get(kk, i) : a.get(i, kk);
    }
  }
  for (std::int64_t kk = 0; kk < k; ++kk) {
    for (std::int64_t j = 0; j < n; ++j) {
      bf[static_cast<std::size_t>(kk * n + j)] =
          tb ? b.get(j, kk) : b.get(kk, j);
    }
  }
  MTensor c = MTensor::zeros(c_dtype, m, n);
  std::vector<float> acc(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < m; ++i) {
    std::fill(acc.begin(), acc.end(), 0.0f);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = af[static_cast<std::size_t>(i * k + kk)];
      const float* brow = bf.data() + kk * n;
      for (std::int64_t j = 0; j < n; ++j) {
        acc[static_cast<std::size_t>(j)] =
            ordered_fadd(ordered_fmul(av, brow[j]),
                         acc[static_cast<std::size_t>(j)]);
      }
    }
    for (std::int64_t j = 0; j < n; ++j) {
      c.set(i, j, acc[static_cast<std::size_t>(j)]);
    }
  }
  return c;
}

// ---------------------------------------------------------------------------
// Entry level: each vector tier's body vs the scalar body
// ---------------------------------------------------------------------------

constexpr std::size_t kLens[] = {0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 67};

// kGemmExact cases draw A and B from finite halves, which is what the flag
// promises; the others from the full special-value mix.
TEST(DenseSimd, GemmPanelMatchesScalarBitForBit) {
  if (!simd::available(simd::Path::kAvx2)) {
    GTEST_SKIP() << "the avx2 tier is unavailable in this build/CPU";
  }
  std::mt19937 rng(101);
  for_each_vector_path([&](simd::Path) {
    const auto& vec = simd::ops();
    for (const int kc : {0, 1, 2, 7, 64, 257}) {
      for (const int n : {16, 32, 48, 64}) {
        for (unsigned flags = 0;
             flags <= (simd::kGemmFirst | simd::kGemmExact); ++flags) {
          const bool exact = (flags & simd::kGemmExact) != 0;
          auto value = [&](bool finite) {
            return exact ? special_half(rng, true).to_float()
                         : special_float(rng, finite);
          };
          for (int trial = 0; trial < 4; ++trial) {
            const bool finite_b = trial % 2 == 0;
            const std::size_t lda = static_cast<std::size_t>(kc) + 3;
            const std::size_t ldb = static_cast<std::size_t>(n) + 16;
            const std::size_t ldc = static_cast<std::size_t>(n) + 5;
            std::vector<float> a(simd::kGemmRows * lda);
            std::vector<float> b(static_cast<std::size_t>(kc) * ldb + 1);
            std::vector<float> c0(simd::kGemmRows * ldc);
            for (auto& v : a) v = value(false);
            for (auto& v : b) v = value(finite_b);
            for (auto& v : c0) v = special_float(rng);
            std::vector<float> cs = c0;
            std::vector<float> cv = c0;
            simd::scalar::gemm_panel(cs.data(), ldc, a.data(), lda, b.data(),
                                     ldb, kc, n, flags);
            vec.gemm_panel(cv.data(), ldc, a.data(), lda, b.data(), ldb, kc,
                           n, flags);
            for (std::size_t i = 0; i < cs.size(); ++i) {
              ASSERT_EQ(std::bit_cast<std::uint32_t>(cs[i]),
                        std::bit_cast<std::uint32_t>(cv[i]))
                  << simd::path_name() << " kc " << kc << " n " << n
                  << " flags " << flags << " trial " << trial << " elem "
                  << i;
            }
          }
        }
      }
    }
  });
}

// Why deleting GEMM's zero-skip moved no finite result: with every B value
// finite, skipping the terms whose a is +-0 gives the micro-kernel's bits,
// even with zero A values of both signs and NaN/Inf in A.
TEST(DenseSimd, GemmPanelSkipIsInvisibleOnFiniteB) {
  std::mt19937 rng(103);
  for_each_path([&](simd::Path) {
    const auto& ops = simd::ops();
    for (int trial = 0; trial < 50; ++trial) {
      const int kc = static_cast<int>(rng() % 40);
      const std::size_t lda = 40;
      const std::size_t ldb = 32;
      std::vector<float> a(simd::kGemmRows * lda);
      std::vector<float> b(lda * ldb);
      for (auto& v : a) v = special_float(rng);
      for (auto& v : b) v = special_float(rng, /*finite=*/true);
      std::vector<float> plain(simd::kGemmRows * ldb);
      ops.gemm_panel(plain.data(), ldb, a.data(), lda, b.data(), ldb, kc, 32,
                     simd::kGemmFirst);
      std::vector<float> skip(simd::kGemmRows * ldb, 0.0f);
      for (std::size_t r = 0; r < simd::kGemmRows; ++r) {
        for (std::size_t kk = 0; kk < static_cast<std::size_t>(kc); ++kk) {
          const float av = a[r * lda + kk];
          if (av == 0.0f) continue;
          for (std::size_t j = 0; j < ldb; ++j) {
            skip[r * ldb + j] = ordered_fadd(ordered_fmul(av, b[kk * ldb + j]),
                                             skip[r * ldb + j]);
          }
        }
      }
      for (std::size_t i = 0; i < plain.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(plain[i]),
                  std::bit_cast<std::uint32_t>(skip[i]))
            << simd::path_name() << " trial " << trial << " elem " << i;
      }
    }
  });
}

// The active tier's f16 storage entries against the scalar bodies.
void elementwise_entries_match(std::mt19937& rng) {
  const auto& vec = simd::ops();
  auto halves = [&](std::size_t n) {
    // One element of lead-in so data() + 1 is misaligned for the vectors.
    std::vector<half_t> v(n + 1);
    for (auto& h : v) h = special_half(rng);
    return v;
  };
  auto same = [](const std::vector<half_t>& x, const std::vector<half_t>& y,
                 const char* what, std::size_t n) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(x[i].bits(), y[i].bits()) << what << " n " << n << " " << i;
    }
  };
  for (const std::size_t cols : kLens) {
    for (const std::size_t rows : {0u, 1u, 3u, 5u}) {
      const std::size_t n = rows * cols;
      std::vector<float> bias(cols);
      for (auto& v : bias) v = special_float(rng);
      std::vector<float> s(rows);
      for (auto& v : s) v = special_float(rng);

      auto x0 = halves(n);
      auto xs = x0;
      auto xv = x0;
      simd::scalar::h_add_bias_rows(xs.data() + 1, bias.data(), rows, cols);
      vec.h_add_bias_rows(xv.data() + 1, bias.data(), rows, cols);
      same(xs, xv, "h_add_bias_rows", n);

      xs = x0;
      xv = x0;
      simd::scalar::h_scale_rows(xs.data() + 1, s.data(), rows, cols);
      vec.h_scale_rows(xv.data() + 1, s.data(), rows, cols);
      same(xs, xv, "h_scale_rows", n);

      std::vector<float> o0(cols);
      for (auto& v : o0) v = special_float(rng);
      std::vector<float> os = o0;
      std::vector<float> ov = o0;
      simd::scalar::h_colsum(x0.data() + 1, os.data(), rows, cols);
      vec.h_colsum(x0.data() + 1, ov.data(), rows, cols);
      for (std::size_t j = 0; j < cols; ++j) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(os[j]),
                  std::bit_cast<std::uint32_t>(ov[j]))
            << "h_colsum " << rows << "x" << cols << " col " << j;
      }

      const auto y0 = halves(n);
      for (int t = 0; t < 3; ++t) {
        const half_t ha = t == 0 ? half_t(1.0f) : special_half(rng);
        const half_t hb = t == 0 ? half_t(0.1f) : special_half(rng);
        auto ys = y0;
        auto yv = y0;
        simd::scalar::h_axpby(x0.data() + 1, ha, ys.data() + 1, hb, n);
        vec.h_axpby(x0.data() + 1, ha, yv.data() + 1, hb, n);
        same(ys, yv, "h_axpby", n);
      }

      xs = x0;
      xv = x0;
      std::vector<std::uint8_t> ms(n + 1, 7);
      std::vector<std::uint8_t> mv(n + 1, 7);
      simd::scalar::h_relu_forward(xs.data() + 1, ms.data() + 1, n);
      vec.h_relu_forward(xv.data() + 1, mv.data() + 1, n);
      same(xs, xv, "h_relu_forward", n);
      ASSERT_EQ(ms, mv) << "h_relu_forward mask n " << n;

      for (auto& m : ms) m = static_cast<std::uint8_t>(rng() % 3);
      auto gs = y0;
      auto gv = y0;
      simd::scalar::h_relu_backward(gs.data() + 1, ms.data() + 1, n);
      vec.h_relu_backward(gv.data() + 1, ms.data() + 1, n);
      same(gs, gv, "h_relu_backward", n);
    }
  }
}

TEST(DenseSimd, ElementwiseEntriesMatchScalarBitForBit) {
  if (!simd::available(simd::Path::kAvx2)) {
    GTEST_SKIP() << "the avx2 tier is unavailable in this build/CPU";
  }
  std::mt19937 rng(107);
  for_each_vector_path([&](simd::Path) { elementwise_entries_match(rng); });
}

// ---------------------------------------------------------------------------
// Op level: each dense op under every tier
// ---------------------------------------------------------------------------

TEST(DenseSimd, GemmShapeSweepMatchesReferenceOnBothPaths) {
  constexpr std::int64_t kSizes[] = {0, 1, 7, 16, 17, 256, 257};
  // (A/B dtype, C dtype) pairs gemm accepts; f32 inputs need an f32 C.
  const std::pair<Dtype, Dtype> kDtypes[] = {
      {Dtype::kF32, Dtype::kF32},   {Dtype::kF16, Dtype::kF32},
      {Dtype::kF16, Dtype::kF16},   {Dtype::kF16, Dtype::kBf16},
      {Dtype::kBf16, Dtype::kF32},  {Dtype::kBf16, Dtype::kF16},
      {Dtype::kBf16, Dtype::kBf16}};
  std::mt19937 rng(109);
  int shape = 0;
  for (const std::int64_t m : kSizes) {
    for (const std::int64_t n : kSizes) {
      for (const std::int64_t k : kSizes) {
        for (int t = 0; t < 4; ++t, ++shape) {
          const bool ta = (t & 1) != 0;
          const bool tb = (t & 2) != 0;
          // Every dtype pair meets every transpose pair across the sweep.
          const auto [in, out] = kDtypes[shape % 7];
          // One case in three puts Inf/NaN in op(B).
          const bool finite_b = shape % 3 != 0;
          const bool sparse = m * n * k > (1 << 16);
          const MTensor a = ta ? special_tensor(in, k, m, rng, false, sparse)
                               : special_tensor(in, m, k, rng, false, sparse);
          const MTensor b =
              tb ? special_tensor(in, n, k, rng, finite_b, sparse)
                 : special_tensor(in, k, n, rng, finite_b, sparse);
          const MTensor want = reference_gemm(a, ta, b, tb, out);
          for_each_path([&](simd::Path) {
            MTensor c = MTensor::zeros(out, m, n);
            c.fill(7.0f);  // gemm overwrites every element
            gemm(a, ta, b, tb, c, nullptr);
            expect_same_bits(
                want, c,
                std::string(simd::path_name()) + " m" + std::to_string(m) +
                    " n" + std::to_string(n) + " k" + std::to_string(k) +
                    " ta" + std::to_string(ta) + " tb" + std::to_string(tb) +
                    " " + std::string(dtype_name(in)) + "->" +
                    std::string(dtype_name(out)));
          });
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

// One f16 GEMM whose k-blocks alternate between finite values and values
// planted with Inf, NaN and zeros, so a call runs both the exact-product
// tile (kGemmExact) and the separate mul and add, gives reference_gemm's
// bits on every tier. A tier that fused the terms of a non-finite block
// into FMAs would keep an accumulated NaN where the separate ops return the
// default NaN of a later 0 * Inf term.
TEST(DenseSimd, MixedFiniteAndSpecialKBlocksMatchReference) {
  constexpr std::int64_t kBlock = 256;  // dense_ops.cpp's k-block
  const std::int64_t m = 37;
  const std::int64_t n = 40;
  const std::int64_t k = 4 * kBlock + 100;
  std::mt19937 rng(131);
  // op(X)[r][kk] for an op(X) of `rows` x k: finite in even k-blocks.
  auto fill = [&](MTensor& x, bool trans) {
    for (std::int64_t i = 0; i < x.rows(); ++i) {
      for (std::int64_t j = 0; j < x.cols(); ++j) {
        const std::int64_t kk = trans ? i : j;
        const bool finite = kk / kBlock % 2 == 0;
        x.h()[static_cast<std::size_t>(i * x.cols() + j)] =
            half_t::from_bits(special_half_bits(rng, finite));
      }
    }
  };
  for (int t = 0; t < 4; ++t) {
    const bool ta = (t & 1) != 0;
    const bool tb = (t & 2) != 0;
    MTensor a = ta ? MTensor::f16(k, m) : MTensor::f16(m, k);
    MTensor b = tb ? MTensor::f16(n, k) : MTensor::f16(k, n);
    fill(a, ta);
    fill(b, !tb);
    for (const Dtype out : {Dtype::kF32, Dtype::kF16}) {
      const MTensor want = reference_gemm(a, ta, b, tb, out);
      for_each_path([&](simd::Path) {
        MTensor c = MTensor::zeros(out, m, n);
        gemm(a, ta, b, tb, c, nullptr);
        expect_same_bits(want, c,
                         std::string(simd::path_name()) + " ta" +
                             std::to_string(ta) + " tb" + std::to_string(tb) +
                             " " + std::string(dtype_name(out)));
      });
      if (HasFatalFailure()) return;
    }
  }
}

// A zero in A does not hide a non-finite B: 0 * Inf and -0 * NaN are NaN,
// as in IEEE arithmetic and cuBLAS.
TEST(DenseSimd, ZeroTimesNonFiniteIsNan) {
  for_each_path([&](simd::Path) {
    for (const Dtype dt : {Dtype::kF32, Dtype::kF16, Dtype::kBf16}) {
      MTensor a = MTensor::zeros(dt, 1, 2);
      MTensor b = MTensor::zeros(dt, 2, 1);
      a.set(0, 0, 0.0f);
      a.set(0, 1, 1.0f);
      b.set(0, 0, INFINITY);
      b.set(1, 0, 2.0f);
      MTensor c = MTensor::f32(1, 1);
      gemm(a, false, b, false, c, nullptr);
      EXPECT_TRUE(std::isnan(c.get(0, 0))) << simd::path_name();

      // A NaN in op(B) behind a -0 in A, past the first k-block, with op(B)
      // read through a transpose.
      const int k = 300;
      MTensor x = MTensor::zeros(dt, 1, k);
      MTensor yt = MTensor::zeros(dt, 3, k);  // op(B) = yt^T, k x 3
      for (int kk = 0; kk < k; ++kk) {
        x.set(0, kk, 1.0f);
        for (int j = 0; j < 3; ++j) yt.set(j, kk, 0.5f);
      }
      x.set(0, 280, -0.0f);
      yt.set(1, 280, NAN);
      MTensor out = MTensor::f32(1, 3);
      gemm(x, false, yt, true, out, nullptr);
      EXPECT_EQ(out.get(0, 0), 0.5f * (k - 1)) << simd::path_name();
      EXPECT_TRUE(std::isnan(out.get(0, 1))) << simd::path_name();
      EXPECT_EQ(out.get(0, 2), 0.5f * (k - 1)) << simd::path_name();
    }
  });
}

TEST(DenseSimd, ElementwiseOpsIdenticalAcrossPaths) {
  if (!simd::available(simd::Path::kAvx2)) {
    GTEST_SKIP() << "the avx2 tier is unavailable in this build/CPU";
  }
  std::mt19937 rng(113);
  const std::pair<std::int64_t, std::int64_t> kShapes[] = {
      {1, 1}, {3, 5}, {7, 9}, {16, 16}, {33, 17}, {64, 64}, {100, 129}};
  for (const Dtype dt : {Dtype::kF32, Dtype::kF16, Dtype::kBf16}) {
    for (const auto& [rows, cols] : kShapes) {
      const MTensor x0 = special_tensor(dt, rows, cols, rng, false);
      const MTensor y0 = special_tensor(dt, rows, cols, rng, false);
      const MTensor bias = special_tensor(Dtype::kF32, 1, cols, rng, false);
      std::vector<float> s(static_cast<std::size_t>(rows));
      for (auto& v : s) v = special_float(rng);
      std::vector<std::vector<MTensor>> results;
      std::vector<std::vector<std::uint8_t>> masks;
      for_each_path([&](simd::Path) {
        std::vector<MTensor> r;
        MTensor x = to_dtype(x0, dt, nullptr);
        add_bias_rows(x, bias, nullptr);
        r.push_back(x);
        x = to_dtype(x0, dt, nullptr);
        scale_rows(x, s, nullptr);
        r.push_back(x);
        MTensor cs = MTensor::f32(1, cols);
        colsum(x0, cs, nullptr);
        r.push_back(cs);
        MTensor y = to_dtype(y0, dt, nullptr);
        axpby(x0, 1.0f, y, 0.1f, nullptr);
        r.push_back(y);
        x = to_dtype(x0, dt, nullptr);
        std::vector<std::uint8_t> mask;
        relu_forward(x, mask, nullptr);
        r.push_back(x);
        y = to_dtype(y0, dt, nullptr);
        relu_backward(y, mask, nullptr);
        r.push_back(y);
        results.push_back(r);
        masks.push_back(mask);
      });
      ASSERT_GE(results.size(), 2u);  // scalar first, then each vector tier
      for (std::size_t p = 1; p < results.size(); ++p) {
        for (std::size_t i = 0; i < results[0].size(); ++i) {
          expect_same_bits(results[0][i], results[p][i],
                           "op " + std::to_string(i) + " " +
                               std::string(dtype_name(dt)) + " " +
                               std::to_string(rows) + "x" +
                               std::to_string(cols) + " tier " +
                               std::to_string(p));
        }
        EXPECT_EQ(masks[0], masks[p]);
      }
    }
  }
}

// A quiet NaN whose payload p survives storage in dt, as a float.
float quiet_nan(Dtype dt, std::uint32_t p) {
  MTensor t = MTensor::zeros(dt, 1, 1);
  switch (dt) {
    case Dtype::kF16:
      t.h()[0] = half_t::from_bits(static_cast<std::uint16_t>(0x7E00u | p));
      break;
    case Dtype::kBf16:
      t.b()[0] = bf16_t::from_bits(static_cast<std::uint16_t>(0x7FC0u | p));
      break;
    default:
      t.f()[0] = std::bit_cast<float>(0x7FC00000u | (p << 16));
      break;
  }
  return t.get(0, 0);
}

MTensor filled(Dtype dt, std::int64_t rows, std::int64_t cols, float v) {
  MTensor t = MTensor::zeros(dt, rows, cols);
  t.fill(v);
  return t;
}

// When both operands of a float add or mul are NaN, the first source's
// payload wins. Each dense op keeps the operand order its historical loop
// compiled to (DESIGN.md Sec. 13), on every dtype and both paths: bias + x,
// s * x, out + x, and gemm's a * b then product + sum.
TEST(DenseOps, PinnedOperandOrderPicksTheNanPayload) {
  const std::int64_t cols = 9;  // one vector step plus a remainder
  for_each_path([&](simd::Path) {
    for (const Dtype dt : {Dtype::kF32, Dtype::kF16, Dtype::kBf16}) {
      const std::string what =
          std::string(dtype_name(dt)) + " " + simd::path_name();
      const float x_nan = quiet_nan(dt, 0x11);
      const float y_nan = quiet_nan(dt, 0x22);
      const float f32_nan = quiet_nan(Dtype::kF32, 0x33);

      MTensor x = filled(dt, 2, cols, x_nan);
      add_bias_rows(x, filled(Dtype::kF32, 1, cols, f32_nan), nullptr);
      expect_same_bits(filled(dt, 2, cols, f32_nan), x, "bias " + what);

      x = filled(dt, 2, cols, x_nan);
      const std::vector<float> s(2, f32_nan);
      scale_rows(x, s, nullptr);
      expect_same_bits(filled(dt, 2, cols, f32_nan), x, "scale " + what);

      x = filled(dt, 2, cols, x_nan);
      for (std::int64_t c = 0; c < cols; ++c) x.set(1, c, y_nan);
      MTensor out = MTensor::f32(1, cols);
      colsum(x, out, nullptr);
      expect_same_bits(filled(Dtype::kF32, 1, cols, x_nan), out,
                       "colsum " + what);

      // k = 0 leaves the sum at x_nan * 1; k = 1 multiplies y_nan (the A
      // value, src1) by a NaN B value and adds the product to that sum.
      MTensor a = MTensor::zeros(dt, 1, 2);
      a.set(0, 0, x_nan);
      a.set(0, 1, y_nan);
      MTensor b = filled(dt, 2, cols, 1.0f);
      for (std::int64_t c = 0; c < cols; ++c) {
        b.set(1, c, quiet_nan(dt, 0x3F));
      }
      MTensor c32 = MTensor::f32(1, cols);
      gemm(a, false, b, false, c32, nullptr);
      expect_same_bits(filled(Dtype::kF32, 1, cols, y_nan), c32,
                       "gemm " + what);
    }
  });
}

// axpby is alpha * x + beta * y with alpha * x the add's first source:
// with two NaN operands x's payload wins at every length (a vector body
// and a scalar tail would pick by codegen), on every dtype and both paths.
TEST(DenseOps, AxpbyTwoNanPayloadIsXsAtEveryLength) {
  for_each_path([&](simd::Path) {
    for (const Dtype dt : {Dtype::kF32, Dtype::kBf16, Dtype::kF16}) {
      const float x_nan = quiet_nan(dt, 0x11);
      const float y_nan = quiet_nan(dt, 0x22);
      for (std::int64_t n = 1; n <= 1000; ++n) {
        MTensor y = filled(dt, 1, n, y_nan);
        axpby(filled(dt, 1, n, x_nan), 0.5f, y, -0.25f, nullptr);
        expect_same_bits(filled(dt, 1, n, x_nan), y,
                         std::string(dtype_name(dt)) + " " +
                             simd::path_name() + " n=" + std::to_string(n));
      }
    }
  });
}

// relu passes a NaN through with mask 0 in every dtype, so the loss and the
// non-finite-gradient check still see it; everything else that is not > 0
// becomes +0.
TEST(DenseOps, ReluKeepsNanInEveryDtype) {
  for_each_path([&](simd::Path) {
    for (const Dtype dt : {Dtype::kF32, Dtype::kF16, Dtype::kBf16}) {
      MTensor x = MTensor::zeros(dt, 1, 5);
      x.set(0, 0, NAN);
      x.set(0, 1, -1.0f);
      x.set(0, 2, 2.0f);
      x.set(0, 3, -0.0f);
      x.set(0, 4, -INFINITY);
      std::vector<std::uint8_t> mask;
      relu_forward(x, mask, nullptr);
      const std::string what =
          std::string(dtype_name(dt)) + " " + simd::path_name();
      EXPECT_TRUE(std::isnan(x.get(0, 0))) << what;
      EXPECT_EQ(mask, (std::vector<std::uint8_t>{0, 0, 1, 0, 0})) << what;
      for (const int j : {1, 3, 4}) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(x.get(0, j)), 0u)
            << what << " col " << j;
      }
      EXPECT_EQ(x.get(0, 2), 2.0f) << what;
    }
  });
}

}  // namespace
}  // namespace hg
