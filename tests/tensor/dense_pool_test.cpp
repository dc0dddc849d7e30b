// Dense ops on the device worker pool (tensor/dense_ops.hpp, DensePoolScope).
//
// Every op run under a scope on a Device of 2, 7 and 16 threads must give
// the bits of the same op with no scope open. Each op family is also run
// on inputs above the size from which dense_ops.cpp splits it (gemm 2^21
// multiply-adds over the padded columns, softmax_xent 8192 in-loss logits,
// the f16 axpby, add_bias_rows and scale_rows 2^18 elements, relu and
// to_dtype 2^21 elements), so the pooled runs take from 2 to 16 ranges and
// the partition edges run: a ragged last range, 4-row GEMM tiles cut short,
// more threads than tiles, ranges across GEMM row blocks. softmax_xent's
// one pass is checked against the historical two-pass loop on every dtype
// and both SIMD paths, and to_dtype's batch conversions against the
// per-element get/set loop.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "dense_test_util.hpp"
#include "simt/executor.hpp"
#include "tensor/dense_ops.hpp"

namespace hg {
namespace {

using namespace dense_test;

constexpr int kPoolSizes[] = {2, 7, 16};
constexpr Dtype kDtypes[] = {Dtype::kF32, Dtype::kF16, Dtype::kBf16};

// Everything an op produced, compared bit for bit.
struct Out {
  std::vector<MTensor> tensors;
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint64_t> words;  // scalar results by their bits
};

void expect_same(const Out& want, const Out& got, const std::string& what) {
  ASSERT_EQ(want.tensors.size(), got.tensors.size()) << what;
  for (std::size_t i = 0; i < want.tensors.size(); ++i) {
    expect_same_bits(want.tensors[i], got.tensors[i],
                     what + " tensor " + std::to_string(i));
  }
  ASSERT_EQ(want.bytes, got.bytes) << what;
  ASSERT_EQ(want.words, got.words) << what;
}

// One device per pool size, shared by every case.
const std::vector<std::unique_ptr<simt::Device>>& pools() {
  static const auto devices = [] {
    std::vector<std::unique_ptr<simt::Device>> v;
    for (const int threads : kPoolSizes) {
      v.push_back(std::make_unique<simt::Device>(simt::a100_spec(), threads));
    }
    return v;
  }();
  return devices;
}

// op() with no scope, then under a scope on each pool size; every result
// must match the serial one.
template <class Op>
void expect_pool_invariant(const std::string& what, Op&& op) {
  const Out serial = op();
  for (const auto& dev : pools()) {
    const DensePoolScope scope(dev.get());
    expect_same(serial, op(),
                what + " threads " + std::to_string(dev->threads()));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

// --- gemm --------------------------------------------------------------------

// Input -> output dtype pairs gemm takes.
constexpr std::pair<Dtype, Dtype> kPairs[] = {
    {Dtype::kF32, Dtype::kF32},  {Dtype::kF16, Dtype::kF32},
    {Dtype::kF16, Dtype::kF16},  {Dtype::kF16, Dtype::kBf16},
    {Dtype::kBf16, Dtype::kF32}, {Dtype::kBf16, Dtype::kF16},
    {Dtype::kBf16, Dtype::kBf16}};

TEST(DensePool, GemmShapeSweepMatchesSerial) {
  constexpr std::int64_t kSizes[] = {0, 1, 7, 16, 17, 256, 257};
  std::mt19937 rng(211);
  int shape = 0;
  for (const std::int64_t m : kSizes) {
    for (const std::int64_t n : kSizes) {
      for (const std::int64_t k : kSizes) {
        for (int t = 0; t < 4; ++t, ++shape) {
          const bool ta = (t & 1) != 0;
          const bool tb = (t & 2) != 0;
          const auto [in, out] = kPairs[shape % 7];
          const bool sparse = m * n * k > (1 << 16);
          const MTensor a = ta ? special_tensor(in, k, m, rng, false, sparse)
                               : special_tensor(in, m, k, rng, false, sparse);
          const MTensor b =
              tb ? special_tensor(in, n, k, rng, shape % 3 != 0, sparse)
                 : special_tensor(in, k, n, rng, shape % 3 != 0, sparse);
          expect_pool_invariant(
              "gemm m" + std::to_string(m) + " n" + std::to_string(n) + " k" +
                  std::to_string(k) + " ta" + std::to_string(ta) + " tb" +
                  std::to_string(tb) + " " + std::string(dtype_name(in)) +
                  "->" + std::string(dtype_name(out)),
              [&] {
                MTensor c = MTensor::zeros(out, m, n);
                c.fill(7.0f);  // gemm overwrites every element
                gemm(a, ta, b, tb, c, nullptr);
                return Out{{std::move(c)}, {}, {}};
              });
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

// Shapes above gemm's split size, each with every transpose: a last tile
// cut short and more threads than 4-row tiles (m = 5, 17), ranges of many
// tiles (m = 1001) and ranges across 256-row blocks and k-blocks (600 x 64
// x 1500).
TEST(DensePool, GemmSplitShapesMatchSerial) {
  struct Shape {
    std::int64_t m, n, k;
  };
  constexpr Shape kShapes[] = {
      {5, 512, 1024}, {17, 257, 600}, {1001, 33, 300}, {600, 64, 1500}};
  std::mt19937 rng(217);
  int i = 0;
  for (const auto [m, n, k] : kShapes) {
    for (int t = 0; t < 4; ++t, ++i) {
      const bool ta = (t & 1) != 0;
      const bool tb = (t & 2) != 0;
      const auto [in, out] = kPairs[i % 7];
      const MTensor a = ta ? special_tensor(in, k, m, rng, false, true)
                           : special_tensor(in, m, k, rng, false, true);
      const MTensor b = tb ? special_tensor(in, n, k, rng, i % 3 != 0, true)
                           : special_tensor(in, k, n, rng, i % 3 != 0, true);
      expect_pool_invariant(
          "gemm m" + std::to_string(m) + " n" + std::to_string(n) + " k" +
              std::to_string(k) + " ta" + std::to_string(ta) + " tb" +
              std::to_string(tb) + " " + std::string(dtype_name(in)) + "->" +
              std::string(dtype_name(out)),
          [&] {
            MTensor c = MTensor::zeros(out, m, n);
            gemm(a, ta, b, tb, c, nullptr);
            return Out{{std::move(c)}, {}, {}};
          });
      if (HasFatalFailure()) return;
    }
  }
}

// The trainer's large shapes: the weight gradient X^T dY over pubmed-sim's
// 19717 rows (m = 64 rows of C split over the pool, every job packing dY
// itself) and GAT's n = 1 GEMV.
TEST(DensePool, WeightGradientAndGemvMatchSerial) {
  std::mt19937 rng(223);
  const MTensor x = special_tensor(Dtype::kF16, 19717, 64, rng, true, true);
  const MTensor dy = special_tensor(Dtype::kF16, 19717, 64, rng, true, true);
  const MTensor h = special_tensor(Dtype::kF16, 6000, 64, rng, false, true);
  const MTensor att = special_tensor(Dtype::kF16, 64, 1, rng, true);
  expect_pool_invariant("weight gradient", [&] {
    MTensor dw = MTensor::f32(64, 64);
    gemm(x, true, dy, false, dw, nullptr);
    return Out{{std::move(dw)}, {}, {}};
  });
  expect_pool_invariant("gemv", [&] {
    MTensor e = MTensor::f16(6000, 1);
    gemm(h, false, att, false, e, nullptr);
    return Out{{std::move(e)}, {}, {}};
  });
}

// --- softmax_xent ------------------------------------------------------------

// The two-pass loop softmax_xent had before its one-pass form, kept as the
// reference (ledger charges left out). Two lines are written as the loop
// compiled (GCC 12, RelWithDebInfo and Release alike), since with two NaN
// operands the source leaves the payload to codegen: the exp sum adds the
// new term first, and `loss_sum += -logp` is the subtraction.
LossResult two_pass_xent(const MTensor& logits, std::span<const int> labels,
                         std::span<const std::uint8_t> mask, bool use_masked,
                         int valid_classes, float grad_scale,
                         MTensor* dlogits) {
  const std::int64_t n = logits.rows();
  const std::int64_t c = logits.cols();
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
    float mx = -std::numeric_limits<float>::infinity();
    for (int j = 0; j < valid_classes; ++j) {
      mx = std::max(mx, logits.get(r, j));
    }
    double denom = 0;
    for (int j = 0; j < valid_classes; ++j) {
      denom = ordered_dadd(std::exp(static_cast<double>(logits.get(r, j)) - mx),
                           denom);
    }
    const int y = labels[static_cast<std::size_t>(r)];
    const double logp =
        static_cast<double>(logits.get(r, y)) - mx - std::log(denom);
    loss_sum = loss_sum - logp;

    if (dlogits != nullptr) {
      for (int j = 0; j < valid_classes; ++j) {
        const double p =
            std::exp(static_cast<double>(logits.get(r, j)) - mx) / denom;
        const double g = (p - (j == y ? 1.0 : 0.0)) / 1.0;
        dlogits->set(r, j, static_cast<float>(g * grad_scale));
      }
    }
  }
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
  return res;
}

// One softmax_xent input: logits with rows of ordinary values (some large
// enough to saturate exp) and rows drawn from the special-value mix (NaN,
// +-Inf, subnormals, signed zeros), labels, a mask.
struct XentCase {
  std::string name;
  MTensor logits;
  std::vector<int> labels;
  std::vector<std::uint8_t> mask;
  bool use_masked = true;
  int valid = 0;
  float grad_scale = 1.0f;
};

std::vector<XentCase> xent_cases(Dtype dt, std::mt19937& rng) {
  std::vector<XentCase> cases;
  const std::int64_t kRows[] = {0, 1, 5, 97, 600, 2000};
  const std::int64_t kCols[] = {1, 8, 48};
  const float kScales[] = {1.0f, 65536.0f, 0.375f, 1e-3f};
  int i = 0;
  for (const std::int64_t rows : kRows) {
    for (const std::int64_t cols : kCols) {
      for (int variant = 0; variant < 4; ++variant, ++i) {
        XentCase x;
        x.logits = MTensor::zeros(dt, rows, cols);
        std::uniform_real_distribution<float> ordinary(-8.0f, 8.0f);
        for (std::int64_t r = 0; r < rows; ++r) {
          const bool special = rng() % 4 == 0;
          const float big = rng() % 8 == 0 ? 60.0f : 1.0f;
          for (std::int64_t j = 0; j < cols; ++j) {
            x.logits.set(r, j, special ? special_float(rng)
                                       : ordinary(rng) * big);
          }
        }
        // valid < cols (padding columns), and labels past `valid` on one
        // variant, which the historical loop read but never trained.
        x.valid = variant == 1 && cols > 3 ? static_cast<int>(cols) - 3
                                           : static_cast<int>(cols);
        const int label_span = variant == 2 ? static_cast<int>(cols) : x.valid;
        x.labels.resize(static_cast<std::size_t>(rows));
        for (auto& l : x.labels) l = static_cast<int>(rng() % label_span);
        x.mask.resize(static_cast<std::size_t>(rows));
        for (auto& m : x.mask) m = rng() % 5 < 3 ? 1 : 0;
        if (variant == 3) std::fill(x.mask.begin(), x.mask.end(), 0);
        x.use_masked = variant != 2;
        x.grad_scale = kScales[i % 4];
        x.name = std::string(dtype_name(dt)) + " " + std::to_string(rows) +
                 "x" + std::to_string(cols) + " variant " +
                 std::to_string(variant);
        cases.push_back(std::move(x));
      }
    }
  }
  return cases;
}

Out run_xent(const XentCase& x, bool with_grad) {
  Out out;
  MTensor dl;
  const LossResult r =
      softmax_xent(x.logits, x.labels, x.mask, x.use_masked, x.valid,
                   x.grad_scale, with_grad ? &dl : nullptr, nullptr);
  out.words = {bits_of(r.loss), bits_of(r.count)};
  if (with_grad) out.tensors.push_back(std::move(dl));
  return out;
}

TEST(DensePool, SoftmaxXentOnePassMatchesTwoPassReference) {
  std::mt19937 rng(227);
  for (const Dtype dt : kDtypes) {
    for (const XentCase& x : xent_cases(dt, rng)) {
      MTensor want_dl;
      const LossResult want =
          two_pass_xent(x.logits, x.labels, x.mask, x.use_masked, x.valid,
                        x.grad_scale, &want_dl);
      const Out ref{{std::move(want_dl)},
                    {},
                    {bits_of(want.loss), bits_of(want.count)}};
      for_each_path([&](simd::Path) {
        expect_same(ref, run_xent(x, true),
                    x.name + " " + simd::path_name());
      });
      if (HasFatalFailure()) return;
    }
  }
}

TEST(DensePool, SoftmaxXentMatchesSerial) {
  std::mt19937 rng(229);
  for (const Dtype dt : kDtypes) {
    for (const XentCase& x : xent_cases(dt, rng)) {
      for (const bool grad : {true, false}) {
        expect_pool_invariant(x.name + (grad ? " grad" : " loss only"),
                              [&] { return run_xent(x, grad); });
        if (HasFatalFailure()) return;
      }
    }
  }
}

// --- elementwise ops and conversions -----------------------------------------

// The last two are above the split sizes: 4099 x 64 splits the f16 axpby,
// add_bias_rows and scale_rows, 32771 x 67 every op.
constexpr std::pair<std::int64_t, std::int64_t> kShapes[] = {
    {0, 5}, {1, 1}, {3, 5}, {97, 67}, {1001, 33}, {4099, 64}, {32771, 67}};

TEST(DensePool, ElementwiseOpsMatchSerial) {
  std::mt19937 rng(233);
  for (const Dtype dt : kDtypes) {
    for (const auto& [rows, cols] : kShapes) {
      const std::string shape = std::string(dtype_name(dt)) + " " +
                                std::to_string(rows) + "x" +
                                std::to_string(cols);
      const bool sparse = rows * cols > (1 << 16);
      const MTensor x = special_tensor(dt, rows, cols, rng, false, sparse);
      const MTensor y = special_tensor(dt, rows, cols, rng, false, sparse);
      const MTensor bias = special_tensor(Dtype::kF32, 1, cols, rng, false);
      std::vector<float> s(static_cast<std::size_t>(rows));
      for (auto& v : s) v = special_float(rng);
      std::vector<std::uint8_t> mask(x.numel());
      for (auto& m : mask) m = static_cast<std::uint8_t>(rng() % 2);
      const float alpha = special_float(rng);
      const float beta = special_float(rng);
      CostLedger ledger;

      expect_pool_invariant("add_bias_rows " + shape, [&] {
        MTensor t = to_dtype(x, dt, nullptr);
        add_bias_rows(t, bias, &ledger);
        return Out{{std::move(t)}, {}, {}};
      });
      expect_pool_invariant("scale_rows " + shape, [&] {
        MTensor t = to_dtype(x, dt, nullptr);
        scale_rows(t, s, &ledger);
        return Out{{std::move(t)}, {}, {}};
      });
      expect_pool_invariant("relu_forward " + shape, [&] {
        MTensor t = to_dtype(x, dt, nullptr);
        std::vector<std::uint8_t> m;
        relu_forward(t, m, &ledger);
        return Out{{std::move(t)}, std::move(m), {}};
      });
      expect_pool_invariant("relu_backward " + shape, [&] {
        MTensor t = to_dtype(x, dt, nullptr);
        relu_backward(t, mask, &ledger);
        return Out{{std::move(t)}, {}, {}};
      });
      expect_pool_invariant("axpby " + shape, [&] {
        MTensor t = to_dtype(y, dt, nullptr);
        axpby(x, alpha, t, beta, &ledger);
        axpby(x, 1.0f, t, 1.0f, &ledger);
        return Out{{std::move(t)}, {}, {}};
      });
      expect_pool_invariant("colsum " + shape, [&] {
        MTensor out = MTensor::f32(1, cols);
        colsum(x, out, &ledger);
        return Out{{std::move(out)}, {}, {}};
      });
      for (const Dtype to : kDtypes) {
        expect_pool_invariant(
            "to_dtype " + shape + "->" + std::string(dtype_name(to)),
            [&] { return Out{{to_dtype(x, to, &ledger)}, {}, {}}; });
      }
      if (HasFatalFailure()) return;
    }
  }
}

// to_dtype converts f32 <-> f16 through the batch entries and every other
// pair element by element; each must give the bits of the per-element
// get/set loop it replaced, on both SIMD paths.
TEST(DensePool, ToDtypeMatchesGetSetLoop) {
  std::mt19937 rng(239);
  for (const Dtype from : kDtypes) {
    const MTensor x = special_tensor(from, 37, 41, rng, false);
    for (const Dtype to : kDtypes) {
      // A same-dtype to_dtype was, and is, a plain copy.
      MTensor want = x;
      if (from != to) {
        want = MTensor::zeros(to, x.rows(), x.cols());
        for (std::int64_t r = 0; r < x.rows(); ++r) {
          for (std::int64_t c = 0; c < x.cols(); ++c) {
            want.set(r, c, x.get(r, c));
          }
        }
      }
      for_each_path([&](simd::Path) {
        expect_same_bits(want, to_dtype(x, to, nullptr),
                         std::string(dtype_name(from)) + "->" +
                             std::string(dtype_name(to)) + " " +
                             simd::path_name());
      });
      if (HasFatalFailure()) return;
    }
  }
}

// --- the scope itself --------------------------------------------------------

// 600 x 64 x 64 f16 GEMM: 2.4M multiply-adds, split on any pool.
struct SplitGemm {
  MTensor a, b;
  explicit SplitGemm(std::mt19937& rng)
      : a(special_tensor(Dtype::kF16, 600, 64, rng, true)),
        b(special_tensor(Dtype::kF16, 64, 64, rng, true)) {}
  MTensor operator()() const {
    MTensor c = MTensor::f16(600, 64);
    gemm(a, false, b, false, c, nullptr);
    return c;
  }
};

// Scopes nest, and closing one restores the pool before it. The inner
// device is destroyed before the last op, so a pool pointer left behind by
// a closed scope would be a use-after-free, which the sanitizer build
// reports; every op must give the serial bits.
TEST(DensePool, ScopesNestAndRestoreThePreviousPool) {
  std::mt19937 rng(241);
  const SplitGemm op(rng);
  const MTensor want = op();
  simt::Device outer(simt::a100_spec(), 2);
  const DensePoolScope outer_scope(&outer);
  {
    auto inner = std::make_unique<simt::Device>(simt::a100_spec(), 3);
    {
      const DensePoolScope inner_scope(inner.get());
      expect_same_bits(want, op(), "inner scope");
      {
        const DensePoolScope none(nullptr);
        expect_same_bits(want, op(), "null scope");
      }
      expect_same_bits(want, op(), "inner scope after the null one");
    }
    inner.reset();
  }
  expect_same_bits(want, op(), "outer scope after the inner one");
}

// A one-thread device keeps every op on the calling thread, with the
// serial results.
TEST(DensePool, OneThreadDeviceRunsSerially) {
  std::mt19937 rng(251);
  const SplitGemm op(rng);
  const MTensor want = op();
  simt::Device one(simt::a100_spec(), 1);
  const DensePoolScope scope(&one);
  expect_same_bits(want, op(), "gemm on a one-thread device");
}

}  // namespace
}  // namespace hg
