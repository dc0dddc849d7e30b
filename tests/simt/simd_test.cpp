// Property tests for the lane-batched SIMD warp interpreter (simt/simd.hpp).
//
// The avx2 dispatch table must be bit-identical to the scalar reference
// spec on every primitive, for every input class the kernels can produce:
// randomized lane masks, NaN payloads, infinities, subnormals, signed
// zeros, misaligned spans, and lengths that are not a multiple of the
// vector width. On top of the per-primitive sweeps, whole kernels are run
// under both paths and must produce byte-identical outputs and
// field-for-field identical KernelStats — the accounting contract that
// lets HALFGNN_SIMD flip without perturbing a single modeled number — and
// the fused fast path (train mode, hooks disarmed) must match the unfused
// per-access sequence bit-for-bit.
#include "simt/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "graph/generators.hpp"
#include "util/rng.hpp"
#include "kernels/edge_ops.hpp"
#include "kernels/sddmm.hpp"
#include "kernels/spmm_cusparse_like.hpp"
#include "kernels/spmm_halfgnn.hpp"
#include "simt/simt.hpp"
#include "util/aligned.hpp"

namespace hg::simt {
namespace {

namespace simd = hg::simt::simd;
using simd::Lanes;

// HALFGNN_SIMD reads one token of kPathTokens, trimmed; unset or empty is
// auto. Anything else throws naming the variable, from Device::check_env()
// (train_cli exits 2) and from Device's constructor, like the other env
// grammars; only the resolution before main() falls back to auto.
TEST(SimdPath, EnvGrammarIsStrict) {
  std::optional<std::string> saved;
  if (const char* prev = std::getenv(simd::kEnv)) saved = prev;
  for (const auto& t : simd::kPathTokens) {
    ::setenv(simd::kEnv, std::string(t.token).c_str(), 1);
    EXPECT_EQ(simd::requested_path(), t.value) << t.token;
  }
  ::setenv(simd::kEnv, " scalar ", 1);
  EXPECT_EQ(simd::requested_path(), simd::Path::kScalar);
  ::setenv(simd::kEnv, "", 1);
  EXPECT_EQ(simd::requested_path(), std::nullopt);
  for (const char* bad : {"avx3", "AVX2", "avx2,scalar", "scalar x", "1"}) {
    ::setenv(simd::kEnv, bad, 1);
    for (const auto& check :
         {std::function<void()>([] { (void)simd::requested_path(); }),
          std::function<void()>([] { Device::check_env(); }),
          std::function<void()>([] { Device dev(a100_spec(), 1); })}) {
      try {
        check();
        ADD_FAILURE() << "accepted HALFGNN_SIMD=" << bad;
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()).rfind("HALFGNN_SIMD: ", 0), 0u)
            << e.what();
      }
    }
  }
  if (saved) {
    ::setenv(simd::kEnv, saved->c_str(), 1);
  } else {
    ::unsetenv(simd::kEnv);
  }
}

// Every test body runs with the avx2 table active (the scalar reference is
// called directly through simd::scalar::), and restores the process path on
// exit so the rest of the test binary sees whatever HALFGNN_SIMD chose.
class SimdAvx2 : public ::testing::Test {
 protected:
  void SetUp() override {
    prev_ = simd::active_path();
    if (!simd::set_path(simd::Path::kAvx2)) {
      GTEST_SKIP() << "AVX2/F16C path unavailable in this build/CPU";
    }
  }
  void TearDown() override {
    if (!IsSkipped()) simd::set_path(prev_);
  }

 private:
  simd::Path prev_ = simd::Path::kScalar;
};

// Half bit patterns biased toward the special values where rounding and
// select semantics can diverge: NaN payloads, +-Inf, subnormals, signed
// zeros — plus plain random bits (which already cover all of those
// densely over enough trials).
std::uint16_t random_half_bits(std::mt19937& rng) {
  switch (rng() % 10) {
    case 0:
      return static_cast<std::uint16_t>(0x7C00u | (rng() & 0x8000u));  // Inf
    case 1:  // NaN with random nonzero payload
      return static_cast<std::uint16_t>(0x7C00u | (rng() & 0x83FFu) | 1u);
    case 2:  // subnormal
      return static_cast<std::uint16_t>((rng() & 0x83FFu));
    case 3:
      return static_cast<std::uint16_t>(rng() & 0x8000u);  // signed zero
    default:
      return static_cast<std::uint16_t>(rng());
  }
}

float random_float(std::mt19937& rng) {
  switch (rng() % 8) {
    case 0:
      return std::bit_cast<float>(static_cast<std::uint32_t>(rng()));
    case 1:
      return (rng() & 1u) != 0 ? 0.0f : -0.0f;
    default: {
      std::uniform_real_distribution<float> d(-300.0f, 300.0f);
      return d(rng);
    }
  }
}

half_t random_half(std::mt19937& rng) {
  return half_t::from_bits(random_half_bits(rng));
}

half2 random_half2(std::mt19937& rng) {
  return half2{random_half(rng), random_half(rng)};
}

std::uint32_t random_mask(std::mt19937& rng, int kind) {
  switch (kind % 4) {
    case 0:
      return kFullMask;
    case 1:
      return prefix_mask(static_cast<int>(rng() % 33));
    case 2:
      return 0;
    default:
      return static_cast<std::uint32_t>(rng());
  }
}

void expect_h2_eq(const half2* a, const half2* b, int n, const char* what,
                  int trial) {
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(a[i].lo.bits(), b[i].lo.bits())
        << what << " trial " << trial << " elem " << i << " lo";
    ASSERT_EQ(a[i].hi.bits(), b[i].hi.bits())
        << what << " trial " << trial << " elem " << i << " hi";
  }
}

void expect_h_eq(const half_t* a, const half_t* b, int n, const char* what,
                 int trial) {
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(a[i].bits(), b[i].bits())
        << what << " trial " << trial << " elem " << i;
  }
}

void expect_f_eq(const float* a, const float* b, int n, const char* what,
                 int trial) {
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]),
              std::bit_cast<std::uint32_t>(b[i]))
        << what << " trial " << trial << " elem " << i;
  }
}

// Lengths deliberately straddle the 8-float / 16-half vector widths and
// include 0; buffers carry one element of lead-in so `data() + 1` gives a
// span misaligned relative to any 32-byte vector boundary.
constexpr int kLens[] = {0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 67};

TEST_F(SimdAvx2, CvtBatchesMatchScalar) {
  std::mt19937 rng(0xC4711u);
  for (int trial = 0; trial < 400; ++trial) {
    const int n = kLens[static_cast<std::size_t>(trial) % std::size(kLens)];
    const int off = trial % 2;
    std::vector<std::uint16_t> hb(static_cast<std::size_t>(n) + 1);
    for (auto& b : hb) b = random_half_bits(rng);
    std::vector<float> fa(static_cast<std::size_t>(n) + 1);
    std::vector<float> fb(static_cast<std::size_t>(n) + 1);
    simd::scalar::cvt_h2f(hb.data() + off, fa.data() + off, n);
    simd::ops().cvt_h2f(hb.data() + off, fb.data() + off, n);
    expect_f_eq(fa.data() + off, fb.data() + off, n, "cvt_h2f", trial);

    std::vector<float> fin(static_cast<std::size_t>(n) + 1);
    for (auto& v : fin) v = random_float(rng);
    std::vector<std::uint16_t> ha(static_cast<std::size_t>(n) + 1);
    std::vector<std::uint16_t> hc(static_cast<std::size_t>(n) + 1);
    simd::scalar::cvt_f2h(fin.data() + off, ha.data() + off, n);
    simd::ops().cvt_f2h(fin.data() + off, hc.data() + off, n);
    for (int i = 0; i < n; ++i) {
      const auto iu = static_cast<std::size_t>(off + i);
      ASSERT_EQ(ha[iu], hc[iu]) << "cvt_f2h trial " << trial << " elem " << i;
    }
  }
}

TEST_F(SimdAvx2, H2TermAccumMatchesScalarForAllFlags) {
  std::mt19937 rng(0x7E21u);
  for (int trial = 0; trial < 800; ++trial) {
    const int n = kLens[static_cast<std::size_t>(trial) % std::size(kLens)];
    const unsigned flags = static_cast<unsigned>(trial) % 8u;  // all subsets
    const int off = trial % 2;
    std::vector<half2> x(static_cast<std::size_t>(n) + 1);
    std::vector<half2> acc(static_cast<std::size_t>(n) + 1);
    for (auto& v : x) v = random_half2(rng);
    for (auto& v : acc) v = random_half2(rng);
    std::vector<half2> acc2 = acc;
    const half2 w = random_half2(rng);
    const half2 pre = random_half2(rng);
    simd::scalar::h2_term_accum(acc.data() + off, x.data() + off, w, pre, n,
                                flags);
    simd::ops().h2_term_accum(acc2.data() + off, x.data() + off, w, pre, n,
                              flags);
    expect_h2_eq(acc.data() + off, acc2.data() + off, n, "h2_term_accum",
                 trial);
  }
}

TEST_F(SimdAvx2, H2ScaleCombineFmaRmwMatchScalar) {
  std::mt19937 rng(0x5CA1Eu);
  for (int trial = 0; trial < 800; ++trial) {
    const int n = kLens[static_cast<std::size_t>(trial) % std::size(kLens)];
    const int off = trial % 2;
    const bool flag = (trial & 8) != 0;  // is_max / has_w
    std::vector<half2> x(static_cast<std::size_t>(n) + 1);
    std::vector<half2> a(static_cast<std::size_t>(n) + 1);
    for (auto& v : x) v = random_half2(rng);
    for (auto& v : a) v = random_half2(rng);
    std::vector<half2> b = a;
    const half2 s = random_half2(rng);
    switch (trial % 4) {
      case 0:
        simd::scalar::h2_scale(a.data() + off, s, n);
        simd::ops().h2_scale(b.data() + off, s, n);
        break;
      case 1:
        simd::scalar::h2_combine(a.data() + off, x.data() + off, n, flag);
        simd::ops().h2_combine(b.data() + off, x.data() + off, n, flag);
        break;
      case 2:
        simd::scalar::h2_fma_splat(a.data() + off, x.data() + off, s, n, flag);
        simd::ops().h2_fma_splat(b.data() + off, x.data() + off, s, n, flag);
        break;
      default:
        simd::scalar::h_accum(reinterpret_cast<half_t*>(a.data() + off),
                              reinterpret_cast<const half_t*>(x.data() + off),
                              2 * n, flag);
        simd::ops().h_accum(reinterpret_cast<half_t*>(b.data() + off),
                            reinterpret_cast<const half_t*>(x.data() + off),
                            2 * n, flag);
        break;
    }
    expect_h2_eq(a.data() + off, b.data() + off, n, "h2 op", trial);
  }
}

// Every flag subset (identity start and post-scale included) over kLens,
// which reaches ragged widths (half_f % 4 != 0) and more than one 8-group
// pass; some runs are longer than 64 edges.
TEST_F(SimdAvx2, H2SpmmRunMatchesScalarAndUnfusedSequence) {
  std::mt19937 rng(0x59A3u);
  constexpr int kRows = 37;
  for (int trial = 0; trial < 1344; ++trial) {
    const int half_f =
        kLens[static_cast<std::size_t>(trial) % std::size(kLens)];
    const int n_edges = trial % 5 == 0 ? 65 + static_cast<int>(rng() % 70)
                                       : static_cast<int>(rng() % 9);
    const unsigned flags = static_cast<unsigned>(trial / 14) % 32u;
    std::vector<half2> x(static_cast<std::size_t>(kRows) *
                         static_cast<std::size_t>(half_f ? half_f : 1));
    for (auto& v : x) v = random_half2(rng);
    std::vector<std::int32_t> cols(static_cast<std::size_t>(n_edges));
    for (auto& c : cols) c = static_cast<std::int32_t>(rng() % kRows);
    std::vector<half_t> w(static_cast<std::size_t>(n_edges));
    for (auto& v : w) v = random_half(rng);
    const half2 pre = random_half2(rng);
    const half2 scale = random_half2(rng);

    std::vector<half2> acc0(static_cast<std::size_t>(half_f));
    for (auto& v : acc0) v = random_half2(rng);
    std::vector<half2> acc_scalar = acc0;
    std::vector<half2> acc_avx2 = acc0;
    std::vector<half2> acc_unfused = acc0;

    const half_t* wp = (flags & simd::kHasW) ? w.data() : nullptr;
    simd::scalar::h2_spmm_run(acc_scalar.data(), x.data(), cols.data(), wp,
                              pre, scale, half_f, n_edges, flags);
    simd::ops().h2_spmm_run(acc_avx2.data(), x.data(), cols.data(), wp, pre,
                            scale, half_f, n_edges, flags);
    // The documented contract: identity fill, the per-edge h2_term_accum
    // sequence over each edge's contiguous feature row with its weight
    // broadcast to both halves, then h2_scale.
    if (flags & simd::kFromIdentity) {
      std::fill(acc_unfused.begin(), acc_unfused.end(),
                combine_identity<half2>((flags & simd::kIsMax)
                                            ? WarpCombine::kMax
                                            : WarpCombine::kAdd));
    }
    for (int e = 0; e < n_edges; ++e) {
      const half2* xr = x.data() + static_cast<std::size_t>(cols[
                            static_cast<std::size_t>(e)]) *
                            static_cast<std::size_t>(half_f);
      const half2 we = (flags & simd::kHasW)
                           ? half2::broadcast(w[static_cast<std::size_t>(e)])
                           : half2(1.0f, 1.0f);
      simd::scalar::h2_term_accum(acc_unfused.data(), xr, we, pre, half_f,
                                  flags);
    }
    if (flags & simd::kHasScale) {
      simd::scalar::h2_scale(acc_unfused.data(), scale, half_f);
    }
    expect_h2_eq(acc_scalar.data(), acc_avx2.data(), half_f, "h2_spmm_run",
                 trial);
    expect_h2_eq(acc_scalar.data(), acc_unfused.data(), half_f,
                 "h2_spmm_run vs unfused", trial);
  }
}

TEST_F(SimdAvx2, HalfAndFloatAccumScaleMatchScalar) {
  std::mt19937 rng(0xACC5u);
  for (int trial = 0; trial < 800; ++trial) {
    const int n = kLens[static_cast<std::size_t>(trial) % std::size(kLens)];
    const int off = trial % 2;
    const bool is_max = (trial & 8) != 0;
    const bool v_first = (trial & 16) != 0;
    switch (trial % 4) {
      case 0: {  // h_accum
        std::vector<half_t> v(static_cast<std::size_t>(n) + 1);
        std::vector<half_t> a(static_cast<std::size_t>(n) + 1);
        for (auto& e : v) e = random_half(rng);
        for (auto& e : a) e = random_half(rng);
        std::vector<half_t> b = a;
        simd::scalar::h_accum(a.data() + off, v.data() + off, n, is_max);
        simd::ops().h_accum(b.data() + off, v.data() + off, n, is_max);
        expect_h_eq(a.data() + off, b.data() + off, n, "h_accum", trial);
        break;
      }
      case 1: {  // h_scale — v_first changes which operand is the NaN source
        std::vector<half_t> a(static_cast<std::size_t>(n) + 1);
        for (auto& e : a) e = random_half(rng);
        std::vector<half_t> b = a;
        const half_t s = random_half(rng);
        simd::scalar::h_scale(a.data() + off, s, n, v_first);
        simd::ops().h_scale(b.data() + off, s, n, v_first);
        expect_h_eq(a.data() + off, b.data() + off, n, "h_scale", trial);
        break;
      }
      case 2: {  // f_accum, all flag subsets
        const unsigned flags = static_cast<unsigned>(trial / 4) % 8u;
        std::vector<float> v(static_cast<std::size_t>(n) + 1);
        std::vector<float> a(static_cast<std::size_t>(n) + 1);
        for (auto& e : v) e = random_float(rng);
        for (auto& e : a) e = random_float(rng);
        std::vector<float> b = a;
        const float w = random_float(rng);
        simd::scalar::f_accum(a.data() + off, v.data() + off, w, n, flags);
        simd::ops().f_accum(b.data() + off, v.data() + off, w, n, flags);
        expect_f_eq(a.data() + off, b.data() + off, n, "f_accum", trial);
        break;
      }
      default: {  // f_scale
        std::vector<float> a(static_cast<std::size_t>(n) + 1);
        for (auto& e : a) e = random_float(rng);
        std::vector<float> b = a;
        const float s = random_float(rng);
        simd::scalar::f_scale(a.data() + off, s, n);
        simd::ops().f_scale(b.data() + off, s, n);
        expect_f_eq(a.data() + off, b.data() + off, n, "f_scale", trial);
        break;
      }
    }
  }
}

TEST_F(SimdAvx2, MaskedFmaAndDotMatchScalar) {
  std::mt19937 rng(0xD07u);
  for (int trial = 0; trial < 600; ++trial) {
    const std::uint32_t m = random_mask(rng, trial);
    switch (trial % 3) {
      case 0: {
        Lanes<half_t> acc{};
        Lanes<half_t> a{};
        Lanes<half_t> b{};
        for (auto& e : acc) e = random_half(rng);
        for (auto& e : a) e = random_half(rng);
        for (auto& e : b) e = random_half(rng);
        Lanes<half_t> acc2 = acc;
        simd::scalar::h_fma_mask(acc, a, b, m);
        simd::ops().h_fma_mask(acc2, a, b, m);
        expect_h_eq(acc.data(), acc2.data(), simd::kLanes, "h_fma_mask",
                    trial);
        break;
      }
      case 1: {
        Lanes<float> acc{};
        Lanes<float> a{};
        Lanes<float> b{};
        for (auto& e : acc) e = random_float(rng);
        for (auto& e : a) e = random_float(rng);
        for (auto& e : b) e = random_float(rng);
        Lanes<float> acc2 = acc;
        simd::scalar::f_fma_mask(acc, a, b, m);
        simd::ops().f_fma_mask(acc2, a, b, m);
        expect_f_eq(acc.data(), acc2.data(), simd::kLanes, "f_fma_mask",
                    trial);
        break;
      }
      default: {
        const int h2per = 1 + static_cast<int>(rng() % 4);  // half2..half8
        Lanes<half2> acc{};
        for (auto& e : acc) e = random_half2(rng);
        std::vector<half2> a(static_cast<std::size_t>(simd::kLanes * h2per));
        std::vector<half2> b(a.size());
        for (auto& e : a) e = random_half2(rng);
        for (auto& e : b) e = random_half2(rng);
        Lanes<half2> acc2 = acc;
        simd::scalar::h2_dot_mask(acc, a.data(), b.data(), h2per, m);
        simd::ops().h2_dot_mask(acc2, a.data(), b.data(), h2per, m);
        expect_h2_eq(acc.data(), acc2.data(), simd::kLanes, "h2_dot_mask",
                     trial);
        break;
      }
    }
  }
}

// Float bit patterns biased toward the special classes, like
// random_half_bits: NaN payloads of either sign, +-Inf, subnormals, +-0.
float random_special_float(std::mt19937& rng) {
  switch (rng() % 8) {
    case 0:
      return std::bit_cast<float>(
          static_cast<std::uint32_t>(0x7F800000u | (rng() & 0x80000000u)));
    case 1:
      return std::bit_cast<float>(static_cast<std::uint32_t>(
          0x7F800000u | (rng() & 0x807FFFFFu) | 1u));
    case 2:
      return std::bit_cast<float>(static_cast<std::uint32_t>(rng()) &
                                  0x807FFFFFu);
    case 3:
      return std::bit_cast<float>(static_cast<std::uint32_t>(rng()) &
                                  0x80000000u);
    default:
      return random_float(rng);
  }
}

// The whole butterfly in one call: every power-of-two group width, every
// mask class, add and max, over special-value lanes.
TEST_F(SimdAvx2, GroupReduceMatchesScalar) {
  std::mt19937 rng(0x5F1Eu);
  for (int trial = 0; trial < 1800; ++trial) {
    const int width = 1 << (trial % 6);  // 1, 2, 4, 8, 16, 32
    const std::uint32_t active = random_mask(rng, trial / 6);
    const bool is_max = (trial / 24) % 2 != 0;
    switch ((trial / 48) % 3) {
      case 0: {
        Lanes<half2> v{};
        for (auto& e : v) e = random_half2(rng);
        Lanes<half2> v2 = v;
        simd::scalar::group_reduce_h2(v, width, active, is_max);
        simd::ops().group_reduce_h2(v2, width, active, is_max);
        expect_h2_eq(v.data(), v2.data(), simd::kLanes, "group_reduce_h2",
                     trial);
        break;
      }
      case 1: {
        Lanes<half_t> v{};
        for (auto& e : v) e = random_half(rng);
        Lanes<half_t> v2 = v;
        simd::scalar::group_reduce_h(v, width, active, is_max);
        simd::ops().group_reduce_h(v2, width, active, is_max);
        expect_h_eq(v.data(), v2.data(), simd::kLanes, "group_reduce_h",
                    trial);
        break;
      }
      default: {
        Lanes<float> v{};
        for (auto& e : v) e = random_special_float(rng);
        Lanes<float> v2 = v;
        simd::scalar::group_reduce_f(v, width, active, is_max);
        simd::ops().group_reduce_f(v2, width, active, is_max);
        expect_f_eq(v.data(), v2.data(), simd::kLanes, "group_reduce_f",
                    trial);
        break;
      }
    }
  }
}

// One row of the fused segment reduce: lengths around the 8-lane registers
// and the 32-lane chunks, sum and max, over special values.
TEST_F(SimdAvx2, SegReduceRowMatchesScalar) {
  std::mt19937 rng(0x5E9u);
  constexpr int kNs[] = {0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 40,
                         63, 64, 65, 100};
  for (int trial = 0; trial < 760; ++trial) {
    const int n = kNs[static_cast<std::size_t>(trial) % std::size(kNs)];
    const bool is_max = (trial / 19) % 2 != 0;
    // Exact-size buffers: a load past the row's end overflows the heap.
    std::vector<half_t> vh(static_cast<std::size_t>(n));
    std::vector<float> vf(static_cast<std::size_t>(n));
    for (auto& v : vh) v = random_half(rng);
    for (auto& v : vf) v = random_special_float(rng);
    const half_t h0 = simd::scalar::seg_reduce_h(vh.data(), n, is_max);
    const half_t h1 = simd::ops().seg_reduce_h(vh.data(), n, is_max);
    ASSERT_EQ(h0.bits(), h1.bits()) << "seg_reduce_h trial " << trial;
    const float f0 = simd::scalar::seg_reduce_f(vf.data(), n, is_max);
    const float f1 = simd::ops().seg_reduce_f(vf.data(), n, is_max);
    ASSERT_EQ(std::bit_cast<std::uint32_t>(f0),
              std::bit_cast<std::uint32_t>(f1))
        << "seg_reduce_f trial " << trial;
  }
}

// The fused sddmm run against the scalar reference and against the
// unfused sub-warp sequence (gather into lanes, h2_dot_mask per chunk,
// group_reduce_h2, h2reduce_add). Rows are exact-size allocations, so a
// load past the last row's end is a heap overflow.
TEST_F(SimdAvx2, H2SddmmRunMatchesScalarAndUnfusedSequence) {
  std::mt19937 rng(0x5DD3u);
  constexpr int kFvecs[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32,
                            33, 36, 64, 66};
  constexpr int kRows = 9;
  for (int trial = 0; trial < 486; ++trial) {
    const int fvec =
        kFvecs[static_cast<std::size_t>(trial) % std::size(kFvecs)];
    const int h2per = 1 << ((trial / 18) % 3);  // half2, half4, half8
    const auto row_words =
        static_cast<std::size_t>(fvec) * static_cast<std::size_t>(h2per);
    std::vector<half2> a(kRows * row_words);
    std::vector<half2> b(kRows * row_words);
    // Every third trial multiplies negative by positive subnormals: every
    // product underflows to -0, so every accumulator and the result are -0
    // — unless a lane that is inactive in a row's last chunk adds +0
    // instead of keeping its value (-0 + +0 = +0).
    const auto draw = [&](std::uint32_t sign) {
      if (trial % 3 != 2) return random_half2(rng);
      const auto tiny = [&] {
        return half_t::from_bits(
            static_cast<std::uint16_t>(sign | (1u + rng() % 0x3FFu)));
      };
      return half2{tiny(), tiny()};
    };
    for (auto& v : a) v = draw(0x8000u);
    for (auto& v : b) v = draw(0u);
    const int n = 1 + static_cast<int>(rng() % 12);
    std::vector<std::int32_t> rows(static_cast<std::size_t>(n));
    std::vector<std::int32_t> cols(static_cast<std::size_t>(n));
    for (auto& r : rows) r = static_cast<std::int32_t>(rng() % kRows);
    for (auto& c : cols) c = static_cast<std::int32_t>(rng() % kRows);
    rows.back() = cols.back() = kRows - 1;  // the allocation's last row

    std::vector<half_t> ref(static_cast<std::size_t>(n));
    std::vector<half_t> got(static_cast<std::size_t>(n));
    std::vector<half_t> unfused(static_cast<std::size_t>(n));
    simd::scalar::h2_sddmm_run(ref.data(), a.data(), b.data(), rows.data(),
                               cols.data(), h2per, fvec, n);
    simd::ops().h2_sddmm_run(got.data(), a.data(), b.data(), rows.data(),
                             cols.data(), h2per, fvec, n);
    const int width = std::min(32, static_cast<int>(std::bit_ceil(
                                       static_cast<unsigned>(fvec))));
    for (int i = 0; i < n; ++i) {
      const auto iu = static_cast<std::size_t>(i);
      Lanes<half2> acc;
      acc.fill(half2(0.0f, 0.0f));
      for (int c = 0; c * 32 < fvec; ++c) {
        std::vector<half2> va(32 * static_cast<std::size_t>(h2per));
        std::vector<half2> vb(va.size());
        const int lanes = std::min(32, fvec - c * 32);
        for (int j = 0; j < lanes; ++j) {
          for (int k = 0; k < h2per; ++k) {
            const std::size_t w =
                static_cast<std::size_t>((c * 32 + j) * h2per + k);
            va[static_cast<std::size_t>(j * h2per + k)] =
                a[static_cast<std::size_t>(rows[iu]) * row_words + w];
            vb[static_cast<std::size_t>(j * h2per + k)] =
                b[static_cast<std::size_t>(cols[iu]) * row_words + w];
          }
        }
        simd::scalar::h2_dot_mask(acc, va.data(), vb.data(), h2per,
                                  prefix_mask(lanes));
      }
      simd::scalar::group_reduce_h2(acc, width, kFullMask, false);
      unfused[iu] = h2reduce_add(acc[0]);
    }
    expect_h_eq(ref.data(), got.data(), n, "h2_sddmm_run", trial);
    expect_h_eq(ref.data(), unfused.data(), n, "h2_sddmm_run vs unfused",
                trial);
  }
}

TEST_F(SimdAvx2, AccessCountsMatchReference) {
  std::mt19937 rng(0xACCEu);
  const std::size_t elem_sizes[] = {2, 4, 8, 16};
  for (int trial = 0; trial < 2000; ++trial) {
    accounting::LaneIdx idx{};
    for (auto& v : idx) v = static_cast<std::int64_t>(rng() % 4096);
    if (trial % 3 == 1) {  // contiguous run, the hot shape
      const std::int64_t base = static_cast<std::int64_t>(rng() % 1024);
      for (int l = 0; l < kWarpSize; ++l) {
        idx[static_cast<std::size_t>(l)] = base + l;
      }
    }
    const std::uint32_t mask = random_mask(rng, trial);
    const std::size_t es = elem_sizes[trial % 4];
    const auto got = simd::ops().access_counts(idx, mask, es, 32);
    const auto ref = accounting::access_counts_reference(idx, mask, es, 32);
    ASSERT_EQ(got.active, ref.active) << "trial " << trial;
    ASSERT_EQ(got.sectors, ref.sectors) << "trial " << trial;
    ASSERT_EQ(got.unique_elems, ref.unique_elems) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Whole-kernel identity: byte-identical outputs AND field-for-field equal
// KernelStats between paths, in both profiled and train mode.
// ---------------------------------------------------------------------------

void expect_stats_eq(const KernelStats& a, const KernelStats& b,
                     const char* what) {
  // host_ms is wall-clock and excluded; everything else is modeled and must
  // not depend on how fast the host executed the lanes.
  EXPECT_EQ(a.device_cycles, b.device_cycles) << what;
  EXPECT_EQ(a.time_ms, b.time_ms) << what;
  EXPECT_EQ(a.bytes_moved, b.bytes_moved) << what;
  EXPECT_EQ(a.useful_bytes, b.useful_bytes) << what;
  EXPECT_EQ(a.ld_instrs, b.ld_instrs) << what;
  EXPECT_EQ(a.st_instrs, b.st_instrs) << what;
  EXPECT_EQ(a.sectors, b.sectors) << what;
  EXPECT_EQ(a.alu_instrs, b.alu_instrs) << what;
  EXPECT_EQ(a.lane_ops, b.lane_ops) << what;
  EXPECT_EQ(a.cvt_instrs, b.cvt_instrs) << what;
  EXPECT_EQ(a.smem_instrs, b.smem_instrs) << what;
  EXPECT_EQ(a.shfl_instrs, b.shfl_instrs) << what;
  EXPECT_EQ(a.cta_barriers, b.cta_barriers) << what;
  EXPECT_EQ(a.atomic_instrs, b.atomic_instrs) << what;
  EXPECT_EQ(a.atomic_serialized, b.atomic_serialized) << what;
  EXPECT_EQ(a.issue_cycles, b.issue_cycles) << what;
  EXPECT_EQ(a.mem_cycles, b.mem_cycles) << what;
  EXPECT_EQ(a.stall_cycles, b.stall_cycles) << what;
  EXPECT_EQ(a.atomic_wait_cycles, b.atomic_wait_cycles) << what;
  EXPECT_EQ(a.warp_busy_cycles, b.warp_busy_cycles) << what;
}

struct KernelFixture {
  Csr csr;
  Coo coo;
  kernels::GraphView g;
  AlignedVec<half_t> xh;
  AlignedVec<half_t> wh;
  int feat = 64;

  KernelFixture() {
    std::mt19937 rng(0xF1A7u);
    Rng gen_rng(11);
    Coo raw = erdos_renyi(400, 2500, gen_rng);
    plant_hubs(raw, 2, 120, gen_rng);
    raw.num_vertices += 3;  // isolated vertices: empty rows at the end
    csr = coo_to_csr(raw);
    coo = csr_to_coo(csr);
    g = kernels::view(csr, coo);
    const auto n = static_cast<std::size_t>(csr.num_vertices);
    xh.resize(n * static_cast<std::size_t>(feat));
    wh.resize(static_cast<std::size_t>(coo.row.size()));
    // Finite but wide-ranged values: specials would propagate NaN through
    // every output element and mask real divergence; the primitive sweeps
    // above own the special-value coverage.
    for (auto& v : xh) {
      v = half_t((static_cast<float>(rng() % 4000u) - 2000.0f) / 128.0f);
    }
    for (auto& v : wh) {
      v = half_t((static_cast<float>(rng() % 4000u) - 2000.0f) / 1024.0f);
    }
  }
};

template <class RunFn>
void run_both_paths_and_compare(const char* what, RunFn run) {
  struct Result {
    KernelStats profiled;
    std::vector<std::uint16_t> profiled_bits;
    std::vector<std::uint16_t> train_bits;
  };
  const auto run_path = [&](simd::Path p) {
    EXPECT_TRUE(simd::set_path(p));
    Result r;
    r.profiled = run(true, r.profiled_bits);
    (void)run(false, r.train_bits);
    return r;
  };
  const simd::Path prev = simd::active_path();
  const Result s = run_path(simd::Path::kScalar);
  const Result v = run_path(simd::Path::kAvx2);
  simd::set_path(prev);

  expect_stats_eq(s.profiled, v.profiled, what);
  ASSERT_EQ(s.profiled_bits, v.profiled_bits) << what << " profiled output";
  ASSERT_EQ(s.train_bits, v.train_bits) << what << " train output";
  // Fused fast path (train, hooks disarmed) vs unfused per-access
  // (profiled): the math must be bit-identical, only the bookkeeping may
  // differ. Checked per path via transitivity with the cross-path asserts.
  ASSERT_EQ(s.profiled_bits, s.train_bits) << what << " fused vs unfused";
}

std::vector<std::uint16_t> bits_of(std::span<const half_t> v) {
  std::vector<std::uint16_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = v[i].bits();
  return out;
}

TEST_F(SimdAvx2, SpmmCusparseF16IdenticalAcrossPaths) {
  KernelFixture f;
  Device dev(a100_spec());
  Stream stream(dev);
  run_both_paths_and_compare(
      "spmm_cusparse_f16",
      [&](bool profiled, std::vector<std::uint16_t>& out_bits) {
        AlignedVec<half_t> y(f.xh.size());
        const auto ks = kernels::spmm_cusparse_f16(
            stream, profiled, f.g, f.wh, f.xh, y, f.feat,
            kernels::Reduce::kSum);
        out_bits = bits_of(y);
        return ks;
      });
}

std::vector<std::uint16_t> bits_of(std::span<const float> v) {
  std::vector<std::uint16_t> out;
  out.reserve(2 * v.size());
  for (const float f : v) {
    const auto b = std::bit_cast<std::uint32_t>(f);
    out.push_back(static_cast<std::uint16_t>(b));
    out.push_back(static_cast<std::uint16_t>(b >> 16));
  }
  return out;
}

// n x feat finite features like the fixture's; with `specials`, every
// 37th row holds NaN payloads, +-Inf and -0, and the row after it
// subnormals whose products underflow to +-0.
AlignedVec<half_t> make_features(std::size_t n, int feat, std::mt19937& rng,
                                 bool specials) {
  AlignedVec<half_t> x(n * static_cast<std::size_t>(feat));
  for (std::size_t i = 0; i < x.size(); ++i) {
    const std::size_t r = i / static_cast<std::size_t>(feat);
    if (specials && r % 37 == 0) {
      constexpr std::uint16_t kSpecial[] = {0x7E01, 0xFC00, 0x7C00, 0x8000,
                                            0xFD55, 0x3C00};
      x[i] = half_t::from_bits(kSpecial[i % std::size(kSpecial)]);
    } else if (specials && r % 37 == 1) {
      x[i] = half_t::from_bits(static_cast<std::uint16_t>(
          (rng() & 0x8000u) | (1u + rng() % 0x3FFu)));
    } else {
      x[i] = half_t((static_cast<float>(rng() % 4000u) - 2000.0f) / 128.0f);
    }
  }
  return x;
}

// The flat train path of spmm_halfgnn against its profiled per-access
// path, on both SIMD paths: ragged (42, 130), padded (48) and multi-chunk
// (72, 128, 130) widths, every reduce and scale mode, with and without edge
// weights, three warp segment sizes and the atomic ablation, on exact-size
// allocations with and without special values. The graph plants the cases
// the flat CTA's row walk and merge must get right:
//  * long rows (65-100 edges) between short ones, some interior to a
//    128-edge warp segment, which the flat path stores straight into Y;
//  * a degree-700 hub, the last row of consecutive CTAs (follow-up merge)
//    and the only row of whole warp segments (r0 == r1);
//  * isolated vertices whose CSR offsets fall inside warp segments;
//  * a row that starts a warp segment and ends inside it, whose
//    discretized mean partial is -0: its merge is a one-slot run, and the
//    identity combine must turn the -0 into +0.
TEST_F(SimdAvx2, SpmmHalfgnnIdenticalAcrossPaths) {
  constexpr vid_t kBase = 400;
  constexpr vid_t kHub = 200;
  Rng gen_rng(11);
  Coo raw = erdos_renyi(kBase, 2500, gen_rng);
  plant_hubs(raw, 2, 120, gen_rng);
  for (int i = 0; i < 8; ++i) {
    const vid_t v = 100 + 37 * i;
    for (int d = 0; d < 65 + 5 * i; ++d) {
      raw.row.push_back(v);
      raw.col.push_back(static_cast<vid_t>(gen_rng.next_below(kBase)));
    }
  }
  // Isolated vertices among the others: drop every edge of 25, 75, ...
  Coo kept;
  for (std::size_t e = 0; e < raw.row.size(); ++e) {
    if (raw.row[e] % 50 == 25) continue;
    kept.row.push_back(raw.row[e]);
    kept.col.push_back(raw.col[e]);
  }
  raw.row = std::move(kept.row);
  raw.col = std::move(kept.col);
  for (vid_t c = 0; c < 700; ++c) {
    raw.row.push_back(kHub);
    raw.col.push_back(c);
  }
  // Vertex kBase pads the edge count to a multiple of 256, so vertex
  // kBase + 1 starts a warp segment at every edges_per_warp. Its four
  // edges reach the last four vertices: three feature rows of +0 and one
  // of -2^-24 (planted below), so its sum is -2^-24 and its mean -0.
  raw.num_vertices = kBase;
  const eid_t base_edges = coo_to_csr(raw).num_edges();
  const vid_t n_vertices = 720;
  const vid_t tiny = kBase + 1;
  for (eid_t i = 0; i < (256 - base_edges % 256) % 256; ++i) {
    raw.row.push_back(kBase);
    raw.col.push_back(static_cast<vid_t>(i));
  }
  for (vid_t c = n_vertices - 4; c < n_vertices; ++c) {
    raw.row.push_back(tiny);
    raw.col.push_back(c);
  }
  for (vid_t v = tiny + 1; v < tiny + 9; ++v) {  // rows after it in its CTA
    for (int d = 0; d < 40; ++d) {
      raw.row.push_back(v);
      raw.col.push_back(static_cast<vid_t>(gen_rng.next_below(kBase)));
    }
  }
  raw.num_vertices = n_vertices;  // isolated vertices at the end too
  const Csr csr = coo_to_csr(raw);
  const Coo coo = csr_to_coo(csr);
  const kernels::GraphView g = kernels::view(csr, coo);
  const auto n = static_cast<std::size_t>(csr.num_vertices);
  const auto m = coo.row.size();
  const auto em = static_cast<eid_t>(m);
  const auto off = [&](vid_t v) {
    return csr.offsets[static_cast<std::size_t>(v)];
  };
  const auto row_at = [&](eid_t e) {
    return coo.row[static_cast<std::size_t>(e)];
  };

  // Coverage. A row longer than 64 edges lies strictly inside one 128-edge
  // warp segment.
  bool long_interior = false;
  for (vid_t r = 0; r < csr.num_vertices; ++r) {
    const eid_t b = off(r);
    const eid_t e = off(r + 1);
    long_interior |= e - b > 64 && b % 128 != 0 && e % 128 != 0 &&
                     e < em && b / 128 == (e - 1) / 128;
  }
  ASSERT_TRUE(long_interior);
  // At edges_per_warp 64 (256-edge CTAs) one row is the last row of two
  // consecutive CTAs.
  bool multi_cta_last = false;
  for (eid_t c = 1; (c + 1) * 256 <= em; ++c) {
    multi_cta_last |= row_at(c * 256 - 1) == row_at((c + 1) * 256 - 1);
  }
  ASSERT_TRUE(multi_cta_last);
  ASSERT_EQ(csr.degree(tiny), 4);
  for (const eid_t epw : {64, 128, 256}) {
    // A warp segment inside one row.
    bool one_row_segment = false;
    for (eid_t e0 = 0; e0 + epw <= em; e0 += epw) {
      one_row_segment |= row_at(e0) == row_at(e0 + epw - 1);
    }
    ASSERT_TRUE(one_row_segment) << epw;
    // An isolated vertex whose offset falls inside a warp segment.
    bool inner_isolated = false;
    for (vid_t v = 0; v < csr.num_vertices; ++v) {
      inner_isolated |=
          off(v) == off(v + 1) && off(v) % epw != 0 && off(v) < em;
    }
    ASSERT_TRUE(inner_isolated) << epw;
    // The tiny row starts a warp segment (and, with four edges, ends
    // inside it), and is not its CTA's last row: its partial merges into
    // Y, not into the staging row.
    const eid_t cta_end =
        std::min(em, (off(tiny) / (4 * epw) + 1) * 4 * epw);
    ASSERT_EQ(off(tiny) % epw, 0) << epw;
    ASSERT_NE(row_at(cta_end - 1), tiny) << epw;
  }

  Device dev(a100_spec());
  Stream stream(dev);
  std::mt19937 rng(0x5B33u);
  struct Mode {
    kernels::Reduce reduce;
    kernels::ScaleMode scale;
    const char* name;
  };
  constexpr Mode kModes[] = {
      {kernels::Reduce::kSum, kernels::ScaleMode::kDiscretized, "sum"},
      {kernels::Reduce::kMax, kernels::ScaleMode::kDiscretized, "max"},
      {kernels::Reduce::kMean, kernels::ScaleMode::kDiscretized, "mean"},
      {kernels::Reduce::kMean, kernels::ScaleMode::kPre, "mean-pre"},
      {kernels::Reduce::kMean, kernels::ScaleMode::kPost, "mean-post"}};
  for (const bool specials : {false, true}) {
    const AlignedVec<half_t> wh = make_features(m, 1, rng, specials);
    for (const int feat : {42, 48, 64, 72, 128, 130}) {
      AlignedVec<half_t> x = make_features(n, feat, rng, specials);
      const auto f = static_cast<std::size_t>(feat);
      std::fill(x.end() - static_cast<std::ptrdiff_t>(4 * f), x.end(),
                half_t(0.0f));
      std::fill(x.end() - static_cast<std::ptrdiff_t>(f), x.end(),
                half_t::from_bits(0x8001));
      {
        // The tiny row's discretized mean partial: -0 in every lane.
        std::vector<half2> part(f / 2);
        const auto x2 = as_vec<half2>(std::span<const half_t>(x));
        simd::scalar::h2_spmm_run(part.data(), x2.data(),
                                  coo.col.data() + off(tiny), nullptr,
                                  half2(1.0f, 1.0f),
                                  half2::broadcast(half_t(0.25f)), feat / 2,
                                  4, simd::kFromIdentity | simd::kHasScale);
        for (const half2 v : part) {
          ASSERT_EQ(v.lo.bits(), 0x8000u);
          ASSERT_EQ(v.hi.bits(), 0x8000u);
        }
      }
      for (const int epw : {64, 128, 256}) {
        for (const Mode& mode : kModes) {
          for (const bool has_w : {false, true}) {
            for (const bool atomic : {false, true}) {
              kernels::HalfgnnSpmmOpts opts;
              opts.reduce = mode.reduce;
              opts.scale = mode.scale;
              opts.edges_per_warp = epw;
              opts.atomic_writes = atomic;
              const std::string what =
                  std::string("spmm_halfgnn ") + mode.name + " feat " +
                  std::to_string(feat) + " epw " + std::to_string(epw) +
                  (has_w ? " weights" : "") + (atomic ? " atomic" : "") +
                  (specials ? " specials" : "");
              run_both_paths_and_compare(
                  what.c_str(),
                  [&](bool profiled, std::vector<std::uint16_t>& out_bits) {
                    AlignedVec<half_t> y(n * static_cast<std::size_t>(feat));
                    const auto ks = kernels::spmm_halfgnn(
                        stream, profiled, g,
                        has_w ? std::span<const half_t>(wh)
                              : std::span<const half_t>(),
                        x, y, feat, opts);
                    out_bits = bits_of(y);
                    return ks;
                  });
            }
          }
        }
      }
    }
  }
}

// Every vector width over feature widths with padded lanes (48), 1 to 32
// sub-warps and more than one chunk (72 at half2, 264 at half8). Each row
// is an exact-size allocation: the last row ends where the buffer does.
TEST_F(SimdAvx2, SddmmHalfgnnIdenticalAcrossPaths) {
  KernelFixture f;
  Device dev(a100_spec());
  Stream stream(dev);
  const auto n = static_cast<std::size_t>(f.csr.num_vertices);
  std::mt19937 rng(0x5DDu);
  for (const bool specials : {false, true}) {
    for (const int feat : {8, 16, 48, 64, 72, 264}) {
      const AlignedVec<half_t> a = make_features(n, feat, rng, specials);
      const AlignedVec<half_t> b = make_features(n, feat, rng, specials);
      for (const auto vec : {kernels::SddmmVec::kHalf2,
                             kernels::SddmmVec::kHalf4,
                             kernels::SddmmVec::kHalf8}) {
        const std::string what = "sddmm_halfgnn h" +
                                 std::to_string(static_cast<int>(vec)) +
                                 " feat " + std::to_string(feat) +
                                 (specials ? " specials" : "");
        run_both_paths_and_compare(
            what.c_str(),
            [&](bool profiled, std::vector<std::uint16_t>& out_bits) {
              AlignedVec<half_t> e(static_cast<std::size_t>(f.coo.row.size()));
              const auto ks = kernels::sddmm_halfgnn(stream, profiled, f.g, a,
                                                     b, e, feat, vec);
              out_bits = bits_of(e);
              return ks;
            });
      }
    }
  }
}

// Sum and max over the hub rows (degree > 32) and the empty rows, f16 and
// f32, with and without special values.
TEST_F(SimdAvx2, SegReduceIdenticalAcrossPaths) {
  KernelFixture f;
  Device dev(a100_spec());
  Stream stream(dev);
  std::mt19937 rng(0x5E6u);
  const std::size_t m = f.coo.row.size();
  const auto n = static_cast<std::size_t>(f.csr.num_vertices);
  for (const bool specials : {false, true}) {
    AlignedVec<half_t> vh(m);
    AlignedVec<float> vf(m);
    for (std::size_t e = 0; e < m; ++e) {
      vh[e] = specials && e % 29 == 0 ? random_half(rng) : f.wh[e];
      vf[e] = specials && e % 29 == 0 ? random_special_float(rng)
                                      : f.wh[e].to_float() * 1e3f;
    }
    for (const auto red :
         {kernels::SegReduce::kSum, kernels::SegReduce::kMax}) {
      const std::string tag = std::string(red == kernels::SegReduce::kSum
                                              ? " sum"
                                              : " max") +
                              (specials ? " specials" : "");
      run_both_paths_and_compare(
          ("edge_segreduce_f16" + tag).c_str(),
          [&](bool profiled, std::vector<std::uint16_t>& out_bits) {
            AlignedVec<half_t> r(n);
            const auto ks = kernels::edge_segment_reduce_f16(
                stream, profiled, f.g, vh, r, red);
            out_bits = bits_of(r);
            return ks;
          });
      run_both_paths_and_compare(
          ("edge_segreduce_f32" + tag).c_str(),
          [&](bool profiled, std::vector<std::uint16_t>& out_bits) {
            AlignedVec<float> r(n);
            const auto ks = kernels::edge_segment_reduce_f32(
                stream, profiled, f.g, vf, r, red);
            out_bits = bits_of(std::span<const float>(r));
            return ks;
          });
    }
  }
}

TEST_F(SimdAvx2, EdgeSoftmaxIdenticalAcrossPaths) {
  KernelFixture f;
  Device dev(a100_spec());
  Stream stream(dev);
  run_both_paths_and_compare(
      "edge_softmax_f16",
      [&](bool profiled, std::vector<std::uint16_t>& out_bits) {
        AlignedVec<half_t> e(static_cast<std::size_t>(f.coo.row.size()));
        for (std::size_t i = 0; i < e.size(); ++i) {
          e[i] = f.wh[i % f.wh.size()];
        }
        AlignedVec<half_t> r(static_cast<std::size_t>(f.csr.num_vertices));
        auto ks = kernels::edge_segment_reduce_f16(stream, profiled, f.g, e,
                                                   r, kernels::SegReduce::kMax);
        ks += kernels::edge_exp_sub_row_f16(stream, profiled, f.g, e, r, e);
        ks += kernels::edge_segment_reduce_f16(stream, profiled, f.g, e, r,
                                               kernels::SegReduce::kSum);
        ks += kernels::edge_div_row_f16(stream, profiled, f.g, e, r, e);
        out_bits = bits_of(e);
        return ks;
      });
}

// Every edge-parallel op, f16 and f32, over special values, with the
// in-place exp_sub_row(e, r, e) the softmax chain uses.
template <class T>
void edge_ops_case(const KernelFixture& f, Stream& stream, std::mt19937& rng,
                   const char* what) {
  const std::size_t m = f.coo.row.size();
  const auto n = static_cast<std::size_t>(f.csr.num_vertices);
  const auto value = [&](std::size_t i) -> T {
    if constexpr (std::is_same_v<T, half_t>) {
      return i % 23 == 0 ? random_half(rng) : f.wh[i % f.wh.size()];
    } else {
      return i % 23 == 0 ? random_special_float(rng)
                         : f.wh[i % f.wh.size()].to_float();
    }
  };
  AlignedVec<T> el(n), er(n), d(m), gr(m);
  for (std::size_t i = 0; i < n; ++i) {
    el[i] = value(i);
    er[i] = value(i + 7);
  }
  for (std::size_t e = 0; e < m; ++e) {
    d[e] = value(e + 3);
    gr[e] = value(e + 11);
  }
  std::vector<eid_t> perm(m);
  for (std::size_t e = 0; e < m; ++e) perm[e] = static_cast<eid_t>(e);
  std::shuffle(perm.begin(), perm.end(), rng);

  run_both_paths_and_compare(
      what, [&](bool profiled, std::vector<std::uint16_t>& out_bits) {
        constexpr bool kHalf = std::is_same_v<T, half_t>;
        const auto op = [&](auto f16, auto f32, auto&&... args) {
          if constexpr (kHalf) {
            return f16(stream, profiled, args...);
          } else {
            return f32(stream, profiled, args...);
          }
        };
        AlignedVec<T> s(m), r(n), a(m), t(m), c(n), ds(m), lb(m), pm(m);
        auto ks = op(kernels::edge_add_scalars_f16,
                     kernels::edge_add_scalars_f32, f.g,
                     std::span<const T>(el), std::span<const T>(er),
                     std::span<T>(s), 0.2f);
        AlignedVec<T> e = s;
        ks += op(kernels::edge_segment_reduce_f16,
                 kernels::edge_segment_reduce_f32, f.g, std::span<const T>(e),
                 std::span<T>(r), kernels::SegReduce::kMax);
        ks += op(kernels::edge_exp_sub_row_f16, kernels::edge_exp_sub_row_f32,
                 f.g, std::span<const T>(e), std::span<const T>(r),
                 std::span<T>(e));
        ks += op(kernels::edge_div_row_f16, kernels::edge_div_row_f32, f.g,
                 std::span<const T>(e), std::span<const T>(el),
                 std::span<T>(a));
        ks += op(kernels::edge_mul_f16, kernels::edge_mul_f32,
                 std::span<const T>(a), std::span<const T>(d),
                 std::span<T>(t));
        ks += op(kernels::edge_softmax_backward_f16,
                 kernels::edge_softmax_backward_f32, f.g,
                 std::span<const T>(a), std::span<const T>(d),
                 std::span<const T>(er), std::span<T>(ds));
        ks += op(kernels::edge_leaky_backward_f16,
                 kernels::edge_leaky_backward_f32, std::span<const T>(s),
                 std::span<const T>(gr), std::span<T>(lb), 0.2f);
        ks += op(kernels::edge_permute_f16, kernels::edge_permute_f32,
                 std::span<const T>(gr), std::span<const eid_t>(perm),
                 std::span<T>(pm));
        out_bits.clear();
        for (const AlignedVec<T>* v : {&s, &r, &e, &a, &t, &ds, &lb, &pm}) {
          const auto b = bits_of(std::span<const T>(*v));
          out_bits.insert(out_bits.end(), b.begin(), b.end());
        }
        return ks;
      });
}

TEST_F(SimdAvx2, EdgeOpsIdenticalAcrossPaths) {
  KernelFixture f;
  Device dev(a100_spec());
  Stream stream(dev);
  std::mt19937 rng(0xED6Eu);
  edge_ops_case<half_t>(f, stream, rng, "edge ops f16");
  edge_ops_case<float>(f, stream, rng, "edge ops f32");
}

}  // namespace
}  // namespace hg::simt
