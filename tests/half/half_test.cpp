// Unit + property tests for the software binary16 implementation.
#include "half/half.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "util/rng.hpp"

namespace hg {
namespace {

TEST(HalfBits, KnownEncodings) {
  EXPECT_EQ(float_to_half_bits(0.0f), 0x0000u);
  EXPECT_EQ(float_to_half_bits(-0.0f), 0x8000u);
  EXPECT_EQ(float_to_half_bits(1.0f), 0x3C00u);
  EXPECT_EQ(float_to_half_bits(-1.0f), 0xBC00u);
  EXPECT_EQ(float_to_half_bits(2.0f), 0x4000u);
  EXPECT_EQ(float_to_half_bits(0.5f), 0x3800u);
  EXPECT_EQ(float_to_half_bits(65504.0f), 0x7BFFu);  // largest finite
  EXPECT_EQ(float_to_half_bits(6.103515625e-05f), 0x0400u);  // min normal
  EXPECT_EQ(float_to_half_bits(5.9604644775390625e-08f), 0x0001u);  // min sub
}

TEST(HalfBits, OverflowToInfinityAtThePaperBoundary) {
  // Sec. 2.2: anything above (2 - 2^-10) * 2^15 = 65504 overflows to INF.
  EXPECT_EQ(float_to_half_bits(65504.0f), 0x7BFFu);
  // 65519.996... still rounds down to 65504 under RNE; 65520 rounds to INF.
  EXPECT_EQ(float_to_half_bits(65519.0f), 0x7BFFu);
  EXPECT_EQ(float_to_half_bits(65520.0f), 0x7C00u);
  EXPECT_EQ(float_to_half_bits(70000.0f), 0x7C00u);
  EXPECT_EQ(float_to_half_bits(-70000.0f), 0xFC00u);
  EXPECT_EQ(float_to_half_bits(std::numeric_limits<float>::infinity()),
            0x7C00u);
}

TEST(HalfBits, UnderflowToZeroAndSubnormals) {
  // Below 2^-24 (with RNE, at or below 2^-25) everything flushes to zero.
  EXPECT_EQ(float_to_half_bits(1e-9f), 0x0000u);
  EXPECT_EQ(float_to_half_bits(-1e-9f), 0x8000u);
  // 2^-25 ties to even -> 0; just above 2^-25 rounds up to the min subnormal.
  EXPECT_EQ(float_to_half_bits(std::ldexp(1.0f, -25)), 0x0000u);
  EXPECT_EQ(float_to_half_bits(std::ldexp(1.0f, -25) * 1.0001f), 0x0001u);
  // Subnormal midpoint: 1.5 * 2^-24 ties to even -> 2 * 2^-24.
  EXPECT_EQ(float_to_half_bits(1.5f * std::ldexp(1.0f, -24)), 0x0002u);
}

TEST(HalfBits, NanPropagation) {
  const std::uint16_t q = float_to_half_bits(std::nanf(""));
  EXPECT_GT(q & 0x7FFFu, 0x7C00u);  // NaN, not Inf
  EXPECT_TRUE(std::isnan(half_bits_to_float(q)));
}

TEST(HalfBits, RoundTripAllBitPatternsExactly) {
  // Every half value converts to float and back to the identical bits
  // (NaNs keep their quietness; payloads are preserved by our conversion).
  for (std::uint32_t b = 0; b < 65536; ++b) {
    const auto h = static_cast<std::uint16_t>(b);
    const float f = half_bits_to_float(h);
    if ((h & 0x7FFFu) > 0x7C00u) {
      EXPECT_TRUE(std::isnan(f)) << std::hex << b;
      continue;
    }
    EXPECT_EQ(float_to_half_bits(f), h) << std::hex << b;
  }
}

TEST(HalfBits, FastTableMatchesReference) {
  for (std::uint32_t b = 0; b < 65536; ++b) {
    const auto h = static_cast<std::uint16_t>(b);
    const float a = half_bits_to_float(h);
    const float t = half_bits_to_float_fast(h);
    if (std::isnan(a)) {
      EXPECT_TRUE(std::isnan(t));
    } else {
      EXPECT_EQ(a, t) << std::hex << b;
    }
  }
}

TEST(HalfBits, RoundToNearestEvenProperty) {
  // For random floats in the normal half range, conversion must choose the
  // nearest representable half; ties go to the even mantissa.
  Rng rng(7);
  for (int i = 0; i < 200000; ++i) {
    const float f =
        static_cast<float>((rng.next_double() * 2 - 1) * 60000.0);
    const std::uint16_t h = float_to_half_bits(f);
    const float back = half_bits_to_float(h);
    if (std::abs(f) > 65504.0f) continue;  // overflow handled elsewhere
    // Neighboring half values:
    const float lo = half_bits_to_float(static_cast<std::uint16_t>(h - 1));
    const float hi = half_bits_to_float(static_cast<std::uint16_t>(h + 1));
    const float err = std::abs(back - f);
    if (std::isfinite(lo)) {
      EXPECT_LE(err, std::abs(lo - f) + 1e-30f);
    }
    if (std::isfinite(hi)) {
      EXPECT_LE(err, std::abs(hi - f) + 1e-30f);
    }
  }
}

TEST(HalfArith, BasicOps) {
  const half_t a(1.5f), b(2.25f);
  EXPECT_FLOAT_EQ((a + b).to_float(), 3.75f);
  EXPECT_FLOAT_EQ((a * b).to_float(), 3.375f);
  EXPECT_FLOAT_EQ((b - a).to_float(), 0.75f);
  EXPECT_FLOAT_EQ((-a).to_float(), -1.5f);
  EXPECT_FLOAT_EQ((b / a).to_float(), 1.5f);
}

TEST(HalfArith, EveryOpRoundsToHalfPrecision) {
  // 1 + 2^-11 is not representable: rounds back to 1 (RNE).
  const half_t one(1.0f);
  const half_t tiny(4.8828125e-4f);  // 2^-11
  EXPECT_EQ((one + tiny).bits(), one.bits());
  // But 1 + 2^-10 is exactly the next half after 1.
  const half_t ulp(9.765625e-4f);  // 2^-10
  EXPECT_EQ((one + ulp).bits(), 0x3C01u);
}

TEST(HalfArith, AdditionOverflowsToInfDuringReduction) {
  // The exact failure mode of Sec. 3.1.3: summing many same-sign values in
  // half precision hits INF once the running sum passes 65504.
  half_t acc(0.0f);
  const half_t v(100.0f);
  int steps_to_inf = 0;
  for (int i = 0; i < 5000; ++i) {
    acc += v;
    if (acc.is_inf()) {
      steps_to_inf = i + 1;
      break;
    }
  }
  EXPECT_GT(steps_to_inf, 0) << "reduction never overflowed";
  // Accumulation in half loses precision before it overflows, but INF must
  // appear by the time the true sum passes 65504 comfortably (here: ~656
  // exact steps; half rounding stalls the accumulator at large magnitudes,
  // so INF may arrive late or the accumulator may saturate below 65504 —
  // this asserts the INF actually arrives, which it does for v=100).
  EXPECT_LT(steps_to_inf, 1400);
}

TEST(HalfArith, InfMinusInfIsNan) {
  // Sec. 3.1.3: softmax on two INF produces NaN; the core identity is
  // INF - INF = NaN.
  const half_t inf = half_limits::kInf;
  EXPECT_TRUE((inf - inf).is_nan());
  EXPECT_TRUE((inf + half_limits::kNegInf).is_nan());
  EXPECT_TRUE((inf / inf).is_nan());
}

TEST(HalfArith, FmaSingleRounding) {
  // hfma keeps the unrounded product: (1+2^-10)(1-2^-10) - 1 = -2^-20,
  // which survives the single final rounding. Rounding the product first
  // loses the -2^-20 (1-2^-20 rounds to 1.0), so the two-step result is 0.
  const half_t a(1.0f + 0x1.0p-10f);
  const half_t b(1.0f - 0x1.0p-10f);
  const half_t c(-1.0f);
  EXPECT_FLOAT_EQ(hfma(a, b, c).to_float(), -0x1.0p-20f);
  EXPECT_FLOAT_EQ(((a * b) + c).to_float(), 0.0f);
}

TEST(HalfArith, ComparisonsAndClassification) {
  EXPECT_TRUE(half_t(1.0f) < half_t(2.0f));
  EXPECT_TRUE(half_t(-1.0f) < half_t(1.0f));
  EXPECT_FALSE(half_limits::kQuietNaN == half_limits::kQuietNaN);
  EXPECT_TRUE(half_limits::kInf.is_inf());
  EXPECT_FALSE(half_limits::kInf.is_nan());
  EXPECT_TRUE(half_limits::kQuietNaN.is_nan());
  EXPECT_TRUE(half_t(3.0f).is_finite());
  EXPECT_FALSE(half_limits::kNegInf.is_finite());
  EXPECT_TRUE(half_limits::kNegInf.signbit());
  EXPECT_EQ(hmax(half_t(1.0f), half_t(2.0f)).to_float(), 2.0f);
}

// Property sweep: half arithmetic must equal "compute in float, round once".
class HalfOpProperty : public ::testing::TestWithParam<int> {};

TEST_P(HalfOpProperty, MatchesFloatThenRound) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 20000; ++i) {
    const float fa = static_cast<float>((rng.next_double() * 2 - 1) * 300.0);
    const float fb = static_cast<float>((rng.next_double() * 2 - 1) * 300.0);
    const half_t a(fa), b(fb);
    EXPECT_EQ((a + b).bits(),
              float_to_half_bits(a.to_float() + b.to_float()));
    EXPECT_EQ((a * b).bits(),
              float_to_half_bits(a.to_float() * b.to_float()));
    if (b.to_float() != 0.0f) {
      EXPECT_EQ((a / b).bits(),
                float_to_half_bits(a.to_float() / b.to_float()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HalfOpProperty, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace hg
