// Exhaustive tests for the batched half<->float conversions behind the
// SIMD dispatch table (simt/simd.hpp).
//
// The F16C path uses vcvtph2ps / vcvtps2ph; the IEEE contract is that both
// are exactly the software conversions this repo ships (RNE, payload-
// preserving where our scalar path preserves payloads). h2f is verified
// over all 2^16 half bit patterns; f2h over a dense sweep of the float
// values whose rounding is interesting (every half value, every half
// midpoint, the overflow/underflow boundaries) plus a large random sample
// of raw float bits. Bit-compared against the scalar reference, not
// value-compared, so NaN payloads and signed zeros count.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "half/half.hpp"
#include "simt/simd.hpp"
#include "tier_test.hpp"

namespace hg {
namespace {

namespace simd = simt::simd;

// Each test runs once per vector tier.
using CvtBatch = tier_test::Tier<simd::Path::kAvx2>;
using CvtBatchAvx512 = tier_test::Tier<simd::Path::kAvx512>;

HG_TIER_TEST(CvtBatch, CvtBatchAvx512, H2FExhaustiveAllBitPatterns) {
  // Every one of the 65536 half values through one vectorized batch, in
  // order, bit-compared against the scalar table-based reference.
  std::vector<std::uint16_t> in(65536);
  for (std::uint32_t b = 0; b < 65536; ++b) {
    in[b] = static_cast<std::uint16_t>(b);
  }
  std::vector<float> ref(in.size());
  std::vector<float> got(in.size());
  simd::scalar::cvt_h2f(in.data(), ref.data(), static_cast<int>(in.size()));
  simd::ops().cvt_h2f(in.data(), got.data(), static_cast<int>(in.size()));
  for (std::size_t i = 0; i < in.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(ref[i]))
        << "half bits 0x" << std::hex << in[i];
  }
  // Spot-check the scalar reference itself against the value-level
  // conversion so the batch test can't be vacuously self-consistent.
  EXPECT_EQ(ref[0x3C00], 1.0f);
  EXPECT_EQ(ref[0xC000], -2.0f);
  EXPECT_TRUE(std::isinf(ref[0x7C00]));
  EXPECT_TRUE(std::isnan(ref[0x7E00]));
}

HG_TIER_TEST(CvtBatch, CvtBatchAvx512, F2HDenseRoundToNearestEvenSweep) {
  // The floats whose RNE rounding is delicate: every exact half value,
  // every midpoint between adjacent halves (ties-to-even), and a nudge to
  // either side of each midpoint. ~4 floats per half value, all 2^16 of
  // them, through one vectorized batch per class.
  std::vector<float> in;
  in.reserve(65536 * 4);
  for (std::uint32_t b = 0; b < 65536; ++b) {
    const auto h = static_cast<std::uint16_t>(b);
    const float f = half_bits_to_float(h);
    in.push_back(f);  // exact (NaNs included: payload propagation)
    if ((h & 0x7C00u) == 0x7C00u) continue;  // Inf/NaN have no neighbors
    const auto next = static_cast<std::uint16_t>(h + 1);
    if ((next & 0x7C00u) == 0x7C00u) continue;
    const float g = half_bits_to_float(next);
    if (!std::isfinite(g)) continue;
    const float mid = (f + g) / 2.0f;  // exact in float for half neighbors
    in.push_back(mid);
    in.push_back(std::nextafter(mid, f));
    in.push_back(std::nextafter(mid, g));
  }
  // Overflow/underflow boundaries (Sec. 2.2 of the paper).
  for (const float f : {65504.0f, 65519.0f, 65520.0f, 70000.0f, -70000.0f,
                        std::ldexp(1.0f, -25), std::ldexp(1.0f, -25) * 1.0001f,
                        1e-9f, -1e-9f,
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity()}) {
    in.push_back(f);
  }

  std::vector<std::uint16_t> ref(in.size());
  std::vector<std::uint16_t> got(in.size());
  simd::scalar::cvt_f2h(in.data(), ref.data(), static_cast<int>(in.size()));
  simd::ops().cvt_f2h(in.data(), got.data(), static_cast<int>(in.size()));
  for (std::size_t i = 0; i < in.size(); ++i) {
    ASSERT_EQ(got[i], ref[i])
        << "float " << in[i] << " (bits 0x" << std::hex
        << std::bit_cast<std::uint32_t>(in[i]) << ")";
  }
}

HG_TIER_TEST(CvtBatch, CvtBatchAvx512, F2HRandomFloatBits) {
  // A large random sample of raw float bit patterns — covers float
  // subnormals, out-of-range exponents, and NaN payload classes the dense
  // sweep's half-derived values can't reach.
  std::mt19937 rng(0xF2Bu);
  std::vector<float> in(1 << 20);
  for (auto& f : in) {
    f = std::bit_cast<float>(static_cast<std::uint32_t>(rng()));
  }
  std::vector<std::uint16_t> ref(in.size());
  std::vector<std::uint16_t> got(in.size());
  simd::scalar::cvt_f2h(in.data(), ref.data(), static_cast<int>(in.size()));
  simd::ops().cvt_f2h(in.data(), got.data(), static_cast<int>(in.size()));
  for (std::size_t i = 0; i < in.size(); ++i) {
    ASSERT_EQ(got[i], ref[i])
        << "float bits 0x" << std::hex << std::bit_cast<std::uint32_t>(in[i]);
  }
}

}  // namespace
}  // namespace hg
