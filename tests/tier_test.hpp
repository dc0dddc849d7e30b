// One gtest fixture per SIMD tier (simt/simd.hpp): a test body runs with
// that tier active, and the process path is restored after it. A tier that
// set_path refuses (not in this build, or not on this CPU) skips the test
// with a message naming the tier.
#pragma once

#include <gtest/gtest.h>

#include "simt/simd.hpp"

namespace hg::tier_test {

template <simt::simd::Path P>
class Tier : public ::testing::Test {
 protected:
  void SetUp() override {
    prev_ = simt::simd::active_path();
    if (!simt::simd::set_path(P)) {
      GTEST_SKIP() << "the " << simt::simd::path_name(P)
                   << " tier is unavailable in this build/CPU";
    }
  }
  void TearDown() override { simt::simd::set_path(prev_); }

 private:
  simt::simd::Path prev_ = simt::simd::Path::kScalar;
};

}  // namespace hg::tier_test

// Registers one body as test Name of both vector-tier suites: Avx2Suite
// and Avx512Suite, aliases of Tier<kAvx2> and Tier<kAvx512>. The body
// follows the macro like a test body.
#define HG_TIER_TEST(Avx2Suite, Avx512Suite, Name) \
  void Name##Body();                               \
  TEST_F(Avx2Suite, Name) { Name##Body(); }        \
  TEST_F(Avx512Suite, Name) { Name##Body(); }      \
  void Name##Body()
