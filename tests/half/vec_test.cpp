// Tests for half2 / half4 / half8 vector types (paper Sec. 4, 5.1.2).
#include "half/vec.hpp"

#include <gtest/gtest.h>

#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace hg {
namespace {

TEST(Half2, PackedArithmeticIsElementwise) {
  const half2 a(1.0f, 2.0f), b(3.0f, 4.0f), c(0.5f, 0.25f);
  const half2 s = h2add(a, b);
  EXPECT_FLOAT_EQ(s.lo.to_float(), 4.0f);
  EXPECT_FLOAT_EQ(s.hi.to_float(), 6.0f);
  const half2 m = h2mul(a, b);
  EXPECT_FLOAT_EQ(m.lo.to_float(), 3.0f);
  EXPECT_FLOAT_EQ(m.hi.to_float(), 8.0f);
  const half2 f = h2fma(a, b, c);
  EXPECT_FLOAT_EQ(f.lo.to_float(), 3.5f);
  EXPECT_FLOAT_EQ(f.hi.to_float(), 8.25f);
  const half2 mx = h2max(a, half2(0.0f, 9.0f));
  EXPECT_FLOAT_EQ(mx.lo.to_float(), 1.0f);
  EXPECT_FLOAT_EQ(mx.hi.to_float(), 9.0f);
  const half2 d = h2div(b, a);
  EXPECT_FLOAT_EQ(d.lo.to_float(), 3.0f);
  EXPECT_FLOAT_EQ(d.hi.to_float(), 2.0f);
}

TEST(Half2, MirroringSplitsAPackedEdgePair) {
  // Sec. 4.2: a loaded half2 edge pair {w21, w23} must become the two
  // broadcast pairs {w21,w21} and {w23,w23} before the dot product.
  const half2 packed(7.0f, 11.0f);
  const half2 m0 = mirror_lo(packed);
  const half2 m1 = mirror_hi(packed);
  EXPECT_EQ(m0.lo.bits(), m0.hi.bits());
  EXPECT_EQ(m1.lo.bits(), m1.hi.bits());
  EXPECT_FLOAT_EQ(m0.lo.to_float(), 7.0f);
  EXPECT_FLOAT_EQ(m1.lo.to_float(), 11.0f);
}

TEST(Half2, ReduceAddRoundsInHalf) {
  EXPECT_FLOAT_EQ(h2reduce_add(half2(1.5f, 2.5f)).to_float(), 4.0f);
  // Overflow inside the packed reduce behaves like scalar half addition.
  EXPECT_TRUE(h2reduce_add(half2(60000.0f, 60000.0f)).is_inf());
}

TEST(Half4Half8, ArithmeticLowersToHalf2Exactly) {
  Rng rng(99);
  for (int rep = 0; rep < 1000; ++rep) {
    half8 a{}, b{}, c{};
    for (int i = 0; i < 4; ++i) {
      a.h2[static_cast<std::size_t>(i)] =
          half2(rng.next_float() * 4 - 2, rng.next_float() * 4 - 2);
      b.h2[static_cast<std::size_t>(i)] =
          half2(rng.next_float() * 4 - 2, rng.next_float() * 4 - 2);
      c.h2[static_cast<std::size_t>(i)] =
          half2(rng.next_float() * 4 - 2, rng.next_float() * 4 - 2);
    }
    const half8 r = h8fma(a, b, c);
    for (int i = 0; i < 4; ++i) {
      const half2 expect = h2fma(a.h2[static_cast<std::size_t>(i)],
                                 b.h2[static_cast<std::size_t>(i)],
                                 c.h2[static_cast<std::size_t>(i)]);
      EXPECT_EQ(r.h2[static_cast<std::size_t>(i)].lo.bits(), expect.lo.bits());
      EXPECT_EQ(r.h2[static_cast<std::size_t>(i)].hi.bits(), expect.hi.bits());
    }
    const half4 r4 = h4fma(half4{{{a.h2[0], a.h2[1]}}},
                           half4{{{b.h2[0], b.h2[1]}}},
                           half4{{{c.h2[0], c.h2[1]}}});
    EXPECT_EQ(r4.h2[0].lo.bits(), r.h2[0].lo.bits());
    EXPECT_EQ(r4.h2[1].hi.bits(), r.h2[1].hi.bits());
  }
}

TEST(VecLoads, TypedLoadsReadTheRightLanes) {
  AlignedVec<half_t> buf(32);
  for (int i = 0; i < 32; ++i) buf[static_cast<std::size_t>(i)] = half_t(i);

  const half2 v2 = load_half2(buf.data() + 4);
  EXPECT_FLOAT_EQ(v2.lo.to_float(), 4.0f);
  EXPECT_FLOAT_EQ(v2.hi.to_float(), 5.0f);

  const half4 v4 = load_half4(buf.data() + 8);
  EXPECT_FLOAT_EQ(v4.h2[0].lo.to_float(), 8.0f);
  EXPECT_FLOAT_EQ(v4.h2[1].hi.to_float(), 11.0f);

  const half8 v8 = load_half8(buf.data() + 16);
  EXPECT_FLOAT_EQ(v8.h2[0].lo.to_float(), 16.0f);
  EXPECT_FLOAT_EQ(v8.h2[3].hi.to_float(), 23.0f);
}

TEST(VecLoads, SizesMatchGpuContracts) {
  // Sec. 2.2 / 5.1.2: half2 = 32 bits, half4 rides float2 (64), half8 rides
  // float4 (128).
  EXPECT_EQ(sizeof(half2), sizeof(float) / 1);
  EXPECT_EQ(sizeof(half4), sizeof(float2));
  EXPECT_EQ(sizeof(half8), sizeof(float4));
}

}  // namespace
}  // namespace hg
