// Direct tests for the edge kernels used by GAT's backward pass (they are
// also covered indirectly by the GAT finite-difference gradient check).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "graph/generators.hpp"
#include "kernels/edge_ops.hpp"
#include "simt/simd.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace hg::kernels {
namespace {

struct TestGraph {
  Csr csr;
  Coo coo;
  GraphView g;
};

TestGraph make_er(vid_t n, eid_t m, Rng& rng) {
  TestGraph t;
  t.csr = symmetrize(coo_to_csr(erdos_renyi(n, m, rng)));
  t.coo = csr_to_coo(t.csr);
  t.g = view(t.csr, t.coo);
  return t;
}

TEST(EdgeBackward, SoftmaxBackwardMatchesFormula) {
  Rng rng(1);
  const TestGraph t = make_er(200, 900, rng);
  const auto me = static_cast<std::size_t>(t.csr.num_edges());
  const auto nv = static_cast<std::size_t>(t.csr.num_vertices);
  std::vector<float> alpha(me), dalpha(me), c(nv);
  for (auto& v : alpha) v = rng.next_float();
  for (auto& v : dalpha) v = rng.next_float() * 2 - 1;
  for (auto& v : c) v = rng.next_float();

  AlignedVec<float> out(me);
  edge_softmax_backward_f32(simt::default_stream(), false, t.g, alpha, dalpha, c,
                            out);
  for (eid_t e = 0; e < t.csr.num_edges(); ++e) {
    const auto eu = static_cast<std::size_t>(e);
    const auto r = static_cast<std::size_t>(t.coo.row[eu]);
    ASSERT_NEAR(out[eu], alpha[eu] * (dalpha[eu] - c[r]), 1e-5) << e;
  }
}

// When both operands of a product or sum are NaN, the payload that wins is
// the one the historical lane loops compiled to (DESIGN.md Sec. 13): the
// first operand, except the f32 softmax backward (the difference dalpha - c)
// and bf16 mul (the second). Every dtype, both modes, both SIMD paths.
template <class T>
T quiet_nan(std::uint32_t p) {
  if constexpr (std::is_same_v<T, float>) {
    return std::bit_cast<float>(0x7FC00000u | (p << 16));
  } else if constexpr (std::is_same_v<T, half_t>) {
    return half_t::from_bits(static_cast<std::uint16_t>(0x7E00u | p));
  } else {
    return bf16_t::from_bits(static_cast<std::uint16_t>(0x7FC0u | p));
  }
}

template <class T>
void expect_payloads(const TestGraph& t, bool profiled) {
  const auto me = static_cast<std::size_t>(t.csr.num_edges());
  const auto nv = static_cast<std::size_t>(t.csr.num_vertices);
  constexpr bool kF32 = std::is_same_v<T, float>;
  constexpr bool kBf16 = std::is_same_v<T, bf16_t>;
  AlignedVec<T> x(me), y(me), vx(nv), vy(nv), zero(nv);
  std::fill(x.begin(), x.end(), quiet_nan<T>(0x11));
  std::fill(y.begin(), y.end(), quiet_nan<T>(0x22));
  std::fill(vx.begin(), vx.end(), quiet_nan<T>(0x11));
  std::fill(vy.begin(), vy.end(), quiet_nan<T>(0x22));
  auto& s = simt::default_stream();
  AlignedVec<T> out(me);
  const auto bits = [](T v) {
    std::uint32_t b = 0;
    std::memcpy(&b, &v, sizeof(T));
    return b;
  };
  const auto expect_all = [&](T want, const char* what) {
    for (std::size_t e = 0; e < me; ++e) {
      ASSERT_EQ(bits(out[e]), bits(want))
          << what << " edge " << e << " profiled " << profiled;
    }
  };
  if constexpr (kF32) {
    edge_mul_f32(s, profiled, x, y, out);
    expect_all(x[0], "mul f32");
    edge_softmax_backward_f32(s, profiled, t.g, x, y, zero, out);
    expect_all(y[0], "softmax_backward f32");
    edge_add_scalars_f32(s, profiled, t.g, vx, vy, out, 0.2f);
    expect_all(x[0], "add_scalars f32");
  } else if constexpr (kBf16) {
    edge_mul_bf16(s, profiled, x, y, out);
    expect_all(y[0], "mul bf16");
    edge_softmax_backward_bf16(s, profiled, t.g, x, y, zero, out);
    expect_all(x[0], "softmax_backward bf16");
    edge_add_scalars_bf16(s, profiled, t.g, vx, vy, out, 0.2f);
    expect_all(x[0], "add_scalars bf16");
  } else {
    edge_mul_f16(s, profiled, x, y, out);
    expect_all(x[0], "mul f16");
    edge_softmax_backward_f16(s, profiled, t.g, x, y, zero, out);
    expect_all(x[0], "softmax_backward f16");
    edge_add_scalars_f16(s, profiled, t.g, vx, vy, out, 0.2f);
    expect_all(x[0], "add_scalars f16");
  }
}

TEST(EdgeBackward, PinnedOperandOrderPicksTheNanPayload) {
  Rng rng(4);
  const TestGraph t = make_er(150, 700, rng);
  const simt::simd::Path prev = simt::simd::active_path();
  for (const auto path : simt::simd::kPaths) {
    if (!simt::simd::set_path(path)) continue;
    for (const bool profiled : {true, false}) {
      expect_payloads<float>(t, profiled);
      expect_payloads<half_t>(t, profiled);
      expect_payloads<bf16_t>(t, profiled);
    }
  }
  simt::simd::set_path(prev);
}

TEST(EdgeBackward, LeakyBackwardUsesPreActivationSign) {
  Rng rng(2);
  std::vector<float> pre = {1.0f, -2.0f, 0.5f, -0.1f};
  std::vector<float> grad = {4.0f, 4.0f, -2.0f, -2.0f};
  AlignedVec<float> out(4);
  edge_leaky_backward_f32(simt::default_stream(), false, pre, grad, out, 0.25f);
  EXPECT_FLOAT_EQ(out[0], 4.0f);
  EXPECT_FLOAT_EQ(out[1], 1.0f);
  EXPECT_FLOAT_EQ(out[2], -2.0f);
  EXPECT_FLOAT_EQ(out[3], -0.5f);

  // Half flavor rounds through binary16.
  AlignedVec<half_t> preh(4), gradh(4), outh(4);
  for (int i = 0; i < 4; ++i) {
    preh[static_cast<std::size_t>(i)] = half_t(pre[static_cast<std::size_t>(i)]);
    gradh[static_cast<std::size_t>(i)] =
        half_t(grad[static_cast<std::size_t>(i)]);
  }
  edge_leaky_backward_f16(simt::default_stream(), false, preh, gradh, outh,
                          0.25f);
  EXPECT_FLOAT_EQ(outh[1].to_float(), 1.0f);
}

TEST(EdgeBackward, PermuteAppliesReverseEdgeMap) {
  Rng rng(3);
  const TestGraph t = make_er(150, 700, rng);
  const auto me = static_cast<std::size_t>(t.csr.num_edges());
  const auto perm = reverse_edge_permutation(t.csr);

  std::vector<float> vals(me);
  for (std::size_t e = 0; e < me; ++e) vals[e] = static_cast<float>(e);
  AlignedVec<float> out(me);
  edge_permute_f32(simt::default_stream(), false, vals, perm, out);
  for (std::size_t e = 0; e < me; ++e) {
    ASSERT_FLOAT_EQ(out[e], static_cast<float>(perm[e]));
  }
  // Permuting twice is the identity (the map is an involution).
  AlignedVec<float> back(me);
  edge_permute_f32(simt::default_stream(), false,
                   std::span<const float>(out.data(), out.size()), perm,
                   back);
  for (std::size_t e = 0; e < me; ++e) {
    ASSERT_FLOAT_EQ(back[e], static_cast<float>(e));
  }
}

TEST(EdgeBackward, ReversePermutationIsConsistentWithTopology) {
  Rng rng(4);
  const TestGraph t = make_er(100, 500, rng);
  const auto perm = reverse_edge_permutation(t.csr);
  for (eid_t e = 0; e < t.csr.num_edges(); ++e) {
    const auto eu = static_cast<std::size_t>(e);
    const auto re = static_cast<std::size_t>(perm[eu]);
    EXPECT_EQ(t.coo.row[eu], t.coo.col[re]);
    EXPECT_EQ(t.coo.col[eu], t.coo.row[re]);
    EXPECT_EQ(perm[re], e);  // involution
  }
}

TEST(EdgeBackward, LoadIlpHintReducesPipelineStall) {
  // The Sec. 5.1 mechanism in isolation: same loads, higher declared ILP,
  // proportionally less stall.
  auto& stream = simt::default_stream();
  AlignedVec<float> mem(32 * 16);
  auto run = [&](double ilp) {
    return stream.launch<true>(
        simt::LaunchDesc{"ilp", 1, 1},
        [&](simt::Cta<true>& cta) {
          cta.for_each_warp([&](simt::Warp<true>& w) {
            w.set_load_ilp(ilp);
            simt::Lanes<float> r{};
            for (int i = 0; i < 16; ++i) {
              w.load_contiguous<float>(mem, 32 * i, 32, r);
            }
          });
        });
  };
  const auto ilp1 = run(1.0);
  const auto ilp4 = run(4.0);
  // Subtract the one-time end-of-kernel latency drain both runs share.
  const double drain = simt::a100_spec().load_latency;
  EXPECT_NEAR(ilp1.stall_cycles - drain, 4.0 * (ilp4.stall_cycles - drain),
              1e-9);
  EXPECT_EQ(ilp1.bytes_moved, ilp4.bytes_moved);
}

}  // namespace
}  // namespace hg::kernels
