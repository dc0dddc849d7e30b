// Tests for the SIMT execution simulator: functional semantics and the
// cost-model properties the paper's performance arguments rely on.
#include "simt/simt.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <numeric>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "util/aligned.hpp"

namespace hg::simt {
namespace {

DeviceSpec test_spec() { return DeviceSpec{}; }

// Test-local shim over the Stream executor, mirroring the pre-executor free
// launch() so every cost-model test below also exercises Device/Stream.
struct TestCfg {
  int ctas = 1;
  int warps_per_cta = 4;
};

template <bool P, class Body>
KernelStats launch(const DeviceSpec& spec, const char* name, TestCfg cfg,
                   Body&& body) {
  Device dev(spec);
  Stream stream(dev);
  return stream.launch<P>(LaunchDesc{name, cfg.ctas, cfg.warps_per_cta},
                          std::forward<Body>(body));
}

// --- functional semantics ---------------------------------------------------

TEST(SimtFunctional, ContiguousLoadStoreRoundTrip) {
  AlignedVec<float> in(64), out(64, 0.0f);
  std::iota(in.begin(), in.end(), 0.0f);
  const DeviceSpec spec = test_spec();
  launch<false>(spec, "copy", {.ctas = 2, .warps_per_cta = 1},
                [&](Cta<false>& cta) {
                  cta.for_each_warp([&](Warp<false>& w) {
                    Lanes<float> r{};
                    const std::int64_t base = cta.cta_id() * 32;
                    w.load_contiguous<float>(in, base, 32, r);
                    w.store_contiguous<float>(out, base, 32, r);
                  });
                });
  EXPECT_EQ(std::vector<float>(in.begin(), in.end()),
            std::vector<float>(out.begin(), out.end()));
}

TEST(SimtFunctional, GatherScatterWithMask) {
  AlignedVec<float> mem(128, 1.0f);
  const DeviceSpec spec = test_spec();
  launch<false>(spec, "gs", {.ctas = 1, .warps_per_cta = 1},
                [&](Cta<false>& cta) {
                  cta.for_each_warp([&](Warp<false>& w) {
                    Lanes<std::int64_t> idx{};
                    for (int l = 0; l < 32; ++l) idx[l] = 4 * l;
                    Lanes<float> v{};
                    w.gather<float>(mem, idx, prefix_mask(16), v);
                    for (int l = 0; l < 16; ++l) v[l] += 1.0f;
                    w.scatter<float>(mem, idx, prefix_mask(16), v);
                  });
                });
  EXPECT_FLOAT_EQ(mem[0], 2.0f);
  EXPECT_FLOAT_EQ(mem[60], 2.0f);   // lane 15
  EXPECT_FLOAT_EQ(mem[64], 1.0f);   // lane 16 masked off
}

TEST(SimtFunctional, ButterflyReduceSumsEachSubWarpGroup) {
  const DeviceSpec spec = test_spec();
  Lanes<float> result{};
  launch<false>(spec, "reduce", {.ctas = 1, .warps_per_cta = 1},
                [&](Cta<false>& cta) {
                  cta.for_each_warp([&](Warp<false>& w) {
                    Lanes<float> v{};
                    for (int l = 0; l < 32; ++l) v[l] = static_cast<float>(l);
                    // Sub-warp width 8: 4 groups of 8 lanes.
                    w.butterfly_reduce(v, 8, kFullMask, Op::kFloatAlu,
                                       WarpCombine::kAdd);
                    result = v;
                  });
                });
  // Group 0 holds 0+..+7 = 28 in all of lanes 0..7; group 1 holds 36+..=92.
  for (int l = 0; l < 8; ++l) EXPECT_FLOAT_EQ(result[l], 28.0f);
  for (int l = 8; l < 16; ++l) EXPECT_FLOAT_EQ(result[l], 92.0f);
  for (int l = 24; l < 32; ++l) EXPECT_FLOAT_EQ(result[l], 220.0f);
}

TEST(SimtFunctional, AtomicAddHalfAccumulatesInHalfPrecision) {
  AlignedVec<half_t> mem(4, half_t(0.0f));
  const DeviceSpec spec = test_spec();
  launch<false>(spec, "atomic", {.ctas = 1, .warps_per_cta = 1},
                [&](Cta<false>& cta) {
                  cta.for_each_warp([&](Warp<false>& w) {
                    Lanes<std::int64_t> idx{};
                    Lanes<half_t> v{};
                    for (int l = 0; l < 32; ++l) {
                      idx[l] = l % 2;  // all lanes hit words 0/1
                      v[l] = half_t(1.0f);
                    }
                    w.atomic_add(std::span<half_t>(mem), idx, kFullMask, v);
                  });
                });
  EXPECT_FLOAT_EQ(mem[0].to_float(), 16.0f);
  EXPECT_FLOAT_EQ(mem[1].to_float(), 16.0f);
  EXPECT_FLOAT_EQ(mem[2].to_float(), 0.0f);
}

TEST(SimtFunctional, SharedMemoryPersistsAcrossPhases) {
  const DeviceSpec spec = test_spec();
  float out = 0;
  launch<false>(spec, "smem", {.ctas = 1, .warps_per_cta = 2},
                [&](Cta<false>& cta) {
                  auto s = cta.shared<float>(2);
                  cta.for_each_warp([&](Warp<false>& w) {
                    s[static_cast<std::size_t>(w.warp_in_cta())] =
                        static_cast<float>(w.warp_in_cta() + 1);
                  });
                  cta.barrier();
                  cta.for_each_warp([&](Warp<false>& w) {
                    if (w.warp_in_cta() == 0) out = s[0] + s[1];
                  });
                });
  EXPECT_FLOAT_EQ(out, 3.0f);
}

TEST(SimtFunctional, SharedMemoryCapacityIsEnforced) {
  const DeviceSpec spec = test_spec();
  EXPECT_THROW(
      launch<false>(spec, "too-much-smem", {.ctas = 1, .warps_per_cta = 1},
                    [&](Cta<false>& cta) {
                      (void)cta.shared<float>(300 * 1024);  // > 164 KB
                    }),
      std::runtime_error);
}

// --- cost model -------------------------------------------------------------

template <class F>
KernelStats run_one_warp(const DeviceSpec& spec, F&& f) {
  return launch<true>(spec, "probe", {.ctas = 1, .warps_per_cta = 1},
                      [&](Cta<true>& cta) {
                        cta.for_each_warp([&](Warp<true>& w) { f(w); });
                      });
}

TEST(SimtCost, CoalescedFloatWarpLoadIsFourSectors) {
  const DeviceSpec spec = test_spec();
  AlignedVec<float> mem(32);
  const KernelStats ks = run_one_warp(spec, [&](Warp<true>& w) {
    Lanes<float> r{};
    w.load_contiguous<float>(mem, 0, 32, r);
  });
  EXPECT_EQ(ks.ld_instrs, 1u);
  EXPECT_EQ(ks.sectors, 4u);  // 128 bytes = 4 x 32B
  EXPECT_EQ(ks.bytes_moved, 128u);
  EXPECT_EQ(ks.useful_bytes, 128u);
}

TEST(SimtCost, ScalarHalfWarpLoadWastesIssueBandwidth) {
  // Sec. 4.1: a warp of scalar half loads brings only 64 bytes -> 2 sectors
  // per instruction, half the coalescing of the float path.
  const DeviceSpec spec = test_spec();
  AlignedVec<half_t> mem(64);
  const KernelStats half_ks = run_one_warp(spec, [&](Warp<true>& w) {
    Lanes<half_t> r{};
    w.load_contiguous<half_t>(mem, 0, 32, r);
  });
  EXPECT_EQ(half_ks.sectors, 2u);
  EXPECT_EQ(half_ks.bytes_moved, 64u);

  // half2 restores the full 128-byte transaction.
  const auto mem2 = as_vec<half2>(std::span<const half_t>(mem));
  const KernelStats h2_ks = run_one_warp(spec, [&](Warp<true>& w) {
    Lanes<half2> r{};
    w.load_contiguous<half2>(mem2, 0, 32, r);
  });
  EXPECT_EQ(h2_ks.sectors, 4u);
  EXPECT_EQ(h2_ks.bytes_moved, 128u);
  EXPECT_EQ(h2_ks.ld_instrs, 1u);
}

TEST(SimtCost, StridedGatherTouchesMoreSectors) {
  const DeviceSpec spec = test_spec();
  AlignedVec<float> mem(32 * 16);
  const KernelStats ks = run_one_warp(spec, [&](Warp<true>& w) {
    Lanes<std::int64_t> idx{};
    for (int l = 0; l < 32; ++l) idx[l] = l * 16;  // one sector each
    Lanes<float> r{};
    w.gather<float>(mem, idx, kFullMask, r);
  });
  EXPECT_EQ(ks.sectors, 32u);
  EXPECT_EQ(ks.bytes_moved, 32u * 32u);
  EXPECT_EQ(ks.useful_bytes, 128u);  // only 4 of every 32 bytes used
}

TEST(SimtCost, PendingLoadLatencyIsExposedOncePerSync) {
  // Sec. 5.1.1: more loads in flight before the barrier => the fixed
  // latency is amortized. k loads + 1 sync must cost far less than
  // k x (load + sync).
  const DeviceSpec spec = test_spec();
  AlignedVec<float> mem(32 * 8);
  const KernelStats batched = run_one_warp(spec, [&](Warp<true>& w) {
    Lanes<float> r{};
    for (int i = 0; i < 8; ++i) w.load_contiguous<float>(mem, 32 * i, 32, r);
    w.sync();
  });
  const KernelStats serialized = run_one_warp(spec, [&](Warp<true>& w) {
    Lanes<float> r{};
    for (int i = 0; i < 8; ++i) {
      w.load_contiguous<float>(mem, 32 * i, 32, r);
      w.sync();
    }
  });
  // Both pay the per-load pipeline stall; the full latency is exposed once
  // per sync with pending loads.
  const double pipeline = 8 * spec.ld_pipeline_stall;
  EXPECT_NEAR(batched.stall_cycles, pipeline + spec.load_latency, 1e-9);
  EXPECT_NEAR(serialized.stall_cycles, pipeline + 8 * spec.load_latency,
              1e-9);
}

TEST(SimtCost, ArithmeticClassesFollowFig3) {
  const DeviceSpec spec = test_spec();
  // (a) naive half: pays conversion issues on top of the float op.
  const KernelStats naive =
      run_one_warp(spec, [&](Warp<true>& w) { w.alu(Op::kHalfNaive, 10); });
  // (b) intrinsic half: float-equal throughput.
  const KernelStats intrin =
      run_one_warp(spec, [&](Warp<true>& w) { w.alu(Op::kHalfIntrin, 10); });
  // (c) half2: one instruction, two lane-ops.
  const KernelStats h2 =
      run_one_warp(spec, [&](Warp<true>& w) { w.alu(Op::kHalf2, 10); });
  const KernelStats f32 =
      run_one_warp(spec, [&](Warp<true>& w) { w.alu(Op::kFloatAlu, 10); });

  EXPECT_GT(naive.warp_busy_cycles, 2 * intrin.warp_busy_cycles);
  EXPECT_DOUBLE_EQ(intrin.warp_busy_cycles, f32.warp_busy_cycles);
  EXPECT_DOUBLE_EQ(h2.warp_busy_cycles, f32.warp_busy_cycles);
  EXPECT_EQ(h2.lane_ops, 2 * f32.lane_ops);  // double throughput
}

TEST(SimtCost, HalfAtomicsCostMoreThanFloatAtomics) {
  const DeviceSpec spec = test_spec();
  AlignedVec<float> fmem(32);
  AlignedVec<half_t> hmem(32);
  Lanes<std::int64_t> idx{};
  for (int l = 0; l < 32; ++l) idx[l] = l;

  const KernelStats f = run_one_warp(spec, [&](Warp<true>& w) {
    Lanes<float> v{};
    w.atomic_add(std::span<float>(fmem), idx, kFullMask, v);
  });
  const KernelStats h = run_one_warp(spec, [&](Warp<true>& w) {
    Lanes<half_t> v{};
    w.atomic_add(std::span<half_t>(hmem), idx, kFullMask, v);
  });
  // Same access pattern; the half version pays the CAS-loop penalty AND
  // serializes pairs of lanes sharing a 32-bit word (stall time).
  EXPECT_GT(h.warp_busy_cycles + h.stall_cycles,
            3 * (f.warp_busy_cycles + f.stall_cycles));
  EXPECT_GT(h.atomic_serialized, f.atomic_serialized);
}

TEST(SimtCost, AtomicContentionSerializes) {
  const DeviceSpec spec = test_spec();
  AlignedVec<float> mem(32);
  Lanes<std::int64_t> spread{}, clash{};
  for (int l = 0; l < 32; ++l) {
    spread[l] = l;
    clash[l] = 0;  // all 32 lanes target one address
  }
  const KernelStats s = run_one_warp(spec, [&](Warp<true>& w) {
    Lanes<float> v{};
    w.atomic_add(std::span<float>(mem), spread, kFullMask, v);
  });
  const KernelStats c = run_one_warp(spec, [&](Warp<true>& w) {
    Lanes<float> v{};
    w.atomic_add(std::span<float>(mem), clash, kFullMask, v);
  });
  EXPECT_NEAR((c.warp_busy_cycles + c.stall_cycles) /
                  (s.warp_busy_cycles + s.stall_cycles),
              32.0, 1e-6);
  EXPECT_EQ(c.atomic_serialized, 31u);
}

// --- atomics, bit for bit ---------------------------------------------------
// Warp::atomic_add / atomic_max against a lane-serial RMW loop written here,
// on values that include NaN payloads, +-0, +-Inf and subnormals.
// Contiguous prefix targets take the SIMD entry on the vector path;
// scattered targets with duplicates take the per-lane loop. Both must match
// the loop bit for bit on every dispatch path and charge the same atomic
// counters.

std::uint16_t special_half_bits(std::mt19937& rng) {
  const auto sign = static_cast<std::uint16_t>(rng() & 0x8000u);
  switch (rng() % 6) {
    case 0:  // NaN with a random nonzero payload
      return static_cast<std::uint16_t>(sign | 0x7C00u | (rng() & 0x3FFu) | 1u);
    case 1:
      return static_cast<std::uint16_t>(sign | 0x7C00u);  // +-Inf
    case 2:
      return sign;  // +-0
    case 3:  // subnormal
      return static_cast<std::uint16_t>(sign | (rng() & 0x3FFu));
    default:
      return static_cast<std::uint16_t>(rng());
  }
}

template <class T>
T special_value(std::mt19937& rng) {
  if constexpr (std::is_same_v<T, float>) {
    const auto sign = static_cast<std::uint32_t>(rng() & 0x80000000u);
    const auto mant = static_cast<std::uint32_t>(rng() & 0x7FFFFFu);
    switch (rng() % 6) {
      case 0:  // NaN with a random nonzero payload
        return std::bit_cast<float>(sign | 0x7F800000u | mant | 1u);
      case 1:
        return std::bit_cast<float>(sign | 0x7F800000u);  // +-Inf
      case 2:
        return std::bit_cast<float>(sign);  // +-0
      case 3:
        return std::bit_cast<float>(sign | mant);  // subnormal
      case 4:
        return static_cast<float>(static_cast<int>(rng() % 2001) - 1000) /
               64.0f;
      default:
        return std::bit_cast<float>(static_cast<std::uint32_t>(rng()));
    }
  } else if constexpr (std::is_same_v<T, half_t>) {
    return half_t::from_bits(special_half_bits(rng));
  } else {
    return half2{half_t::from_bits(special_half_bits(rng)),
                 half_t::from_bits(special_half_bits(rng))};
  }
}

// The reference: one lane after another, read-modify-write.
template <class T>
T serial_rmw(WarpCombine k, T slot, T v) {
  if constexpr (std::is_same_v<T, half2>) {
    return half2{serial_rmw(k, slot.lo, v.lo), serial_rmw(k, slot.hi, v.hi)};
  } else if constexpr (std::is_same_v<T, float>) {
    return k == WarpCombine::kMax ? (slot < v ? v : slot)
                                  : ordered_fadd(slot, v);
  } else {
    return k == WarpCombine::kMax ? (slot < v ? v : slot) : slot + v;
  }
}

template <class T>
void check_atomics_bit_for_bit(std::uint32_t seed) {
  std::mt19937 rng(seed);
  // A half CAS owns its 32-bit word: neighboring halves collide.
  const int word_elems = std::is_same_v<T, half_t> ? 2 : 1;
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto k = trial % 2 == 0 ? WarpCombine::kAdd : WarpCombine::kMax;
    const bool contiguous = trial % 4 < 2;
    Lanes<std::int64_t> idx{};
    LaneMask active = 0;
    const int n = 1 + static_cast<int>(rng() % 32);
    if (contiguous) {
      const auto base = static_cast<std::int64_t>(rng() % 17);
      for (int l = 0; l < 32; ++l) idx[static_cast<std::size_t>(l)] = base + l;
      active = prefix_mask(n);
    } else {
      // Few targets, so lanes collide; a random (non-prefix) mask.
      for (auto& i : idx) i = static_cast<std::int64_t>(rng() % 12);
      active = static_cast<LaneMask>(rng()) | 1u;
    }
    Lanes<T> vals{};
    for (auto& v : vals) v = special_value<T>(rng);
    std::vector<T> init(64);
    for (auto& v : init) v = special_value<T>(rng);
    const int contention = 1 + static_cast<int>(rng() % 4);

    std::vector<T> want = init;
    int depth = 0;
    for (int l = 0; l < 32; ++l) {
      if (!(active >> l & 1)) continue;
      const auto lu = static_cast<std::size_t>(l);
      auto& slot = want[static_cast<std::size_t>(idx[lu])];
      slot = serial_rmw(k, slot, vals[lu]);
      int same_word = 0;
      for (int m = 0; m < 32; ++m) {
        if ((active >> m & 1) &&
            idx[static_cast<std::size_t>(m)] / word_elems ==
                idx[lu] / word_elems) {
          ++same_word;
        }
      }
      depth = std::max(depth, same_word);
    }

    const auto run = [&](auto& w, std::vector<T>& mem) {
      if (k == WarpCombine::kMax) {
        w.atomic_max(std::span<T>(mem), idx, active, vals, contention);
      } else {
        w.atomic_add(std::span<T>(mem), idx, active, vals, contention);
      }
    };
    std::vector<T> fast = init;
    launch<false>(test_spec(), "atomic", {.ctas = 1, .warps_per_cta = 1},
                  [&](Cta<false>& cta) {
                    cta.for_each_warp([&](Warp<false>& w) { run(w, fast); });
                  });
    std::vector<T> profiled = init;
    const KernelStats ks =
        run_one_warp(test_spec(), [&](Warp<true>& w) { run(w, profiled); });
    EXPECT_EQ(std::memcmp(fast.data(), want.data(), want.size() * sizeof(T)),
              0);
    EXPECT_EQ(
        std::memcmp(profiled.data(), want.data(), want.size() * sizeof(T)), 0);
    EXPECT_EQ(ks.atomic_instrs, 1u);
    EXPECT_EQ(ks.atomic_serialized,
              static_cast<std::uint64_t>(depth - 1 + contention - 1));
  }
}

TEST(SimtAtomics, MatchLaneSerialLoopBitForBitOnEveryPath) {
  const simd::Path prev = simd::active_path();
  for (const simd::Path p : simd::kPaths) {
    if (!simd::set_path(p)) continue;  // tier unavailable here
    SCOPED_TRACE(simd::path_name());
    check_atomics_bit_for_bit<float>(0xA701u);
    check_atomics_bit_for_bit<half_t>(0xA702u);
    check_atomics_bit_for_bit<half2>(0xA703u);
  }
  simd::set_path(prev);
}

TEST(SimtCost, BandwidthClampBoundsUtilization) {
  // A kernel that only streams memory must clamp to <= 100% BW.
  const DeviceSpec spec = test_spec();
  AlignedVec<float> mem(32 * 1024);
  const KernelStats ks = launch<true>(
      spec, "stream", {.ctas = 64, .warps_per_cta = 4}, [&](Cta<true>& cta) {
        cta.for_each_warp([&](Warp<true>& w) {
          Lanes<float> r{};
          for (int i = 0; i < 32; ++i) {
            w.load_contiguous<float>(mem, 32 * i, 32, r);
          }
        });
      });
  EXPECT_LE(ks.bw_utilization, 1.0 + 1e-9);
  EXPECT_GT(ks.bw_utilization, 0.0);
  EXPECT_LE(ks.sm_utilization, 1.0 + 1e-9);
  EXPECT_GT(ks.time_ms, 0.0);
}

TEST(SimtCost, ProfiledAndUnprofiledProduceIdenticalNumerics) {
  // The central reproducibility invariant: training runs unprofiled, the
  // figure benches run profiled, and both must compute identical bits.
  AlignedVec<half_t> out_p(64, half_t(0.0f)), out_u(64, half_t(0.0f));
  AlignedVec<half_t> in(64);
  for (int i = 0; i < 64; ++i) in[static_cast<std::size_t>(i)] =
      half_t(0.37f * static_cast<float>(i) - 3.0f);
  const DeviceSpec spec = test_spec();

  auto body = [&](auto& cta, AlignedVec<half_t>& out) {
    cta.for_each_warp([&](auto& w) {
      Lanes<half_t> r{};
      w.template load_contiguous<half_t>(in, 0, 32, r);
      for (int l = 0; l < 32; ++l) r[l] = hfma(r[l], r[l], half_t(1.0f));
      w.alu(Op::kHalfIntrin, 1);
      w.template store_contiguous<half_t>(out, 0, 32, r);
    });
  };
  launch<true>(spec, "p", {.ctas = 1, .warps_per_cta = 1},
               [&](Cta<true>& cta) { body(cta, out_p); });
  launch<false>(spec, "u", {.ctas = 1, .warps_per_cta = 1},
                [&](Cta<false>& cta) { body(cta, out_u); });
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(out_p[static_cast<std::size_t>(i)].bits(),
              out_u[static_cast<std::size_t>(i)].bits());
  }
}

TEST(SimtCost, CtaBarrierAlignsWarps) {
  const DeviceSpec spec = test_spec();
  const KernelStats ks = launch<true>(
      spec, "barrier", {.ctas = 1, .warps_per_cta = 2}, [&](Cta<true>& cta) {
        cta.for_each_warp([&](Warp<true>& w) {
          // Warp 1 does 10x the work of warp 0.
          w.alu(Op::kFloatAlu, w.warp_in_cta() == 1 ? 100 : 10);
        });
        cta.barrier();
      });
  EXPECT_EQ(ks.cta_barriers, 1u);
  // Device time reflects the slow warp plus barrier cost (plus launch
  // overhead), not the sum of both warps.
  EXPECT_GE(ks.device_cycles, 100 * spec.alu_cycles);
}

TEST(SimtVec, AsVecChecksAlignmentAndSize) {
  AlignedVec<half_t> buf(8);
  EXPECT_NO_THROW(as_vec<half8>(std::span<const half_t>(buf)));
  EXPECT_THROW(as_vec<half8>(std::span<const half_t>(buf.data(), 7)),
               std::invalid_argument);
  EXPECT_THROW(as_vec<half2>(std::span<const half_t>(buf.data() + 1, 2)),
               std::invalid_argument);
}

}  // namespace
}  // namespace hg::simt
