// Tests for the Device/Stream executor: the finalize() SM clamp, the host
// thread pool, and the bit-determinism contract — kernel outputs and
// metrics/trace JSON must be identical at every HALFGNN_THREADS value.
#include "simt/simt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "kernels/bf16_ops.hpp"
#include "kernels/int8_ops.hpp"
#include "kernels/sddmm.hpp"
#include "kernels/spmm_binary.hpp"
#include "kernels/spmm_cusparse_like.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace hg::simt {
namespace {

// --- finalize(): SM clamp and scheduling model ------------------------------

KernelStats finalize_uniform(const DeviceSpec& spec, int ctas, double busy,
                             double stall) {
  KernelStats ks;
  ks.ctas = ctas;
  ks.warps_per_cta = 1;
  const std::vector<std::pair<double, double>> cost(
      static_cast<std::size_t>(ctas), {busy, stall});
  detail::finalize(ks, spec, cost);
  return ks;
}

TEST(ExecutorFinalize, SmClampPinsDeviceCycles) {
  const DeviceSpec spec{};
  const double busy = 1000.0;
  const double stall = 400.0;

  // 1 CTA occupies min(num_sms, 1) = 1 SM and hides nothing (conc = 1).
  const auto one = finalize_uniform(spec, 1, busy, stall);
  EXPECT_DOUBLE_EQ(one.device_cycles,
                   busy + stall + spec.launch_overhead_cycles);
  // The clamp is observable through the SM capacity: 1 resident SM, not
  // num_sms idle ones.
  EXPECT_DOUBLE_EQ(one.sm_cap_cycles, one.device_cycles);

  // num_sms CTAs: one per SM — identical critical path to the 1-CTA launch,
  // but the capacity now counts every SM.
  const auto full = finalize_uniform(spec, spec.num_sms, busy, stall);
  EXPECT_DOUBLE_EQ(full.device_cycles, one.device_cycles);
  EXPECT_DOUBLE_EQ(full.sm_cap_cycles,
                   full.device_cycles * spec.num_sms);

  // 4*num_sms CTAs: 4 residents per SM; concurrent CTAs hide stalls.
  const auto quad = finalize_uniform(spec, 4 * spec.num_sms, busy, stall);
  const double conc = std::max(
      1.0, std::min({static_cast<double>(spec.max_concurrent_ctas_per_sm),
                     4.0, spec.stall_hide}));
  EXPECT_DOUBLE_EQ(quad.device_cycles,
                   4 * busy + 4 * stall / conc +
                       spec.launch_overhead_cycles);
}

TEST(ExecutorFinalize, LaunchedCtasFollowTheUniformModel) {
  Device dev(DeviceSpec{}, 2);
  Stream stream(dev);
  const DeviceSpec& spec = dev.spec();
  const auto run = [&](int ctas) {
    return stream.launch<true>(
        LaunchDesc{"alu_uniform", ctas, 1}, [&](Cta<true>& cta) {
          cta.for_each_warp([&](Warp<true>& w) { w.alu(Op::kFloatAlu, 64); });
        });
  };
  const auto one = run(1);
  const auto full = run(spec.num_sms);
  const auto quad = run(4 * spec.num_sms);
  // One CTA per SM costs the same as one CTA on one SM...
  EXPECT_DOUBLE_EQ(full.device_cycles, one.device_cycles);
  // ...and the SM clamp keeps the utilization identical too.
  EXPECT_DOUBLE_EQ(full.sm_utilization, one.sm_utilization);
  // Four residents of pure ALU work serialize on the issue pipe.
  EXPECT_DOUBLE_EQ(quad.device_cycles - spec.launch_overhead_cycles,
                   4.0 * (one.device_cycles -
                          spec.launch_overhead_cycles));
}

// --- thread pool ------------------------------------------------------------

TEST(ExecutorPool, EnvThreadsParsesOverride) {
  const char* prev = std::getenv("HALFGNN_THREADS");
  const std::string saved = prev != nullptr ? prev : "";
  setenv("HALFGNN_THREADS", "3", 1);
  EXPECT_EQ(detail::env_threads(), 3);
  setenv("HALFGNN_THREADS", "0", 1);  // 0: autodetect
  EXPECT_GE(detail::env_threads(), 1);
  setenv("HALFGNN_THREADS", "", 1);
  EXPECT_GE(detail::env_threads(), 1);
  setenv("HALFGNN_THREADS", std::to_string(detail::kMaxEnvThreads).c_str(), 1);
  EXPECT_EQ(detail::env_threads(), detail::kMaxEnvThreads);
  // Junk, trailing text, a sign and a count past the ceiling are errors,
  // never a silent fallback or an unbounded pool (only parsed here: no
  // Device is built at these counts).
  for (const std::string& bad :
       {std::string("abc"), std::string("3x"), std::string("-1"),
        std::string("+3"), std::string("2.5"),
        std::to_string(detail::kMaxEnvThreads + 1)}) {
    setenv("HALFGNN_THREADS", bad.c_str(), 1);
    try {
      (void)detail::env_threads();
      ADD_FAILURE() << "accepted HALFGNN_THREADS=" << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind("HALFGNN_THREADS: ", 0), 0u)
          << e.what();
    }
  }
  unsetenv("HALFGNN_THREADS");
  EXPECT_GE(detail::env_threads(), 1);
  if (prev != nullptr) setenv("HALFGNN_THREADS", saved.c_str(), 1);
}

TEST(ExecutorPool, RunJobsExecutesEveryJobExactlyOnce) {
  Device dev(DeviceSpec{}, 4);
  for (const int jobs : {1, 3, 64, 257}) {
    std::vector<int> hits(static_cast<std::size_t>(jobs), 0);
    dev.run_jobs(jobs, [&](int i) { hits[static_cast<std::size_t>(i)]++; });
    EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                            [](int h) { return h == 1; }))
        << "jobs=" << jobs;
  }
}

TEST(ExecutorPool, JobsOverlapInTime) {
  // Sleep-bound jobs overlap regardless of core count, so this holds even on
  // single-CPU CI machines where CPU-bound work cannot speed up. 16 jobs of
  // 20 ms run sequentially take >= 320 ms; with 8 workers the wall time is
  // ~40 ms. The 240 ms bound leaves a 6x margin for scheduler noise.
  Device dev(DeviceSpec{}, 8);
  const auto t0 = std::chrono::steady_clock::now();
  dev.run_jobs(16, [](int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_LT(ms, 240.0);
}

TEST(ExecutorPool, RunJobsPropagatesWorkerExceptions) {
  Device dev(DeviceSpec{}, 4);
  EXPECT_THROW(dev.run_jobs(32,
                            [&](int i) {
                              if (i == 7) {
                                throw std::runtime_error("job failure");
                              }
                            }),
               std::runtime_error);
  // The pool must stay usable after a failed launch.
  int sum = 0;
  Stream stream(dev);
  stream.launch<false>(LaunchDesc{"after_error", 1, 1},
                       [&](Cta<false>&) { sum = 1; });
  EXPECT_EQ(sum, 1);
}

TEST(ExecutorPool, StreamSurvivesKernelBodyExceptions) {
  // A kernel body that throws must not poison the device: the next launch
  // on the same stream has to produce bits identical to a fresh device's.
  const auto work = [](Stream& stream, std::vector<float>& out) {
    stream.launch<false>(
        LaunchDesc{"after_throw", 4, 1}, [&](Cta<false>& cta) {
          const std::int64_t base = cta.cta_id() * kWarpSize;
          cta.for_each_warp([&](Warp<false>& w) {
            Lanes<float> v{};
            w.load_contiguous<float>(out, base, kWarpSize, v);
            for (int l = 0; l < kWarpSize; ++l) {
              v[static_cast<std::size_t>(l)] += static_cast<float>(l) * 0.5f;
            }
            w.store_contiguous<float>(out, base, kWarpSize, v);
          });
        });
  };
  std::vector<float> fresh(4 * kWarpSize, 1.0f);
  {
    Device dev(DeviceSpec{}, 4);
    Stream stream(dev);
    work(stream, fresh);
  }

  Device dev(DeviceSpec{}, 4);
  Stream stream(dev);
  EXPECT_THROW(
      stream.launch<false>(LaunchDesc{"boom", 8, 1},
                           [&](Cta<false>&) {
                             throw std::runtime_error("kernel body failure");
                           }),
      std::runtime_error);
  std::vector<float> after(4 * kWarpSize, 1.0f);
  work(stream, after);
  EXPECT_EQ(after, fresh);
}

// --- determinism across thread counts ---------------------------------------

struct SweepResult {
  std::vector<std::uint16_t> sddmm_bits;     // half8 SDDMM (conflict-free)
  std::vector<std::uint16_t> spmm_f16_bits;  // atomic-half SpMM (staged sum)
  std::vector<std::uint32_t> spmm_f32_bits;  // atomic-max SpMM (staged max)
  std::vector<std::uint16_t> spmm_bf16_bits;  // lattice bf16 (warp-per-row)
  std::vector<std::uint32_t> spmm_b1_bits;    // binary popcount aggregation
  std::vector<std::uint32_t> spmm_i8_bits;    // int8 PTQ (int32 accumulate)
  std::string metrics_json;
  std::string trace_json;
};

SweepResult run_sweep(int threads) {
  Rng rng(1234);
  Coo raw = erdos_renyi(600, 9000, rng);
  plant_hubs(raw, 2, 200, rng);  // hub rows span many CTAs -> real conflicts
  const Csr csr = coo_to_csr(raw);
  const Coo coo = csr_to_coo(csr);
  const auto g = kernels::view(csr, coo);
  const auto n = static_cast<std::size_t>(csr.num_vertices);
  const auto m = static_cast<std::size_t>(csr.num_edges());
  const int feat = 64;
  const auto f = static_cast<std::size_t>(feat);

  AlignedVec<half_t> xh(n * f);
  for (auto& v : xh) v = half_t(rng.next_float() * 2 - 1);
  AlignedVec<half_t> wh(m);
  for (auto& v : wh) v = half_t(rng.next_float() * 2 - 1);
  AlignedVec<float> xf(n * f);
  for (std::size_t i = 0; i < xh.size(); ++i) xf[i] = xh[i].to_float();

  Device dev(a100_spec(), threads);
  Stream stream(dev);

  auto& tr = obs::tracer();
  auto& reg = obs::registry();
  tr.reset();
  tr.set_enabled(true);
  reg.reset();
  reg.set_enabled(true);

  AlignedVec<half_t> sd(m);
  kernels::sddmm_halfgnn(stream, true, g, xh, xh, sd, feat,
                         kernels::SddmmVec::kHalf8);
  AlignedVec<half_t> yh(n * f);
  kernels::spmm_cusparse_f16(stream, true, g, wh, xh, yh, feat,
                             kernels::Reduce::kSum);
  AlignedVec<float> yf(n * f);
  kernels::spmm_cusparse_f32(stream, true, g, {}, xf, yf, feat,
                             kernels::Reduce::kMax);

  // Precision-lattice kernel families, same determinism contract.
  AlignedVec<bf16_t> xb(n * f);
  for (std::size_t i = 0; i < xf.size(); ++i) xb[i] = bf16_t(xf[i]);
  AlignedVec<bf16_t> yb(n * f);
  kernels::spmm_bf16(stream, true, g, {}, xb, yb, feat,
                     kernels::Reduce::kMean);
  kernels::BinarizedFeatures bin;
  kernels::binarize_pack(stream, true, xf, csr.num_vertices, feat, bin);
  AlignedVec<float> y1(n * f);
  kernels::spmm_binary(stream, true, g, bin, y1, feat, kernels::Reduce::kSum);
  const kernels::QuantParams xq = kernels::calibrate_int8(xf);
  AlignedVec<std::int8_t> xi(n * f);
  kernels::quantize_int8(stream, true, xf, xi, xq);
  AlignedVec<float> yq(n * f);
  kernels::spmm_int8(stream, true, g, {}, {}, xi, xq, yq, feat,
                     kernels::Reduce::kSum);

  SweepResult r;
  r.trace_json = tr.chrome_trace_json().dump();
  r.metrics_json = reg.to_json().dump();
  tr.set_enabled(false);
  tr.reset();
  reg.set_enabled(false);
  reg.reset();

  r.sddmm_bits.reserve(sd.size());
  for (const auto v : sd) r.sddmm_bits.push_back(v.bits());
  r.spmm_f16_bits.reserve(yh.size());
  for (const auto v : yh) r.spmm_f16_bits.push_back(v.bits());
  r.spmm_f32_bits.reserve(yf.size());
  for (const auto v : yf) {
    r.spmm_f32_bits.push_back(std::bit_cast<std::uint32_t>(v));
  }
  r.spmm_bf16_bits.reserve(yb.size());
  for (const auto v : yb) r.spmm_bf16_bits.push_back(v.bits());
  r.spmm_b1_bits.reserve(y1.size());
  for (const auto v : y1) {
    r.spmm_b1_bits.push_back(std::bit_cast<std::uint32_t>(v));
  }
  r.spmm_i8_bits.reserve(yq.size());
  for (const auto v : yq) {
    r.spmm_i8_bits.push_back(std::bit_cast<std::uint32_t>(v));
  }
  return r;
}

TEST(ExecutorDeterminism, OutputsAndJsonBitIdenticalAcrossThreadCounts) {
  const SweepResult base = run_sweep(1);
  ASSERT_FALSE(base.sddmm_bits.empty());
  ASSERT_FALSE(base.metrics_json.empty());
  for (const int threads : {2, 7, 16}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const SweepResult r = run_sweep(threads);
    EXPECT_EQ(base.sddmm_bits, r.sddmm_bits);
    EXPECT_EQ(base.spmm_f16_bits, r.spmm_f16_bits);
    EXPECT_EQ(base.spmm_f32_bits, r.spmm_f32_bits);
    EXPECT_EQ(base.spmm_bf16_bits, r.spmm_bf16_bits);
    EXPECT_EQ(base.spmm_b1_bits, r.spmm_b1_bits);
    EXPECT_EQ(base.spmm_i8_bits, r.spmm_i8_bits);
    EXPECT_EQ(base.metrics_json, r.metrics_json);
    EXPECT_EQ(base.trace_json, r.trace_json);
  }
}

// --- host wall time ---------------------------------------------------------

TEST(ExecutorStats, HostWallTimeMeasuredButNeverPublished) {
  Device dev(a100_spec(), 2);
  Stream stream(dev);
  auto& reg = obs::registry();
  reg.reset();
  reg.set_enabled(true);
  KernelStats ks = stream.launch<true>(
      LaunchDesc{"wall_probe", 8, 2}, [&](Cta<true>& cta) {
        cta.for_each_warp([&](Warp<true>& w) { w.alu(Op::kFloatAlu, 1000); });
      });
  const std::string json = reg.to_json().dump();
  reg.set_enabled(false);
  reg.reset();

  EXPECT_GE(ks.host_ms, 0.0);
  KernelStats sum = ks;
  sum += ks;
  EXPECT_DOUBLE_EQ(sum.host_ms, 2.0 * ks.host_ms);
  // The bench-only field must not leak into the published schema.
  EXPECT_EQ(json.find("host_ms"), std::string::npos);
}

}  // namespace
}  // namespace hg::simt
