// simcheck tests: the five kernel families run clean under every checker on
// Fig. 9-style geometry; planted bugs of each class are caught with correct
// provenance; reports are identical at every thread count; and a disarmed
// (or armed-but-clean) sanitizer changes no output bit and no metric.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "kernels/bf16_ops.hpp"
#include "kernels/edge_ops.hpp"
#include "kernels/int8_ops.hpp"
#include "kernels/sddmm.hpp"
#include "kernels/spmm_binary.hpp"
#include "kernels/spmm_cusparse_like.hpp"
#include "kernels/spmm_halfgnn.hpp"
#include "kernels/spmm_vertex.hpp"
#include "obs/metrics.hpp"
#include "simt/simt.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace hg::kernels {
namespace {

using simt::Cta;
using simt::LaunchDesc;
using simt::SanitizerConfig;
using simt::SanViolation;
using simt::Warp;

struct TestGraph {
  Csr csr;
  Coo coo;
  GraphView g;
};

TestGraph make_graph(vid_t n, eid_t m, Rng& rng, bool hubs = true) {
  Coo raw = erdos_renyi(n, hubs ? m / 2 : m, rng);
  if (hubs) plant_hubs(raw, 2, n / 3, rng);
  TestGraph t;
  t.csr = coo_to_csr(raw);
  t.coo = csr_to_coo(t.csr);
  t.g = view(t.csr, t.coo);
  return t;
}

AlignedVec<half_t> random_half(std::size_t count, Rng& rng,
                               float scale = 1.0f) {
  AlignedVec<half_t> h(count);
  for (auto& v : h) v = half_t((rng.next_float() * 2 - 1) * scale);
  return h;
}

std::vector<float> to_float(std::span<const half_t> h) {
  std::vector<float> x(h.size());
  for (std::size_t i = 0; i < h.size(); ++i) x[i] = h[i].to_float();
  return x;
}

// ---------------------------------------------------------------------------
// Config grammar
// ---------------------------------------------------------------------------

TEST(SanitizerConfigTest, ParsesCheckerLists) {
  EXPECT_EQ(SanitizerConfig::parse("race").checks, simt::kSanRace);
  EXPECT_EQ(SanitizerConfig::parse("race,mem").checks,
            simt::kSanRace | simt::kSanMem);
  EXPECT_EQ(SanitizerConfig::parse(" init , sync ").checks,
            simt::kSanInit | simt::kSanSync);
  EXPECT_EQ(SanitizerConfig::parse("all").checks, simt::kSanAll);
  EXPECT_EQ(SanitizerConfig::parse("race,mem,init,sync").checks,
            simt::kSanAll);
  EXPECT_FALSE(SanitizerConfig::parse("").active());
  try {
    (void)SanitizerConfig::parse("race,racecheck");
    ADD_FAILURE() << "accepted racecheck";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "HALFGNN_SANITIZE: unknown checker 'racecheck' "
                 "(expected race|mem|init|sync|all)");
  }
}

// ---------------------------------------------------------------------------
// Clean sweep: every kernel family, all four checkers, Fig. 9 geometry
// (feature sizes 32 and 64, hub-heavy graphs)
// ---------------------------------------------------------------------------

class CleanSweep : public ::testing::Test {
 protected:
  CleanSweep() : dev_(simt::a100_spec(), 4), stream_(dev_) {
    dev_.set_sanitizer(SanitizerConfig::parse("race,mem,init,sync"));
  }

  void expect_clean() {
    EXPECT_EQ(dev_.sanitizer().total_violations(), 0u)
        << dev_.sanitizer().report();
  }

  simt::Device dev_;
  simt::Stream stream_;
};

TEST_F(CleanSweep, SpmmCusparse) {
  Rng rng(11);
  const TestGraph t = make_graph(900, 8000, rng);
  const auto n = static_cast<std::size_t>(t.csr.num_vertices);
  const auto m = static_cast<std::size_t>(t.csr.num_edges());
  for (int feat : {32, 64}) {
    const auto f = static_cast<std::size_t>(feat);
    const auto xh = random_half(n * f, rng);
    const auto wh = random_half(m, rng);
    const auto xf = to_float(xh);
    const auto wf = to_float(wh);
    AlignedVec<half_t> yh(n * f);
    AlignedVec<float> yf(n * f);
    for (Reduce red : {Reduce::kSum, Reduce::kMean, Reduce::kMax}) {
      spmm_cusparse_f16(stream_, true, t.g, wh, xh, yh, feat, red);
      spmm_cusparse_f32(stream_, true, t.g, wf, xf, yf, feat, red);
    }
  }
  expect_clean();
}

TEST_F(CleanSweep, SpmmHalfgnn) {
  Rng rng(12);
  const TestGraph t = make_graph(900, 8000, rng);
  const auto n = static_cast<std::size_t>(t.csr.num_vertices);
  const auto m = static_cast<std::size_t>(t.csr.num_edges());
  for (int feat : {32, 64}) {
    const auto f = static_cast<std::size_t>(feat);
    const auto xh = random_half(n * f, rng);
    const auto wh = random_half(m, rng);
    AlignedVec<half_t> y(n * f);
    for (bool atomic : {false, true}) {
      HalfgnnSpmmOpts opts;
      opts.atomic_writes = atomic;
      for (Reduce red : {Reduce::kSum, Reduce::kMean, Reduce::kMax}) {
        opts.reduce = red;
        spmm_halfgnn(stream_, true, t.g, wh, xh, y, feat, opts);
        spmm_halfgnn(stream_, true, t.g, {}, xh, y, feat, opts);
      }
    }
  }
  expect_clean();
}

// The precision-lattice kernels (bf16 trainable SpMM/SDDMM, BitGNN binary
// SpMM + its packer, int8 PTQ quantize + SpMM) under all four checkers.
TEST_F(CleanSweep, LatticeDtypeKernels) {
  Rng rng(19);
  const TestGraph t = make_graph(900, 8000, rng);
  const auto n = static_cast<std::size_t>(t.csr.num_vertices);
  const auto m = static_cast<std::size_t>(t.csr.num_edges());
  for (int feat : {32, 64}) {
    const auto f = static_cast<std::size_t>(feat);
    const auto xf = to_float(random_half(n * f, rng));
    const auto wf = to_float(random_half(m, rng));

    AlignedVec<bf16_t> xb(n * f), wb(m), yb(n * f);
    for (std::size_t i = 0; i < xb.size(); ++i) xb[i] = bf16_t(xf[i]);
    for (std::size_t i = 0; i < wb.size(); ++i) wb[i] = bf16_t(wf[i]);
    AlignedVec<bf16_t> eb(m);
    for (Reduce red : {Reduce::kSum, Reduce::kMean, Reduce::kMax}) {
      spmm_bf16(stream_, true, t.g, wb, xb, yb, feat, red);
      spmm_bf16(stream_, true, t.g, {}, xb, yb, feat, red);
    }
    sddmm_bf16(stream_, true, t.g, xb, xb, eb, feat);

    BinarizedFeatures bin;
    binarize_pack(stream_, true, xf, t.csr.num_vertices, feat, bin);
    AlignedVec<float> y1(n * f);
    for (Reduce red : {Reduce::kSum, Reduce::kMean, Reduce::kMax}) {
      spmm_binary(stream_, true, t.g, bin, y1, feat, red);
    }

    const QuantParams xq = calibrate_int8(xf);
    const QuantParams wq = calibrate_int8(wf);
    AlignedVec<std::int8_t> xi(n * f), wi(m);
    quantize_int8(stream_, true, xf, xi, xq);
    quantize_int8(stream_, true, wf, wi, wq);
    AlignedVec<float> yq(n * f);
    for (Reduce red : {Reduce::kSum, Reduce::kMean, Reduce::kMax}) {
      spmm_int8(stream_, true, t.g, wi, wq, xi, xq, yq, feat, red);
      spmm_int8(stream_, true, t.g, {}, wq, xi, xq, yq, feat, red);
    }
  }
  expect_clean();
}

TEST_F(CleanSweep, SpmmVertex) {
  Rng rng(13);
  const TestGraph t = make_graph(900, 8000, rng);
  const auto n = static_cast<std::size_t>(t.csr.num_vertices);
  const auto m = static_cast<std::size_t>(t.csr.num_edges());
  const NeighborGroups groups = build_neighbor_groups(t.csr);
  for (int feat : {32, 64}) {
    const auto f = static_cast<std::size_t>(feat);
    const auto xh = random_half(n * f, rng);
    const auto wh = random_half(m, rng);
    const auto xf = to_float(xh);
    const auto wf = to_float(wh);
    AlignedVec<float> yf(n * f);
    AlignedVec<half_t> yh(n * f);
    gespmm_f32(stream_, true, t.g, wf, xf, yf, feat);
    huang_f32(stream_, true, t.g, groups, wf, xf, yf, feat);
    huang_half2(stream_, true, t.g, groups, wh, xh, yh, feat);
  }
  expect_clean();
}

TEST_F(CleanSweep, Sddmm) {
  Rng rng(14);
  const TestGraph t = make_graph(900, 8000, rng);
  const auto n = static_cast<std::size_t>(t.csr.num_vertices);
  const auto m = static_cast<std::size_t>(t.csr.num_edges());
  for (int feat : {32, 64}) {
    const auto f = static_cast<std::size_t>(feat);
    const auto ah = random_half(n * f, rng);
    const auto bh = random_half(n * f, rng);
    const auto af = to_float(ah);
    const auto bf = to_float(bh);
    AlignedVec<half_t> eh(m);
    AlignedVec<float> ef(m);
    sddmm_dgl_f32(stream_, true, t.g, af, bf, ef, feat);
    sddmm_dgl_f16(stream_, true, t.g, ah, bh, eh, feat);
    for (SddmmVec vec : {SddmmVec::kHalf2, SddmmVec::kHalf4, SddmmVec::kHalf8}) {
      sddmm_halfgnn(stream_, true, t.g, ah, bh, eh, feat, vec);
    }
  }
  expect_clean();
}

TEST_F(CleanSweep, EdgeOps) {
  Rng rng(15);
  const TestGraph t = make_graph(900, 8000, rng);
  const auto n = static_cast<std::size_t>(t.csr.num_vertices);
  const auto m = static_cast<std::size_t>(t.csr.num_edges());
  const auto vh = random_half(m, rng, 0.5f);
  const auto lh = random_half(n, rng, 0.5f);
  const auto rh = random_half(n, rng, 0.5f);
  const auto vf = to_float(vh);
  const auto lf = to_float(lh);
  const auto rf = to_float(rh);
  AlignedVec<half_t> oh(m), rowh(n);
  AlignedVec<float> of(m), rowf(n);

  edge_add_scalars_f32(stream_, true, t.g, lf, rf, of, 0.2f);
  edge_add_scalars_f16(stream_, true, t.g, lh, rh, oh, 0.2f);
  edge_segment_reduce_f32(stream_, true, t.g, vf, rowf, SegReduce::kMax);
  edge_segment_reduce_f16(stream_, true, t.g, vh, rowh, SegReduce::kMax);
  edge_exp_sub_row_f32(stream_, true, t.g, vf, rowf, of);
  edge_exp_sub_row_f16(stream_, true, t.g, vh, rowh, oh);
  edge_segment_reduce_f32(stream_, true, t.g, of, rowf, SegReduce::kSum);
  edge_segment_reduce_f16(stream_, true, t.g, oh, rowh, SegReduce::kSum);
  edge_div_row_f32(stream_, true, t.g, of, rowf, of);
  edge_div_row_f16(stream_, true, t.g, oh, rowh, oh);
  expect_clean();
}

// ---------------------------------------------------------------------------
// Planted bugs: each checker catches its bug class with full provenance
// ---------------------------------------------------------------------------

class PlantedBug : public ::testing::Test {
 protected:
  PlantedBug() : dev_(simt::a100_spec(), 2), stream_(dev_) {
    dev_.set_sanitizer(SanitizerConfig::parse("all"));
  }

  const SanViolation& only_violation(SanViolation::Kind kind) {
    static const SanViolation empty{};
    const auto& vs = dev_.sanitizer().violations();
    if (vs.empty()) {
      ADD_FAILURE() << "no violation recorded";
      return empty;
    }
    EXPECT_EQ(vs.size(), 1u) << dev_.sanitizer().report();
    EXPECT_EQ(static_cast<int>(vs.front().kind), static_cast<int>(kind))
        << vs.front().message();
    return vs.front();
  }

  simt::Device dev_;
  simt::Stream stream_;
};

TEST_F(PlantedBug, SharedMemoryRace) {
  stream_.launch<false>(
      LaunchDesc{"planted_race", 1, 2}, [&](Cta<false>& cta) {
        auto s = cta.shared<float>(4);
        // Both warps write s[0] in the same barrier-delimited phase.
        cta.for_each_warp([&](Warp<false>& w) {
          s[0] = static_cast<float>(w.warp_in_cta());
        });
      });
  const SanViolation& v = only_violation(SanViolation::Kind::kSharedRace);
  EXPECT_EQ(v.kernel, "planted_race");
  EXPECT_EQ(v.cta, 0);
  EXPECT_EQ(v.warp, 1);
  EXPECT_EQ(v.other_warp, 0);
  EXPECT_TRUE(v.other_was_write);
  EXPECT_EQ(v.address, 0u);
  EXPECT_STREQ(v.check_name(), "racecheck");
}

TEST_F(PlantedBug, BarrierSuppressesSharedRace) {
  stream_.launch<false>(
      LaunchDesc{"clean_race", 1, 2}, [&](Cta<false>& cta) {
        auto s = cta.shared<float>(4);
        cta.for_each_warp([&](Warp<false>& w) {
          if (w.warp_in_cta() == 0) s[0] = 1.0f;
        });
        cta.barrier();
        cta.for_each_warp([&](Warp<false>& w) {
          if (w.warp_in_cta() == 1) s[0] = 2.0f;
        });
      });
  EXPECT_EQ(dev_.sanitizer().total_violations(), 0u)
      << dev_.sanitizer().report();
}

TEST_F(PlantedBug, UninitializedSharedRead) {
  float got = 0.0f;
  stream_.launch<false>(
      LaunchDesc{"planted_uninit", 1, 1}, [&](Cta<false>& cta) {
        auto s = cta.shared<float>(8);
        cta.for_each_warp([&](Warp<false>&) { got = s[3]; });
      });
  EXPECT_EQ(got, 0.0f);  // the simulator zero-fills; the checker still fires
  const SanViolation& v = only_violation(SanViolation::Kind::kUninitRead);
  EXPECT_EQ(v.kernel, "planted_uninit");
  EXPECT_EQ(v.cta, 0);
  EXPECT_EQ(v.warp, 0);
  EXPECT_EQ(v.address, 3u * sizeof(float));
  EXPECT_STREQ(v.check_name(), "initcheck");
}

TEST_F(PlantedBug, DivergentBarrier) {
  stream_.launch<false>(
      LaunchDesc{"planted_divergent", 1, 2}, [&](Cta<false>& cta) {
        cta.for_each_warp([&](Warp<false>& w) {
          if (w.warp_in_cta() == 1) cta.barrier();
        });
      });
  const SanViolation& v =
      only_violation(SanViolation::Kind::kDivergentBarrier);
  EXPECT_EQ(v.kernel, "planted_divergent");
  EXPECT_EQ(v.cta, 0);
  EXPECT_EQ(v.warp, 1);
  EXPECT_EQ(v.phase, 0);
  EXPECT_STREQ(v.check_name(), "synccheck");
}

TEST_F(PlantedBug, LateSharedAllocation) {
  stream_.launch<false>(
      LaunchDesc{"planted_late_alloc", 1, 1}, [&](Cta<false>& cta) {
        cta.for_each_warp([&](Warp<false>&) {});
        cta.barrier();
        (void)cta.shared<float>(4);  // real __shared__ is kernel-scope
      });
  const SanViolation& v =
      only_violation(SanViolation::Kind::kLateSharedAlloc);
  EXPECT_EQ(v.kernel, "planted_late_alloc");
  EXPECT_EQ(v.phase, 1);
  EXPECT_STREQ(v.check_name(), "synccheck");
}

TEST_F(PlantedBug, OutOfBoundsHalf8Gather) {
  Rng rng(3);
  const auto buf = random_half(256, rng);
  const auto v8 = simt::as_vec<half8>(std::span<const half_t>(buf));
  stream_.launch<false>(
      LaunchDesc{"planted_oob", 1, 1}, [&](Cta<false>& cta) {
        cta.for_each_warp([&](Warp<false>& w) {
          simt::Lanes<std::int64_t> idx{};
          for (int l = 0; l < simt::kWarpSize; ++l) idx[l] = l % 4;
          idx[5] = static_cast<std::int64_t>(v8.size()) + 7;  // OOB lane 5
          simt::Lanes<half8> out{};
          w.gather<half8>(v8, idx, simt::kFullMask, out);
        });
      });
  const SanViolation& v = only_violation(SanViolation::Kind::kOutOfBounds);
  EXPECT_EQ(v.kernel, "planted_oob");
  EXPECT_EQ(v.cta, 0);
  EXPECT_EQ(v.lane, 5);
  EXPECT_EQ(v.address, v8.size() + 7);
  EXPECT_EQ(v.bytes, sizeof(half8));
  EXPECT_STREQ(v.check_name(), "memcheck");
}

TEST_F(PlantedBug, MisalignedHalf8Load) {
  Rng rng(4);
  const auto buf = random_half(256, rng);
  // Offset the base by one half (2 B) to break the 16 B half8 contract —
  // bypassing as_vec, which would reject the cast.
  const auto* mis = reinterpret_cast<const half8*>(buf.data() + 1);
  const std::span<const half8> v8(mis, 16);
  stream_.launch<false>(
      LaunchDesc{"planted_misaligned", 1, 1}, [&](Cta<false>& cta) {
        cta.for_each_warp([&](Warp<false>& w) {
          simt::Lanes<std::int64_t> idx{};
          simt::Lanes<half8> out{};
          w.gather<half8>(v8, idx, simt::prefix_mask(1), out);
        });
      });
  const SanViolation& v = only_violation(SanViolation::Kind::kMisaligned);
  EXPECT_EQ(v.kernel, "planted_misaligned");
  EXPECT_EQ(v.lane, 0);
  EXPECT_EQ(v.address, reinterpret_cast<std::uint64_t>(mis));
  EXPECT_EQ(v.bytes, sizeof(half8));
  EXPECT_STREQ(v.check_name(), "memcheck");
}

TEST_F(PlantedBug, SharedSpanOutOfBounds) {
  stream_.launch<false>(
      LaunchDesc{"planted_smem_oob", 1, 1}, [&](Cta<false>& cta) {
        auto s = cta.shared<float>(4);
        cta.for_each_warp([&](Warp<false>&) {
          s[10] = 1.0f;  // lands in the sanitizer's sink, not the arena
        });
      });
  const SanViolation& v = only_violation(SanViolation::Kind::kOutOfBounds);
  EXPECT_EQ(v.kernel, "planted_smem_oob");
  EXPECT_EQ(v.address, 10u);
  EXPECT_NE(v.detail.find("shared span of 4 elements"), std::string::npos)
      << v.detail;
}

TEST_F(PlantedBug, UndeclaredCrossCtaConflict) {
  AlignedVec<float> out(64);
  stream_.launch<false>(
      LaunchDesc{"planted_conflict", 2, 1}, [&](Cta<false>& cta) {
        cta.for_each_warp([&](Warp<false>& w) {
          // Both CTAs store the same 32-element range with no ConflictPolicy.
          simt::Lanes<float> vals{};
          w.store_contiguous<float>(out, 0, 32, vals);
        });
      });
  const SanViolation& v =
      only_violation(SanViolation::Kind::kGlobalConflict);
  EXPECT_EQ(v.kernel, "planted_conflict");
  EXPECT_EQ(v.cta, 1);
  EXPECT_EQ(v.other_cta, 0);
  EXPECT_EQ(v.address, reinterpret_cast<std::uint64_t>(out.data()));
  EXPECT_EQ(v.bytes, 32u * sizeof(float));
  EXPECT_STREQ(v.check_name(), "racecheck");
}

TEST_F(PlantedBug, DeclaredPolicyCoversConflict) {
  AlignedVec<float> dst(64, 0.0f);
  simt::StagedOutput<float> staged{std::span<float>(dst),
                                   simt::ConflictPolicy::kStagedSum,
                                   {}};
  stream_.launch<false>(
      LaunchDesc{"declared_conflict", 2, 1}, staged,
      [&](Cta<false>& cta, std::span<float> out) {
        cta.for_each_warp([&](Warp<false>& w) {
          simt::Lanes<float> vals{};
          vals.fill(1.0f);
          w.store_contiguous<float>(out, 0, 32, vals);
        });
      });
  EXPECT_EQ(dev_.sanitizer().total_violations(), 0u)
      << dev_.sanitizer().report();
  EXPECT_EQ(dst[0], 2.0f);  // both CTAs merged under kStagedSum
}

TEST_F(PlantedBug, MisdeclaredWindowMiss) {
  AlignedVec<float> dst(128, 0.0f);
  simt::StagedOutput<float> staged{
      std::span<float>(dst), simt::ConflictPolicy::kStagedSum,
      [](int, int) { return std::pair<std::size_t, std::size_t>{0, 32}; }};
  stream_.launch<false>(
      LaunchDesc{"planted_window", 1, 1}, staged,
      [&](Cta<false>& cta, std::span<float> out) {
        cta.for_each_warp([&](Warp<false>& w) {
          simt::Lanes<float> vals{};
          vals.fill(1.0f);
          // Stores [64, 96): outside the declared [0, 32) element window,
          // so the staged merge silently drops it.
          w.store_contiguous<float>(out, 64, 32, vals);
        });
      });
  const SanViolation& v = only_violation(SanViolation::Kind::kWindowMiss);
  EXPECT_EQ(v.kernel, "planted_window");
  EXPECT_EQ(v.cta, 0);
  EXPECT_EQ(v.address, 64u * sizeof(float));
  EXPECT_EQ(v.bytes, 32u * sizeof(float));
  EXPECT_STREQ(v.check_name(), "racecheck");
  EXPECT_EQ(dst[64], 0.0f);  // the merge really did drop the store
}

TEST_F(PlantedBug, CapacityErrorReportsActualNumbers) {
  try {
    stream_.launch<false>(LaunchDesc{"capacity", 1, 1}, [&](Cta<false>& cta) {
      (void)cta.shared<float>(16);
      (void)cta.shared<float>(300 * 1024);
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("requested 1228800 B"), std::string::npos) << msg;
    EXPECT_NE(msg.find("64 B already allocated"), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(simt::a100_spec().smem_bytes) +
                       " B capacity"),
              std::string::npos)
        << msg;
  }
}

// ---------------------------------------------------------------------------
// Determinism: identical reports and bit-identical outputs at every
// HALFGNN_THREADS
// ---------------------------------------------------------------------------

// A launch sequence that trips every checker across many CTAs.
void run_buggy_workload(simt::Stream& stream, AlignedVec<float>& out) {
  stream.launch<false>(LaunchDesc{"det_race", 12, 4}, [&](Cta<false>& cta) {
    auto s = cta.shared<float>(16);
    cta.for_each_warp([&](Warp<false>& w) {
      s[cta.cta_id() % 16] = static_cast<float>(w.warp_in_cta());
      if (cta.cta_id() % 3 == 0) (void)static_cast<float>(s[15]);
    });
  });
  stream.launch<false>(LaunchDesc{"det_conflict", 20, 1}, [&](Cta<false>& cta) {
    cta.for_each_warp([&](Warp<false>& w) {
      simt::Lanes<float> vals{};
      const std::int64_t base = (cta.cta_id() / 2) * 32;
      w.store_contiguous<float>(out, base, 32, vals);
    });
  });
}

TEST(SanitizerDeterminism, ReportIdenticalAcrossThreadCounts) {
  std::string first;
  std::uint64_t first_total = 0;
  // One output buffer shared by every iteration: conflict reports print the
  // real faulting address (as compute-sanitizer does), so byte-identity is
  // over same-buffer runs that differ only in HALFGNN_THREADS.
  AlignedVec<float> out(512);
  for (int threads : {1, 2, 7, 16}) {
    simt::Device dev(simt::a100_spec(), threads);
    dev.set_sanitizer(SanitizerConfig::parse("all"));
    simt::Stream stream(dev);
    run_buggy_workload(stream, out);
    const std::string rep = dev.sanitizer().report();
    EXPECT_GT(dev.sanitizer().total_violations(), 0u);
    if (first.empty()) {
      first = rep;
      first_total = dev.sanitizer().total_violations();
    } else {
      EXPECT_EQ(rep, first) << "threads=" << threads;
      EXPECT_EQ(dev.sanitizer().total_violations(), first_total);
    }
  }
  // Sorted by launch ordinal: every det_race line precedes det_conflict.
  EXPECT_LT(first.find("det_race"), first.find("det_conflict"));
}

struct RunResult {
  std::vector<std::uint16_t> bits;
  std::string metrics;
};

RunResult run_spmm(int threads, const char* sanitize) {
  Rng rng(77);
  const TestGraph t = make_graph(600, 5000, rng);
  const auto n = static_cast<std::size_t>(t.csr.num_vertices);
  const auto xh = random_half(n * 64, rng);

  simt::Device dev(simt::a100_spec(), threads);
  if (sanitize != nullptr) {
    dev.set_sanitizer(SanitizerConfig::parse(sanitize));
  }
  simt::Stream stream(dev);

  obs::registry().reset();
  obs::registry().set_enabled(true);
  AlignedVec<half_t> y(n * 64);
  HalfgnnSpmmOpts opts;
  opts.reduce = Reduce::kMean;
  spmm_halfgnn(stream, true, t.g, {}, xh, y, 64, opts);
  opts.atomic_writes = true;
  spmm_halfgnn(stream, true, t.g, {}, xh, y, 64, opts);
  RunResult r;
  r.metrics = obs::registry().to_json().dump();
  obs::registry().set_enabled(false);
  obs::registry().reset();
  r.bits.resize(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) r.bits[i] = y[i].bits();
  if (sanitize != nullptr) {
    EXPECT_EQ(dev.sanitizer().total_violations(), 0u)
        << dev.sanitizer().report();
  }
  return r;
}

TEST(SanitizerRegression, DisarmedRunsBitIdenticalAcrossThreadCounts) {
  const RunResult base = run_spmm(1, nullptr);
  for (int threads : {2, 7, 16}) {
    const RunResult r = run_spmm(threads, nullptr);
    EXPECT_EQ(r.bits, base.bits) << "threads=" << threads;
    EXPECT_EQ(r.metrics, base.metrics) << "threads=" << threads;
  }
}

TEST(SanitizerRegression, ArmedCleanRunMatchesDisarmedBitExactly) {
  const RunResult off = run_spmm(2, nullptr);
  const RunResult on = run_spmm(2, "race,mem,init,sync");
  EXPECT_EQ(on.bits, off.bits);
  // A clean armed run publishes no sanitizer.* counter, so the metrics JSON
  // is byte-identical to the disarmed run.
  EXPECT_EQ(on.metrics, off.metrics);
}

}  // namespace
}  // namespace hg::kernels
