// Integration tests for the mode-dispatched sparse ops (nn/sparse_dispatch)
// — especially the transposed SpMM with permuted edge weights that GAT's
// backward pass rides on.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "graph/generators.hpp"
#include "kernels/reference.hpp"
#include "nn/guard.hpp"
#include "nn/kernel_table.hpp"
#include "nn/sparse_dispatch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simt/fault.hpp"
#include "tensor/dense_ops.hpp"

namespace hg::nn {
namespace {

struct Fixture {
  Csr csr;
  Coo coo;
  std::unique_ptr<GraphCtx> g;

  explicit Fixture(std::uint64_t seed) {
    Rng rng(seed);
    csr = symmetrize(coo_to_csr(erdos_renyi(300, 1500, rng)));
    coo = csr_to_coo(csr);
    g = std::make_unique<GraphCtx>(csr, coo);
  }
};

TEST(SparseDispatch, TransposedSpmmWithWeightsMatchesExplicitTranspose) {
  Fixture fx(9);
  Rng rng(10);
  const auto n = static_cast<std::size_t>(fx.csr.num_vertices);
  const auto m = static_cast<std::size_t>(fx.csr.num_edges());
  const int feat = 16;

  MTensor x = MTensor::f32(static_cast<std::int64_t>(n), feat);
  for (auto& v : x.f()) v = rng.next_float() * 2 - 1;
  MTensor w = MTensor::f32(static_cast<std::int64_t>(m), 1);
  for (auto& v : w.f()) v = rng.next_float() * 2 - 1;

  SparseCtx ctx;  // DGL-float
  const MTensor y =
      spmm_transposed(ctx, *fx.g, &w, x, kernels::Reduce::kSum);

  // Explicit reference on the transposed weight assignment: edge (u,v)
  // carries w[(v,u)'s index].
  const auto perm = reverse_edge_permutation(fx.csr);
  std::vector<float> wt(m);
  for (std::size_t e = 0; e < m; ++e) {
    wt[e] = w.f()[static_cast<std::size_t>(perm[e])];
  }
  const auto ref = kernels::reference_spmm(fx.csr, wt, x.f(), feat,
                                           kernels::Reduce::kSum);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(y.f()[i], ref[i], 1e-3 + 1e-4 * std::abs(ref[i])) << i;
  }
}

TEST(SparseDispatch, AllModesAgreeOnSpmmMeanWithinHalfTolerance) {
  Fixture fx(11);
  Rng rng(12);
  const auto n = static_cast<std::size_t>(fx.csr.num_vertices);
  const int feat = 16;
  MTensor xf = MTensor::f32(static_cast<std::int64_t>(n), feat);
  for (auto& v : xf.f()) v = rng.next_float() * 2 - 1;
  MTensor xh = to_dtype(xf, Dtype::kF16, nullptr);

  SparseCtx ctx;
  ctx.mode = SystemMode::kDglFloat;
  const MTensor yf = spmm(ctx, *fx.g, nullptr, xf, kernels::Reduce::kMean);
  ctx.mode = SystemMode::kDglHalf;
  const MTensor yd = nn::spmm(ctx, *fx.g, nullptr, xh, kernels::Reduce::kMean);
  ctx.mode = SystemMode::kHalfGnn;
  const MTensor yo = spmm(ctx, *fx.g, nullptr, xh, kernels::Reduce::kMean);

  for (std::int64_t i = 0; i < yf.rows(); ++i) {
    for (int j = 0; j < feat; ++j) {
      const float f = yf.get(i, j);
      EXPECT_NEAR(yd.get(i, j), f, 0.02 + 0.03 * std::abs(f));
      EXPECT_NEAR(yo.get(i, j), f, 0.02 + 0.03 * std::abs(f));
    }
  }
}

TEST(SparseDispatch, SegReduceSumPromotionOnlyInDglHalf) {
  Fixture fx(13);
  Rng rng(14);
  const auto m = static_cast<std::size_t>(fx.csr.num_edges());
  MTensor vals = MTensor::f16(static_cast<std::int64_t>(m), 1);
  for (std::size_t e = 0; e < m; ++e) {
    vals.h()[e] = half_t(rng.next_float());
  }

  CostLedger dgl_ledger, ours_ledger;
  SparseCtx ctx;
  ctx.mode = SystemMode::kDglHalf;
  ctx.ledger = &dgl_ledger;
  (void)seg_reduce(ctx, *fx.g, vals, kernels::SegReduce::kSum);
  ctx.mode = SystemMode::kHalfGnn;
  ctx.ledger = &ours_ledger;
  (void)seg_reduce(ctx, *fx.g, vals, kernels::SegReduce::kSum);

  // AMP promotes 'sum' -> DGL-half pays two conversions; the shadow path
  // pays none.
  EXPECT_EQ(dgl_ledger.conversions, 2u);
  EXPECT_EQ(ours_ledger.conversions, 0u);

  // Max is not on the promotion list: neither converts.
  dgl_ledger = CostLedger{};
  ctx.mode = SystemMode::kDglHalf;
  ctx.ledger = &dgl_ledger;
  (void)seg_reduce(ctx, *fx.g, vals, kernels::SegReduce::kMax);
  EXPECT_EQ(dgl_ledger.conversions, 0u);
}

TEST(SparseDispatch, SddmmDispatchesPerMode) {
  Fixture fx(15);
  Rng rng(16);
  const auto n = static_cast<std::size_t>(fx.csr.num_vertices);
  const int feat = 16;
  MTensor af = MTensor::f32(static_cast<std::int64_t>(n), feat);
  for (auto& v : af.f()) v = rng.next_float() - 0.5f;
  MTensor ah = to_dtype(af, Dtype::kF32, nullptr);
  MTensor ah16 = to_dtype(af, Dtype::kF16, nullptr);

  SparseCtx ctx;
  const MTensor ef = sddmm(ctx, *fx.g, af, af);
  ctx.mode = SystemMode::kHalfGnn;
  const MTensor eo = sddmm(ctx, *fx.g, ah16, ah16);
  const auto ref = kernels::reference_sddmm(fx.coo, af.f(), af.f(), feat);
  for (std::size_t e = 0; e < ref.size(); ++e) {
    ASSERT_NEAR(ef.f()[e], ref[e], 1e-4 + 1e-4 * std::abs(ref[e]));
    ASSERT_NEAR(eo.h()[e].to_float(), ref[e], 0.03 + 0.05 * std::abs(ref[e]));
  }
}

// Labels of `op`'s chain at (mode, dtype), level 0 first.
std::vector<std::string> chain_labels(Op op, SystemMode m, Dtype dt) {
  const Chain& c = dispatch_chain(op, m, dt);
  std::vector<std::string> out;
  for (int i = 0; i < c.len; ++i) {
    out.emplace_back(kernel_row(c.at(i).kernel).label);
  }
  return out;
}

// The kernel table is the single source of truth for what runs at each
// guard escalation level. Pin the full (op, dtype) table: native kernel
// first, reference last, with the f16 chain still keyed on mode (HalfGNN's
// shadow kernel vs DGL-half's f32 promotion detour).
TEST(DispatchRegistry, FullOpDtypeTable) {
  using K = std::vector<std::string>;
  const auto chain = chain_labels;
  const SystemMode hg = SystemMode::kHalfGnn;
  EXPECT_EQ(chain(Op::kSpmm, hg, Dtype::kF32),
            (K{"spmm_cusparse_f32", "spmm_reference"}));
  EXPECT_EQ(chain(Op::kSpmm, hg, Dtype::kF16),
            (K{"spmm_halfgnn", "spmm_cusparse_f16", "spmm_reference"}));
  EXPECT_EQ(chain(Op::kSpmm, SystemMode::kDglHalf, Dtype::kF16),
            (K{"spmm_cusparse_f16", "spmm_cusparse_f32", "spmm_reference"}));
  EXPECT_EQ(chain(Op::kSpmm, hg, Dtype::kBf16),
            (K{"spmm_bf16", "spmm_reference"}));
  EXPECT_EQ(chain(Op::kSpmm, hg, Dtype::kI8),
            (K{"spmm_int8", "spmm_reference"}));
  EXPECT_EQ(chain(Op::kSpmm, hg, Dtype::kB1),
            (K{"spmm_binary", "spmm_reference"}));

  EXPECT_EQ(chain(Op::kSddmm, hg, Dtype::kF32),
            (K{"sddmm_dgl_f32", "sddmm_reference"}));
  // sddmm ladders are two deep (native -> reference), matching the
  // pre-lattice escalation behavior bit for bit.
  EXPECT_EQ(chain(Op::kSddmm, hg, Dtype::kF16),
            (K{"sddmm_halfgnn", "sddmm_reference"}));
  EXPECT_EQ(chain(Op::kSddmm, SystemMode::kDglHalf, Dtype::kF16),
            (K{"sddmm_dgl_f16", "sddmm_reference"}));
  EXPECT_EQ(chain(Op::kSddmm, hg, Dtype::kBf16),
            (K{"sddmm_bf16", "sddmm_reference"}));
  // PTQ dtypes keep attention scores and the edge softmax in float: their
  // chains are the f32 ones, not quantized variants.
  for (const Op op : {Op::kSddmm, Op::kSegSum, Op::kEdgeExp, Op::kEdgeMul}) {
    EXPECT_EQ(chain(op, hg, Dtype::kI8), chain(op, hg, Dtype::kF32));
    EXPECT_EQ(chain(op, hg, Dtype::kB1), chain(op, hg, Dtype::kF32));
  }

  // DGL-half's AMP promotes `sum` and `exp` to an f32 row; `max` and
  // HalfGNN's shadow ops stay half.
  const SystemMode dgl = SystemMode::kDglHalf;
  EXPECT_EQ(chain(Op::kSegSum, dgl, Dtype::kF16),
            (K{"edge_segment_reduce_f32"}));
  EXPECT_TRUE(dispatch_chain(Op::kSegSum, dgl, Dtype::kF16).at(0).promoted);
  EXPECT_EQ(chain(Op::kSegMax, dgl, Dtype::kF16),
            (K{"edge_segment_reduce_f16"}));
  EXPECT_EQ(chain(Op::kEdgeExp, dgl, Dtype::kF16),
            (K{"edge_exp_sub_row_f32"}));
  EXPECT_TRUE(dispatch_chain(Op::kEdgeExp, dgl, Dtype::kF16).at(0).promoted);
  EXPECT_EQ(chain(Op::kSegSum, hg, Dtype::kF16),
            (K{"edge_segment_reduce_f16"}));
  EXPECT_EQ(chain(Op::kEdgeExp, hg, Dtype::kF16),
            (K{"edge_exp_sub_row_f16"}));
}

TEST(DispatchRegistry, UnknownDtypeFallsBackToF32Reference) {
  const auto bogus = static_cast<Dtype>(99);
  for (const Op op : {Op::kSpmm, Op::kSddmm}) {
    const Chain& c = dispatch_chain(op, SystemMode::kHalfGnn, bogus);
    ASSERT_EQ(c.len, 1) << op_name(op);
    EXPECT_EQ(kernel_row(c.at(0).kernel).label,
              std::string(op_name(op)) + "_reference");
    // at() clamps past-the-end levels to the last (reference) entry.
    EXPECT_EQ(&c.at(0), &c.at(7)) << op_name(op);
  }
}

// Each guard ladder follows its kernel-table chain: after an overflow
// escalation the dispatcher must launch the chain's next kernel, and the
// dispatch.<op>.<kernel> counter names the kernel actually run. DGL-half's
// level-1 SpMM is the AMP f32 promotion, which charges both conversions.
TEST(SparseDispatch, GuardLaddersFollowThePerDtypeChains) {
  Fixture fx(21);
  Rng rng(22);
  const auto n = static_cast<std::size_t>(fx.csr.num_vertices);
  const int feat = 16;
  MTensor xf = MTensor::f32(static_cast<std::int64_t>(n), feat);
  for (auto& v : xf.f()) v = rng.next_float() * 2 - 1;

  const SystemMode hg = SystemMode::kHalfGnn;
  const SystemMode dgl = SystemMode::kDglHalf;
  struct Case {
    const char* op;  // "spmm" | "sddmm"
    SystemMode mode;
    Dtype dt;
    std::vector<std::string> ladder;  // kernel per guard level
    std::vector<std::uint64_t> conversions;  // ledger charges per level
  };
  const std::vector<Case> cases{
      {"spmm", hg, Dtype::kF16,
       {"spmm_halfgnn", "spmm_cusparse_f16", "spmm_reference"}, {0, 0, 0}},
      {"spmm", hg, Dtype::kBf16, {"spmm_bf16", "spmm_reference"}, {0, 0}},
      {"spmm", hg, Dtype::kI8, {"spmm_int8", "spmm_reference"}, {0, 0}},
      {"spmm", hg, Dtype::kB1, {"spmm_binary", "spmm_reference"}, {0, 0}},
      {"spmm", dgl, Dtype::kF16,
       {"spmm_cusparse_f16", "spmm_cusparse_f32", "spmm_reference"},
       {0, 2, 0}},
      {"sddmm", hg, Dtype::kF16, {"sddmm_halfgnn", "sddmm_reference"}, {0, 0}},
      {"sddmm", dgl, Dtype::kF16, {"sddmm_dgl_f16", "sddmm_reference"}, {0, 0}},
      {"sddmm", hg, Dtype::kBf16, {"sddmm_bf16", "sddmm_reference"}, {0, 0}},
      {"sddmm", hg, Dtype::kF32, {"sddmm_dgl_f32", "sddmm_reference"}, {0, 0}},
  };
  for (const Case& c : cases) {
    const std::string what = std::string(c.op) + "/" + mode_name(c.mode) +
                             "/" + std::string(dtype_name(c.dt));
    const MTensor x = dtype_trainable(c.dt) ? to_dtype(xf, c.dt, nullptr)
                                            : to_dtype(xf, Dtype::kF32, nullptr);
    GuardConfig gcfg;
    gcfg.enabled = true;
    gcfg.overflow_streak = 1;  // one bad output escalates immediately
    TrainGuard guard(gcfg);
    SparseCtx ctx;
    ctx.mode = c.mode;
    ctx.guard = &guard;
    ctx.dtype_override = c.dt;

    obs::registry().reset();
    obs::registry().set_enabled(true);
    const int len = static_cast<int>(c.ladder.size());
    for (int level = 0; level < len; ++level) {
      CostLedger ledger;
      ctx.ledger = &ledger;
      if (std::string(c.op) == "spmm") {
        (void)spmm(ctx, *fx.g, nullptr, x, kernels::Reduce::kMean);
      } else {
        (void)sddmm(ctx, *fx.g, x, x);
      }
      const std::string& kernel = c.ladder[static_cast<std::size_t>(level)];
      EXPECT_EQ(obs::registry().counter_value(std::string("dispatch.") +
                                              c.op + "." + kernel),
                1.0)
          << what << " level " << level;
      EXPECT_EQ(ledger.conversions,
                c.conversions[static_cast<std::size_t>(level)])
          << what << " level " << level;
      // Simulate the overflow streak the dispatcher would observe; the next
      // call must run the ladder's next kernel.
      if (level + 1 < len) {
        guard.observe_output(c.op, /*nonfinite=*/true, len,
                             c.ladder[static_cast<std::size_t>(level + 1)]);
        ASSERT_EQ(guard.level(c.op), level + 1) << what;
      }
    }
    obs::registry().set_enabled(false);
    obs::registry().reset();
  }
}

// The lattice kernels agree with the f32 path within each dtype's error
// budget: bf16 within its 8-bit-significand rounding, int8 PTQ within the
// calibrated quantization step. (b1's sign-binarized aggregation is a
// different operator by design; its accuracy story lives in
// bench_precision, not in elementwise agreement.)
TEST(SparseDispatch, LatticeDtypesTrackTheF32Spmm) {
  Fixture fx(23);
  Rng rng(24);
  const auto n = static_cast<std::size_t>(fx.csr.num_vertices);
  const int feat = 16;
  MTensor xf = MTensor::f32(static_cast<std::int64_t>(n), feat);
  for (auto& v : xf.f()) v = rng.next_float() * 2 - 1;

  SparseCtx ctx;
  ctx.mode = SystemMode::kHalfGnn;
  ctx.dtype_override = Dtype::kF32;
  const MTensor yf = spmm(ctx, *fx.g, nullptr, xf, kernels::Reduce::kMean);

  ctx.dtype_override = Dtype::kBf16;
  const MTensor xb = to_dtype(xf, Dtype::kBf16, nullptr);
  const MTensor yb = spmm(ctx, *fx.g, nullptr, xb, kernels::Reduce::kMean);
  ASSERT_EQ(yb.dtype(), Dtype::kBf16);

  ctx.dtype_override = Dtype::kI8;
  const MTensor yq = spmm(ctx, *fx.g, nullptr, xf, kernels::Reduce::kMean);
  ASSERT_EQ(yq.dtype(), Dtype::kF32);  // PTQ dequantizes on the way out

  ctx.dtype_override = Dtype::kB1;
  const MTensor y1 = spmm(ctx, *fx.g, nullptr, xf, kernels::Reduce::kMean);
  ASSERT_EQ(y1.dtype(), Dtype::kF32);

  for (std::int64_t i = 0; i < yf.rows(); ++i) {
    for (int j = 0; j < feat; ++j) {
      const float f = yf.get(i, j);
      EXPECT_NEAR(yb.get(i, j), f, 0.02 + 0.05 * std::abs(f)) << i;
      EXPECT_NEAR(yq.get(i, j), f, 0.03 + 0.05 * std::abs(f)) << i;
      EXPECT_TRUE(std::isfinite(y1.get(i, j))) << i;
    }
  }
}

// The byte counts of the dtype_convert events the tracer recorded, in
// order (each conversion advances the modeled clock).
std::vector<std::uint64_t> traced_conversions() {
  std::vector<std::uint64_t> out;
  const obs::Json doc = obs::tracer().chrome_trace_json();
  for (const obs::Json& e : doc.find("traceEvents")->items()) {
    if (e.find("name")->as_string() != "dtype_convert") continue;
    out.push_back(static_cast<std::uint64_t>(
        e.find("args")->find("bytes")->as_double()));
  }
  return out;
}

// DGL-half's promoted ops under a retried launch: the seg_reduce sum, exp
// and the guard's level-1 spmm convert their operands to f32 in a fixed
// order (spmm the weights, then the features; exp the row values, then the
// edge values) and the result back to f16. An attempt whose launch dies
// has already converted its operands; the retry converts them again, and
// every conversion is charged and traced.
TEST(SparseDispatch, PromotedOpsReconvertOnEveryRetriedAttempt) {
  Fixture fx(25);
  Rng rng(26);
  const std::int64_t n = fx.csr.num_vertices;
  const std::int64_t m = fx.csr.num_edges();
  const int feat = 16;
  const auto filled = [&rng](std::int64_t rows, std::int64_t cols) {
    MTensor t = MTensor::f16(rows, cols);
    for (auto& v : t.h()) v = half_t(rng.next_float() * 2 - 1);
    return t;
  };
  const MTensor x = filled(n, feat);
  const MTensor w = filled(m, 1);
  const MTensor vals = filled(m, 1);
  const MTensor rowv = filled(n, 1);
  const auto f16_bytes = [](std::int64_t k) {
    return static_cast<std::uint64_t>(2 * k);
  };
  const auto f32_bytes = [](std::int64_t k) {
    return static_cast<std::uint64_t>(4 * k);
  };

  struct Case {
    const char* launch;   // the kernel the injector fails
    const char* counter;  // the dispatch.<op>.<label> counter
    std::function<MTensor(const SparseCtx&)> call;
    std::vector<std::uint64_t> converts;  // one attempt's, in order
  };
  const std::vector<Case> cases{
      {"edge_segreduce_f32", "dispatch.seg_reduce.edge_segment_reduce_f32",
       [&](const SparseCtx& c) {
         return seg_reduce(c, *fx.g, vals, kernels::SegReduce::kSum);
       },
       {f16_bytes(m), f32_bytes(n)}},
      {"edge_expsub_f32", "dispatch.edge_exp.edge_exp_sub_row_f32",
       [&](const SparseCtx& c) {
         return edge_exp_sub_row(c, *fx.g, vals, rowv);
       },
       {f16_bytes(n), f16_bytes(m), f32_bytes(m)}},
      {"spmm_cusparse_f32", "dispatch.spmm.spmm_cusparse_f32",
       [&](const SparseCtx& c) {
         return spmm(c, *fx.g, &w, x, kernels::Reduce::kSum);
       },
       {f16_bytes(m), f16_bytes(n * feat), f32_bytes(n * feat)}},
  };
  for (const Case& c : cases) {
    simt::Device dev(simt::a100_spec(), 1);
    // Every second matching launch fails: the first call passes, the
    // second call's first attempt dies and its retry passes.
    dev.set_faults(simt::FaultConfig::parse(
        std::string("launchfail:every=2,kernel=") + c.launch));
    simt::Stream stream(dev);
    GuardConfig gcfg;
    gcfg.enabled = true;
    gcfg.overflow_streak = 1;
    TrainGuard guard(gcfg);
    // One non-finite output moves spmm to its promoted f32 level.
    guard.observe_output("spmm", /*nonfinite=*/true, 3, "spmm_cusparse_f32");
    SparseCtx ctx;
    ctx.stream = &stream;
    ctx.mode = SystemMode::kDglHalf;
    ctx.guard = &guard;

    // The retried call: the dead attempt's operands, then a whole attempt.
    std::vector<std::uint64_t> retried(c.converts.begin(),
                                       c.converts.end() - 1);
    retried.insert(retried.end(), c.converts.begin(), c.converts.end());
    const std::vector<std::uint64_t> expected[] = {c.converts, retried};
    for (int call = 0; call < 2; ++call) {
      CostLedger ledger;
      ctx.ledger = &ledger;
      obs::tracer().reset();
      obs::tracer().set_enabled(true);
      obs::registry().reset();
      obs::registry().set_enabled(true);
      const MTensor out = c.call(ctx);
      obs::tracer().set_enabled(false);
      obs::registry().set_enabled(false);
      EXPECT_EQ(out.dtype(), Dtype::kF16) << c.launch;
      EXPECT_EQ(traced_conversions(), expected[call])
          << c.launch << " call " << call;
      EXPECT_EQ(ledger.conversions, expected[call].size())
          << c.launch << " call " << call;
      // Every attempt announces its entry.
      EXPECT_EQ(obs::registry().counter_value(c.counter), call + 1.0)
          << c.launch << " call " << call;
      EXPECT_EQ(guard.retries(), call) << c.launch;
    }
    obs::tracer().reset();
    obs::registry().reset();
  }
}

TEST(SparseDispatch, GraphCtxInvariants) {
  Fixture fx(17);
  EXPECT_EQ(fx.g->n(), fx.csr.num_vertices);
  EXPECT_EQ(fx.g->m(), fx.csr.num_edges());
  for (vid_t v = 0; v < fx.csr.num_vertices; ++v) {
    const float inv = fx.g->inv_deg()[static_cast<std::size_t>(v)];
    EXPECT_FLOAT_EQ(inv,
                    1.0f / std::max<float>(1.0f, static_cast<float>(
                                                     fx.csr.degree(v))));
  }
  EXPECT_EQ(fx.g->rev_perm().size(),
            static_cast<std::size_t>(fx.csr.num_edges()));
}

}  // namespace
}  // namespace hg::nn
