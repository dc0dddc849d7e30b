// nn-layer tests: finite-difference gradient checks for all three models,
// end-to-end convergence, and the paper's accuracy-collapse property
// (Fig. 1c / Fig. 5) on a scaled hub dataset.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "graph/generators.hpp"
#include "nn/exec.hpp"
#include "nn/trainer.hpp"

namespace hg::nn {
namespace {

// A small labeled SBM dataset; optionally with a class-correlated hub and
// large shared feature offsets (the overflow recipe of datasets.cpp).
Dataset tiny_dataset(vid_t n, int k, eid_t m, int feat, bool hubby,
                     std::uint64_t seed) {
  Dataset d;
  d.labeled = true;
  d.feat_dim = feat;
  d.num_classes = k;
  Rng rng(seed);
  Coo raw = sbm(n, k, m, 0.9, rng, d.labels);
  if (hubby) plant_hubs(raw, 2, n * 5 / 6, rng);
  d.csr = symmetrize(coo_to_csr(raw));
  d.csr_t = d.csr;
  d.coo = csr_to_coo(d.csr);

  const auto fu = static_cast<std::size_t>(feat);
  std::vector<float> base(fu), means(static_cast<std::size_t>(k) * fu);
  const float base_scale = hubby ? 50.0f : 0.0f;
  for (auto& b : base) b = static_cast<float>(rng.next_normal()) * base_scale;
  for (auto& mm : means) mm = static_cast<float>(rng.next_normal()) * 3.0f;
  d.features.resize(static_cast<std::size_t>(n) * fu);
  d.train_mask.resize(static_cast<std::size_t>(n));
  for (vid_t v = 0; v < n; ++v) {
    const auto vu = static_cast<std::size_t>(v);
    for (std::size_t j = 0; j < fu; ++j) {
      d.features[vu * fu + j] =
          base[j] + means[static_cast<std::size_t>(d.labels[vu]) * fu + j] +
          static_cast<float>(rng.next_normal());
    }
    d.train_mask[vu] = (v % 5) < 3 ? 1 : 0;
  }
  return d;
}

double model_loss(Model& model, const SparseCtx& ctx, const GraphCtx& g,
                  const MTensor& x, const Dataset& d, int classes) {
  MTensor logits = model.forward(ctx, g, x);
  return softmax_xent(logits, d.labels, d.train_mask, true, classes, 1.0f,
                      nullptr, nullptr)
      .loss;
}

class GradCheck : public ::testing::TestWithParam<ModelKind> {};

TEST_P(GradCheck, AnalyticMatchesFiniteDifference) {
  const ModelKind kind = GetParam();
  const Dataset d = tiny_dataset(60, 3, 150, 8, false, 7);
  GraphCtx g(d.csr, d.coo);
  Rng rng(3);
  const int classes = d.num_classes;
  const int out_dim = pad_feat(classes);
  auto model = make_model(kind, d.feat_dim, 8, out_dim, rng);

  MTensor x = MTensor::f32(d.num_vertices(), d.feat_dim);
  std::copy(d.features.begin(), d.features.end(), x.f().begin());
  // Keep activations moderate for clean finite differences.
  for (auto& v : x.f()) v *= 0.2f;

  SparseCtx ctx;  // float mode, no profiling
  for (auto* p : model->params()) p->zero_grad();
  MTensor logits = model->forward(ctx, g, x);
  MTensor dlogits;
  softmax_xent(logits, d.labels, d.train_mask, true, classes, 1.0f,
               &dlogits, nullptr);
  model->backward(ctx, g, dlogits);

  Rng pick(11);
  int checked = 0;
  for (auto* p : model->params()) {
    auto w = p->master().f();
    auto grad = p->grad().f();
    for (int rep = 0; rep < 6; ++rep) {
      const auto i =
          static_cast<std::size_t>(pick.next_below(w.size()));
      const float orig = w[i];
      const float eps = 2e-3f;
      w[i] = orig + eps;
      p->invalidate_working();
      const double lp = model_loss(*model, ctx, g, x, d, classes);
      w[i] = orig - eps;
      p->invalidate_working();
      const double lm = model_loss(*model, ctx, g, x, d, classes);
      w[i] = orig;
      p->invalidate_working();
      const double fd = (lp - lm) / (2 * eps);
      EXPECT_NEAR(grad[i], fd, 2e-2 + 0.05 * std::abs(fd))
          << model_name(kind) << " param elem " << i;
      ++checked;
    }
  }
  EXPECT_GE(checked, 12);
}

INSTANTIATE_TEST_SUITE_P(Models, GradCheck,
                         ::testing::Values(ModelKind::kGcn, ModelKind::kGat,
                                           ModelKind::kGin));

class Convergence
    : public ::testing::TestWithParam<std::tuple<ModelKind, SystemMode>> {};

TEST_P(Convergence, LearnsSeparableSbm) {
  const auto [kind, mode] = GetParam();
  const Dataset d = tiny_dataset(600, 4, 2500, 16, false, 21);
  TrainConfig cfg = default_config(kind);
  cfg.epochs = 120;
  cfg.hidden = 16;
  const TrainResult res = train(kind, mode, d, cfg);
  // A well-separated 4-class SBM: every mode/model should classify well.
  EXPECT_GT(res.best_test_acc, 0.85)
      << model_name(kind) << " " << mode_name(mode);
  EXPECT_EQ(res.nan_loss_epochs, 0)
      << model_name(kind) << " " << mode_name(mode);
}

INSTANTIATE_TEST_SUITE_P(
    All, Convergence,
    ::testing::Combine(::testing::Values(ModelKind::kGcn, ModelKind::kGat,
                                         ModelKind::kGin),
                       ::testing::Values(SystemMode::kDglFloat,
                                         SystemMode::kDglHalf,
                                         SystemMode::kHalfGnn)));

// A hidden width a HalfGNN kernel cannot take (sddmm_halfgnn needs a
// multiple of 8, spmm_halfgnn an even width) is rejected before epoch 0;
// every other mode and dtype trains at it.
TEST(FeatureWidth, HalfGnnRejectsWidthsItsKernelsCannotTake) {
  const Dataset d = tiny_dataset(200, 4, 800, 16, false, 5);
  const auto run = [&](ModelKind kind, SystemMode mode, int hidden,
                       std::optional<Dtype> dt) {
    TrainConfig cfg = default_config(kind);
    cfg.epochs = 1;
    cfg.hidden = hidden;
    cfg.dtype = dt;
    return train(kind, mode, d, cfg);
  };
  const auto h = SystemMode::kHalfGnn;
  EXPECT_THROW(run(ModelKind::kGat, h, 60, std::nullopt),
               std::invalid_argument);
  EXPECT_THROW(run(ModelKind::kGat, h, 12, std::nullopt),
               std::invalid_argument);
  for (const ModelKind k : {ModelKind::kGcn, ModelKind::kGat,
                            ModelKind::kGin}) {
    EXPECT_THROW(run(k, h, 63, std::nullopt), std::invalid_argument)
        << model_name(k);
    EXPECT_EQ(run(k, SystemMode::kDglHalf, 63, std::nullopt).losses.size(),
              1u)
        << model_name(k);
    EXPECT_EQ(run(k, SystemMode::kDglFloat, 63, std::nullopt).losses.size(),
              1u)
        << model_name(k);
    for (const Dtype dt : {Dtype::kBf16, Dtype::kF32, Dtype::kI8}) {
      EXPECT_EQ(run(k, h, 63, dt).losses.size(), 1u) << model_name(k);
    }
  }
  // GCN and GIN run no sddmm: an even width that is no multiple of 8 trains.
  EXPECT_EQ(run(ModelKind::kGcn, h, 60, std::nullopt).losses.size(), 1u);
  EXPECT_EQ(run(ModelKind::kGin, h, 60, std::nullopt).losses.size(), 1u);
  try {
    run(ModelKind::kGat, h, 60, std::nullopt);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("sddmm_halfgnn"), std::string::npos)
        << e.what();
  }
}

TEST(OverflowCollapse, DglHalfDiesOnHubsHalfGnnSurvives) {
  // The Fig. 1c / Fig. 5 mechanism end to end, scaled down: a hub dataset
  // whose unprotected half reduction overflows. DGL-half GCN goes NaN;
  // HalfGNN and DGL-float train fine.
  const Dataset d = tiny_dataset(1200, 4, 3000, 16, /*hubby=*/true, 33);
  TrainConfig cfg = default_config(ModelKind::kGcn);
  cfg.epochs = 60;
  cfg.hidden = 16;

  const TrainResult f32 = train(ModelKind::kGcn, SystemMode::kDglFloat, d,
                                cfg);
  const TrainResult f16 = train(ModelKind::kGcn, SystemMode::kDglHalf, d,
                                cfg);
  const TrainResult ours = train(ModelKind::kGcn, SystemMode::kHalfGnn, d,
                                 cfg);

  // (The large shared feature offsets that force hub overflow also make
  // the classification harder — float tops out near 0.75 in 60 epochs;
  // what matters here is the *relative* story.)
  EXPECT_GT(f32.best_test_acc, 0.7);
  EXPECT_EQ(f32.nan_loss_epochs, 0);

  EXPECT_GT(f16.nan_loss_epochs, cfg.epochs / 2) << "DGL-half should go NaN";
  EXPECT_LT(f16.best_test_acc, 0.6);

  EXPECT_EQ(ours.nan_loss_epochs, 0) << "discretized scaling must protect";
  EXPECT_GT(ours.best_test_acc, 0.7);
  EXPECT_NEAR(ours.best_test_acc, f32.best_test_acc, 0.05);
}

TEST(OverflowCollapse, GinSumAggregationAlsoDies) {
  const Dataset d = tiny_dataset(1200, 4, 3000, 16, /*hubby=*/true, 35);
  TrainConfig cfg = default_config(ModelKind::kGin);
  cfg.epochs = 60;
  cfg.hidden = 16;
  const TrainResult f16 =
      train(ModelKind::kGin, SystemMode::kDglHalf, d, cfg);
  const TrainResult ours =
      train(ModelKind::kGin, SystemMode::kHalfGnn, d, cfg);
  EXPECT_GT(f16.nan_loss_epochs, 0);
  EXPECT_EQ(ours.nan_loss_epochs, 0);
  EXPECT_GT(ours.best_test_acc, 0.7);
}

TEST(ConversionChurn, DglHalfConvertsHalfGnnDoesNot) {
  // Sec. 3.1.2: the AMP float promotions force tensor conversions in
  // DGL-half (GAT exercises exp + sum); the shadow APIs eliminate them.
  const Dataset d = tiny_dataset(400, 3, 1200, 16, false, 44);
  TrainConfig cfg = default_config(ModelKind::kGat);
  cfg.epochs = 1;
  cfg.hidden = 16;
  cfg.profile_first_epoch = true;

  const TrainResult dgl =
      train(ModelKind::kGat, SystemMode::kDglHalf, d, cfg);
  const TrainResult ours =
      train(ModelKind::kGat, SystemMode::kHalfGnn, d, cfg);

  // Both still pay the float CE round trip (weight updates are float by
  // design), but DGL-half converts around exp and sum on edge tensors too.
  EXPECT_GT(dgl.epoch_ledger.conversions, ours.epoch_ledger.conversions + 4);
  EXPECT_GT(dgl.epoch_ledger.convert_ms, ours.epoch_ledger.convert_ms);
}

TEST(MemoryModel, HalfGnnUsesRoughlyHalfPlusGraphSavings) {
  const Dataset d = tiny_dataset(2000, 4, 20000, 32, false, 55);
  TrainConfig cfg = default_config(ModelKind::kGcn);
  cfg.epochs = 1;
  const TrainResult f32 =
      train(ModelKind::kGcn, SystemMode::kDglFloat, d, cfg);
  const TrainResult ours =
      train(ModelKind::kGcn, SystemMode::kHalfGnn, d, cfg);
  const double ratio = static_cast<double>(f32.memory.total()) /
                       static_cast<double>(ours.memory.total());
  EXPECT_GT(ratio, 1.8);  // at least the dtype factor plus graph savings
  EXPECT_LT(ratio, 4.0);
}

TEST(Determinism, ProfiledTrainingMatchesUnprofiledExactly) {
  // Fig. 7/8 rest on this: profiling epoch 0 under the cost model must not
  // perturb the numerics in any way.
  const Dataset d = tiny_dataset(300, 3, 1000, 8, false, 77);
  TrainConfig cfg = default_config(ModelKind::kGcn);
  cfg.epochs = 5;
  cfg.hidden = 8;
  TrainConfig cfg_prof = cfg;
  cfg_prof.profile_first_epoch = true;
  for (SystemMode mode : {SystemMode::kDglFloat, SystemMode::kHalfGnn}) {
    const TrainResult a = train(ModelKind::kGcn, mode, d, cfg);
    const TrainResult b = train(ModelKind::kGcn, mode, d, cfg_prof);
    ASSERT_EQ(a.losses.size(), b.losses.size());
    for (std::size_t i = 0; i < a.losses.size(); ++i) {
      ASSERT_EQ(a.losses[i], b.losses[i]) << mode_name(mode) << " ep " << i;
    }
    ASSERT_EQ(a.final_test_acc, b.final_test_acc);
    // And the profiled run actually produced a ledger.
    EXPECT_GT(b.epoch_ledger.total_ms(), 0.0);
    EXPECT_EQ(a.epoch_ledger.total_ms(), 0.0);
  }
}

TEST(Determinism, TrainingIsReproducibleAcrossRuns) {
  const Dataset d = tiny_dataset(300, 3, 1000, 8, false, 78);
  TrainConfig cfg = default_config(ModelKind::kGin);
  cfg.epochs = 5;
  cfg.hidden = 8;
  const TrainResult a = train(ModelKind::kGin, SystemMode::kHalfGnn, d, cfg);
  const TrainResult b = train(ModelKind::kGin, SystemMode::kHalfGnn, d, cfg);
  for (std::size_t i = 0; i < a.losses.size(); ++i) {
    ASSERT_EQ(a.losses[i], b.losses[i]);
  }
}

TEST(GradScaler, BacksOffAndRecovers) {
  amp::GradScaler s(1024.0f);
  EXPECT_FALSE(s.update(true));
  EXPECT_FLOAT_EQ(s.scale(), 512.0f);
  for (int i = 0; i < 200; ++i) EXPECT_TRUE(s.update(false));
  EXPECT_FLOAT_EQ(s.scale(), 1024.0f);
  EXPECT_EQ(s.skipped_steps(), 1);
  EXPECT_EQ(s.taken_steps(), 200);
}

// The Fig. 1c hazard in dW = X^T dY: a saved input row that ReLU left all
// zero meets an overflowed (Inf) gradient row. 0 * Inf is NaN, so the
// weight gradient is non-finite and the GradScaler skips the step instead
// of applying a gradient that silently dropped the overflow.
TEST(GradScaler, SkipsAnInfGradientBehindAReluZeroRow) {
  const Dataset d = tiny_dataset(8, 2, 16, 8, false, 5);
  const GraphCtx g(d.csr, d.coo);
  SparseCtx ctx;
  ctx.mode = SystemMode::kHalfGnn;
  Exec b(ctx, g);
  Rng rng(5);
  Linear<Exec> lin(2, 2, /*bias=*/false, rng);

  MTensor x = MTensor::f16(2, 2);  // row 0: zeros, as ReLU leaves it
  x.set(1, 0, 1.0f);
  x.set(1, 1, 2.0f);
  (void)lin.forward(b, "fwd.gemm", x);
  MTensor dy = MTensor::f16(2, 2);  // row 0 overflowed
  dy.set(0, 0, INFINITY);
  dy.set(0, 1, 1.0f);
  dy.set(1, 0, 0.5f);
  dy.set(1, 1, 0.25f);
  (void)lin.backward(b, "bwd.dW", "bwd.dX", dy);

  const Param& w = *lin.params().front();
  EXPECT_TRUE(w.grad_nonfinite(1.0f));
  amp::GradScaler scaler(1024.0f);
  EXPECT_FALSE(scaler.update(w.grad_nonfinite(1.0f)));
  EXPECT_EQ(scaler.skipped_steps(), 1);
}

}  // namespace
}  // namespace hg::nn
