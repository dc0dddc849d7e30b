// hgcheck soundness bridge: the static verifier's predicted exponent
// intervals must CONTAIN every exponent histogram the dynamic profiler
// actually observes — per launched kernel and per trainer-sampled tensor
// (logits activations/gradients and every parameter gradient, across all
// epochs) — for every (model x dtype) cell, at HALFGNN_THREADS
// 1/2/7/16, on both SIMD interpreter paths. This is the machine check of
// every envelope assumption DESIGN.md Sec. 15.3 declares: if training
// drifts past kActSlack/kGradSlack/kAdamKappa, containment breaks here.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "check/check.hpp"
#include "graph/datasets.hpp"
#include "nn/trainer.hpp"
#include "obs/prof/prof.hpp"
#include "simt/simd.hpp"
#include "simt/simt.hpp"

namespace hg::check {
namespace {

constexpr int kEpochs = 2;

constexpr int kThreads[] = {1, 2, 7, 16};

// Restores the ambient SIMD path when a sweep leg finishes.
class PathGuard {
 public:
  PathGuard() : prev_(simt::simd::active_path()) {}
  ~PathGuard() { (void)simt::simd::set_path(prev_); }

 private:
  simt::simd::Path prev_;
};

void expect_contained(const Dataset& data, nn::ModelKind model,
                      nn::SystemMode mode, std::optional<Dtype> dtype,
                      int threads, simt::simd::Path path) {
  PathGuard guard;
  if (!simt::simd::set_path(path)) {
    return;  // this build/CPU lacks the tier; the scalar legs still run
  }
  const std::string tag =
      std::string(nn::model_name(model)) + "/" + nn::mode_name(mode) + "/" +
      (dtype ? std::string(dtype_name(*dtype)) : std::string("mode-dtype")) +
      "/t" + std::to_string(threads) + "/" +
      simt::simd::path_name(path);

  CheckConfig ccfg;
  ccfg.model = model;
  ccfg.mode = mode;
  ccfg.dtype = dtype;
  ccfg.epochs = kEpochs;
  const CheckResult pred = analyze(data, ccfg);

  simt::Device dev(simt::a100_spec(), threads);
  dev.set_profiler(obs::prof::ProfConfig::parse("numerics"));
  simt::Stream stream(dev);
  nn::TrainConfig tcfg;
  tcfg.epochs = kEpochs;
  tcfg.dtype = dtype;
  tcfg.stream = &stream;
  (void)nn::train(model, mode, data, tcfg);

  std::size_t kernels_checked = 0;
  for (const auto& [name, hist] : dev.profiler().kernel_numerics()) {
    if (hist.total == 0) continue;
    const PredInterval* p = pred.kernel(name);
    ASSERT_NE(p, nullptr)
        << tag << ": observed kernel '" << name << "' has no prediction";
    EXPECT_EQ(p->contains(hist), "") << tag << " kernel " << name;
    ++kernels_checked;
  }
  EXPECT_GT(kernels_checked, 0u) << tag;

  std::size_t tensors_checked = 0;
  for (const auto& [name, hist] : dev.profiler().tensor_numerics_merged()) {
    if (hist.total == 0) continue;
    const PredInterval* p = pred.tensor(name);
    ASSERT_NE(p, nullptr)
        << tag << ": observed tensor '" << name << "' has no prediction";
    EXPECT_EQ(p->contains(hist), "") << tag << " tensor " << name;
    ++tensors_checked;
  }
  EXPECT_GT(tensors_checked, 0u) << tag;
}

void sweep_model(nn::ModelKind model) {
  const Dataset cora = make_dataset(DatasetId::kCora);
  for (const Dtype dt : all_dtypes()) {
    for (const int threads : kThreads) {
      for (const simt::simd::Path path : simt::simd::kPaths) {
        expect_contained(cora, model, nn::SystemMode::kHalfGnn, dt, threads,
                         path);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(CheckSoundness, GcnAllDtypesAllThreadsBothSimdPaths) {
  sweep_model(nn::ModelKind::kGcn);
}

TEST(CheckSoundness, GatAllDtypesAllThreadsBothSimdPaths) {
  sweep_model(nn::ModelKind::kGat);
}

TEST(CheckSoundness, GinAllDtypesAllThreadsBothSimdPaths) {
  sweep_model(nn::ModelKind::kGin);
}

TEST(CheckSoundness, DglModesContainedToo) {
  // The DGL baselines use different kernels (cusparse-style staged sums,
  // AMP-promoted edge ops): containment must hold there as well.
  const Dataset cora = make_dataset(DatasetId::kCora);
  for (const nn::SystemMode mode :
       {nn::SystemMode::kDglFloat, nn::SystemMode::kDglHalf}) {
    for (const nn::ModelKind model :
         {nn::ModelKind::kGcn, nn::ModelKind::kGat, nn::ModelKind::kGin}) {
      expect_contained(cora, model, mode, std::nullopt, 7,
                       simt::simd::Path::kAvx2);
      expect_contained(cora, model, mode, std::nullopt, 2,
                       simt::simd::Path::kScalar);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(CheckSoundness, HubRegressionGraphFactorMatchesRuntime) {
  // The hub-overflow graph (reddit-sim, 4 hub rows): the statically
  // reported applied_factor for the discretized spmm must equal the
  // inv_deg divisor the runtime applies at the hub row — i.e. the hub
  // degree — and training under HalfGNN must stay finite (the regime the
  // paper's Fig. 1c calls scaled-f16).
  const Dataset reddit = make_dataset(DatasetId::kReddit);
  CheckConfig ccfg;
  ccfg.model = nn::ModelKind::kGcn;
  ccfg.epochs = kEpochs;
  const CheckResult pred = analyze(reddit, ccfg);
  const vid_t hub_deg = pred.degrees.max_degree;
  bool saw = false;
  for (const SiteVerdict& v : pred.verdicts) {
    if (v.active && v.site == "L1.fwd.spmm" && v.kernel == "spmm_halfgnn") {
      ASSERT_EQ(v.verdict, Verdict::kNeedsScaling);
      EXPECT_EQ(v.protection, "discretized");
      EXPECT_EQ(static_cast<vid_t>(v.applied_factor), hub_deg);
      saw = true;
    }
  }
  ASSERT_TRUE(saw);

  simt::Device dev(simt::a100_spec(), 7);
  dev.set_profiler(obs::prof::ProfConfig::parse("numerics"));
  simt::Stream stream(dev);
  nn::TrainConfig tcfg;
  tcfg.epochs = kEpochs;
  tcfg.stream = &stream;
  const nn::TrainResult res =
      nn::train(nn::ModelKind::kGcn, nn::SystemMode::kHalfGnn, reddit, tcfg);
  EXPECT_EQ(res.nan_loss_epochs, 0);
  for (const auto& [name, hist] : dev.profiler().kernel_numerics()) {
    if (hist.total == 0) continue;
    const PredInterval* p = pred.kernel(name);
    ASSERT_NE(p, nullptr) << name;
    EXPECT_EQ(p->contains(hist), "") << name;
  }
}

}  // namespace
}  // namespace hg::check
