// TrainGuard tests: checkpoint/rollback state restoration, fallback-chain
// escalation, the first-NaN-epoch regression signal, and end-to-end
// self-healing training against an injecting Device (launch failures and
// forced reduction overflow).
#include "nn/guard.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "graph/generators.hpp"
#include "nn/trainer.hpp"
#include "simt/fault.hpp"

namespace hg::nn {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// The nn_test.cpp recipe: a small labeled SBM, optionally with a
// class-correlated hub and large shared feature offsets (hub overflow).
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

// --- checkpoint ring / rollback ---------------------------------------------

// The fixed policy these tests walk through.
static_assert(TrainGuard::kCheckpointInterval == 5);
static_assert(TrainGuard::kCheckpointRing == 2);
static_assert(TrainGuard::kNanStreak == 2);
static_assert(TrainGuard::kOverflowStreak == 3);

TEST(TrainGuardUnit, RollbackRestoresParamsScalerAndStepCount) {
  TrainGuard guard;

  Param p(2, 3);
  std::vector<Param*> ps{&p};
  auto fill = [&](float w, float m, float v) {
    for (auto& x : p.master().f()) x = w;
    for (auto& x : p.adam_m().f()) x = m;
    for (auto& x : p.adam_v().f()) x = v;
  };
  fill(1.0f, 2.0f, 3.0f);
  amp::GradScaler scaler;  // 1024
  int adam_t = 7;
  guard.maybe_checkpoint(0, ps, scaler, adam_t);
  EXPECT_EQ(guard.checkpoints(), 1);

  // Training "continues" and then collapses.
  fill(-9.0f, -9.0f, -9.0f);
  adam_t = 23;
  scaler.set_scale(64.0f);
  EXPECT_FALSE(guard.note_loss(kNan));  // streak 1/2
  EXPECT_TRUE(guard.note_loss(kNan));   // streak hits the trigger
  guard.rollback(ps, scaler, adam_t);

  EXPECT_EQ(guard.rollbacks(), 1);
  EXPECT_EQ(adam_t, 7);
  for (float x : p.master().f()) EXPECT_FLOAT_EQ(x, 1.0f);
  for (float x : p.adam_m().f()) EXPECT_FLOAT_EQ(x, 2.0f);
  for (float x : p.adam_v().f()) EXPECT_FLOAT_EQ(x, 3.0f);
  // The restored scale is the snapshot's, backed off once more.
  EXPECT_FLOAT_EQ(scaler.scale(), 512.0f);
}

TEST(TrainGuardUnit, FiniteLossResetsTheNanStreak) {
  TrainGuard guard;
  Param p(1, 1);
  amp::GradScaler scaler;
  guard.maybe_checkpoint(0, {&p}, scaler, 0);
  EXPECT_FALSE(guard.note_loss(kNan));
  EXPECT_FALSE(guard.note_loss(0.5));  // streak dies
  EXPECT_FALSE(guard.note_loss(kNan));
  EXPECT_TRUE(guard.note_loss(kNan));
}

TEST(TrainGuardUnit, RingEvictsOldestAndSkipsNanEpochs) {
  TrainGuard guard;
  Param p(1, 2);
  std::vector<Param*> ps{&p};
  amp::GradScaler scaler;
  int adam_t = 0;

  auto set_w = [&](float w) {
    for (auto& x : p.master().f()) x = w;
  };
  set_w(10.0f);
  guard.maybe_checkpoint(0, ps, scaler, 1);
  set_w(20.0f);
  guard.maybe_checkpoint(5, ps, scaler, 2);
  set_w(30.0f);
  guard.maybe_checkpoint(10, ps, scaler, 3);  // evicts epoch 0
  EXPECT_EQ(guard.checkpoints(), 3);
  ASSERT_EQ(guard.state().ring.size(), 2u);
  EXPECT_EQ(guard.state().ring.front().epoch, 5);

  // Off-interval epochs and post-NaN interval epochs do not snapshot.
  guard.maybe_checkpoint(11, ps, scaler, 4);
  guard.note_loss(kNan);
  guard.maybe_checkpoint(15, ps, scaler, 5);
  EXPECT_EQ(guard.checkpoints(), 3);

  set_w(-1.0f);
  guard.rollback(ps, scaler, adam_t);
  for (float x : p.master().f()) EXPECT_FLOAT_EQ(x, 30.0f);  // newest wins
  EXPECT_EQ(adam_t, 3);
}

// --- fallback escalation -----------------------------------------------------

TEST(TrainGuardUnit, FallbackEscalatesAfterStreakAndCapsAtChainEnd) {
  TrainGuard guard;
  const int chain_len = 3;

  EXPECT_EQ(guard.level("spmm"), 0);
  guard.observe_output("spmm", true, chain_len);
  guard.observe_output("spmm", true, chain_len);
  EXPECT_EQ(guard.level("spmm"), 0);  // streak 2/3
  guard.observe_output("spmm", true, chain_len);
  EXPECT_EQ(guard.level("spmm"), 1);
  EXPECT_EQ(guard.fallbacks(), 1);

  // A finite output resets the streak at the new level.
  guard.observe_output("spmm", true, chain_len);
  guard.observe_output("spmm", true, chain_len);
  guard.observe_output("spmm", false, chain_len);
  guard.observe_output("spmm", true, chain_len);
  guard.observe_output("spmm", true, chain_len);
  EXPECT_EQ(guard.level("spmm"), 1);
  guard.observe_output("spmm", true, chain_len);
  EXPECT_EQ(guard.level("spmm"), 2);

  // The chain end is sticky: further streaks cannot escalate past it.
  for (int i = 0; i < 9; ++i) guard.observe_output("spmm", true, chain_len);
  EXPECT_EQ(guard.level("spmm"), 2);
  EXPECT_EQ(guard.fallbacks(), 2);

  // Sites are independent.
  EXPECT_EQ(guard.level("sddmm"), 0);
}

// --- first-NaN-epoch regression signal ---------------------------------------

TEST(FirstNanEpoch, RecordsTheHubOverflowCollapsePoint) {
  // The gin_hub_overflow geometry: GIN's sum aggregation over a planted hub
  // overflows half under DGL-half semantics; HalfGNN's discretized scaling
  // survives. first_nan_epoch must agree with the loss trajectory.
  const Dataset d = tiny_dataset(1200, 4, 3000, 16, /*hubby=*/true, 35);
  TrainConfig cfg = default_config(ModelKind::kGin);
  cfg.epochs = 40;
  cfg.hidden = 16;

  const TrainResult f16 = train(ModelKind::kGin, SystemMode::kDglHalf, d, cfg);
  ASSERT_GT(f16.nan_loss_epochs, 0);
  ASSERT_GE(f16.first_nan_epoch, 0);
  int first = -1;
  for (std::size_t e = 0; e < f16.losses.size(); ++e) {
    if (std::isnan(f16.losses[e])) {
      first = static_cast<int>(e);
      break;
    }
  }
  EXPECT_EQ(f16.first_nan_epoch, first);

  const TrainResult ours =
      train(ModelKind::kGin, SystemMode::kHalfGnn, d, cfg);
  EXPECT_EQ(ours.nan_loss_epochs, 0);
  EXPECT_EQ(ours.first_nan_epoch, -1);
}

// --- end-to-end self-healing against an injecting device ---------------------

TEST(GuardTraining, LaunchfailsAreRetriedToCompletion) {
  const Dataset d = tiny_dataset(300, 3, 900, 16, false, 91);
  TrainConfig cfg = default_config(ModelKind::kGcn);
  cfg.epochs = 6;
  cfg.hidden = 16;

  {
    simt::Device dev(simt::a100_spec(), 2);
    dev.set_faults(simt::FaultConfig::parse("launchfail:every=5"));
    simt::Stream stream(dev);
    cfg.stream = &stream;
    cfg.guard = false;
    EXPECT_THROW(train(ModelKind::kGcn, SystemMode::kHalfGnn, d, cfg),
                 simt::LaunchFault);
  }
  {
    simt::Device dev(simt::a100_spec(), 2);
    dev.set_faults(simt::FaultConfig::parse("launchfail:every=5"));
    simt::Stream stream(dev);
    cfg.stream = &stream;
    cfg.guard = true;
    const TrainResult res = train(ModelKind::kGcn, SystemMode::kHalfGnn, d,
                                  cfg);
    EXPECT_GT(res.guard_retries, 0);
    EXPECT_EQ(res.nan_loss_epochs, 0);
    EXPECT_EQ(static_cast<int>(res.losses.size()), cfg.epochs);
  }
}

TEST(GuardTraining, ForcedOverflowEscalatesTheSpmmFallbackChain) {
  const Dataset d = tiny_dataset(300, 3, 900, 16, false, 92);
  TrainConfig cfg = default_config(ModelKind::kGcn);
  cfg.epochs = 10;
  cfg.hidden = 16;

  simt::Device dev(simt::a100_spec(), 2);
  // Saturate every store of the paper's discretized SpMM (and its followup
  // passes) to +INF; the cuSPARSE-like fallback level is untouched.
  dev.set_faults(simt::FaultConfig::parse("overflow:kernel=spmm_halfgnn"));
  simt::Stream stream(dev);
  cfg.stream = &stream;
  cfg.guard = true;
  const TrainResult res =
      train(ModelKind::kGcn, SystemMode::kHalfGnn, d, cfg);

  EXPECT_GT(res.guard_fallbacks, 0);
  // Once the site degrades to the clean kernel, training recovers: the
  // last epoch's loss is finite.
  ASSERT_FALSE(res.losses.empty());
  EXPECT_TRUE(std::isfinite(res.losses.back()));
  EXPECT_LT(res.nan_loss_epochs, cfg.epochs);
}

TEST(GuardTraining, DisabledGuardLeavesResultCountersAtZero) {
  const Dataset d = tiny_dataset(200, 3, 600, 8, false, 93);
  TrainConfig cfg = default_config(ModelKind::kGcn);
  cfg.epochs = 3;
  cfg.hidden = 8;
  const TrainResult res =
      train(ModelKind::kGcn, SystemMode::kHalfGnn, d, cfg);
  EXPECT_EQ(res.guard_retries, 0);
  EXPECT_EQ(res.guard_rollbacks, 0);
  EXPECT_EQ(res.guard_fallbacks, 0);
  EXPECT_EQ(res.guard_checkpoints, 0);
}

}  // namespace
}  // namespace hg::nn
