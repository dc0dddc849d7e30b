// GradScaler unit tests: the torch.cuda.amp growth/backoff policy, the
// fixed [kMinScale, kMaxScale] clamps, set_scale (the TrainGuard rollback
// hook), and the recorded scale trajectory.
#include "amp/amp.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace hg::amp {
namespace {

// `n` updates of the same health.
void updates(GradScaler& s, int n, bool nonfinite) {
  for (int i = 0; i < n; ++i) s.update(nonfinite);
}

TEST(GradScaler, DefaultsMatchHistoricalClamps) {
  EXPECT_EQ(kInitScale, 1024.0f);
  EXPECT_EQ(kGrowth, 2.0f);
  EXPECT_EQ(kBackoff, 0.5f);
  EXPECT_EQ(kGrowthInterval, 200);
  EXPECT_EQ(kMinScale, 1.0f);
  EXPECT_EQ(kMaxScale, 65536.0f);
  GradScaler s;
  EXPECT_FLOAT_EQ(s.scale(), 1024.0f);
}

TEST(GradScaler, GrowsAfterCleanIntervalAndCapsAtMax) {
  GradScaler s;
  // 199 clean steps: no growth yet.
  updates(s, 199, false);
  EXPECT_FLOAT_EQ(s.scale(), 1024.0f);
  // The 200th clean step completes the interval.
  EXPECT_TRUE(s.update(false));
  EXPECT_FLOAT_EQ(s.scale(), 2048.0f);
  // Five more intervals reach the cap; two more cannot pass it.
  updates(s, 5 * 200, false);
  EXPECT_FLOAT_EQ(s.scale(), 65536.0f);
  updates(s, 2 * 200, false);
  EXPECT_FLOAT_EQ(s.scale(), 65536.0f);
  EXPECT_EQ(s.skipped_steps(), 0);
  EXPECT_EQ(s.taken_steps(), 1600);
}

TEST(GradScaler, BacksOffOnNonfiniteAndFloorsAtMin) {
  GradScaler s;
  EXPECT_FALSE(s.update(true));
  EXPECT_FLOAT_EQ(s.scale(), 512.0f);
  // Nine more halvings reach the floor of 1.
  updates(s, 9, true);
  EXPECT_FLOAT_EQ(s.scale(), 1.0f);
  // The floor holds: repeated overflow cannot push below kMinScale.
  EXPECT_FALSE(s.update(true));
  EXPECT_FLOAT_EQ(s.scale(), 1.0f);
  EXPECT_EQ(s.skipped_steps(), 11);
  EXPECT_EQ(s.taken_steps(), 0);
}

TEST(GradScaler, BackoffResetsTheCleanStreak) {
  GradScaler s;
  updates(s, 199, false);
  s.update(true);  // streak dies at 199/200
  EXPECT_FLOAT_EQ(s.scale(), 512.0f);
  updates(s, 199, false);
  EXPECT_FLOAT_EQ(s.scale(), 512.0f);  // 199/200 again: still no growth
  s.update(false);
  EXPECT_FLOAT_EQ(s.scale(), 1024.0f);
}

TEST(GradScaler, SetScaleClampsAndResetsStreak) {
  GradScaler s;
  s.set_scale(0.25f);
  EXPECT_FLOAT_EQ(s.scale(), 1.0f);  // clamped up to the floor
  s.set_scale(1e9f);
  EXPECT_FLOAT_EQ(s.scale(), 65536.0f);  // clamped down to the cap
  // set_scale resets the clean streak: clean steps before it must not
  // count toward the growth interval afterwards.
  s.set_scale(64.0f);
  updates(s, 199, false);
  s.set_scale(64.0f);
  updates(s, 199, false);
  EXPECT_FLOAT_EQ(s.scale(), 64.0f);
  s.update(false);
  EXPECT_FLOAT_EQ(s.scale(), 128.0f);
}

TEST(GradScaler, HistoryRecordsPostUpdateTrajectory) {
  GradScaler s;
  EXPECT_TRUE(s.scale_history().empty());
  updates(s, 200, false);  // the last one grows to 2048
  s.update(true);          // backs off to 1024
  s.update(false);
  std::vector<float> want(199, 1024.0f);
  want.insert(want.end(), {2048.0f, 1024.0f, 1024.0f});
  EXPECT_EQ(s.scale_history(), want);
}

TEST(GradScaler, RestoreStateRoundTripsExactlyUnlikeSetScale) {
  GradScaler a;
  a.update(false);
  a.update(true);
  a.update(false);  // mid-interval: clean streak 1 of 200
  ASSERT_EQ(a.clean_steps(), 1);

  // A scaler rebuilt from the captured trajectory must continue
  // bit-identically — including the mid-interval streak and the history
  // tail, which the clamping/streak-resetting set_scale() path would
  // destroy.
  GradScaler b;
  b.restore(a.trajectory());
  EXPECT_EQ(b.scale(), a.scale());
  EXPECT_EQ(b.clean_steps(), a.clean_steps());
  EXPECT_EQ(b.skipped_steps(), a.skipped_steps());
  EXPECT_EQ(b.taken_steps(), a.taken_steps());
  EXPECT_EQ(b.scale_history(), a.scale_history());

  // Past the next growth: the restored streak decides when it happens.
  for (int i = 0; i < 200; ++i) {
    a.update(false);
    b.update(false);
    EXPECT_EQ(b.scale(), a.scale()) << "diverged at step " << i;
  }
  EXPECT_FLOAT_EQ(b.scale(), 1024.0f);
  EXPECT_EQ(b.scale_history(), a.scale_history());
}

}  // namespace
}  // namespace hg::amp
