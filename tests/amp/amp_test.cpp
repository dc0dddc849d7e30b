// GradScaler unit tests: the torch.cuda.amp growth/backoff policy, the
// configurable min/max clamps, set_scale (the TrainGuard rollback hook),
// and the recorded scale trajectory.
#include "amp/amp.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace hg::amp {
namespace {

TEST(GradScaler, DefaultsMatchHistoricalClamps) {
  GradScaler s;
  EXPECT_FLOAT_EQ(s.scale(), 1024.0f);
  EXPECT_FLOAT_EQ(s.min_scale(), 1.0f);
  EXPECT_FLOAT_EQ(s.max_scale(), 65536.0f);
}

TEST(GradScaler, GrowsAfterCleanIntervalAndCapsAtMax) {
  GradScaler s(/*init_scale=*/1024.0f, /*growth=*/2.0f, /*backoff=*/0.5f,
               /*growth_interval=*/3);
  // Two clean steps: no growth yet.
  EXPECT_TRUE(s.update(false));
  EXPECT_TRUE(s.update(false));
  EXPECT_FLOAT_EQ(s.scale(), 1024.0f);
  // Third clean step completes the interval.
  EXPECT_TRUE(s.update(false));
  EXPECT_FLOAT_EQ(s.scale(), 2048.0f);
  // Keep growing; the cap holds at max_scale.
  for (int i = 0; i < 30; ++i) s.update(false);
  EXPECT_FLOAT_EQ(s.scale(), 65536.0f);
  EXPECT_EQ(s.skipped_steps(), 0);
}

TEST(GradScaler, BacksOffOnNonfiniteAndFloorsAtMin) {
  GradScaler s(/*init_scale=*/8.0f, /*growth=*/2.0f, /*backoff=*/0.5f,
               /*growth_interval=*/200, /*min_scale=*/2.0f);
  EXPECT_FALSE(s.update(true));
  EXPECT_FLOAT_EQ(s.scale(), 4.0f);
  EXPECT_FALSE(s.update(true));
  EXPECT_FLOAT_EQ(s.scale(), 2.0f);
  // The floor holds: repeated overflow cannot push below min_scale.
  EXPECT_FALSE(s.update(true));
  EXPECT_FLOAT_EQ(s.scale(), 2.0f);
  EXPECT_EQ(s.skipped_steps(), 3);
  EXPECT_EQ(s.taken_steps(), 0);
}

TEST(GradScaler, SubUnitMinScaleIsAllowed) {
  // torch allows scales below 1; the configurable floor supports that.
  GradScaler s(/*init_scale=*/1.0f, /*growth=*/2.0f, /*backoff=*/0.5f,
               /*growth_interval=*/200, /*min_scale=*/0.125f);
  s.update(true);
  EXPECT_FLOAT_EQ(s.scale(), 0.5f);
  s.update(true);
  s.update(true);
  s.update(true);
  EXPECT_FLOAT_EQ(s.scale(), 0.125f);
}

TEST(GradScaler, BackoffResetsTheCleanStreak) {
  GradScaler s(/*init_scale=*/16.0f, /*growth=*/2.0f, /*backoff=*/0.5f,
               /*growth_interval=*/3);
  s.update(false);
  s.update(false);
  s.update(true);  // streak dies at 2/3
  EXPECT_FLOAT_EQ(s.scale(), 8.0f);
  s.update(false);
  s.update(false);
  EXPECT_FLOAT_EQ(s.scale(), 8.0f);  // 2/3 again: still no growth
  s.update(false);
  EXPECT_FLOAT_EQ(s.scale(), 16.0f);
}

TEST(GradScaler, SetScaleClampsAndResetsStreak) {
  GradScaler s(/*init_scale=*/1024.0f, /*growth=*/2.0f, /*backoff=*/0.5f,
               /*growth_interval=*/2, /*min_scale=*/4.0f,
               /*max_scale=*/4096.0f);
  s.set_scale(1.0f);
  EXPECT_FLOAT_EQ(s.scale(), 4.0f);  // clamped up to min
  s.set_scale(1e9f);
  EXPECT_FLOAT_EQ(s.scale(), 4096.0f);  // clamped down to max
  // set_scale resets the clean streak: one prior clean step must not count
  // toward the growth interval afterwards.
  s.set_scale(64.0f);
  s.update(false);
  s.set_scale(64.0f);
  s.update(false);
  EXPECT_FLOAT_EQ(s.scale(), 64.0f);
  s.update(false);
  EXPECT_FLOAT_EQ(s.scale(), 128.0f);
}

TEST(GradScaler, HistoryRecordsPostUpdateTrajectory) {
  GradScaler s(/*init_scale=*/8.0f, /*growth=*/2.0f, /*backoff=*/0.5f,
               /*growth_interval=*/2);
  EXPECT_TRUE(s.scale_history().empty());
  s.update(false);
  s.update(false);  // grows to 16
  s.update(true);   // backs off to 8
  s.update(false);
  const std::vector<float> want{8.0f, 16.0f, 8.0f, 8.0f};
  EXPECT_EQ(s.scale_history(), want);
}

TEST(GradScaler, RestoreStateRoundTripsExactlyUnlikeSetScale) {
  GradScaler a(/*init_scale=*/8.0f, /*growth=*/2.0f, /*backoff=*/0.5f,
               /*growth_interval=*/3);
  a.update(false);
  a.update(true);
  a.update(false);  // mid-interval: clean streak 1 of 3
  ASSERT_EQ(a.clean_steps(), 1);

  // A scaler rebuilt from the captured trajectory must continue
  // bit-identically — including the mid-interval streak and the history
  // tail, which the clamping/streak-resetting set_scale() path would
  // destroy.
  GradScaler b(/*init_scale=*/8.0f, /*growth=*/2.0f, /*backoff=*/0.5f,
               /*growth_interval=*/3);
  b.restore(a.trajectory());
  EXPECT_EQ(b.scale(), a.scale());
  EXPECT_EQ(b.clean_steps(), a.clean_steps());
  EXPECT_EQ(b.skipped_steps(), a.skipped_steps());
  EXPECT_EQ(b.taken_steps(), a.taken_steps());
  EXPECT_EQ(b.scale_history(), a.scale_history());

  for (int i = 0; i < 4; ++i) {
    a.update(false);
    b.update(false);
    EXPECT_EQ(b.scale(), a.scale()) << "diverged at step " << i;
  }
  EXPECT_EQ(b.scale_history(), a.scale_history());
}

}  // namespace
}  // namespace hg::amp
