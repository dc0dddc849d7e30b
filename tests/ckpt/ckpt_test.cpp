// Durable checkpoint tests: serializer round-trips, the on-disk store's
// checksum/torn-write fallback, and the keystone invariant — kill + resume
// produces results, metrics JSON, and trace JSON byte-identical to an
// uninterrupted run, at every thread count and on both SIMD paths.
#include "ckpt/store.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ckpt/serial.hpp"
#include "graph/generators.hpp"
#include "nn/trainer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simt/executor.hpp"
#include "simt/fault.hpp"
#include "simt/simd.hpp"
#include "util/rng.hpp"

namespace hg {
namespace {

// --- serializer --------------------------------------------------------------

TEST(CkptSerial, RoundTripsEveryFieldType) {
  ckpt::Writer w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-42);
  w.i64(-9000000000ll);
  w.b(true);
  w.b(false);
  w.f32(-0.15625f);
  w.f64(3.141592653589793);
  w.str("hello\0world");
  w.floats({1.0f, -2.0f, 0.5f});
  w.doubles({});

  ckpt::Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -9000000000ll);
  EXPECT_TRUE(r.b());
  EXPECT_FALSE(r.b());
  EXPECT_EQ(r.f32(), -0.15625f);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.floats(), (std::vector<float>{1.0f, -2.0f, 0.5f}));
  EXPECT_TRUE(r.doubles().empty());
  EXPECT_TRUE(r.done());
}

TEST(CkptSerial, TruncatedStreamThrows) {
  ckpt::Writer w;
  w.u64(7);
  const std::string bytes = w.take().substr(0, 5);
  ckpt::Reader r(bytes);
  EXPECT_THROW(r.u64(), std::runtime_error);
}

// A corrupt length whose byte count wraps 2^64 must still read as a
// truncated stream, not reach the vector allocation.
TEST(CkptSerial, HugeArrayLengthIsATruncatedStream) {
  const auto expect_truncated = [](std::uint64_t n, bool as_doubles) {
    ckpt::Writer w;
    w.u64(n);
    for (int i = 0; i < 4; ++i) w.f32(1.0f);  // 16 payload bytes
    ckpt::Reader r(w.data());
    try {
      if (as_doubles) {
        (void)r.doubles();
      } else {
        (void)r.floats();
      }
      ADD_FAILURE() << "length " << n << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("ckpt: truncated stream", 0), 0u)
          << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "length " << n << " threw " << e.what();
    }
  };
  expect_truncated((std::uint64_t{1} << 62) + 1, /*as_doubles=*/false);
  expect_truncated((std::uint64_t{1} << 61) + 1, /*as_doubles=*/true);
}

TEST(CkptSerial, Crc32MatchesTheIeeeCheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(ckpt::crc32(check), 0xCBF43926u);
  EXPECT_EQ(ckpt::crc32(std::string()), 0u);
}

ckpt::TrainState sample_state(int epoch) {
  ckpt::TrainState st;
  st.fingerprint = "gcn|halfgnn|test|e6";
  st.epoch = epoch;
  st.model.epoch = epoch;
  st.model.adam_t = epoch * 2;
  st.model.scale = 512.0f;
  st.model.master = {{1.0f, 2.0f}, {3.0f}};
  st.model.m = {{0.1f, 0.2f}, {0.3f}};
  st.model.v = {{0.01f, 0.02f}, {0.03f}};
  st.scaler.scale = 512.0f;
  st.scaler.clean_steps = 17;
  st.scaler.skipped = 2;
  st.scaler.stepped = 40;
  st.scaler.history = {1024.0f, 512.0f};
  st.rng.s[0] = 11;
  st.rng.s[3] = 44;
  st.rng.cached = -0.75;
  st.rng.has_cached = true;
  st.guard.sites = {{"spmm", 1, 2}};
  st.guard.ring = {st.model};
  st.guard.nan_streak = 1;
  st.guard.last_loss_finite = false;
  st.guard.retries = 3;
  st.result.losses = {2.0, 1.5};
  st.result.test_accs = {0.3, 0.4};
  st.result.best_test_acc = 0.4;
  st.result.memory.graph_bytes = 1000;
  st.result.ledger.sparse_kernels = 123;
  st.registry_blob = "reg-bytes";
  st.tracer_blob = "trace-bytes";
  return st;
}

TEST(CkptSerial, TrainStateRoundTrips) {
  const ckpt::TrainState st = sample_state(5);
  ckpt::Writer w;
  ckpt::write_train_state(w, st);
  ckpt::Reader r(w.data());
  const ckpt::TrainState out = ckpt::read_train_state(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(out.fingerprint, st.fingerprint);
  EXPECT_EQ(out.epoch, 5);
  EXPECT_EQ(out.model.master, st.model.master);
  EXPECT_EQ(out.model.v, st.model.v);
  EXPECT_EQ(out.scaler.history, st.scaler.history);
  EXPECT_EQ(out.scaler.clean_steps, 17);
  EXPECT_EQ(out.rng.s[3], 44u);
  EXPECT_TRUE(out.rng.has_cached);
  ASSERT_EQ(out.guard.sites.size(), 1u);
  EXPECT_EQ(out.guard.sites[0].site, "spmm");
  EXPECT_EQ(out.guard.sites[0].level, 1);
  ASSERT_EQ(out.guard.ring.size(), 1u);
  EXPECT_EQ(out.guard.ring[0].master, st.model.master);
  EXPECT_FALSE(out.guard.last_loss_finite);
  EXPECT_EQ(out.result.losses, st.result.losses);
  EXPECT_EQ(out.result.memory.graph_bytes, 1000u);
  EXPECT_EQ(out.result.ledger.sparse_kernels, 123u);
  EXPECT_EQ(out.registry_blob, "reg-bytes");
  EXPECT_EQ(out.tracer_blob, "trace-bytes");
}

// --- on-disk store -----------------------------------------------------------

std::string fresh_dir(const std::string& tag) {
  const auto p = std::filesystem::temp_directory_path() / ("hg_ckpt_" + tag);
  std::filesystem::remove_all(p);
  return p.string();
}

// Newest generation's data file (zero-padded names sort lexically).
std::filesystem::path newest_data_file(const std::string& dir) {
  std::filesystem::path best;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("ckpt-", 0) == 0 && name.size() > 4 &&
        name.substr(name.size() - 4) == ".bin" &&
        (best.empty() || name > best.filename().string())) {
      best = e.path();
    }
  }
  return best;
}

void corrupt_file(const std::filesystem::path& p, std::size_t offset) {
  std::fstream f(p, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good());
  f.seekp(static_cast<std::streamoff>(offset));
  char b = 0;
  f.seekg(static_cast<std::streamoff>(offset));
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x5A);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&b, 1);
}

TEST(CkptStore, LoadsTheNewestGeneration) {
  const std::string dir = fresh_dir("newest");
  {
    ckpt::Store store({dir});
    store.write(sample_state(1));
    store.write(sample_state(2));
    EXPECT_EQ(store.writes(), 2u);
  }
  ckpt::Store store({dir});  // fresh instance: state comes from disk
  const ckpt::LoadInfo info = store.load();
  EXPECT_TRUE(info.found);
  EXPECT_EQ(info.rejected, 0);
  EXPECT_EQ(info.state.epoch, 2);
}

TEST(CkptStore, EmptyDirectoryLoadsNothing) {
  ckpt::Store store({fresh_dir("empty")});
  const ckpt::LoadInfo info = store.load();
  EXPECT_FALSE(info.found);
  EXPECT_EQ(info.generation, -1);
}

TEST(CkptStore, ChecksumMismatchFallsBackToPreviousGeneration) {
  const std::string dir = fresh_dir("corrupt");
  {
    ckpt::Store store({dir});
    store.write(sample_state(1));
    store.write(sample_state(2));
  }
  corrupt_file(newest_data_file(dir), 64);
  ckpt::Store store({dir});
  const ckpt::LoadInfo info = store.load();
  EXPECT_TRUE(info.found);
  EXPECT_EQ(info.rejected, 1);
  EXPECT_EQ(info.state.epoch, 1);  // the previous good generation
}

TEST(CkptStore, TornWriteIsDetectedAndRejected) {
  const std::string dir = fresh_dir("torn");
  ckpt::StoreConfig cfg{dir};
  cfg.torn_epoch = 2;
  cfg.torn_at = 48;  // persist only 48 bytes of the epoch-2 write
  {
    ckpt::Store store(cfg);
    store.write(sample_state(1));
    EXPECT_THROW(store.write(sample_state(2)), ckpt::SimulatedCrash);
  }
  ckpt::Store store({dir});
  const ckpt::LoadInfo info = store.load();
  EXPECT_TRUE(info.found);
  EXPECT_GE(info.rejected, 1);
  EXPECT_EQ(info.state.epoch, 1);
}

TEST(CkptStore, CleanCrashAfterFullWriteKeepsTheGeneration) {
  const std::string dir = fresh_dir("cleancrash");
  ckpt::StoreConfig cfg{dir};
  cfg.torn_epoch = 2;  // no `at`: die after the write committed
  {
    ckpt::Store store(cfg);
    store.write(sample_state(1));
    EXPECT_THROW(store.write(sample_state(2)), ckpt::SimulatedCrash);
  }
  ckpt::Store store({dir});
  const ckpt::LoadInfo info = store.load();
  EXPECT_TRUE(info.found);
  EXPECT_EQ(info.rejected, 0);
  EXPECT_EQ(info.state.epoch, 2);
}

TEST(CkptStore, PrunesToTheConfiguredKeepCount) {
  const std::string dir = fresh_dir("prune");
  ckpt::StoreConfig cfg{dir};
  cfg.keep = 2;
  ckpt::Store store(cfg);
  for (int e = 0; e < 5; ++e) store.write(sample_state(e));
  int files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    files += e.path().filename().string().rfind("ckpt-", 0) == 0 ? 1 : 0;
  }
  EXPECT_EQ(files, 2);
  EXPECT_EQ(store.load().state.epoch, 4);
}

// --- resume determinism ------------------------------------------------------

// The guard_test tiny-SBM recipe, non-hubby.
Dataset tiny_dataset(vid_t n, int k, eid_t m, int feat, std::uint64_t seed) {
  Dataset d;
  d.labeled = true;
  d.feat_dim = feat;
  d.num_classes = k;
  Rng rng(seed);
  Coo raw = sbm(n, k, m, 0.9, rng, d.labels);
  d.csr = symmetrize(coo_to_csr(raw));
  d.csr_t = d.csr;
  d.coo = csr_to_coo(d.csr);
  const auto fu = static_cast<std::size_t>(feat);
  std::vector<float> means(static_cast<std::size_t>(k) * fu);
  for (auto& mm : means) mm = static_cast<float>(rng.next_normal()) * 3.0f;
  d.features.resize(static_cast<std::size_t>(n) * fu);
  d.train_mask.resize(static_cast<std::size_t>(n));
  for (vid_t v = 0; v < n; ++v) {
    const auto vu = static_cast<std::size_t>(v);
    for (std::size_t j = 0; j < fu; ++j) {
      d.features[vu * fu + j] =
          means[static_cast<std::size_t>(d.labels[vu]) * fu + j] +
          static_cast<float>(rng.next_normal());
    }
    d.train_mask[vu] = (v % 5) < 3 ? 1 : 0;
  }
  return d;
}

struct RunOut {
  nn::TrainResult res;
  std::string metrics;
  std::string trace;
  bool crashed = false;
};

// One full train() against a private Device, with metrics + tracing armed;
// captures the would-be HALFGNN_METRICS / HALFGNN_TRACE payloads.
RunOut run_once(const Dataset& d, nn::TrainConfig cfg, int threads,
                const std::string& faults) {
  obs::registry().reset();
  obs::registry().set_enabled(true);
  obs::tracer().reset();
  obs::tracer().set_enabled(true);
  RunOut out;
  {
    simt::Device dev(simt::a100_spec(), threads);
    if (!faults.empty()) dev.set_faults(simt::FaultConfig::parse(faults));
    simt::Stream stream(dev);
    cfg.stream = &stream;
    cfg.trace = true;
    try {
      out.res =
          nn::train(nn::ModelKind::kGcn, nn::SystemMode::kHalfGnn, d, cfg);
    } catch (const ckpt::SimulatedCrash&) {
      out.crashed = true;
    }
  }
  out.metrics = obs::registry().to_json().dump(2);
  out.trace = obs::tracer().chrome_trace_json().dump(2);
  obs::registry().set_enabled(false);
  obs::registry().reset();
  obs::tracer().set_enabled(false);
  obs::tracer().reset();
  return out;
}

void expect_bitexact(const RunOut& resumed, const RunOut& ref) {
  EXPECT_FALSE(resumed.crashed);
  EXPECT_EQ(resumed.res.losses, ref.res.losses);
  EXPECT_EQ(resumed.res.test_accs, ref.res.test_accs);
  EXPECT_EQ(resumed.res.final_test_acc, ref.res.final_test_acc);
  EXPECT_EQ(resumed.res.best_test_acc, ref.res.best_test_acc);
  EXPECT_EQ(resumed.res.scaler_skipped, ref.res.scaler_skipped);
  EXPECT_EQ(resumed.res.memory.total(), ref.res.memory.total());
  EXPECT_EQ(resumed.metrics, ref.metrics);
  EXPECT_EQ(resumed.trace, ref.trace);
}

nn::TrainConfig resume_cfg() {
  nn::TrainConfig cfg = nn::default_config(nn::ModelKind::kGcn);
  cfg.epochs = 6;
  cfg.hidden = 16;
  return cfg;
}

TEST(ResumeDeterminism, KillResumeBitIdenticalAcrossThreadsAndSimd) {
  const Dataset d = tiny_dataset(300, 3, 900, 16, 91);
  const simt::simd::Path orig = simt::simd::active_path();
  for (const auto path : {simt::simd::Path::kScalar, simt::simd::Path::kAvx2}) {
    if (!simt::simd::set_path(path)) continue;  // AVX2 not available here
    for (const int threads : {1, 2, 7, 16}) {
      const nn::TrainConfig cfg = resume_cfg();
      const RunOut ref = run_once(d, cfg, threads, "");

      nn::TrainConfig killed_cfg = cfg;
      killed_cfg.checkpoint_dir = fresh_dir(
          "sweep_p" + std::to_string(static_cast<int>(path)) + "_t" +
          std::to_string(threads));
      const RunOut killed =
          run_once(d, killed_cfg, threads, "torncrash:epoch=3");
      ASSERT_TRUE(killed.crashed);

      nn::TrainConfig resumed_cfg = killed_cfg;
      resumed_cfg.resume = true;
      const RunOut resumed = run_once(d, resumed_cfg, threads, "");
      expect_bitexact(resumed, ref);
    }
  }
  simt::simd::set_path(orig);
}

TEST(ResumeDeterminism, KillAtEveryEpochResumesIdentically) {
  const Dataset d = tiny_dataset(300, 3, 900, 16, 92);
  const nn::TrainConfig cfg = resume_cfg();
  const RunOut ref = run_once(d, cfg, 2, "");
  for (int kill = 1; kill < cfg.epochs; ++kill) {
    nn::TrainConfig killed_cfg = cfg;
    killed_cfg.checkpoint_dir = fresh_dir("kill_e" + std::to_string(kill));
    const RunOut killed = run_once(d, killed_cfg, 2,
                                   "torncrash:epoch=" + std::to_string(kill));
    ASSERT_TRUE(killed.crashed) << "kill epoch " << kill;
    nn::TrainConfig resumed_cfg = killed_cfg;
    resumed_cfg.resume = true;
    const RunOut resumed = run_once(d, resumed_cfg, 2, "");
    expect_bitexact(resumed, ref);
  }
}

TEST(ResumeDeterminism, TornCheckpointFallsBackAndStillMatches) {
  const Dataset d = tiny_dataset(300, 3, 900, 16, 93);
  const nn::TrainConfig cfg = resume_cfg();
  const RunOut ref = run_once(d, cfg, 2, "");

  nn::TrainConfig killed_cfg = cfg;
  killed_cfg.checkpoint_dir = fresh_dir("tornresume");
  // Tear the epoch-4 write partway: the newest on-disk generation is
  // garbage and resume must fall back to the epoch-3 one.
  const RunOut killed = run_once(d, killed_cfg, 2, "torncrash:epoch=4,at=96");
  ASSERT_TRUE(killed.crashed);

  nn::TrainConfig resumed_cfg = killed_cfg;
  resumed_cfg.resume = true;
  const RunOut resumed = run_once(d, resumed_cfg, 2, "");
  expect_bitexact(resumed, ref);
}

TEST(ResumeDeterminism, CorruptedCheckpointFallsBackAndStillMatches) {
  const Dataset d = tiny_dataset(300, 3, 900, 16, 94);
  const nn::TrainConfig cfg = resume_cfg();
  const RunOut ref = run_once(d, cfg, 2, "");

  nn::TrainConfig killed_cfg = cfg;
  killed_cfg.checkpoint_dir = fresh_dir("corruptresume");
  const RunOut killed = run_once(d, killed_cfg, 2, "torncrash:epoch=4");
  ASSERT_TRUE(killed.crashed);
  corrupt_file(newest_data_file(killed_cfg.checkpoint_dir), 80);

  nn::TrainConfig resumed_cfg = killed_cfg;
  resumed_cfg.resume = true;
  const RunOut resumed = run_once(d, resumed_cfg, 2, "");
  expect_bitexact(resumed, ref);
}

// --- watchdog x guard ladder -------------------------------------------------

TEST(WatchdogTraining, StuckKernelIsReapedAndTrainingCompletes) {
  const Dataset d = tiny_dataset(300, 3, 900, 16, 96);
  nn::TrainConfig cfg = resume_cfg();
  simt::Device dev(simt::a100_spec(), 2);
  // Every 15th spmm launch wedges; the watchdog reaps it as a LaunchHang,
  // which rides the guard's LaunchFault retry ladder to completion.
  dev.set_faults(simt::FaultConfig::parse("stuck:every=15,kernel=spmm"));
  dev.set_watchdog_ms(25.0);
  simt::Stream stream(dev);
  cfg.stream = &stream;
  cfg.guard.enabled = true;
  const nn::TrainResult res =
      nn::train(nn::ModelKind::kGcn, nn::SystemMode::kHalfGnn, d, cfg);
  EXPECT_GT(dev.faults().total_stucks(), 0u);
  EXPECT_GT(res.guard_retries, 0);
  EXPECT_EQ(static_cast<int>(res.losses.size()), cfg.epochs);
  EXPECT_EQ(res.nan_loss_epochs, 0);
}

TEST(ResumeDeterminism, FingerprintMismatchRefusesToResume) {
  const Dataset d = tiny_dataset(300, 3, 900, 16, 95);
  nn::TrainConfig cfg = resume_cfg();
  cfg.checkpoint_dir = fresh_dir("fingerprint");
  const RunOut first = run_once(d, cfg, 2, "torncrash:epoch=2");
  ASSERT_TRUE(first.crashed);

  cfg.resume = true;
  cfg.lr = cfg.lr * 2;  // a different run configuration
  obs::registry().reset();
  obs::tracer().reset();
  simt::Device dev(simt::a100_spec(), 2);
  simt::Stream stream(dev);
  cfg.stream = &stream;
  EXPECT_THROW(nn::train(nn::ModelKind::kGcn, nn::SystemMode::kHalfGnn, d, cfg),
               std::invalid_argument);
}

}  // namespace
}  // namespace hg
