// Durable checkpoint tests: serializer round-trips, the on-disk store's
// checksum/torn-write fallback, and the keystone invariant — kill + resume
// produces results, metrics JSON, and trace JSON byte-identical to an
// uninterrupted run, at every thread count and on both SIMD paths.
#include "ckpt/store.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "ckpt/serial.hpp"
#include "graph/generators.hpp"
#include "nn/trainer.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/prof.hpp"
#include "obs/trace.hpp"
#include "simt/executor.hpp"
#include "simt/fault.hpp"
#include "simt/simd.hpp"
#include "util/rng.hpp"

namespace hg {
namespace {

// --- serializer --------------------------------------------------------------

struct Nested {
  int a = 0;
  std::vector<float> v;
  template <class Ar>
  void fields(Ar& ar) {
    ar(a, v);
  }
};

TEST(CkptSerial, RoundTripsEveryFieldType) {
  ckpt::Writer w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  std::uint64_t words[3] = {1, 0x0123456789ABCDEFull, ~std::uint64_t{0}};
  // A signed 64-bit value travels as its two's-complement u64.
  w(std::uint64_t{0x0123456789ABCDEFull}, -42,
    static_cast<std::uint64_t>(std::int64_t{-9000000000}), true, false,
    -0.15625f, 3.141592653589793, std::string("hello\0world"),
    std::vector<float>{1.0f, -2.0f, 0.5f}, std::vector<double>{},
    std::deque<int>{7, -7}, std::map<std::string, double>{{"b", 2}, {"a", 1}},
    words, Nested{3, {0.25f}});
  // Fixed widths: 1 + 4 + 8 + 4 + 8 + 1 + 1 + 4 + 8 + (8 + 5) + (8 + 12) +
  // 8 + (8 + 8) + (8 + 2 * (8 + 1 + 8)) + 24 + (4 + 8 + 4).
  EXPECT_EQ(w.data().size(), 178u);

  ckpt::Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  std::uint64_t u = 0;
  int i = 0;
  std::uint64_t neg = 0;
  bool t = false;
  bool f = true;
  float x = 0;
  double y = 0;
  std::string str;
  std::vector<float> fv;
  std::vector<double> dv{9.0};
  std::deque<int> dq;
  std::map<std::string, double> m{{"stale", 1}};
  std::uint64_t back[3] = {};
  Nested n;
  r(u, i, neg, t, f, x, y, str, fv, dv, dq, m, back, n);
  EXPECT_EQ(u, 0x0123456789ABCDEFull);
  EXPECT_EQ(i, -42);
  EXPECT_EQ(static_cast<std::int64_t>(neg), -9000000000ll);
  EXPECT_TRUE(t);
  EXPECT_FALSE(f);
  EXPECT_EQ(x, -0.15625f);
  EXPECT_EQ(y, 3.141592653589793);
  EXPECT_EQ(str, "hello");
  EXPECT_EQ(fv, (std::vector<float>{1.0f, -2.0f, 0.5f}));
  EXPECT_TRUE(dv.empty());
  EXPECT_EQ(dq, (std::deque<int>{7, -7}));
  EXPECT_EQ(m, (std::map<std::string, double>{{"a", 1}, {"b", 2}}));
  EXPECT_EQ(back[2], ~std::uint64_t{0});
  EXPECT_EQ(n.a, 3);
  EXPECT_EQ(n.v, std::vector<float>{0.25f});
  EXPECT_TRUE(r.done());
}

TEST(CkptSerial, TruncatedStreamThrows) {
  ckpt::Writer w;
  w.u64(7);
  const std::string bytes = w.take().substr(0, 5);
  ckpt::Reader r(bytes);
  EXPECT_THROW(r.u64(), std::runtime_error);
}

// A corrupt length — one whose byte count wraps 2^64, or the count of a
// container of structs — must read as a truncated stream, never reach the
// allocator.
TEST(CkptSerial, HugeArrayLengthIsATruncatedStream) {
  // `prefix` writes the fields before the count; 16 payload bytes follow.
  const auto expect_truncated = [](auto value, std::uint64_t n,
                                   const auto& prefix) {
    ckpt::Writer w;
    prefix(w);
    w(n);
    for (int i = 0; i < 4; ++i) w(1.0f);
    ckpt::Reader r(w.data());
    try {
      r(value);
      ADD_FAILURE() << "length " << n << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("ckpt: truncated stream", 0), 0u)
          << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "length " << n << " threw " << e.what();
    }
  };
  const auto nothing = [](ckpt::Writer&) {};
  expect_truncated(std::vector<float>{}, (std::uint64_t{1} << 62) + 1, nothing);
  expect_truncated(std::vector<double>{}, (std::uint64_t{1} << 61) + 1,
                   nothing);
  const std::uint64_t huge = std::uint64_t{1} << 36;
  // A model's tensor list (after epoch, adam_t, scale), the guard's ring
  // (after an empty site map) and a trace span's args.
  expect_truncated(ckpt::ModelState{}, huge,
                   [](ckpt::Writer& w) { w(0, 0, 1.0f); });
  expect_truncated(ckpt::GuardState{}, huge,
                   [](ckpt::Writer& w) { w(std::uint64_t{0}); });
  expect_truncated(std::vector<obs::TraceArg>{}, huge, nothing);
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
  st.guard.sites = {{"spmm", {1, 2}}};
  st.guard.ring = {st.model};
  st.guard.nan_streak = 1;
  st.guard.last_loss_finite = false;
  st.guard.retries = 3;
  st.result.losses = {2.0, 1.5};
  st.result.test_accs = {0.3, 0.4};
  st.result.best_test_acc = 0.4;
  st.result.memory.graph_bytes = 1000;
  st.result.epoch_ledger.sparse_kernels = 123;
  // Valid (empty) obs images: Store::load decodes them.
  st.registry_blob = obs::Registry().save_state();
  st.tracer_blob = obs::Tracer().save_state();
  return st;
}

TEST(CkptSerial, TrainStateRoundTrips) {
  const ckpt::TrainState st = sample_state(5);
  ckpt::Writer w;
  w(st);
  ckpt::Reader r(w.data());
  ckpt::TrainState out;
  r(out);
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
  EXPECT_EQ(out.guard.sites.begin()->first, "spmm");
  EXPECT_EQ(out.guard.sites.begin()->second.level, 1);
  ASSERT_EQ(out.guard.ring.size(), 1u);
  EXPECT_EQ(out.guard.ring[0].master, st.model.master);
  EXPECT_FALSE(out.guard.last_loss_finite);
  EXPECT_EQ(out.result.losses, st.result.losses);
  EXPECT_EQ(out.result.memory.graph_bytes, 1000u);
  EXPECT_EQ(out.result.epoch_ledger.sparse_kernels, 123u);
  EXPECT_EQ(out.registry_blob, st.registry_blob);
  EXPECT_EQ(out.tracer_blob, st.tracer_blob);
}

// Registry image holding counters, a gauge, a histogram (one sample in the
// +inf overflow bucket), a kernel entry and an epoch snapshot.
std::string pinned_registry_blob() {
  obs::Registry& reg = obs::registry();
  reg.reset();
  reg.set_enabled(true);
  reg.add_counter("amp.steps", 3);
  reg.set_gauge("amp.loss_scale", 512);
  reg.observe("ckpt.write_ms", 0.25);
  reg.observe("ckpt.write_ms", 3e12);
  reg.publish_kernel("spmm_halfgnn",
                     {{"bytes_moved", 4096}, {"time_ms", 0.125}});
  reg.snapshot_epoch(0);
  std::string blob = reg.save_state();
  reg.set_enabled(false);
  reg.reset();
  return blob;
}

// Tracer image holding an open span, closed events and both kinds of arg.
std::string pinned_tracer_blob() {
  obs::Tracer& t = obs::tracer();
  t.reset();
  t.set_enabled(true);
  const std::uint64_t run = t.open_span("train:GCN/HalfGNN", "run");
  t.span_arg(run, {"model", "GCN"});
  t.span_arg(run, {"epochs", std::int64_t{6}});
  t.instant("dispatch:spmm", "dispatch",
            {{"kernel", "spmm_halfgnn"}, {"why", "halfgnn"}});
  obs::trace_complete("gemm", "dense", 0.5,
                      {{"m", std::int64_t{64}}, {"dtype", "f16"}});
  std::string blob = t.save_state();
  t.close_span(run);
  t.set_enabled(false);
  t.reset();
  return blob;
}

// Every field non-default, the guard's sites and ring non-empty.
ckpt::TrainState pinned_state() {
  ckpt::TrainState st;
  st.fingerprint = "GCN|HalfGNN|pin|e6|lr3c23d70a|h16|s42|mode";
  st.epoch = 3;
  st.model.epoch = 3;
  st.model.adam_t = 5;
  st.model.scale = 256.0f;
  st.model.master = {{1.5f, -2.0f}, {0.25f}};
  st.model.m = {{0.125f, -0.5f}, {1e-3f}};
  st.model.v = {{1e-4f, 2e-4f}, {3e-4f}};
  st.scaler.scale = 256.0f;
  st.scaler.clean_steps = 2;
  st.scaler.skipped = 1;
  st.scaler.stepped = 4;
  st.scaler.history = {1024.0f, 512.0f, 256.0f, 256.0f, 256.0f};
  st.rng.s[0] = 1;
  st.rng.s[1] = 2;
  st.rng.s[2] = 3;
  st.rng.s[3] = 0xFFFFFFFFFFFFFFFFull;
  st.rng.cached = -0.5;
  st.rng.has_cached = true;
  st.guard.sites = {{"sddmm", {0, 2}}, {"spmm", {1, 0}}};
  ckpt::ModelState older = st.model;
  older.epoch = 0;
  older.adam_t = 0;
  older.scale = 1024.0f;
  st.guard.ring = {older, st.model};
  st.guard.nan_streak = 1;
  st.guard.last_loss_finite = false;
  st.guard.retries = 2;
  st.guard.rollbacks = 1;
  st.guard.fallbacks = 1;
  st.guard.checkpoints = 2;
  st.result.losses = {1.25, 0.75, std::numeric_limits<double>::quiet_NaN()};
  st.result.test_accs = {0.5, 0.625, 0.25};
  st.result.best_test_acc = 0.625;
  st.result.nan_loss_epochs = 1;
  st.result.first_nan_epoch = 2;
  st.result.memory.graph_bytes = 1000;
  st.result.memory.state_bytes = 2000;
  st.result.memory.param_bytes = 3000;
  st.result.memory.workspace_bytes = 4000;
  st.result.memory.framework_overhead = 500;
  st.result.epoch_ledger.dispatch_us_per_kernel = 10.0;
  st.result.epoch_ledger.dense_ms = 1.5;
  st.result.epoch_ledger.sparse_ms = 2.5;
  st.result.epoch_ledger.convert_ms = 0.5;
  st.result.epoch_ledger.sparse_kernels = 7;
  st.result.epoch_ledger.dense_kernels = 9;
  st.result.epoch_ledger.conversions = 3;
  st.result.epoch_ledger.converted_bytes = 4096;
  st.registry_blob = pinned_registry_blob();
  st.tracer_blob = pinned_tracer_blob();
  return st;
}

// The bytes of pinned_state() against the size and CRC-32 the format has
// produced since it was introduced (kFormatVersion 1). A round trip within
// one build cannot see a reordered or retyped field; this can.
TEST(CkptSerial, TrainStateBytesArePinned) {
  ckpt::Writer w;
  w(pinned_state());
  EXPECT_EQ(w.data().size(), 1659u);
  EXPECT_EQ(ckpt::crc32(w.data()), 0xE214E7CBu);

  ckpt::TrainState back;
  ckpt::Reader r(w.data());
  r(back);
  EXPECT_TRUE(r.done());
  ckpt::Writer again;
  again(back);
  EXPECT_EQ(again.data(), w.data());

  // The obs images decode and re-encode to the same bytes too.
  obs::registry().load_state(back.registry_blob);
  EXPECT_EQ(obs::registry().save_state(), back.registry_blob);
  obs::registry().reset();
  obs::tracer().load_state(back.tracer_blob);
  EXPECT_EQ(obs::tracer().save_state(), back.tracer_blob);
  obs::tracer().reset();
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

std::string read_all(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_all(const std::filesystem::path& p, const std::string& bytes) {
  std::ofstream(p, std::ios::binary | std::ios::trunc) << bytes;
}

// Little-endian u64 at `off` of `bytes`.
void put_u64(std::string& bytes, std::size_t off, std::uint64_t v) {
  ckpt::Writer w;
  w(v);
  bytes.replace(off, 8, w.data());
}

// Rewrites a data file's payload through `mutate` and re-frames it with a
// matching size and CRC, the way a writer of those bytes would have.
void reframe(const std::filesystem::path& p,
             const std::function<void(std::string&)>& mutate) {
  constexpr std::size_t kHeader = 4 + 4 + 8 + 4;  // magic, version, size, crc
  const std::string bytes = read_all(p);
  std::string payload = bytes.substr(kHeader);
  mutate(payload);
  ckpt::Writer size_crc;
  size_crc.u64(payload.size());
  size_crc.u32(ckpt::crc32(payload));
  write_all(p, bytes.substr(0, 8) + size_crc.data() + payload);
}

// Replaces the value of the `nth` (from 0) `"key": <number>` in the
// store's MANIFEST.json with `text`.
void set_manifest_number(const std::string& dir, const std::string& key,
                         int nth, const std::string& text) {
  const auto path = std::filesystem::path(dir) / "MANIFEST.json";
  std::string doc = read_all(path);
  const std::string tag = "\"" + key + "\": ";
  std::size_t at = doc.find(tag);
  for (int i = 0; i < nth && at != std::string::npos; ++i) {
    at = doc.find(tag, at + 1);
  }
  ASSERT_NE(at, std::string::npos) << key << " #" << nth;
  at += tag.size();
  doc.replace(at, doc.find_first_of(",\n}", at) - at, text);
  write_all(path, doc);
}

std::string two_generations(const std::string& tag) {
  const std::string dir = fresh_dir(tag);
  ckpt::Store store({dir});
  store.write(sample_state(1));
  store.write(sample_state(2));
  return dir;
}

// A CRC-valid newest generation whose model.master count is 2^36: rejected
// as a truncated stream (not std::bad_alloc, not an ASan abort), and load()
// falls back one generation.
TEST(CkptStore, InflatedCountInACrcValidGenerationFallsBack) {
  const std::string dir = two_generations("inflated");
  // Fingerprint (u64 count + bytes) and epoch, then model.epoch, adam_t and
  // scale precede the master tensor list's count.
  const std::size_t master_count =
      8 + sample_state(2).fingerprint.size() + 4 + 4 + 4 + 4;
  reframe(newest_data_file(dir), [&](std::string& payload) {
    put_u64(payload, master_count, std::uint64_t{1} << 36);
  });
  obs::prof::Profiler prof(obs::prof::ProfConfig::parse("numerics"));
  ckpt::Store store({dir});
  const ckpt::LoadInfo info = store.load(&prof);
  EXPECT_TRUE(info.found);
  EXPECT_EQ(info.rejected, 1);
  EXPECT_EQ(info.state.epoch, 1);
  ASSERT_EQ(prof.audits().size(), 1u);
  EXPECT_EQ(prof.audits()[0].event, "ckpt_fallback");
  EXPECT_EQ(prof.audits()[0].signal.rfind("ckpt: truncated stream", 0), 0u)
      << prof.audits()[0].signal;
}

// A CRC-valid newest generation whose payload decodes but whose obs image
// does not: the tracer blob's open-span count is 2^40, or the registry blob
// has a byte left over. Either would abort the resume when the trainer
// restored the blob, so load() must reject the generation, name the blob in
// the audit record and fall back one generation.
TEST(CkptStore, MalformedObsBlobFallsBack) {
  for (const bool tracer : {true, false}) {
    const std::string dir = fresh_dir("obsblob");
    ckpt::TrainState bad = pinned_state();
    if (tracer) {
      // clock (f64), next token and next seq (u64), then the stack's count.
      put_u64(bad.tracer_blob, 24, std::uint64_t{1} << 40);
    } else {
      bad.registry_blob += '\0';
    }
    {
      ckpt::Store store({dir});
      store.write(pinned_state());
      store.write(bad);
    }
    obs::prof::Profiler prof(obs::prof::ProfConfig::parse("numerics"));
    ckpt::Store store({dir});
    const ckpt::LoadInfo info = store.load(&prof);
    EXPECT_TRUE(info.found);
    EXPECT_EQ(info.rejected, 1);
    EXPECT_EQ(info.generation, 0);
    ASSERT_EQ(prof.audits().size(), 1u);
    EXPECT_EQ(prof.audits()[0].event, "ckpt_fallback");
    const std::string want = tracer ? "tracer blob: ckpt: truncated stream"
                                    : "registry blob: ckpt: trailing bytes";
    EXPECT_EQ(prof.audits()[0].signal.rfind(want, 0), 0u)
        << prof.audits()[0].signal;
  }
}

// Generation numbers come from outside the process. A file name whose
// number does not fit [0, INT_MAX - 1] is not a data file: it neither
// names the next write nor costs load() a rejected generation.
TEST(CkptStore, OutOfRangeGenerationFileNameIsNotADataFile) {
  const std::string dir = two_generations("hugegen");
  for (const char* name : {"ckpt-99999999999.bin", "ckpt-2147483647.bin"}) {
    write_all(std::filesystem::path(dir) / name, "not a checkpoint");
  }
  ckpt::Store store({dir});
  EXPECT_EQ(store.next_generation(), 2);
  const ckpt::LoadInfo info = store.load();
  EXPECT_TRUE(info.found);
  EXPECT_EQ(info.rejected, 0);
  EXPECT_EQ(info.state.epoch, 2);
}

// A manifest number that is not an in-range whole number makes the store
// ignore the manifest, like a corrupt one; the directory scan still finds
// every (good) generation.
TEST(CkptStore, OutOfRangeManifestNumbersAreIgnored) {
  const std::pair<const char*, const char*> cases[] = {
      {"gen", "2147483647"}, {"gen", "1e20"}, {"bytes", "-1"},
      {"bytes", "0.5"},      {"crc", "-1"}};
  for (const auto& [key, text] : cases) {
    const std::string dir = two_generations("badmanifest");
    set_manifest_number(dir, key, 1, text);
    ckpt::Store store({dir});
    EXPECT_EQ(store.next_generation(), 2) << key << " " << text;
    const ckpt::LoadInfo info = store.load();
    EXPECT_TRUE(info.found) << key << " " << text;
    EXPECT_EQ(info.rejected, 0) << key << " " << text;
    EXPECT_EQ(info.state.epoch, 2) << key << " " << text;
  }
}

// A manifest of 100,000 nested '[' is a corrupt manifest like any other:
// the parser's nesting bound turns it into a parse error instead of a stack
// overflow, and the directory scan finds both generations.
TEST(CkptStore, DeeplyNestedManifestIsIgnored) {
  const std::string dir = two_generations("deepmanifest");
  write_all(std::filesystem::path(dir) / "MANIFEST.json",
            std::string(100000, '['));
  ckpt::Store store({dir});
  EXPECT_EQ(store.next_generation(), 2);
  const ckpt::LoadInfo info = store.load();
  EXPECT_TRUE(info.found);
  EXPECT_EQ(info.rejected, 0);
  EXPECT_EQ(info.state.epoch, 2);
}

// Seeded mutation sweep over a store with two generations: the newest
// payload gets one bit flip, u64 overwrite or truncation and is re-framed
// with a correct CRC, or one MANIFEST.json number is replaced. Opening the
// store, load() and one more write() must neither throw nor lose every
// generation. The case count is fixed.
TEST(CkptStore, MutatedGenerationsNeverEscapeTheStore) {
  const ckpt::TrainState newest = pinned_state();
  const auto check = [](const std::string& dir, const std::string& what) {
    try {
      ckpt::Store store({dir});
      const ckpt::LoadInfo info = store.load();
      EXPECT_TRUE(info.found) << what;
      // What the store hands the trainer restores without throwing.
      obs::Registry().load_state(info.state.registry_blob);
      obs::Tracer().load_state(info.state.tracer_blob);
      store.write(sample_state(3));
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": " << e.what();
    }
  };
  const auto fresh = [&newest] {
    const std::string dir = fresh_dir("sweep");
    ckpt::Store store({dir});
    store.write(sample_state(1));
    store.write(newest);
    return dir;
  };

  const std::uint64_t words[] = {std::uint64_t{1} << 31,
                                 std::uint64_t{1} << 36,
                                 (std::uint64_t{1} << 62) + 1,
                                 ~std::uint64_t{0}};
  Rng rng(20260901);
  for (int c = 0; c < 48; ++c) {
    const std::string dir = fresh();
    std::string what;
    reframe(newest_data_file(dir), [&](std::string& payload) {
      const int kind = c % 6;
      if (kind == 0) {
        const std::uint64_t bit = rng.next_below(payload.size() * 8);
        payload[bit / 8] =
            static_cast<char>(payload[bit / 8] ^ (1 << (bit % 8)));
        what = "bit flip " + std::to_string(bit);
      } else if (kind <= 4) {
        const std::size_t off = rng.next_below(payload.size() - 7);
        put_u64(payload, off, words[kind - 1]);
        what = "u64 " + std::to_string(words[kind - 1]) + " at " +
               std::to_string(off);
      } else {
        payload.resize(rng.next_below(payload.size()));
        what = "truncated to " + std::to_string(payload.size());
      }
    });
    check(dir, what);
  }
  for (const char* key : {"gen", "epoch", "bytes", "crc"}) {
    for (const char* text : {"-1", "0.5", "2147483647", "1e20"}) {
      const std::string dir = fresh();
      set_manifest_number(dir, key, 1, text);
      check(dir, std::string("manifest ") + key + " " + text);
    }
  }
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
