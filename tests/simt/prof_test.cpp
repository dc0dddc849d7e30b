// hgprof tests: config grammar, fp16/f32 exponent classification, bottleneck
// thresholds, the flamegraph fold, schema validation, guard audit records,
// trainer telemetry — and the determinism contract: an armed profiler
// changes no output bit and no metric at any HALFGNN_THREADS, and the prof
// report itself is byte-identical across thread counts.
#include "obs/prof/prof.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "kernels/spmm_halfgnn.hpp"
#include "nn/guard.hpp"
#include "nn/trainer.hpp"
#include "obs/metrics.hpp"
#include "simt/simt.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace hg::obs::prof {
namespace {

// ---------------------------------------------------------------------------
// Config grammar
// ---------------------------------------------------------------------------

TEST(ProfConfigTest, ParsesAnalyzerLists) {
  EXPECT_EQ(ProfConfig::parse("roofline").analyzers, kProfRoofline);
  EXPECT_EQ(ProfConfig::parse("numerics").analyzers, kProfNumerics);
  EXPECT_EQ(ProfConfig::parse(" roofline , numerics ").analyzers, kProfAll);
  EXPECT_EQ(ProfConfig::parse("all").analyzers, kProfAll);
  EXPECT_EQ(ProfConfig::parse("roofline,numerics").analyzers, kProfAll);
  EXPECT_FALSE(ProfConfig::parse("").active());
  EXPECT_TRUE(ProfConfig::parse("numerics").numerics());
  EXPECT_FALSE(ProfConfig::parse("numerics").roofline());
  try {
    (void)ProfConfig::parse("rooflines");
    ADD_FAILURE() << "accepted rooflines";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "HALFGNN_PROF: unknown analyzer 'rooflines' "
                 "(expected roofline|numerics|all)");
  }
}

// ---------------------------------------------------------------------------
// ExpHist classification (known fp16 bit patterns / f32 values)
// ---------------------------------------------------------------------------

TEST(ExpHistTest, ClassifiesHalfBitPatterns) {
  ExpHist h;
  h.add_half_bits(0x3C00);  // 1.0     -> exponent 0
  h.add_half_bits(0x4000);  // 2.0     -> exponent 1
  h.add_half_bits(0xB800);  // -0.5    -> exponent -1
  h.add_half_bits(0x7BFF);  // 65504   -> exponent 15
  h.add_half_bits(0x0400);  // 2^-14, smallest normal -> exponent -14
  h.add_half_bits(0x0000);  // +0
  h.add_half_bits(0x8000);  // -0
  h.add_half_bits(0x7C00);  // +Inf -> overflow
  h.add_half_bits(0xFC00);  // -Inf -> overflow
  h.add_half_bits(0x7E01);  // NaN
  h.add_half_bits(0x0001);  // smallest subnormal = 2^-24
  h.add_half_bits(0x0200);  // subnormal 2^-15

  EXPECT_EQ(h.total, 12u);
  EXPECT_EQ(h.zeros, 2u);
  EXPECT_EQ(h.overflows, 2u);
  EXPECT_EQ(h.nans, 1u);
  EXPECT_EQ(h.subnormals, 2u);
  EXPECT_EQ(h.bins[0 - ExpHist::kMinExp], 1u);
  EXPECT_EQ(h.bins[1 - ExpHist::kMinExp], 1u);
  EXPECT_EQ(h.bins[-1 - ExpHist::kMinExp], 1u);
  EXPECT_EQ(h.bins[15 - ExpHist::kMinExp], 1u);
  EXPECT_EQ(h.bins[-14 - ExpHist::kMinExp], 1u);
  // Subnormals land at their true exponent (leading-bit position - 24).
  EXPECT_EQ(h.bins[-24 - ExpHist::kMinExp], 1u);
  EXPECT_EQ(h.bins[-15 - ExpHist::kMinExp], 1u);

  // The to_json consistency rule the validator enforces: binned values +
  // zeros + overflows + nans == total (subnormals are also binned).
  std::uint64_t binned = 0;
  for (const std::uint64_t b : h.bins) binned += b;
  EXPECT_EQ(binned + h.zeros + h.overflows + h.nans, h.total);
}

TEST(ExpHistTest, ClassifiesFloatsAndClampsExtremeExponents) {
  ExpHist h;
  h.add_float(1.0f);      // exponent 0
  h.add_float(-3.0f);     // exponent 1
  h.add_float(1e38f);     // exponent 126 -> clamps to kMaxExp
  h.add_float(1e-38f);    // exponent -127 -> clamps to kMinExp
  h.add_float(0.0f);
  h.add_float(std::numeric_limits<float>::infinity());
  h.add_float(std::numeric_limits<float>::quiet_NaN());
  EXPECT_EQ(h.total, 7u);
  EXPECT_EQ(h.zeros, 1u);
  EXPECT_EQ(h.overflows, 1u);
  EXPECT_EQ(h.nans, 1u);
  EXPECT_EQ(h.bins[0 - ExpHist::kMinExp], 1u);
  EXPECT_EQ(h.bins[1 - ExpHist::kMinExp], 1u);
  EXPECT_EQ(h.bins[ExpHist::kMaxExp - ExpHist::kMinExp], 1u);
  EXPECT_EQ(h.bins[0], 1u);  // kMinExp bin
}

// ---------------------------------------------------------------------------
// Bottleneck thresholds
// ---------------------------------------------------------------------------

TEST(BottleneckTest, ClassifiesByDocumentedThresholds) {
  // Atomic serialization wins first, even far from both roofs.
  EXPECT_EQ(classify_bottleneck(0.1, 0.1, 40.0, 100.0), "atomic-bound");
  EXPECT_EQ(classify_bottleneck(0.9, 0.3, 0.0, 100.0), "memory-bound");
  // bw >= 0.5 but sm higher: compute wins.
  EXPECT_EQ(classify_bottleneck(0.5, 0.8, 0.0, 100.0), "compute-bound");
  EXPECT_EQ(classify_bottleneck(0.2, 0.7, 0.0, 100.0), "compute-bound");
  EXPECT_EQ(classify_bottleneck(0.2, 0.2, 0.0, 100.0), "latency-bound");
}

// ---------------------------------------------------------------------------
// Flamegraph fold (collapsed stacks from the span tracer's chrome trace)
// ---------------------------------------------------------------------------

TEST(FlamegraphTest, FoldsNestedSpansWithSelfTime) {
  // root [0, 1000us) contains child [200, 700us): self-times 500 / 500.
  const Json trace = Json::parse(R"({
    "traceEvents": [
      {"name": "proc", "ph": "M"},
      {"name": "root", "cat": "phase", "ph": "X", "ts": 0, "dur": 1000},
      {"name": "child", "cat": "phase", "ph": "X", "ts": 200, "dur": 500},
      {"name": "tick", "cat": "phase", "ph": "i", "ts": 300}
    ]
  })");
  const std::string folded = collapsed_stacks_from_trace(trace);
  EXPECT_NE(folded.find("root 500\n"), std::string::npos) << folded;
  EXPECT_NE(folded.find("root;child 500\n"), std::string::npos) << folded;
  EXPECT_EQ(folded.find("tick"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Guard audit records
// ---------------------------------------------------------------------------

TEST(ProfGuardAudit, GuardDecisionsEmitAuditRecords) {
  Profiler prof(ProfConfig::parse("numerics"));
  nn::TrainGuard guard;
  guard.set_profiler(&prof);

  guard.count_retry("spmm_halfgnn");
  guard.observe_output("spmm_halfgnn", true, 3);
  guard.observe_output("spmm_halfgnn", true, 3);
  guard.observe_output("spmm_halfgnn", true, 3);  // streak hits 3: fallback

  nn::Param p(2, 2);
  std::vector<nn::Param*> ps{&p};
  amp::GradScaler scaler;
  int adam_t = 0;
  guard.maybe_checkpoint(0, ps, scaler, adam_t);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(guard.note_loss(nan));
  EXPECT_TRUE(guard.note_loss(nan));
  guard.rollback(ps, scaler, adam_t);

  const auto& audits = prof.audits();
  ASSERT_EQ(audits.size(), 3u);
  EXPECT_EQ(audits[0].event, "retry");
  EXPECT_EQ(audits[0].site, "spmm_halfgnn");
  EXPECT_NE(audits[0].signal.find("LaunchFault"), std::string::npos);
  EXPECT_EQ(audits[1].event, "fallback");
  EXPECT_NE(audits[1].signal.find("streak reached 3"), std::string::npos);
  EXPECT_NE(audits[1].signal.find("chain level 1"), std::string::npos);
  EXPECT_EQ(audits[2].event, "rollback");
  EXPECT_NE(audits[2].signal.find("restored epoch 0"), std::string::npos);

  // Audit sequence numbers are the report ordering contract.
  for (std::size_t i = 0; i < audits.size(); ++i) {
    EXPECT_EQ(audits[i].seq, i);
  }
}

TEST(ProfGuardAudit, DisarmedProfilerRecordsNothing) {
  Profiler prof;  // inactive
  nn::TrainGuard guard;
  guard.set_profiler(&prof);
  guard.count_retry("spmm_halfgnn");
  EXPECT_TRUE(prof.audits().empty());
}

// ---------------------------------------------------------------------------
// Determinism: armed == disarmed, bit for bit, at every thread count; the
// prof report itself is byte-identical across thread counts.
// ---------------------------------------------------------------------------

struct TestGraph {
  Csr csr;
  Coo coo;
  kernels::GraphView g;
};

TestGraph make_graph(vid_t n, eid_t m, Rng& rng) {
  Coo raw = erdos_renyi(n, m / 2, rng);
  plant_hubs(raw, 2, n / 3, rng);
  TestGraph t;
  t.csr = coo_to_csr(raw);
  t.coo = csr_to_coo(t.csr);
  t.g = kernels::view(t.csr, t.coo);
  return t;
}

struct RunResult {
  std::vector<std::uint16_t> bits;
  std::string metrics;
  std::string report;
};

// The sanitizer_test.cpp recipe: one fixed SpMM workload (plain + atomic),
// bits + metrics captured, optionally under an armed profiler.
RunResult run_spmm(int threads, const char* prof_spec) {
  Rng rng(77);
  const TestGraph t = make_graph(600, 5000, rng);
  const auto n = static_cast<std::size_t>(t.csr.num_vertices);
  AlignedVec<half_t> xh(n * 64);
  for (auto& v : xh) v = half_t(rng.next_float() * 2 - 1);

  simt::Device dev(simt::a100_spec(), threads);
  if (prof_spec != nullptr) {
    dev.set_profiler(ProfConfig::parse(prof_spec));
  }
  simt::Stream stream(dev);

  obs::registry().reset();
  obs::registry().set_enabled(true);
  AlignedVec<half_t> y(n * 64);
  kernels::HalfgnnSpmmOpts opts;
  opts.reduce = kernels::Reduce::kMean;
  kernels::spmm_halfgnn(stream, true, t.g, {}, xh, y, 64, opts);
  opts.atomic_writes = true;
  kernels::spmm_halfgnn(stream, true, t.g, {}, xh, y, 64, opts);
  // A training-mode (unprofiled) launch rides along so the report's
  // unprofiled_launches coverage accounting is exercised too.
  kernels::spmm_halfgnn(stream, false, t.g, {}, xh, y, 64, opts);
  RunResult r;
  r.metrics = obs::registry().to_json().dump();
  obs::registry().set_enabled(false);
  obs::registry().reset();
  r.bits.resize(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) r.bits[i] = y[i].bits();
  if (prof_spec != nullptr) {
    r.report = dev.profiler().report_json().dump(1);
  }
  return r;
}

TEST(ProfDeterminism, ArmedRunBitIdenticalToDisarmedAcrossThreadCounts) {
  const RunResult base = run_spmm(1, nullptr);
  for (int threads : {1, 2, 7, 16}) {
    const RunResult off = run_spmm(threads, nullptr);
    const RunResult on = run_spmm(threads, "all");
    EXPECT_EQ(off.bits, base.bits) << "threads=" << threads;
    EXPECT_EQ(on.bits, base.bits) << "threads=" << threads;
    // The profiler publishes nothing to the registry: armed metrics JSON is
    // byte-identical to disarmed.
    EXPECT_EQ(on.metrics, off.metrics) << "threads=" << threads;
    EXPECT_EQ(off.metrics, base.metrics) << "threads=" << threads;
  }
}

TEST(ProfDeterminism, ReportByteIdenticalAcrossThreadCounts) {
  const RunResult base = run_spmm(1, "all");
  ASSERT_FALSE(base.report.empty());
  for (int threads : {2, 7, 16}) {
    const RunResult r = run_spmm(threads, "all");
    EXPECT_EQ(r.report, base.report) << "threads=" << threads;
  }
  // And the report is well-formed per the shipped validator.
  EXPECT_EQ(validate_prof_report(Json::parse(base.report)), "");
}

TEST(ProfReport, RooflineSectionCoversTheWorkload) {
  const RunResult r = run_spmm(2, "all");
  const Json doc = Json::parse(r.report);
  const Json* roof = doc.find("roofline");
  ASSERT_NE(roof, nullptr);
  const Json* k = roof->find("spmm_halfgnn_atomic_h2");
  if (k == nullptr) {
    // Kernel family naming may differ; at minimum one family was profiled
    // with a classified bottleneck.
    ASSERT_FALSE(roof->members().empty());
    k = &roof->members().front().second;
  }
  ASSERT_NE(k->find("launches"), nullptr);
  const Json* bn = k->find("bottleneck");
  ASSERT_NE(bn, nullptr);
  ASSERT_TRUE(bn->is_string());
  const std::string cls = bn->as_string();
  EXPECT_TRUE(cls == "memory-bound" || cls == "compute-bound" ||
              cls == "latency-bound" || cls == "atomic-bound")
      << cls;
  // Store sampling saw the half stores of the armed launches.
  const Json* stores = doc.find("numerics")->find("kernel_stores");
  ASSERT_NE(stores, nullptr);
  EXPECT_FALSE(stores->members().empty());
}

// ---------------------------------------------------------------------------
// Trainer telemetry end to end
// ---------------------------------------------------------------------------

Dataset tiny_dataset(vid_t n, int k, eid_t m, int feat, std::uint64_t seed) {
  Dataset d;
  d.labeled = true;
  d.feat_dim = feat;
  d.num_classes = k;
  Rng rng(seed);
  Coo raw = sbm(n, k, m, 0.9, rng, d.labels);
  d.csr = symmetrize(coo_to_csr(raw));
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

TEST(ProfTrainer, NumericsTelemetryFromTraining) {
  simt::Device dev(simt::a100_spec(), 4);
  dev.set_profiler(ProfConfig::parse("all"));
  simt::Stream stream(dev);

  const Dataset d = tiny_dataset(120, 3, 600, 16, 5);
  nn::TrainConfig cfg;
  cfg.epochs = 3;
  cfg.hidden = 16;
  cfg.stream = &stream;
  (void)nn::train(nn::ModelKind::kGcn, nn::SystemMode::kHalfGnn, d, cfg);

  const Json doc = dev.profiler().report_json();
  EXPECT_EQ(validate_prof_report(doc), "");
  const Json* num = doc.find("numerics");
  ASSERT_NE(num, nullptr);
  // Per-epoch activation/gradient series for the logits plus every param
  // gradient, and one loss-scale point per epoch.
  const Json* tensors = num->find("tensors");
  ASSERT_NE(tensors, nullptr);
  ASSERT_NE(tensors->find("act.logits"), nullptr);
  ASSERT_NE(tensors->find("grad.logits"), nullptr);
  ASSERT_NE(tensors->find("grad.param0"), nullptr);
  EXPECT_EQ(tensors->find("act.logits")->members().size(), 3u);
  EXPECT_EQ(num->find("loss_scale")->items().size(), 3u);
  // The halfgnn epoch stores through the simulated kernels: the roofline
  // section saw launches and the store sampler saw fp16 values.
  EXPECT_FALSE(doc.find("roofline")->members().empty());
  EXPECT_FALSE(num->find("kernel_stores")->members().empty());
}

TEST(ProfTrainer, TrainingUnchangedByArmedProfiler) {
  const Dataset d = tiny_dataset(120, 3, 600, 16, 5);
  const auto run = [&](const char* spec) {
    simt::Device dev(simt::a100_spec(), 4);
    if (spec != nullptr) dev.set_profiler(ProfConfig::parse(spec));
    simt::Stream stream(dev);
    nn::TrainConfig cfg;
    cfg.epochs = 4;
    cfg.hidden = 16;
    cfg.stream = &stream;
    return nn::train(nn::ModelKind::kGcn, nn::SystemMode::kHalfGnn, d, cfg);
  };
  const nn::TrainResult off = run(nullptr);
  const nn::TrainResult on = run("all");
  EXPECT_EQ(on.losses, off.losses);
  EXPECT_EQ(on.test_accs, off.test_accs);
}

}  // namespace
}  // namespace hg::obs::prof
