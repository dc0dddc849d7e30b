// Observability-layer tests: span nesting/ordering on the modeled clock,
// registry snapshot determinism (same seed => byte-identical JSON), a
// golden structural check that the exported Chrome trace parses and its
// spans nest (child.ts + child.dur <= parent.ts + parent.dur), and a
// mutation sweep over the JSON parser.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "nn/trainer.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace hg::obs {
namespace {

// Both singletons are process-global: each test starts from a clean slate
// and disables them on exit so unrelated tests stay unobserved.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tracer().reset();
    registry().reset();
  }
  void TearDown() override {
    tracer().set_enabled(false);
    registry().set_enabled(false);
    tracer().reset();
    registry().reset();
  }
};

hg::Dataset obs_dataset(std::uint64_t seed) {
  hg::Dataset d;
  d.labeled = true;
  d.feat_dim = 8;
  d.num_classes = 3;
  hg::Rng rng(seed);
  hg::Coo raw = hg::sbm(80, 3, 240, 0.9, rng, d.labels);
  d.csr = hg::symmetrize(hg::coo_to_csr(raw));
  d.csr_t = d.csr;
  d.coo = hg::csr_to_coo(d.csr);
  const auto n = static_cast<std::size_t>(d.num_vertices());
  const auto f = static_cast<std::size_t>(d.feat_dim);
  d.features.resize(n * f);
  for (auto& v : d.features) v = rng.next_float() * 2 - 1;
  d.train_mask.resize(n);
  for (std::size_t v = 0; v < n; ++v) d.train_mask[v] = (v % 5) < 3;
  return d;
}

TEST_F(ObsTest, SpansNestOnTheModeledClock) {
  tracer().set_enabled(true);
  {
    Span outer("outer", "phase");
    trace_complete("child_a", "kernel", 2.0, {{"k", 1}});
    {
      Span inner("inner", "phase");
      trace_complete("child_b", "kernel", 3.0, {});
    }
  }
  EXPECT_DOUBLE_EQ(tracer().now_ms(), 5.0);  // clock advanced by children

  const Json doc = tracer().chrome_trace_json();
  EXPECT_TRUE(validate_chrome_trace(doc).empty())
      << validate_chrome_trace(doc);

  // Find the spans and check containment explicitly.
  double outer_ts = -1, outer_end = -1;
  double inner_ts = -1, inner_end = -1;
  double b_ts = -1, b_end = -1;
  for (const auto& e : doc.find("traceEvents")->items()) {
    if (e.find("ph")->as_string() != "X") continue;
    const double ts = e.find("ts")->as_double();
    const double end = ts + e.find("dur")->as_double();
    const std::string name = e.find("name")->as_string();
    if (name == "outer") outer_ts = ts, outer_end = end;
    if (name == "inner") inner_ts = ts, inner_end = end;
    if (name == "child_b") b_ts = ts, b_end = end;
  }
  ASSERT_GE(outer_ts, 0);
  ASSERT_GE(inner_ts, 0);
  ASSERT_GE(b_ts, 0);
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_end, outer_end);
  EXPECT_GE(b_ts, inner_ts);
  EXPECT_LE(b_end, inner_end);
  // "outer" spans the full modeled timeline: 5 ms == 5000 us.
  EXPECT_DOUBLE_EQ(outer_end - outer_ts, 5000.0);
}

TEST_F(ObsTest, DisabledTracerRecordsNothing) {
  ASSERT_FALSE(tracer().enabled());
  {
    Span s("ghost", "phase");
    s.arg("k", 1.0);
    trace_complete("ghost_kernel", "kernel", 2.0, {});
  }
  EXPECT_EQ(tracer().event_count(), 0u);
  EXPECT_DOUBLE_EQ(tracer().now_ms(), 0.0);
}

TEST_F(ObsTest, RegistrySnapshotsAreByteIdenticalAcrossRuns) {
  const hg::Dataset d = obs_dataset(21);
  nn::TrainConfig cfg = nn::default_config(nn::ModelKind::kGcn);
  cfg.epochs = 3;
  cfg.hidden = 8;
  cfg.trace = true;
  cfg.profile_first_epoch = true;

  auto run_once = [&] {
    registry().reset();
    registry().set_enabled(true);
    (void)nn::train(nn::ModelKind::kGcn, nn::SystemMode::kHalfGnn, d, cfg);
    return registry().to_json().dump(1);
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);

  const Json doc = Json::parse(first);
  EXPECT_TRUE(validate_metrics_json(doc).empty())
      << validate_metrics_json(doc);
  ASSERT_NE(doc.find("epochs"), nullptr);
  EXPECT_EQ(doc.find("epochs")->items().size(), 3u);
}

TEST_F(ObsTest, TrainedTraceParsesAndNests) {
  const hg::Dataset d = obs_dataset(22);
  nn::TrainConfig cfg = nn::default_config(nn::ModelKind::kGcn);
  cfg.epochs = 2;
  cfg.hidden = 8;
  cfg.trace = true;

  tracer().set_enabled(true);
  (void)nn::train(nn::ModelKind::kGcn, nn::SystemMode::kHalfGnn, d, cfg);
  ASSERT_GT(tracer().event_count(), 0u);

  // Golden structural check through the full serialize -> parse round trip.
  const std::string text = tracer().chrome_trace_json().dump(1);
  const Json doc = Json::parse(text);
  EXPECT_TRUE(validate_chrome_trace(doc).empty())
      << validate_chrome_trace(doc);

  // The run span exists and covers every kernel span.
  double run_ts = -1, run_end = -1;
  int kernel_spans = 0;
  for (const auto& e : doc.find("traceEvents")->items()) {
    if (e.find("ph")->as_string() != "X") continue;
    const double ts = e.find("ts")->as_double();
    const double end = ts + e.find("dur")->as_double();
    const Json* cat = e.find("cat");
    if (cat != nullptr && cat->as_string() == "run") {
      run_ts = ts;
      run_end = end;
    }
    if (cat != nullptr && cat->as_string() == "kernel") ++kernel_spans;
  }
  ASSERT_GE(run_ts, 0);
  EXPECT_GT(kernel_spans, 0);
  for (const auto& e : doc.find("traceEvents")->items()) {
    if (e.find("ph")->as_string() != "X") continue;
    const Json* cat = e.find("cat");
    if (cat == nullptr || cat->as_string() != "kernel") continue;
    const double ts = e.find("ts")->as_double();
    const double end = ts + e.find("dur")->as_double();
    EXPECT_GE(ts, run_ts - 1e-9);
    EXPECT_LE(end, run_end + 1e-9);
  }
}

TEST_F(ObsTest, TracingDoesNotChangeNumerics) {
  const hg::Dataset d = obs_dataset(23);
  nn::TrainConfig cfg = nn::default_config(nn::ModelKind::kGcn);
  cfg.epochs = 3;
  cfg.hidden = 8;

  const nn::TrainResult plain =
      nn::train(nn::ModelKind::kGcn, nn::SystemMode::kHalfGnn, d, cfg);

  tracer().set_enabled(true);
  registry().set_enabled(true);
  cfg.trace = true;
  const nn::TrainResult traced =
      nn::train(nn::ModelKind::kGcn, nn::SystemMode::kHalfGnn, d, cfg);

  ASSERT_EQ(plain.losses.size(), traced.losses.size());
  for (std::size_t i = 0; i < plain.losses.size(); ++i) {
    EXPECT_EQ(plain.losses[i], traced.losses[i]) << "epoch " << i;
  }
  EXPECT_EQ(plain.final_test_acc, traced.final_test_acc);
}

TEST_F(ObsTest, PerfReportRoundTripsAndValidates) {
  PerfReport r("unit");
  r.meta("purpose", "test");
  r.set_columns({"a", "b"});
  r.add_row("row0", {1.5, 2.5});
  r.add_row("row1", {3.0, std::numeric_limits<double>::quiet_NaN()});
  r.summary("avg a", 2.25);
  r.add_kernel("k0", {{"time_ms", 1.0}}, 2);

  const Json doc = Json::parse(r.to_json().dump(1));
  EXPECT_TRUE(validate_bench_report(doc).empty())
      << validate_bench_report(doc);
  // NaN cells serialize as null, not as invalid JSON.
  const Json* rows = doc.find("rows");
  ASSERT_NE(rows, nullptr);
  EXPECT_TRUE(rows->items()[1].find("cells")->find("b")->is_null());
}

TEST_F(ObsTest, InfinityCellsSerializeAsNull) {
  // ±Inf means the same thing as NaN in a report cell ("not measured"):
  // both must land as null, never as a sentinel number like 1e999.
  PerfReport r("unit");
  r.set_columns({"a", "b"});
  r.add_row("row0", {std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()});
  const std::string text = r.to_json().dump(1);
  EXPECT_EQ(text.find("1e999"), std::string::npos) << text;
  const Json doc = Json::parse(text);
  EXPECT_TRUE(validate_bench_report(doc).empty())
      << validate_bench_report(doc);
  const Json* cells = doc.find("rows")->items()[0].find("cells");
  EXPECT_TRUE(cells->find("a")->is_null());
  EXPECT_TRUE(cells->find("b")->is_null());
}

TEST_F(ObsTest, HistogramQuantilesInterpolateKnownDistributions) {
  Registry& reg = registry();
  reg.set_enabled(true);

  // 100 uniform samples 1..100: p50 ≈ 50, p99 ≈ 99 (log-interpolated
  // within decade buckets, so tolerances are loose but order must hold).
  for (int i = 1; i <= 100; ++i) {
    reg.observe("uniform", static_cast<double>(i));
  }
  const double p50 = reg.histogram_quantile("uniform", 0.50);
  const double p95 = reg.histogram_quantile("uniform", 0.95);
  const double p99 = reg.histogram_quantile("uniform", 0.99);
  EXPECT_NEAR(p50, 50.0, 25.0);
  EXPECT_NEAR(p95, 95.0, 15.0);
  EXPECT_NEAR(p99, 99.0, 10.0);
  EXPECT_LT(p50, p95);
  EXPECT_LE(p95, p99);
  // Edge quantiles pin to the observed extremes; estimates stay in range.
  EXPECT_EQ(reg.histogram_quantile("uniform", 0.0), 1.0);
  EXPECT_EQ(reg.histogram_quantile("uniform", 1.0), 100.0);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p99, 100.0);

  // A point mass: every quantile is the value itself (bucket interpolation
  // must clamp to [min, max]).
  for (int i = 0; i < 10; ++i) reg.observe("const", 7.0);
  EXPECT_EQ(reg.histogram_quantile("const", 0.50), 7.0);
  EXPECT_EQ(reg.histogram_quantile("const", 0.99), 7.0);

  // Unknown / empty histogram: NaN.
  EXPECT_TRUE(std::isnan(reg.histogram_quantile("nope", 0.5)));

  // The JSON export carries the same estimates.
  const Json doc = reg.to_json();
  const Json* h = doc.find("histograms")->find("const");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->find("p50")->as_double(), 7.0);
  EXPECT_EQ(h->find("p95")->as_double(), 7.0);
  EXPECT_EQ(h->find("p99")->as_double(), 7.0);
}

// Fixed, seeded mutation sweep over the JSON parser that perf_diff,
// hgcheck's --allowlist and the checkpoint manifest read through. The seeds
// are documents the repo's own writers produce; the mutations are byte
// flips, truncations, duplicated and dropped brackets, spliced 1e999 / -0
// numbers and \u escapes, and deep nesting. Every input must parse or throw
// std::runtime_error (anything else fails the test), and every accepted
// input must dump -> parse -> dump to the same text.
TEST_F(ObsTest, JsonMutationSweepParsesOrThrowsRuntimeError) {
  std::vector<std::string> seeds;
  Registry& reg = registry();
  reg.set_enabled(true);
  reg.add_counter("ckpt.writes", 3);
  reg.set_gauge("amp.scale", 65536.0);
  for (int i = 1; i <= 20; ++i) reg.observe("host_ms", 0.125 * i);
  reg.publish_kernel("spmm_halfgnn", {{"time_ms", 0.0625}, {"sectors", 1e9}});
  reg.snapshot_epoch(0);
  seeds.push_back(reg.to_json().dump(1));
  tracer().set_enabled(true);
  {
    Span run("run", "run");
    run.arg("dtype", std::string("f16"));
    trace_complete("spmm_halfgnn", "kernel", 0.25, {{"ctas", 120}});
  }
  seeds.push_back(tracer().chrome_trace_json().dump(1));
  PerfReport report("unit");
  report.meta("simd", "avx2");
  report.set_columns({"host_ms", "modeled_ms"});
  report.add_row("spmm_halfgnn train",
                 {1.5, std::numeric_limits<double>::quiet_NaN()});
  report.summary("spmm_halfgnn_train_floor_ratio", 1.25);
  seeds.push_back(report.to_json().dump(1));
  Json manifest = Json::object();
  manifest.set("schema", "halfgnn-ckpt-manifest-v1");
  manifest.set("version", 1);
  Json entries = Json::array();
  for (int gen = 0; gen < 2; ++gen) {
    Json e = Json::object();
    e.set("gen", gen);
    e.set("epoch", gen + 1);
    e.set("bytes", std::uint64_t{1} << 40);
    e.set("crc", 4294967295.0);
    entries.push(std::move(e));
  }
  manifest.set("entries", std::move(entries));
  seeds.push_back(manifest.dump(1));

  int accepted = 0;
  int rejected = 0;
  const auto check = [&](const std::string& text) {
    try {
      const std::string once = Json::parse(text).dump();
      EXPECT_EQ(Json::parse(once).dump(), once) << text.substr(0, 200);
      ++accepted;
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  };

  constexpr const char* kSplices[] = {
      "1e999", "-1e999", "-0", "\"\\u00e9\"", "\"\\u0000\"", "\"\\ud800\"",
      "\"\\u12\"", "\"\\uZZZZ\"", "[]", "{}", "1e-320", "9007199254740993"};
  std::mt19937 rng(0x1503u);
  for (const std::string& seed : seeds) {
    check(seed);
    for (int i = 0; i < 200; ++i) {
      std::string t = seed;
      const std::size_t at = rng() % t.size();
      switch (i % 5) {
        case 0:  // byte flips
          for (int f = 0; f <= static_cast<int>(rng() % 3); ++f) {
            t[rng() % t.size()] ^= static_cast<char>(1u << (rng() % 8));
          }
          break;
        case 1:  // truncation
          t.resize(at);
          break;
        case 2:    // duplicated or dropped bracket
        case 3: {  // spliced value in place of the next number or string
          const bool bracket = i % 5 == 2;
          const std::size_t p =
              t.find_first_of(bracket ? "[]{}" : "-0123456789\"", at);
          if (p == std::string::npos) break;
          if (!bracket) {
            const std::size_t end = t.find_first_of(",]}\n", p + 1);
            t.replace(p, end == std::string::npos ? 1 : end - p,
                      kSplices[rng() % std::size(kSplices)]);
          } else if (rng() % 2 == 0) {
            t.insert(p, 1, t[p]);
          } else {
            t.erase(p, 1);
          }
          break;
        }
        default: {  // wrapped in a few hundred levels
          const auto depth = static_cast<std::size_t>(rng() % 600);
          t = std::string(depth, '[') + t + std::string(depth, ']');
          break;
        }
      }
      check(t);
    }
  }
  // The nesting bound: kMaxDepth levels parse, one more throws, and so do
  // the 100,000 levels that would otherwise overflow the stack.
  const auto nested = [](std::size_t open, std::size_t close) {
    return std::string(open, '[') + std::string(close, ']');
  };
  const auto max_depth = static_cast<std::size_t>(Json::kMaxDepth);
  EXPECT_NO_THROW(Json::parse(nested(max_depth, max_depth)));
  EXPECT_THROW(Json::parse(nested(max_depth + 1, max_depth + 1)),
               std::runtime_error);
  EXPECT_THROW(Json::parse(nested(100000, 100000)), std::runtime_error);
  EXPECT_THROW(Json::parse(nested(100000, 0)), std::runtime_error);
  EXPECT_THROW(Json::parse(std::string(100000, '{')), std::runtime_error);
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

}  // namespace
}  // namespace hg::obs
