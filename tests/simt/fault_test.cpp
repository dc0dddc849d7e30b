// Tests for the deterministic fault injector (simt/fault.hpp): the
// HALFGNN_FAULTS grammar, the zero-cost null-spec guarantee, cross-thread
// bit-reproducibility of injected faults, typed launch failures, and the
// kernel/CTA filters.
#include "simt/fault.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "kernels/spmm_cusparse_like.hpp"
#include "obs/metrics.hpp"
#include "simt/simt.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace hg::simt {
namespace {

// --- spec grammar -----------------------------------------------------------

TEST(FaultSpec, ParsesFullGrammar) {
  const FaultConfig cfg = FaultConfig::parse(
      "bitflip:rate=1e-6,seed=7,kernel=spmm;"
      "launchfail:every=500,kernel=spmm;"
      "overflow:kernel=spmm,cta=12;"
      "stuck:every=3,kernel=sddmm;"
      "torncrash:epoch=4,at=128");
  EXPECT_TRUE(cfg.active());
  ASSERT_EQ(cfg.bitflips.size(), 1u);
  EXPECT_DOUBLE_EQ(cfg.bitflips[0].rate, 1e-6);
  EXPECT_EQ(cfg.bitflips[0].seed, 7u);
  EXPECT_EQ(cfg.bitflips[0].kernel, "spmm");
  EXPECT_GT(cfg.bitflips[0].threshold, 0u);
  ASSERT_EQ(cfg.launchfails.size(), 1u);
  EXPECT_EQ(cfg.launchfails[0].every, 500u);
  EXPECT_EQ(cfg.launchfails[0].kernel, "spmm");
  ASSERT_EQ(cfg.overflows.size(), 1u);
  EXPECT_EQ(cfg.overflows[0].kernel, "spmm");
  EXPECT_EQ(cfg.overflows[0].cta, 12);
  ASSERT_EQ(cfg.stucks.size(), 1u);
  EXPECT_EQ(cfg.stucks[0].every, 3u);
  EXPECT_EQ(cfg.stucks[0].kernel, "sddmm");
  ASSERT_EQ(cfg.torncrashes.size(), 1u);
  EXPECT_EQ(cfg.torncrashes[0].epoch, 4);
  EXPECT_EQ(cfg.torncrashes[0].at, 128u);
}

TEST(FaultSpec, TornCrashOnlySpecsStayOffTheLaunchPath) {
  // torncrash lives in the checkpoint write path; a spec with nothing else
  // must not arm the per-launch injector (and so cannot perturb kernels).
  const FaultConfig cfg = FaultConfig::parse("torncrash:epoch=2");
  EXPECT_FALSE(cfg.active());
  ASSERT_EQ(cfg.torncrashes.size(), 1u);
  EXPECT_EQ(cfg.torncrashes[0].epoch, 2);
  // `at` omitted = die after the full write committed.
  EXPECT_EQ(cfg.torncrashes[0].at, ~std::uint64_t{0});
  // stuck, by contrast, is a launch fault.
  EXPECT_TRUE(FaultConfig::parse("stuck:every=1").active());
}

TEST(FaultSpec, GrammarHelpNamesEveryKind) {
  const std::string help = FaultConfig::grammar_help();
  for (const char* kind :
       {"bitflip", "launchfail", "overflow", "stuck", "torncrash"}) {
    EXPECT_NE(help.find(kind), std::string::npos) << kind;
  }
}

TEST(FaultSpec, ParsesTheDocumentedSamples) {
  const FaultConfig a =
      FaultConfig::parse("bitflip:rate=1e-6,seed=7;launchfail:every=500");
  EXPECT_EQ(a.bitflips.size(), 1u);
  EXPECT_EQ(a.launchfails.size(), 1u);
  const FaultConfig b = FaultConfig::parse(
      "overflow:kernel=spmm;stuck:every=3,kernel=spmm;torncrash:epoch=4,"
      "at=128");
  EXPECT_EQ(b.overflows.size(), 1u);
  EXPECT_EQ(b.stucks.size(), 1u);
  ASSERT_EQ(b.torncrashes.size(), 1u);
  EXPECT_EQ(b.torncrashes[0].at, 128u);
}

TEST(FaultSpec, EmptyAndWhitespaceSpecsAreInactive) {
  EXPECT_FALSE(FaultConfig::parse("").active());
  EXPECT_FALSE(FaultConfig::parse("  ").active());
  EXPECT_FALSE(FaultConfig::parse(" ; ; ").active());
}

TEST(FaultSpec, RateOneSaturatesTheHashThreshold) {
  const FaultConfig cfg = FaultConfig::parse("bitflip:rate=1,seed=3");
  ASSERT_EQ(cfg.bitflips.size(), 1u);
  EXPECT_EQ(cfg.bitflips[0].threshold,
            std::numeric_limits<std::uint64_t>::max());
  // rate=0 is legal but can never fire.
  EXPECT_EQ(FaultConfig::parse("bitflip:rate=0").bitflips[0].threshold, 0u);
}

TEST(FaultSpec, RejectsMalformedClauses) {
  EXPECT_THROW(FaultConfig::parse("frobnicate:rate=1"), std::invalid_argument);
  EXPECT_THROW(FaultConfig::parse("bitflip"), std::invalid_argument);
  EXPECT_THROW(FaultConfig::parse("bitflip:seed=3"), std::invalid_argument);
  EXPECT_THROW(FaultConfig::parse("bitflip:rate=abc"), std::invalid_argument);
  EXPECT_THROW(FaultConfig::parse("bitflip:rate=-1"), std::invalid_argument);
  EXPECT_THROW(FaultConfig::parse("bitflip:rate=1,bogus=2"),
               std::invalid_argument);
  EXPECT_THROW(FaultConfig::parse("launchfail:kernel=x"),
               std::invalid_argument);
  EXPECT_THROW(FaultConfig::parse("launchfail:every=0"),
               std::invalid_argument);
  EXPECT_THROW(FaultConfig::parse("overflow:cta=notanumber"),
               std::invalid_argument);
  EXPECT_THROW(FaultConfig::parse("stuck:every=0"), std::invalid_argument);
  EXPECT_THROW(FaultConfig::parse("stuck:bogus=1"), std::invalid_argument);
  EXPECT_THROW(FaultConfig::parse("torncrash:at=64"), std::invalid_argument);
  EXPECT_THROW(FaultConfig::parse("torncrash:epoch=-1"),
               std::invalid_argument);
  // Every number is read whole as its key's type: no truncation, no wrap
  // and no out-of-range float-to-int cast. The error names the variable
  // and the key.
  using Case = std::pair<const char*, const char*>;  // spec, key it names
  for (const auto& [spec, key] : std::vector<Case>{
           {"launchfail:every=nan", "every"},
           {"launchfail:every=1e30", "every"},
           {"launchfail:every=2.5", "every"},
           {"stuck:every=+3", "every"},
           {"stuck:every=03", "every"},
           {"bitflip:rate=1e-3,seed=-1", "seed"},
           {"bitflip:rate=1e-3,seed=2.5", "seed"},
           {"bitflip:rate=1e-3,seed=18446744073709551616", "seed"},
           {"bitflip:rate=0x1p-3", "rate"},
           {"overflow:kernel=spmm,cta=1e10", "cta"},
           {"overflow:kernel=spmm,cta=2.5", "cta"},
           {"overflow:kernel=spmm,cta=-2", "cta"},
           {"torncrash:epoch=1e10", "epoch"},
           {"torncrash:epoch=2147483648", "epoch"},
           {"torncrash:epoch=3,at=1e30", "at"}}) {
    try {
      (void)FaultConfig::parse(spec);
      ADD_FAILURE() << "accepted " << spec;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("HALFGNN_FAULTS: ", 0), 0u) << what;
      EXPECT_NE(what.find(std::string("': ") + key + ": "), std::string::npos)
          << what;
    }
  }
  // 2^53 + 1 has no double: a seed is an integer, never a round trip.
  EXPECT_EQ(FaultConfig::parse("bitflip:rate=1e-3,seed=9007199254740993")
                .bitflips[0]
                .seed,
            9007199254740993ull);
  EXPECT_EQ(FaultConfig::parse("bitflip:rate=0,seed=18446744073709551615")
                .bitflips[0]
                .seed,
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(FaultConfig::parse("overflow:cta=-1").overflows[0].cta, -1);
}

TEST(FaultSpec, FromEnvReadsHalfgnnFaults) {
  setenv("HALFGNN_FAULTS", "bitflip:rate=0.25,seed=9", 1);
  const FaultConfig cfg = FaultConfig::from_env();
  ASSERT_EQ(cfg.bitflips.size(), 1u);
  EXPECT_DOUBLE_EQ(cfg.bitflips[0].rate, 0.25);
  unsetenv("HALFGNN_FAULTS");
  EXPECT_FALSE(FaultConfig::from_env().active());
}

// --- a minimal copy kernel for targeted injection ---------------------------

constexpr int kCopyCtas = 4;
constexpr int kCopyElems = kCopyCtas * kWarpSize;

// Each CTA copies its 32-element segment: one contiguous load + store per
// warp, the exact Warp hooks the injector intercepts.
std::vector<half_t> run_copy(Device& dev, const char* name = "copytest") {
  Stream stream(dev);
  AlignedVec<half_t> in(kCopyElems);
  for (int i = 0; i < kCopyElems; ++i) {
    in[static_cast<std::size_t>(i)] =
        half_t(0.5f + 0.001f * static_cast<float>(i));
  }
  AlignedVec<half_t> out(kCopyElems);
  stream.launch<false>(
      LaunchDesc{name, kCopyCtas, 1}, [&](Cta<false>& cta) {
        const std::int64_t base = cta.cta_id() * kWarpSize;
        cta.for_each_warp([&](Warp<false>& w) {
          Lanes<half_t> v{};
          w.load_contiguous<half_t>(in, base, kWarpSize, v);
          w.store_contiguous<half_t>(out, base, kWarpSize, v);
        });
      });
  return {out.begin(), out.end()};
}

TEST(Fault, NullAndZeroRateSpecsAreByteIdentical) {
  Device clean(DeviceSpec{}, 2);
  const auto base = run_copy(clean);

  Device null_spec(DeviceSpec{}, 2);
  null_spec.set_faults(FaultConfig::parse(""));
  EXPECT_EQ(run_copy(null_spec), base);
  EXPECT_EQ(null_spec.faults().launches_seen(), 0u);

  // A zero-rate clause arms every launch but can never flip a bit.
  Device zero_rate(DeviceSpec{}, 2);
  zero_rate.set_faults(FaultConfig::parse("bitflip:rate=0,seed=5"));
  EXPECT_EQ(run_copy(zero_rate), base);
  EXPECT_EQ(zero_rate.faults().launches_seen(), 1u);
  EXPECT_EQ(zero_rate.faults().total_bitflips(), 0u);
}

TEST(Fault, BitflipsCorruptDataAndAreCounted) {
  Device clean(DeviceSpec{}, 2);
  const auto base = run_copy(clean);

  Device faulted(DeviceSpec{}, 2);
  faulted.set_faults(FaultConfig::parse("bitflip:rate=0.05,seed=11"));
  const auto hit = run_copy(faulted);
  EXPECT_NE(hit, base);
  EXPECT_GT(faulted.faults().total_bitflips(), 0u);
  // A flip changes exactly one bit: every corrupted element differs from
  // the clean value in a power-of-two XOR of its bit pattern, unless the
  // same element was hit twice (load + store are independent draws).
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (base[i].bits() != hit[i].bits()) ++diffs;
  }
  EXPECT_GT(diffs, 0u);
  EXPECT_LE(diffs, faulted.faults().total_bitflips());
}

TEST(Fault, SameSeedReproducesSameCorruption) {
  Device a(DeviceSpec{}, 2);
  a.set_faults(FaultConfig::parse("bitflip:rate=0.05,seed=11"));
  Device b(DeviceSpec{}, 2);
  b.set_faults(FaultConfig::parse("bitflip:rate=0.05,seed=11"));
  EXPECT_EQ(run_copy(a), run_copy(b));

  Device c(DeviceSpec{}, 2);
  c.set_faults(FaultConfig::parse("bitflip:rate=0.05,seed=12"));
  EXPECT_NE(run_copy(a), run_copy(c));  // seed is load-bearing
}

TEST(Fault, KernelFilterRestrictsInjection) {
  Device clean(DeviceSpec{}, 2);
  const auto base = run_copy(clean);

  Device miss(DeviceSpec{}, 2);
  miss.set_faults(FaultConfig::parse("bitflip:rate=1,kernel=spmm"));
  EXPECT_EQ(run_copy(miss), base);
  EXPECT_EQ(miss.faults().total_bitflips(), 0u);

  Device match(DeviceSpec{}, 2);
  match.set_faults(FaultConfig::parse("bitflip:rate=1,kernel=copy"));
  EXPECT_NE(run_copy(match), base);
  EXPECT_GT(match.faults().total_bitflips(), 0u);
}

TEST(Fault, OverflowSaturatesStoresToInf) {
  Device dev(DeviceSpec{}, 2);
  dev.set_faults(FaultConfig::parse("overflow:kernel=copytest"));
  const auto out = run_copy(dev);
  for (const auto v : out) {
    EXPECT_TRUE(std::isinf(v.to_float())) << v.to_float();
  }
  EXPECT_EQ(dev.faults().total_overflows(),
            static_cast<std::uint64_t>(kCopyElems));
}

TEST(Fault, OverflowCtaFilterTargetsOneCta) {
  Device dev(DeviceSpec{}, 2);
  dev.set_faults(FaultConfig::parse("overflow:kernel=copytest,cta=2"));
  const auto out = run_copy(dev);
  for (int i = 0; i < kCopyElems; ++i) {
    const bool in_cta2 = i / kWarpSize == 2;
    EXPECT_EQ(std::isinf(out[static_cast<std::size_t>(i)].to_float()),
              in_cta2)
        << "elem " << i;
  }
  EXPECT_EQ(dev.faults().total_overflows(),
            static_cast<std::uint64_t>(kWarpSize));
}

TEST(Fault, LaunchfailThrowsTypedFaultAndStreamSurvives) {
  Device dev(DeviceSpec{}, 2);
  dev.set_faults(FaultConfig::parse("launchfail:every=3,kernel=copytest"));
  Device clean(DeviceSpec{}, 2);
  const auto base = run_copy(clean);

  EXPECT_EQ(run_copy(dev), base);  // launch 1
  EXPECT_EQ(run_copy(dev), base);  // launch 2
  try {
    run_copy(dev);  // launch 3: fails before any output byte is written
    FAIL() << "expected LaunchFault";
  } catch (const LaunchFault& f) {
    EXPECT_EQ(f.kernel(), "copytest");
    EXPECT_EQ(f.ordinal(), 2u);  // zero-based launch ordinal
  }
  EXPECT_EQ(dev.faults().total_launchfails(), 1u);
  // The device stays usable and the retry (launch 4) succeeds.
  EXPECT_EQ(run_copy(dev), base);
  EXPECT_EQ(dev.faults().launches_seen(), 4u);
}

TEST(Fault, RegistryCountersRecordInjections) {
  auto& reg = obs::registry();
  reg.reset();
  reg.set_enabled(true);
  Device dev(DeviceSpec{}, 2);
  dev.set_faults(FaultConfig::parse(
      "bitflip:rate=0.05,seed=11;overflow:kernel=copytest,cta=0"));
  run_copy(dev);
  const std::string json = reg.to_json().dump();
  reg.set_enabled(false);
  reg.reset();
  EXPECT_NE(json.find("fault.bitflip"), std::string::npos);
  EXPECT_NE(json.find("fault.bitflip.copytest"), std::string::npos);
  EXPECT_NE(json.find("fault.overflow"), std::string::npos);
}

// --- cross-thread determinism on a real kernel -------------------------------

// The executor's determinism contract extends to injected faults: a fixed
// spec + seed must be bit-reproducible at every HALFGNN_THREADS, including
// through the staged (conflict-shard) SpMM path.
std::vector<std::uint16_t> run_faulted_spmm(int threads, const char* spec) {
  Rng rng(4321);
  Coo raw = erdos_renyi(400, 6000, rng);
  plant_hubs(raw, 2, 150, rng);
  const Csr csr = coo_to_csr(raw);
  const Coo coo = csr_to_coo(csr);
  const auto g = kernels::view(csr, coo);
  const auto n = static_cast<std::size_t>(csr.num_vertices);
  const auto m = static_cast<std::size_t>(csr.num_edges());
  const int feat = 32;
  const auto f = static_cast<std::size_t>(feat);

  AlignedVec<half_t> xh(n * f);
  for (auto& v : xh) v = half_t(rng.next_float() * 2 - 1);
  AlignedVec<half_t> wh(m);
  for (auto& v : wh) v = half_t(rng.next_float() * 2 - 1);

  Device dev(a100_spec(), threads);
  dev.set_faults(FaultConfig::parse(spec));
  Stream stream(dev);
  AlignedVec<half_t> yh(n * f);
  kernels::spmm_cusparse_f16(stream, true, g, wh, xh, yh, feat,
                             kernels::Reduce::kSum);

  std::vector<std::uint16_t> bits;
  bits.reserve(yh.size());
  for (const auto v : yh) bits.push_back(v.bits());
  return bits;
}

TEST(FaultDeterminism, InjectedRunBitIdenticalAcrossThreadCounts) {
  const char* spec = "bitflip:rate=2e-4,seed=17";
  const auto base = run_faulted_spmm(1, spec);
  const auto clean = run_faulted_spmm(1, "");
  ASSERT_NE(base, clean);  // the spec actually injected something
  for (const int threads : {2, 7, 16}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(run_faulted_spmm(threads, spec), base);
  }
}

TEST(FaultDeterminism, TornCrashClauseNeverPerturbsTheDataPath) {
  // torncrash is a checkpoint-write fault: with no Store in the loop it
  // must be a no-op on kernel outputs, alone or composed with a data
  // fault, at every pool size.
  const auto clean = run_faulted_spmm(1, "");
  const char* composed = "bitflip:rate=2e-4,seed=17;torncrash:epoch=3,at=64";
  const auto flipped = run_faulted_spmm(1, "bitflip:rate=2e-4,seed=17");
  for (const int threads : {1, 2, 7, 16}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(run_faulted_spmm(threads, "torncrash:epoch=3,at=64"), clean);
    EXPECT_EQ(run_faulted_spmm(threads, composed), flipped);
  }
}

// --- launch watchdog ---------------------------------------------------------

TEST(Watchdog, ReapsStuckKernelAsTypedLaunchHang) {
  Device clean(DeviceSpec{}, 2);
  const auto base = run_copy(clean);

  Device dev(DeviceSpec{}, 2);
  dev.set_faults(FaultConfig::parse("stuck:every=2,kernel=copytest"));
  dev.set_watchdog_ms(20);
  EXPECT_EQ(run_copy(dev), base);  // launch 1 is clean
  try {
    run_copy(dev);  // launch 2 wedges; the watchdog reaps it
    FAIL() << "expected LaunchHang";
  } catch (const LaunchHang& h) {
    EXPECT_EQ(h.kernel(), "copytest");
    EXPECT_DOUBLE_EQ(h.deadline_ms(), 20.0);
    EXPECT_NE(std::string(h.what()).find("kernel 'copytest'"),
              std::string::npos)
        << h.what();
  }
  EXPECT_EQ(dev.faults().total_stucks(), 1u);
  // The device survives the reap: the next launch runs normally, and no
  // output byte of the reaped launch was written before the hang.
  EXPECT_EQ(run_copy(dev), base);
}

TEST(Watchdog, LaunchHangIsCatchableAsLaunchFault) {
  // TrainGuard's retry ladder catches simt::LaunchFault; the hang must ride
  // it with no new catch sites.
  Device dev(DeviceSpec{}, 2);
  dev.set_faults(FaultConfig::parse("stuck:every=1,kernel=copytest"));
  dev.set_watchdog_ms(10);
  EXPECT_THROW(run_copy(dev), LaunchFault);
}

TEST(Watchdog, StuckArmIsDeterministicAcrossThreadCounts) {
  // The wall-clock reap publishes nothing; the deterministic part — which
  // launch wedges, counted under the launch mutex — must not depend on the
  // worker-pool size.
  for (const int threads : {1, 2, 7}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Device clean(DeviceSpec{}, threads);
    const auto base = run_copy(clean);
    Device dev(DeviceSpec{}, threads);
    dev.set_faults(FaultConfig::parse("stuck:every=3,kernel=copytest"));
    dev.set_watchdog_ms(15);
    EXPECT_EQ(run_copy(dev), base);
    EXPECT_EQ(run_copy(dev), base);
    EXPECT_THROW(run_copy(dev), LaunchHang);
    EXPECT_EQ(run_copy(dev), base);
    EXPECT_EQ(dev.faults().total_stucks(), 1u);
  }
}

TEST(Watchdog, BudgetMustBeFiniteWithADeadlineThatFits) {
  // A non-finite or astronomically large budget would overflow the
  // steady_clock deadline and reap every launch at once, and trailing text
  // would silently disable the watchdog: both are configuration errors.
  Device dev(DeviceSpec{}, 1);
  for (const double ms : {std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN(), 1e30}) {
    EXPECT_THROW(dev.set_watchdog_ms(ms), std::invalid_argument) << ms;
  }
  dev.set_watchdog_ms(-1);  // <= 0 still disables
  EXPECT_DOUBLE_EQ(dev.watchdog_ms(), -1.0);
  dev.set_watchdog_ms(1e9);
  EXPECT_DOUBLE_EQ(dev.watchdog_ms(), 1e9);

  const char* prev = std::getenv("HALFGNN_WATCHDOG_MS");
  const std::string saved = prev != nullptr ? prev : "";
  for (const char* bad : {"inf", "nan", "1e30", "abc", "25ms", "25 "}) {
    SCOPED_TRACE(bad);
    ::setenv("HALFGNN_WATCHDOG_MS", bad, 1);
    try {
      Device d(DeviceSpec{}, 1);
      ADD_FAILURE() << "accepted HALFGNN_WATCHDOG_MS=" << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("HALFGNN_WATCHDOG_MS"),
                std::string::npos)
          << e.what();
    }
  }
  for (const auto& [spec, ms] :
       {std::pair<const char*, double>{"25", 25.0}, {"0", 0.0}, {"", 0.0}}) {
    ::setenv("HALFGNN_WATCHDOG_MS", spec, 1);
    EXPECT_DOUBLE_EQ(Device(DeviceSpec{}, 1).watchdog_ms(), ms) << spec;
  }
  if (prev != nullptr) {
    ::setenv("HALFGNN_WATCHDOG_MS", saved.c_str(), 1);
  } else {
    ::unsetenv("HALFGNN_WATCHDOG_MS");
  }
}

TEST(Watchdog, CleanLaunchesPayNoDeadline) {
  // An armed watchdog must not reap launches that finish in time.
  Device dev(DeviceSpec{}, 2);
  dev.set_watchdog_ms(10000.0);
  Device clean(DeviceSpec{}, 2);
  const auto base = run_copy(clean);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(run_copy(dev), base);
}

}  // namespace
}  // namespace hg::simt
