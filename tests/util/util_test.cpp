// Tests for the shared utilities (RNG, aligned buffers, table rendering,
// strict parsing) and a mutation sweep over every parser of outside text.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "half/half.hpp"
#include "obs/prof/prof.hpp"
#include "simt/executor.hpp"
#include "simt/fault.hpp"
#include "simt/sanitizer.hpp"
#include "util/aligned.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace hg {
namespace {

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    (void)c.next_u64();
  }
  Rng a2(42), c2(43);
  EXPECT_NE(a2.next_u64(), c2.next_u64());
}

TEST(Rng, UniformRangesAreRespected) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    const auto k = rng.next_below(17);
    ASSERT_LT(k, 17u);
  }
}

TEST(Rng, NextBelowCoversTheRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NormalHasRoughlyUnitMoments) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.next_normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Aligned, VectorsAre64ByteAligned) {
  for (std::size_t n : {1u, 7u, 100u, 4097u}) {
    AlignedVec<float> v(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u) << n;
  }
  AlignedVec<half_t> h(33);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(h.data()) % 64, 0u);
}

TEST(Table, RendersAlignedGrid) {
  Table t({"name", "value"});
  t.row({"alpha", "1"});
  t.row({"bb", "22.5"});
  std::ostringstream ss;
  t.print(ss);
  const std::string out = ss.str();
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos) << out;
  EXPECT_NE(out.find("| bb    | 22.5  |"), std::string::npos) << out;
}

TEST(TableHelpers, Formatting) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_times(2.5), "2.50x");
  EXPECT_EQ(fmt_pct(0.805), "80.5%");
  EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-9);
  EXPECT_NEAR(mean({1.0, 3.0}), 2.0, 1e-9);
}

TEST(StrictParse, IntegersAreWholeAndCanonical) {
  EXPECT_EQ(util::to_int<int>("0"), 0);
  EXPECT_EQ(util::to_int<int>("-17"), -17);
  EXPECT_EQ(util::to_int<int>("2147483647"), 2147483647);
  EXPECT_EQ(util::to_int<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  for (const std::string_view bad :
       {"", "-", "-0", "007", "+3", " 3", "3 ", "3x", "2.5", "1e3", "0x10",
        "2147483648", "nan"}) {
    EXPECT_FALSE(util::to_int<int>(bad).has_value()) << bad;
  }
  EXPECT_FALSE(util::to_int<std::uint64_t>("-1").has_value());
  EXPECT_FALSE(util::to_int<int>("9", 0, 8).has_value());
  EXPECT_EQ(util::to_int<int>("-1", -1, 8), -1);
}

TEST(StrictParse, RealsReadWhatStrtodReads) {
  for (const char* text : {"1e-6", "0.25", "0.000001", "2.5e-3", "1e30",
                           "1e400", "-1e400", "1e-320", "1e-400", "5.",
                           ".5"}) {
    const std::optional<double> v = util::to_real(text);
    ASSERT_TRUE(v.has_value()) << text;
    const double ref = std::strtod(text, nullptr);
    EXPECT_EQ(std::memcmp(&*v, &ref, sizeof ref), 0) << text;
  }
  EXPECT_TRUE(std::isnan(*util::to_real("nan")));
  EXPECT_TRUE(std::isinf(*util::to_real("inf")));
  for (const char* bad : {"", "+1", " 1", "1 ", "0x1p3", "1e", "abc", "25ms"}) {
    EXPECT_FALSE(util::to_real(bad).has_value()) << bad;
  }
  EXPECT_FALSE(util::to_finite("inf", 0, 1e300).has_value());
  EXPECT_FALSE(util::to_finite("-1", 0, 1).has_value());
  EXPECT_EQ(util::to_finite("1", 0, 1), 1.0);
}

TEST(StrictParse, TablesRenderTheirOwnAlternatives) {
  constexpr util::Token<unsigned> kTable[] = {{"a", 1u}, {"bb", 2u}};
  EXPECT_EQ(util::alternatives(kTable), "a|bb");
  EXPECT_EQ(util::find(kTable, "bb"), &kTable[1]);
  EXPECT_EQ(util::find(kTable, "b"), nullptr);
  EXPECT_EQ(util::parse_flags(" bb , a ,", kTable, "ENV", "word"), 3u);
  try {
    (void)util::parse_flags("a,c", kTable, "ENV", "word");
    ADD_FAILURE() << "accepted c";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "ENV: unknown word 'c' (expected a|bb)");
  }
}

// --- mutation sweep ---------------------------------------------------------

// Every spec and numeric value the repo's tests, CI, docs and benches hand
// to a parser of outside text: the sweep's seeds.
constexpr std::string_view kFaultSeeds[] = {
    "bitflip:rate=1e-6,seed=7,kernel=spmm;launchfail:every=500,kernel=spmm;"
    "overflow:kernel=spmm,cta=12;stuck:every=3,kernel=sddmm;"
    "torncrash:epoch=4,at=128",
    "bitflip:rate=1e-6,seed=7;launchfail:every=500",
    "overflow:kernel=spmm;stuck:every=3,kernel=spmm;torncrash:epoch=4,at=128",
    "bitflip:rate=1e-3,seed=7",
    "bitflip:rate=1e-4,seed=7",
    "bitflip:rate=0.25,seed=9",
    "bitflip:rate=0.000001,seed=7",
    "bitflip:rate=2e-4,seed=17;torncrash:epoch=3,at=64",
    "bitflip:rate=0.05,seed=11;overflow:kernel=copytest,cta=0",
    "bitflip:rate=1,seed=3",
    "bitflip:rate=1,kernel=spmm",
    "bitflip:rate=0,seed=5",
    "overflow:kernel=spmm",
    "overflow:kernel=copytest,cta=2",
    "stuck:every=15,kernel=spmm",
    "stuck:every=1",
    "launchfail:every=5",
    "launchfail:every=3,kernel=copytest",
    "torncrash:epoch=3",
    "torncrash:epoch=4,at=96",
    " ; ; ",
};
constexpr std::string_view kSanSeeds[] = {"race", "race,mem", " init , sync ",
                                          "all", "race,mem,init,sync"};
constexpr std::string_view kProfSeeds[] = {
    "roofline", "numerics", " roofline , numerics ", "all",
    "roofline,numerics"};
constexpr std::string_view kThreadSeeds[] = {"1", "2", "4", "7", "16", "0"};
constexpr std::string_view kWatchdogSeeds[] = {"25", "0", "10000", "inf"};
// --dataset/--epochs/--hidden/--seed/--guard-*/--ckpt-every values, and
// the values ci/hgcheck_bad_flags.sh and the CI UX step reject.
constexpr std::string_view kIntFlagSeeds[] = {
    "1", "2", "3", "4", "6", "8", "12", "15", "17", "20", "42", "60",
    "63", "64", "0", "-3", "-8", "abc", "3x"};
constexpr std::string_view kLrSeeds[] = {"0.01", "0.005", "1e-3", "nan",
                                         "-1", "0"};

// What gets substituted for each value: the forms that used to reach UB,
// wrap or silently change.
constexpr std::string_view kSubstitutes[] = {
    "nan", "inf", "1e30", "-1", "2.5", "18446744073709551616",
    "9007199254740993"};

// Byte flips, truncations and value substitutions of `seed`, in a fixed
// order from a fixed RNG seed.
std::vector<std::string> mutations(std::string_view seed, Rng& rng) {
  std::vector<std::string> out{std::string(seed)};
  for (std::size_t n = 0; n < seed.size(); ++n) {
    out.emplace_back(seed.substr(0, n));
  }
  for (int i = 0; i < 16 && !seed.empty(); ++i) {
    std::string s(seed);
    s[rng.next_below(s.size())] ^=
        static_cast<char>(1u << rng.next_below(8));
    out.push_back(std::move(s));
  }
  // A value runs from just after '=' (or from the start of a bare number)
  // to the next ',' or ';'.
  std::vector<std::size_t> starts;
  if (seed.find('=') == std::string_view::npos) starts.push_back(0);
  for (std::size_t at = seed.find('='); at != std::string_view::npos;
       at = seed.find('=', at + 1)) {
    starts.push_back(at + 1);
  }
  for (const std::size_t b : starts) {
    const std::size_t e = std::min(seed.find_first_of(",;", b), seed.size());
    for (const std::string_view sub : kSubstitutes) {
      out.push_back(std::string(seed.substr(0, b)) + std::string(sub) +
                    std::string(seed.substr(e)));
    }
  }
  return out;
}

// The integer a fault clause stored for `key`, printed; "" for a key that
// is not an integer.
std::string printed(const simt::FaultConfig& c, std::string_view kind,
                    std::string_view key, std::size_t i) {
  if (kind == "bitflip" && key == "seed") {
    return std::to_string(c.bitflips.at(i).seed);
  }
  if (kind == "launchfail" && key == "every") {
    return std::to_string(c.launchfails.at(i).every);
  }
  if (kind == "overflow" && key == "cta") {
    return std::to_string(c.overflows.at(i).cta);
  }
  if (kind == "stuck" && key == "every") {
    return std::to_string(c.stucks.at(i).every);
  }
  if (kind == "torncrash" && key == "epoch") {
    return std::to_string(c.torncrashes.at(i).epoch);
  }
  if (kind == "torncrash" && key == "at") {
    return std::to_string(c.torncrashes.at(i).at);
  }
  return "";
}

// Every integer key of an accepted spec prints back as its own text (the
// last occurrence of a key in a clause is the one that counts).
void expect_integers_print_back(std::string_view spec,
                                const simt::FaultConfig& cfg) {
  std::map<std::string, std::size_t> clauses;
  util::for_each_item(spec, ';', [&](std::string_view clause) {
    const auto colon = clause.find(':');
    const std::string kind(util::trim(clause.substr(0, colon)));
    const std::size_t i = clauses[kind]++;
    if (colon == std::string_view::npos) return;
    std::map<std::string, std::string> last;
    util::for_each_item(clause.substr(colon + 1), ',', [&](auto pair) {
      const auto eq = pair.find('=');
      last[std::string(util::trim(pair.substr(0, eq)))] =
          std::string(util::trim(pair.substr(eq + 1)));
    });
    for (const auto& [key, text] : last) {
      const std::string back = printed(cfg, kind, key, i);
      if (!back.empty()) {
        EXPECT_EQ(back, text) << key << " in " << spec;
      }
    }
  });
}

// Sets (or with nullptr unsets) an env variable for one scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* prev = std::getenv(name);
    if (prev != nullptr) prev_ = prev;
    set(value);
  }
  ~ScopedEnv() { set(prev_ ? prev_->c_str() : nullptr); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

  void set(const char* value) const {
    if (value != nullptr) {
      ::setenv(name_, value, 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> prev_;
};

TEST(StrictParse, MutationSweepParsesOrThrowsInvalidArgument) {
  Rng rng(0x5eed);
  int cases = 0;
  int accepted = 0;
  // Runs one input: parse or std::invalid_argument, nothing else.
  const auto run = [&](auto&& parse) {
    ++cases;
    try {
      parse();
      ++accepted;
    } catch (const std::invalid_argument&) {
    }
  };

  for (const std::string_view seed : kFaultSeeds) {
    for (const std::string& in : mutations(seed, rng)) {
      run([&] {
        const simt::FaultConfig cfg = simt::FaultConfig::parse(in);
        expect_integers_print_back(in, cfg);
      });
    }
  }
  for (const std::string_view seed : kSanSeeds) {
    for (const std::string& in : mutations(seed, rng)) {
      run([&] { (void)simt::SanitizerConfig::parse(in); });
    }
  }
  for (const std::string_view seed : kProfSeeds) {
    for (const std::string& in : mutations(seed, rng)) {
      run([&] { (void)obs::prof::ProfConfig::parse(in); });
    }
  }

  // The env parsers read the variable itself; the others stay unset so
  // each input is judged alone.
  const ScopedEnv faults("HALFGNN_FAULTS", nullptr);
  const ScopedEnv sanitize("HALFGNN_SANITIZE", nullptr);
  const ScopedEnv prof("HALFGNN_PROF", nullptr);
  const ScopedEnv watchdog("HALFGNN_WATCHDOG_MS", nullptr);
  const ScopedEnv threads("HALFGNN_THREADS", nullptr);
  for (const std::string_view seed : kThreadSeeds) {
    for (const std::string& in : mutations(seed, rng)) {
      threads.set(in.c_str());
      run([&] {
        const int n = simt::detail::env_threads();
        const std::string text = std::getenv("HALFGNN_THREADS");
        if (!text.empty() && text != "0") {
          EXPECT_EQ(std::to_string(n), text);
        }
      });
    }
  }
  threads.set(nullptr);
  for (const std::string_view seed : kWatchdogSeeds) {
    for (const std::string& in : mutations(seed, rng)) {
      watchdog.set(in.c_str());
      run([&] { simt::Device::check_env(); });
    }
  }
  watchdog.set(nullptr);

  for (const std::string_view seed : kIntFlagSeeds) {
    for (const std::string& in : mutations(seed, rng)) {
      run([&] {
        if (const auto v = util::flag_value<int>(in)) {
          EXPECT_EQ(std::to_string(*v), in);
        }
        if (const auto v = util::flag_value<std::uint64_t>(in)) {
          EXPECT_EQ(std::to_string(*v), in);
        }
      });
    }
  }
  for (const std::string_view seed : kLrSeeds) {
    for (const std::string& in : mutations(seed, rng)) {
      run([&] {
        if (const auto v = util::flag_value<float>(in)) {
          EXPECT_TRUE(std::isfinite(*v) && *v > 0) << in;
        }
      });
    }
  }
  // The sweep must exercise both outcomes.
  EXPECT_GT(cases, 2000);
  EXPECT_GT(accepted, 200);
  EXPECT_GT(cases - accepted, 200);
}

}  // namespace
}  // namespace hg
