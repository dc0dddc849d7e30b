#include "simt/fault.hpp"

#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <type_traits>
#include <variant>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/parse.hpp"

namespace hg::simt {

namespace {

// Maps a probability onto the u64 hash range: an element faults when
// mix(...) < threshold. rate >= 1 saturates (every element).
std::uint64_t rate_threshold(double rate) {
  if (rate >= 1.0) return std::numeric_limits<std::uint64_t>::max();
  return static_cast<std::uint64_t>(
      rate * static_cast<double>(std::numeric_limits<std::uint64_t>::max()));
}

}  // namespace

LaunchFault::LaunchFault(std::string kernel, std::uint64_t ordinal)
    : std::runtime_error("injected launch failure: kernel '" + kernel +
                         "' (launch ordinal " + std::to_string(ordinal) + ")"),
      kernel_(std::move(kernel)),
      ordinal_(ordinal) {}

LaunchFault::LaunchFault(std::string message, const std::string& kernel,
                         std::uint64_t ordinal)
    : std::runtime_error(std::move(message)),
      kernel_(kernel),
      ordinal_(ordinal) {}

LaunchHang::LaunchHang(const std::string& kernel, std::uint64_t ordinal,
                       double deadline_ms)
    : LaunchFault("launch hang: kernel '" + kernel + "' (launch ordinal " +
                      std::to_string(ordinal) + ") exceeded watchdog deadline " +
                      obs::Json::number_to_string(deadline_ms) + " ms",
                  kernel, ordinal),
      deadline_ms_(deadline_ms) {}

namespace detail {

// One clause of a spec: the error prefix naming it, and its key=value body.
struct FaultClause {
  // A key a clause kind takes: the field its value is read into, as that
  // field's type, and the least value it accepts.
  struct Key {
    std::string_view token;
    std::variant<double*, std::uint64_t*, int*, std::string*> out;
    int lo = 0;
  };

  std::string where;  // "HALFGNN_FAULTS: bad clause '<clause>': "
  std::string_view body;

  std::invalid_argument bad(const std::string& why) const {
    return std::invalid_argument(where + why);
  }

  // Reads every pair of the body into its key's field; returns whether the
  // body named `required`.
  bool read(std::initializer_list<Key> keys,
            std::string_view required = {}) const {
    bool seen = false;
    util::for_each_pair(body, where, [&](std::string_view k,
                                         std::string_view v) {
      const Key* key = util::find(keys, k);
      if (key == nullptr) return false;
      seen = seen || k == required;
      std::visit(
          [&](auto* out) {
            using T = std::remove_pointer_t<decltype(out)>;
            if constexpr (std::is_same_v<T, std::string>) {
              *out = v;
            } else {
              *out = util::require<T>(v, where + std::string(k) + ": ",
                                      static_cast<T>(key->lo));
            }
          },
          key->out);
      return true;
    });
    return seen;
  }
};

}  // namespace detail

namespace {

using detail::FaultClause;

// One row per clause kind, with the body that parses it.
constexpr FaultKind kKinds[] = {
    {"bitflip", "rate=1e-6,seed=7", "[,kernel=<substr>]",
     "flip one random bit of each loaded/stored half/float element\n"
     "with probability rate (indices are never corrupted)",
     [](const FaultClause& c, FaultConfig& cfg) {
       BitflipFault f;
       if (!c.read(
               {{"rate", &f.rate}, {"seed", &f.seed}, {"kernel", &f.kernel}},
               "rate")) {
         throw c.bad("bitflip requires rate=");
       }
       f.threshold = rate_threshold(f.rate);
       cfg.bitflips.push_back(std::move(f));
     }},
    {"launchfail", "every=500", "[,kernel=<substr>]",
     "every N-th matching launch throws a retryable LaunchFault\n"
     "before any output byte is written",
     [](const FaultClause& c, FaultConfig& cfg) {
       LaunchfailFault f;
       if (!c.read({{"every", &f.every, 1}, {"kernel", &f.kernel}}, "every")) {
         throw c.bad("launchfail requires every=");
       }
       cfg.launchfails.push_back(std::move(f));
     }},
    {"overflow", "kernel=spmm", "[,cta=12]",
     "matching kernel's CTA (omitted = all) saturates every store\n"
     "to +INF",
     [](const FaultClause& c, FaultConfig& cfg) {
       OverflowFault f;
       c.read({{"kernel", &f.kernel}, {"cta", &f.cta, -1}});
       cfg.overflows.push_back(std::move(f));
     }},
    {"stuck", "every=3", "[,kernel=<substr>]",
     "every N-th matching launch never completes; reaped as a\n"
     "LaunchHang when HALFGNN_WATCHDOG_MS is set",
     [](const FaultClause& c, FaultConfig& cfg) {
       StuckFault f;
       c.read({{"every", &f.every, 1}, {"kernel", &f.kernel}});
       cfg.stucks.push_back(std::move(f));
     }},
    {"torncrash", "epoch=4", "[,at=128]",
     "simulated process death during the checkpoint write at that\n"
     "epoch, persisting only `at` bytes (omitted = full write,\n"
     "then death)",
     [](const FaultClause& c, FaultConfig& cfg) {
       TornCrashFault f;
       if (!c.read({{"epoch", &f.epoch}, {"at", &f.at}}, "epoch")) {
         throw c.bad("torncrash requires epoch=");
       }
       cfg.torncrashes.push_back(f);
     }},
};

}  // namespace

FaultConfig FaultConfig::parse(std::string_view spec) {
  FaultConfig cfg;
  util::for_each_item(spec, ';', [&](std::string_view clause) {
    const auto colon = clause.find(':');
    const std::string_view kind = util::trim(clause.substr(0, colon));
    const FaultClause c{
        std::string(kEnv) + ": bad clause '" + std::string(clause) + "': ",
        colon == std::string_view::npos ? std::string_view{}
                                        : clause.substr(colon + 1)};
    const FaultKind* k = util::find(kKinds, kind);
    if (k == nullptr) {
      throw c.bad("unknown fault kind '" + std::string(kind) + "' (expected " +
                  util::alternatives(kKinds) + ")");
    }
    k->parse(c, cfg);
  });
  return cfg;
}

std::string FaultConfig::grammar_help() {
  std::string out = std::string(kEnv) +
                    " grammar: ';'-separated clauses, each kind:key=val,...\n";
  for (const FaultKind& k : kKinds) {
    out += "  " + std::string(k.token) + ":" + std::string(k.sample) +
           std::string(k.optional) + "\n";
    util::for_each_item(k.help, '\n', [&](std::string_view line) {
      out += "      " + std::string(line) + "\n";
    });
  }
  return out;
}

std::span<const FaultKind> FaultConfig::kinds() { return kKinds; }

FaultConfig FaultConfig::from_env() {
  if (const char* e = std::getenv(kEnv)) {
    return parse(e);
  }
  return FaultConfig{};
}

FaultInjector::FaultInjector(FaultConfig cfg) : cfg_(std::move(cfg)) {}

namespace {

bool kernel_matches(const std::string& filter, const std::string& kernel) {
  return filter.empty() || kernel.find(filter) != std::string::npos;
}

}  // namespace

void FaultInjector::arm(const std::string& kernel,
                        detail::LaunchFaultState& st) {
  const std::uint64_t ord = ordinal_++;
  st.flip_threshold = 0;
  st.flip_seed = 0;
  st.overflow = false;
  st.overflow_cta = -1;
  st.stuck = false;
  st.flips.store(0, std::memory_order_relaxed);
  st.overflows.store(0, std::memory_order_relaxed);

  for (auto& f : cfg_.stucks) {
    if (!kernel_matches(f.kernel, kernel)) continue;
    if (++f.matched % f.every == 0) {
      // Published at arm time (deterministic: ordinal under the launch
      // mutex); the reap itself is wall-clock work and publishes nothing.
      ++stucks_;
      st.stuck = true;
      if (obs::registry().enabled()) {
        obs::registry().add_counter("fault.stuck");
        obs::registry().add_counter("fault.stuck." + kernel);
      }
      if (obs::tracer().enabled()) {
        obs::tracer().instant("fault:stuck", "fault",
                              {{"kernel", kernel},
                               {"ordinal", static_cast<std::int64_t>(ord)}});
      }
      break;
    }
  }
  for (auto& f : cfg_.launchfails) {
    if (!kernel_matches(f.kernel, kernel)) continue;
    if (++f.matched % f.every == 0) {
      ++launchfails_;
      if (obs::registry().enabled()) {
        obs::registry().add_counter("fault.launchfail");
        obs::registry().add_counter("fault.launchfail." + kernel);
      }
      if (obs::tracer().enabled()) {
        obs::tracer().instant("fault:launchfail", "fault",
                              {{"kernel", kernel},
                               {"ordinal", static_cast<std::int64_t>(ord)}});
      }
      throw LaunchFault(kernel, ord);
    }
  }
  for (const auto& f : cfg_.bitflips) {
    if (f.threshold == 0 || !kernel_matches(f.kernel, kernel)) continue;
    st.flip_threshold = f.threshold;
    st.flip_seed = detail::fault_mix(f.seed ^ (ord * 0x9E3779B97F4A7C15ull));
    break;  // first matching clause arms the launch
  }
  for (const auto& f : cfg_.overflows) {
    if (!kernel_matches(f.kernel, kernel)) continue;
    st.overflow = true;
    st.overflow_cta = f.cta;
    break;
  }
}

void FaultInjector::publish(const std::string& kernel,
                            const detail::LaunchFaultState& st) {
  const std::uint64_t flips = st.flips.load(std::memory_order_relaxed);
  const std::uint64_t ovfs = st.overflows.load(std::memory_order_relaxed);
  bitflips_ += flips;
  overflows_ += ovfs;
  if (flips == 0 && ovfs == 0) return;
  if (obs::registry().enabled()) {
    auto& reg = obs::registry();
    if (flips > 0) {
      reg.add_counter("fault.bitflip", static_cast<double>(flips));
      reg.add_counter("fault.bitflip." + kernel, static_cast<double>(flips));
    }
    if (ovfs > 0) {
      reg.add_counter("fault.overflow", static_cast<double>(ovfs));
      reg.add_counter("fault.overflow." + kernel, static_cast<double>(ovfs));
    }
  }
  if (obs::tracer().enabled()) {
    obs::tracer().instant("fault:injected", "fault",
                          {{"kernel", kernel},
                           {"bitflips", static_cast<std::int64_t>(flips)},
                           {"overflows", static_cast<std::int64_t>(ovfs)}});
  }
}

}  // namespace hg::simt
