#include "simt/fault.hpp"

#include <cstdlib>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hg::simt {

namespace {

std::invalid_argument bad(std::string_view clause, const std::string& why) {
  return std::invalid_argument("HALFGNN_FAULTS: bad clause '" +
                               std::string(clause) + "': " + why);
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

double parse_num(std::string_view clause, std::string_view v) {
  char* end = nullptr;
  const std::string tmp(v);
  const double d = std::strtod(tmp.c_str(), &end);
  if (end == tmp.c_str() || *end != '\0') {
    throw bad(clause, "expected a number, got '" + tmp + "'");
  }
  return d;
}

// Splits "k1=v1,k2=v2" and dispatches each pair to `take(key, value)`;
// `take` returns false for unknown keys.
template <class Take>
void parse_pairs(std::string_view clause, std::string_view body, Take&& take) {
  while (!body.empty()) {
    const auto comma = body.find(',');
    std::string_view pair = trim(body.substr(0, comma));
    body = comma == std::string_view::npos ? std::string_view{}
                                           : body.substr(comma + 1);
    if (pair.empty()) continue;
    const auto eq = pair.find('=');
    if (eq == std::string_view::npos) {
      throw bad(clause, "expected key=value, got '" + std::string(pair) + "'");
    }
    const std::string_view key = trim(pair.substr(0, eq));
    const std::string_view val = trim(pair.substr(eq + 1));
    if (val.empty()) throw bad(clause, "empty value for '" + std::string(key) + "'");
    if (!take(key, val)) {
      throw bad(clause, "unknown key '" + std::string(key) + "'");
    }
  }
}

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

FaultConfig FaultConfig::parse(std::string_view spec) {
  FaultConfig cfg;
  std::string_view rest = spec;
  while (!rest.empty()) {
    const auto semi = rest.find(';');
    const std::string_view clause = trim(rest.substr(0, semi));
    rest = semi == std::string_view::npos ? std::string_view{}
                                          : rest.substr(semi + 1);
    if (clause.empty()) continue;
    const auto colon = clause.find(':');
    const std::string_view kind = trim(clause.substr(0, colon));
    const std::string_view body =
        colon == std::string_view::npos ? std::string_view{}
                                        : clause.substr(colon + 1);
    if (kind == "bitflip") {
      BitflipFault f;
      bool have_rate = false;
      parse_pairs(clause, body, [&](std::string_view k, std::string_view v) {
        if (k == "rate") {
          f.rate = parse_num(clause, v);
          have_rate = true;
        } else if (k == "seed") {
          f.seed = static_cast<std::uint64_t>(parse_num(clause, v));
        } else if (k == "kernel") {
          f.kernel = std::string(v);
        } else {
          return false;
        }
        return true;
      });
      if (!have_rate) throw bad(clause, "bitflip requires rate=");
      if (f.rate < 0.0 || !std::isfinite(f.rate)) {
        throw bad(clause, "rate must be a finite value >= 0");
      }
      f.threshold = rate_threshold(f.rate);
      cfg.bitflips.push_back(std::move(f));
    } else if (kind == "launchfail") {
      LaunchfailFault f;
      parse_pairs(clause, body, [&](std::string_view k, std::string_view v) {
        if (k == "every") {
          const double e = parse_num(clause, v);
          if (e < 1.0) throw bad(clause, "every must be >= 1");
          f.every = static_cast<std::uint64_t>(e);
        } else if (k == "kernel") {
          f.kernel = std::string(v);
        } else {
          return false;
        }
        return true;
      });
      if (f.every == 0) throw bad(clause, "launchfail requires every=");
      cfg.launchfails.push_back(std::move(f));
    } else if (kind == "overflow") {
      OverflowFault f;
      parse_pairs(clause, body, [&](std::string_view k, std::string_view v) {
        if (k == "kernel") {
          f.kernel = std::string(v);
        } else if (k == "cta") {
          f.cta = static_cast<int>(parse_num(clause, v));
        } else {
          return false;
        }
        return true;
      });
      cfg.overflows.push_back(std::move(f));
    } else if (kind == "stuck") {
      StuckFault f;
      parse_pairs(clause, body, [&](std::string_view k, std::string_view v) {
        if (k == "every") {
          const double e = parse_num(clause, v);
          if (e < 1.0) throw bad(clause, "every must be >= 1");
          f.every = static_cast<std::uint64_t>(e);
        } else if (k == "kernel") {
          f.kernel = std::string(v);
        } else {
          return false;
        }
        return true;
      });
      cfg.stucks.push_back(std::move(f));
    } else if (kind == "torncrash") {
      TornCrashFault f;
      bool have_epoch = false;
      parse_pairs(clause, body, [&](std::string_view k, std::string_view v) {
        if (k == "epoch") {
          const double e = parse_num(clause, v);
          if (e < 0.0) throw bad(clause, "epoch must be >= 0");
          f.epoch = static_cast<int>(e);
          have_epoch = true;
        } else if (k == "at") {
          const double a = parse_num(clause, v);
          if (a < 0.0) throw bad(clause, "at must be >= 0");
          f.at = static_cast<std::uint64_t>(a);
        } else {
          return false;
        }
        return true;
      });
      if (!have_epoch) throw bad(clause, "torncrash requires epoch=");
      cfg.torncrashes.push_back(f);
    } else {
      throw bad(clause, "unknown fault kind '" + std::string(kind) +
                            "' (expected "
                            "bitflip|launchfail|overflow|stuck|torncrash)");
    }
  }
  return cfg;
}

std::string FaultConfig::grammar_help() {
  return
      "HALFGNN_FAULTS grammar: ';'-separated clauses, each kind:key=val,...\n"
      "  bitflip:rate=1e-6,seed=7[,kernel=<substr>]\n"
      "      flip one random bit of each loaded/stored half/float element\n"
      "      with probability rate (indices are never corrupted)\n"
      "  launchfail:every=500[,kernel=<substr>]\n"
      "      every N-th matching launch throws a retryable LaunchFault\n"
      "      before any output byte is written\n"
      "  overflow:kernel=spmm[,cta=12]\n"
      "      matching kernel's CTA (omitted = all) saturates every store\n"
      "      to +INF\n"
      "  stuck:every=3[,kernel=<substr>]\n"
      "      every N-th matching launch never completes; reaped as a\n"
      "      LaunchHang when HALFGNN_WATCHDOG_MS is set\n"
      "  torncrash:epoch=4[,at=128]\n"
      "      simulated process death during the checkpoint write at that\n"
      "      epoch, persisting only `at` bytes (omitted = full write,\n"
      "      then death)\n";
}

FaultConfig FaultConfig::from_env() {
  if (const char* e = std::getenv("HALFGNN_FAULTS")) {
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
