// Deterministic fault injection for the SIMT substrate.
//
// HALFGNN_FAULTS grammar — ';'-separated clauses, each `kind:key=val,...`.
// `rate` is a finite real >= 0; `every` (>= 1), `at` and `seed` are whole
// u64 numbers, `epoch` an int >= 0 and `cta` an int >= -1 (util/parse.hpp):
//
//   bitflip:rate=1e-6,seed=7[,kernel=<substr>]
//       Flip one uniformly-chosen bit of each loaded/stored half/float
//       element with probability `rate` (the soft-error model; indices and
//       other integer traffic are never corrupted).
//   launchfail:every=500[,kernel=<substr>]
//       Every `every`-th launch whose name contains `kernel` throws a typed
//       LaunchFault before any CTA runs or any output byte is written (the
//       driver/launch-failure model; the launch is retryable).
//   overflow:kernel=spmm[,cta=12]
//       Every element the matching kernel's CTA `cta` (-1 / omitted = all
//       CTAs) stores or accumulates saturates to +INF — the paper's Fig. 1
//       reduction-overflow hazard, on demand.
//   stuck:every=3[,kernel=<substr>]
//       Every `every`-th matching launch never completes (the kernel-hang
//       model). With a watchdog armed (HALFGNN_WATCHDOG_MS) the launch is
//       reaped at the deadline as a typed LaunchHang, which rides the same
//       TrainGuard retry/fallback ladder as LaunchFault; without one it
//       hangs for real, exactly like hardware.
//   torncrash:epoch=4[,at=128]
//       Simulated process death during the checkpoint write at epoch
//       `epoch`: the data file stops after `at` bytes (omitted / past the
//       end = full write, then death) and ckpt::SimulatedCrash is thrown.
//       Consumed by the ckpt::Store, not the launch path.
//
// Determinism contract (same as the executor's): a faulted run is
// bit-reproducible at every HALFGNN_THREADS. Bit-flip decisions are a
// stateless hash of (seed, launch ordinal, cta, warp, per-warp access
// ordinal, lane); launch ordinals advance under the device launch mutex;
// per-launch fault counts are sums of those per-element decisions and the
// registry/tracer publish happens once per launch from the calling thread.
// With no spec configured the Warp-level hook is a single pointer
// null-check and every output/metrics/trace byte is identical to a build
// without the subsystem.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "half/bf16.hpp"
#include "half/half.hpp"
#include "half/vec.hpp"

namespace hg::simt {

// Typed, retryable launch failure: the injector's ordinal keeps advancing,
// so re-issuing the same launch normally succeeds (unless `every=1`).
class LaunchFault : public std::runtime_error {
 public:
  LaunchFault(std::string kernel, std::uint64_t ordinal);
  const std::string& kernel() const noexcept { return kernel_; }
  std::uint64_t ordinal() const noexcept { return ordinal_; }

 protected:
  // Subclass hook (LaunchHang): same fields, custom message. `kernel` is
  // copied, so a subclass can build `message` from the same string in the
  // same call without an argument-order dependency.
  LaunchFault(std::string message, const std::string& kernel,
              std::uint64_t ordinal);

 private:
  std::string kernel_;
  std::uint64_t ordinal_;
};

// A launch that exceeded the watchdog deadline (a `stuck` fault reaped by
// HALFGNN_WATCHDOG_MS). Derives from LaunchFault so every existing
// `catch (const LaunchFault&)` retry site handles hangs with no new code.
class LaunchHang : public LaunchFault {
 public:
  LaunchHang(const std::string& kernel, std::uint64_t ordinal,
             double deadline_ms);
  double deadline_ms() const noexcept { return deadline_ms_; }

 private:
  double deadline_ms_;
};

struct BitflipFault {
  double rate = 0.0;
  std::uint64_t seed = 0;
  std::string kernel;           // substring filter; empty = every kernel
  std::uint64_t threshold = 0;  // rate mapped onto the u64 hash range
};

struct LaunchfailFault {
  std::uint64_t every = 0;
  std::string kernel;
  std::uint64_t matched = 0;  // arm-time count (guarded by the launch mutex)
};

struct OverflowFault {
  std::string kernel;
  int cta = -1;  // -1: every CTA
};

struct StuckFault {
  std::uint64_t every = 1;
  std::string kernel;
  std::uint64_t matched = 0;  // arm-time count (guarded by the launch mutex)
};

// Checkpoint-write crash plan; consumed by ckpt::Store, not the launch path.
struct TornCrashFault {
  int epoch = 0;
  std::uint64_t at = ~std::uint64_t{0};  // bytes persisted; default = all
};

struct FaultConfig;

namespace detail {
struct FaultClause;  // fault.cpp: one clause being parsed
}  // namespace detail

// One clause kind of the grammar: the row grammar_help(), the "expected
// ..." text, the parser and hgcheck's doc lint all read.
struct FaultKind {
  std::string_view token;     // the kind, before the ':'
  std::string_view sample;    // required keys with example values
  std::string_view optional;  // optional keys, as grammar_help() shows them
  std::string_view help;      // '\n'-separated description lines
  void (*parse)(const detail::FaultClause&, FaultConfig&);
};

struct FaultConfig {
  static constexpr char kEnv[] = "HALFGNN_FAULTS";

  std::vector<BitflipFault> bitflips;
  std::vector<LaunchfailFault> launchfails;
  std::vector<OverflowFault> overflows;
  std::vector<StuckFault> stucks;
  std::vector<TornCrashFault> torncrashes;

  // Launch-path activity only: torncrash clauses never touch the launch
  // path, so a config carrying just those arms no fault state.
  bool active() const noexcept {
    return !bitflips.empty() || !launchfails.empty() || !overflows.empty() ||
           !stucks.empty();
  }

  // Parses the grammar above; throws std::invalid_argument naming the
  // offending clause on malformed input. Empty spec = inactive config.
  static FaultConfig parse(std::string_view spec);
  // HALFGNN_FAULTS, read once per call; unset/empty = inactive config.
  static FaultConfig from_env();
  // The full supported grammar, for CLI error messages.
  static std::string grammar_help();
  // The clause kinds, in grammar order.
  static std::span<const FaultKind> kinds();
};

namespace detail {

// splitmix64 finalizer: the stateless mixer behind every fault decision.
constexpr std::uint64_t fault_mix(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Only floating-point payload types are corruptible; index/integer traffic
// through the same Warp entry points is left alone.
template <class T>
inline constexpr bool fault_flippable_v =
    std::is_same_v<T, half_t> || std::is_same_v<T, half2> ||
    std::is_same_v<T, float> || std::is_same_v<T, bf16_t>;

template <class T>
inline void fault_flip(T& v, std::uint64_t h) noexcept {
  if constexpr (std::is_same_v<T, half_t>) {
    v = half_t::from_bits(
        static_cast<std::uint16_t>(v.bits() ^ (1u << (h % 16))));
  } else if constexpr (std::is_same_v<T, bf16_t>) {
    v = bf16_t::from_bits(
        static_cast<std::uint16_t>(v.bits() ^ (1u << (h % 16))));
  } else if constexpr (std::is_same_v<T, half2>) {
    // 32-bit payload: bit 0..15 lands in lo, 16..31 in hi.
    const unsigned bit = static_cast<unsigned>(h % 32);
    half_t& part = bit < 16 ? v.lo : v.hi;
    part = half_t::from_bits(
        static_cast<std::uint16_t>(part.bits() ^ (1u << (bit % 16))));
  } else {
    // NOLINTNEXTLINE(cppcoreguidelines-init-variables): memcpy target
    std::uint32_t b;
    static_assert(sizeof(v) == sizeof(b));
    __builtin_memcpy(&b, &v, sizeof(b));
    b ^= 1u << (h % 32);
    __builtin_memcpy(&v, &b, sizeof(b));
  }
}

template <class T>
inline void fault_saturate(T& v) noexcept {
  if constexpr (std::is_same_v<T, half_t>) {
    v = half_limits::kInf;
  } else if constexpr (std::is_same_v<T, bf16_t>) {
    v = bf16_limits::kInf;
  } else if constexpr (std::is_same_v<T, half2>) {
    v.lo = half_limits::kInf;
    v.hi = half_limits::kInf;
  } else {
    v = HUGE_VALF;
  }
}

// One launch's armed fault view, carried to every Warp in LaunchHooks.
// Pool workers only read the configuration fields; the counters are
// atomics each warp flushes into at most once (in Warp::finish()).
struct LaunchFaultState {
  std::uint64_t flip_threshold = 0;  // 0 = no bit flips this launch
  std::uint64_t flip_seed = 0;       // clause seed mixed with launch ordinal
  bool overflow = false;
  int overflow_cta = -1;
  bool stuck = false;  // this launch hangs (consumed before any CTA runs)
  std::atomic<std::uint64_t> flips{0};
  std::atomic<std::uint64_t> overflows{0};

  bool data_faults() const noexcept { return flip_threshold != 0 || overflow; }
};

}  // namespace detail

// Seeded deterministic fault source owned by a Device. All mutable state is
// guarded by the device launch mutex (one launch in flight per device), so
// no member here needs its own synchronization.
class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(FaultConfig cfg);

  bool active() const noexcept { return cfg_.active(); }
  const FaultConfig& config() const noexcept { return cfg_; }

  // Arms `st` for the next launch of `kernel` and advances the launch
  // ordinal. Throws LaunchFault (after counting + publishing it) when a
  // launchfail clause fires; the launch must not have touched any output.
  void arm(const std::string& kernel, detail::LaunchFaultState& st);

  // Post-launch accounting from the calling thread: accumulates injector
  // totals and, when something was injected, bumps fault.* registry
  // counters and drops a tracer instant — in launch program order, so the
  // published JSON stays schedule-independent.
  void publish(const std::string& kernel, const detail::LaunchFaultState& st);

  // Injector-lifetime totals (registry-independent; read quiesced).
  std::uint64_t total_bitflips() const noexcept { return bitflips_; }
  std::uint64_t total_overflows() const noexcept { return overflows_; }
  std::uint64_t total_launchfails() const noexcept { return launchfails_; }
  std::uint64_t total_stucks() const noexcept { return stucks_; }
  std::uint64_t launches_seen() const noexcept { return ordinal_; }

 private:
  FaultConfig cfg_;
  std::uint64_t ordinal_ = 0;  // launches armed so far
  std::uint64_t bitflips_ = 0;
  std::uint64_t overflows_ = 0;
  std::uint64_t launchfails_ = 0;
  std::uint64_t stucks_ = 0;
};

}  // namespace hg::simt
