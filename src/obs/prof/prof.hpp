// hgprof: opt-in roofline + fp16-numerics profiler for the SIMT simulator.
//
// HALFGNN_PROF grammar — ','-separated analyzer names:
//
//   roofline  Per-launch: arithmetic intensity (lane-ops per HBM byte),
//             percent of the modeled roofline, and a bottleneck class
//             (memory-/compute-/latency-/atomic-bound) from the launch's
//             KernelStats + DeviceSpec peaks, aggregated per kernel family.
//             Only profiled launches carry counters; training-mode launches
//             are counted but not classified.
//   numerics  Base-2 exponent histograms of every value a kernel stores
//             (scatter / contiguous store / atomic sites, sampled after the
//             value lands in memory) with zero/subnormal/overflow/NaN
//             counters, plus trainer-side per-layer/per-epoch tensor
//             histograms, the loss-scale timeline, and TrainGuard audit
//             records. The Fig. 1c fp16 collapse becomes a leading
//             indicator: mass climbing into the top exponent bins precedes
//             the first Inf.
//   all       Both analyzers.
//
// Determinism contract (the sanitizer's discipline): the profiler only
// reads values — an armed run's outputs are byte-identical to a disarmed
// run at every HALFGNN_THREADS. Exponent-bin counts are integers merged
// with commutative atomic adds, roofline inputs are the executor's already
// thread-invariant merged KernelStats, and the report walks std::map — so
// the prof JSON itself is byte-identical across thread counts. host_ms
// never enters the report. A disarmed profiler costs one pointer
// null-check per store site.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "half/bf16.hpp"
#include "half/half.hpp"
#include "half/vec.hpp"
#include "obs/json.hpp"
#include "simt/spec.hpp"
#include "simt/stats.hpp"
#include "util/parse.hpp"

namespace hg::obs::prof {

// Analyzer bits for ProfConfig::analyzers.
inline constexpr unsigned kProfRoofline = 1u << 0;
inline constexpr unsigned kProfNumerics = 1u << 1;
inline constexpr unsigned kProfAll = kProfRoofline | kProfNumerics;

// The grammar's tokens: what the parser, its error text and hgcheck's doc
// lint read.
inline constexpr util::Token<unsigned> kProfTokens[] = {
    {"roofline", kProfRoofline},
    {"numerics", kProfNumerics},
    {"all", kProfAll}};

struct ProfConfig {
  static constexpr char kEnv[] = "HALFGNN_PROF";

  unsigned analyzers = 0;

  bool active() const noexcept { return analyzers != 0; }
  bool roofline() const noexcept { return (analyzers & kProfRoofline) != 0; }
  bool numerics() const noexcept { return (analyzers & kProfNumerics) != 0; }

  // Parses the grammar above; throws std::invalid_argument naming the
  // offending token. Empty spec = inactive config.
  static ProfConfig parse(std::string_view spec);
  // HALFGNN_PROF, read once per call; unset/empty = inactive config.
  static ProfConfig from_env();
};

// Base-2 exponent histogram over binary16/binary32 values. Bin i counts
// finite non-zero values with floor(log2|v|) == kMinExp + i (clamped at the
// ends for f32 inputs; the half range -24..15 fits without clamping).
// Specials land in dedicated counters: overflows counts ±Inf — at a half
// store site that IS the overflow event — and underflow pressure reads as
// subnormals + mass in the bottom bins.
struct ExpHist {
  static constexpr int kMinExp = -32;
  static constexpr int kMaxExp = 31;
  static constexpr int kBins = kMaxExp - kMinExp + 1;

  std::uint64_t bins[kBins] = {};
  std::uint64_t zeros = 0;
  std::uint64_t subnormals = 0;  // also binned at their true exponent
  std::uint64_t overflows = 0;   // ±Inf
  std::uint64_t nans = 0;
  std::uint64_t total = 0;  // every sampled value, specials included

  void add_half_bits(std::uint16_t bits) noexcept;
  void add_float(float v) noexcept;
  void merge(const ExpHist& o) noexcept;
  bool empty() const noexcept { return total == 0; }
  Json to_json() const;  // sparse bins, deterministic order
};

namespace detail {

// Same-layout atomic accumulator for the per-launch store-site histogram:
// warps flush their private ExpHist here once in Warp::finish(). Integer
// fetch_adds commute, so the merged counts are thread-count invariant.
struct AtomicExpHist {
  std::atomic<std::uint64_t> bins[ExpHist::kBins] = {};
  std::atomic<std::uint64_t> zeros{0};
  std::atomic<std::uint64_t> subnormals{0};
  std::atomic<std::uint64_t> overflows{0};
  std::atomic<std::uint64_t> nans{0};
  std::atomic<std::uint64_t> total{0};

  void reset() noexcept;
  void merge_from(const ExpHist& h) noexcept;  // adds non-zero fields only
  ExpHist snapshot() const noexcept;
};

// One launch's armed profiler view, carried to every Cta and Warp in the
// launch's simt::LaunchHooks. Reused across launches; armed under the
// device launch mutex. Warps only touch `stores`.
struct LaunchProfState {
  unsigned analyzers = 0;
  std::string kernel;
  std::uint64_t ordinal = 0;
  AtomicExpHist stores;

  bool numerics() const noexcept { return (analyzers & kProfNumerics) != 0; }
};

}  // namespace detail

// Per-warp sampler: classifies stored values into a private ExpHist and
// flushes once per warp. Lives in the Warp object; every note_* call is
// reached only behind the warp's `prof_ != nullptr` check.
class WarpProf {
 public:
  void note(half_t v) noexcept { hist_.add_half_bits(v.bits()); }
  void note(half2 v) noexcept {
    hist_.add_half_bits(v.lo.bits());
    hist_.add_half_bits(v.hi.bits());
  }
  void note(half4 v) noexcept {
    for (const half2 h : v.h2) note(h);
  }
  void note(half8 v) noexcept {
    for (const half2 h : v.h2) note(h);
  }
  void note(float v) noexcept { hist_.add_float(v); }
  void note(bf16_t v) noexcept { hist_.add_float(v.to_float()); }
  // Non-sampled element types (index arrays etc.) compile to nothing.
  template <class T>
  void note(const T&) noexcept {}

  void flush(detail::LaunchProfState& st) noexcept {
    if (hist_.total != 0) {
      st.stores.merge_from(hist_);
      hist_ = ExpHist{};
    }
  }

 private:
  ExpHist hist_;
};

// One TrainGuard decision, with the signal that triggered it.
struct AuditRecord {
  std::uint64_t seq = 0;
  int epoch = -1;  // trainer epoch at decision time (-1 outside training)
  std::string event;   // "retry" | "fallback" | "rollback"
  std::string site;    // dispatch site ("spmm", ...); empty for rollback
  std::string signal;  // human-readable trigger, deterministic
};

// Device-owned profiler: arms per-launch state, folds launch results into
// per-kernel-family aggregates, collects trainer-side telemetry, and emits
// the "halfgnn-prof-v1" report. Launch-path state is guarded by the device
// launch mutex; trainer-side hooks run on the (single) training thread
// between launches, like Sanitizer::violations() reads.
class Profiler {
 public:
  Profiler() = default;
  explicit Profiler(ProfConfig cfg) : cfg_(cfg) {}
  // The embedded launch state holds atomics (not movable); it is per-launch
  // scratch that arm() fully re-initializes, so moves transfer everything
  // else and leave the target's scratch in place.
  Profiler(Profiler&& o) noexcept;
  Profiler& operator=(Profiler&& o) noexcept;

  bool active() const noexcept { return cfg_.active(); }
  const ProfConfig& config() const noexcept { return cfg_; }

  // Arms the reusable per-launch state for `kernel` and advances the launch
  // ordinal. The caller must hold the device launch mutex.
  detail::LaunchProfState* arm(const std::string& kernel);

  // Post-launch accounting from the calling thread: roofline-classifies the
  // merged (thread-invariant) KernelStats when the launch was profiled and
  // folds the store-site histogram into the kernel family's numerics entry.
  void finish_launch(detail::LaunchProfState& st,
                     const simt::KernelStats& ks,
                     const simt::DeviceSpec& spec, bool profiled);

  // --- trainer-side numerics telemetry ------------------------------------
  // All no-ops unless the numerics analyzer is armed.
  void begin_epoch(int epoch);
  void sample_tensor(const std::string& name, std::span<const half_t> vals);
  void sample_tensor(const std::string& name, std::span<const float> vals);
  void sample_tensor(const std::string& name, std::span<const bf16_t> vals);
  void note_loss_scale(float scale);  // one point per optimizer step
  void audit(std::string event, std::string site, std::string signal);

  std::uint64_t launches_seen() const noexcept { return ordinal_; }
  const std::vector<AuditRecord>& audits() const noexcept { return audits_; }

  // --- soundness-bridge accessors (src/check) ------------------------------
  // Per-kernel-family store-site histograms, merged across launches. The
  // static checker's tests compare every observed histogram against its
  // statically predicted exponent interval.
  const std::map<std::string, ExpHist>& kernel_numerics() const noexcept {
    return kernel_numerics_;
  }
  // Trainer-side tensor histograms merged across epochs; empty map when the
  // numerics analyzer is off.
  std::map<std::string, ExpHist> tensor_numerics_merged() const;

  // --- report --------------------------------------------------------------
  // "halfgnn-prof-v1"; byte-identical across thread counts (no host_ms).
  Json report_json() const;
  bool write_report(const std::string& path) const;

  // Drops collected data; config and launch ordinal remain.
  void clear();

 private:
  struct RooflineAgg {
    std::uint64_t launches = 0;           // profiled launches
    std::uint64_t unprofiled_launches = 0;
    double lane_ops = 0;
    double bytes_moved = 0;
    double useful_bytes = 0;
    double atomic_instrs = 0;
    double atomic_serialized = 0;
    double cta_barriers = 0;
    double issue_cycles = 0;
    double mem_cycles = 0;
    double stall_cycles = 0;
    double atomic_wait_cycles = 0;
    double device_cycles = 0;
    double modeled_ms = 0;
    double bw_cap_bytes = 0;
    double sm_cap_cycles = 0;
    // Per-launch bottleneck votes, keyed by class name.
    std::map<std::string, std::uint64_t> bottlenecks;
  };
  struct TensorSeries {
    std::map<int, ExpHist> by_epoch;
  };

  ProfConfig cfg_;
  std::uint64_t ordinal_ = 0;
  detail::LaunchProfState state_;
  std::map<std::string, RooflineAgg> roofline_;
  std::map<std::string, ExpHist> kernel_numerics_;
  std::map<std::string, TensorSeries> tensors_;
  std::vector<std::pair<int, float>> loss_scale_;  // (epoch, scale)
  std::vector<AuditRecord> audits_;
  int epoch_ = -1;
};

// Classifies one profiled launch: "memory-bound" | "compute-bound" |
// "latency-bound" | "atomic-bound". Exposed for tests; thresholds are
// documented in DESIGN.md Sec. 11.
std::string classify_bottleneck(double bw_utilization, double sm_utilization,
                                double atomic_wait_cycles,
                                double busy_cycles);

// Collapses a span stack path into perf-style folded lines
// ("run;epoch;kernel <self-microseconds>") from a Chrome-trace-sorted span
// list; used by Tracer::collapsed_stacks.
// (Declared here so prof owns the flamegraph format; implemented over the
// tracer's public JSON export.)
std::string collapsed_stacks_from_trace(const Json& chrome_trace);

// Empty string when `doc` conforms to halfgnn-prof-v1, else the first
// violation.
std::string validate_prof_report(const Json& doc);

}  // namespace hg::obs::prof
