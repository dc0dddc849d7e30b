// simcheck: a compute-sanitizer-style hazard analyzer for the SIMT
// simulator (racecheck / memcheck / initcheck / synccheck).
//
// HALFGNN_SANITIZE grammar — ','-separated checker names:
//
//   race   Shared-memory accesses by different warps of one CTA that touch
//          the same byte within one barrier-delimited phase (the simulator
//          serializes warps; real hardware does not), and cross-CTA plain
//          global stores that overlap without a declared ConflictPolicy —
//          including stores a staged launch makes *outside* its declared
//          CtaWindowFn window (the merge would drop them).
//   mem    Out-of-bounds and misaligned (half2/half4/half8) accesses
//          against the owning span, at every Warp global-memory entry point
//          and on the shared-memory spans.
//   init   Reads of shared-memory bytes no warp has written. The simulator
//          value-initializes `Cta::shared`, so these reads *work* here and
//          return garbage on real hardware — exactly the bug class worth
//          flagging.
//   sync   Divergent barriers (cta.barrier() reached from inside a
//          for_each_warp phase, i.e. not by every warp) and `shared<T>()`
//          allocation after the first phase completed.
//   all    Every checker above.
//
// Determinism contract (same as the executor's): violations are collected
// into per-CTA slots during the launch (each CTA runs sequentially on one
// pool thread), merged in CTA order from the calling thread, and analysis
// passes iterate sorted data — so the report is byte-identical at every
// HALFGNN_THREADS. A disarmed sanitizer costs one pointer null-check per
// access and leaves every output/metrics/trace byte unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "util/parse.hpp"

namespace hg::simt {

// Checker bits for SanitizerConfig::checks.
inline constexpr unsigned kSanRace = 1u << 0;
inline constexpr unsigned kSanMem = 1u << 1;
inline constexpr unsigned kSanInit = 1u << 2;
inline constexpr unsigned kSanSync = 1u << 3;
inline constexpr unsigned kSanAll = kSanRace | kSanMem | kSanInit | kSanSync;

// The grammar's tokens: what the parser, its error text and hgcheck's doc
// lint read.
inline constexpr util::Token<unsigned> kSanTokens[] = {
    {"race", kSanRace}, {"mem", kSanMem},  {"init", kSanInit},
    {"sync", kSanSync}, {"all", kSanAll}};

struct SanitizerConfig {
  static constexpr char kEnv[] = "HALFGNN_SANITIZE";

  unsigned checks = 0;

  bool active() const noexcept { return checks != 0; }

  // Parses the grammar above; throws std::invalid_argument naming the
  // offending token. Empty spec = inactive config.
  static SanitizerConfig parse(std::string_view spec);
  // HALFGNN_SANITIZE, read once per call; unset/empty = inactive config.
  static SanitizerConfig from_env();
};

// One hazard, with full provenance. `cta/warp/lane/phase` are -1 when the
// dimension does not apply (e.g. a CTA-uniform shared-memory fill records
// warp -1); `other_*` describe the conflicting prior access for races.
struct SanViolation {
  enum class Kind : std::uint8_t {
    kSharedRace,       // race: warp-vs-warp shared access in one phase
    kGlobalConflict,   // race: cross-CTA plain-store overlap, no policy
    kWindowMiss,       // race: staged store outside the declared window
    kOutOfBounds,      // mem: index outside the owning span
    kMisaligned,       // mem: vector access off its natural alignment
    kUninitRead,       // init: shared read of a never-written byte
    kDivergentBarrier, // sync: barrier() from inside a warp phase
    kLateSharedAlloc,  // sync: shared<T>() after the first phase completed
  };

  Kind kind = Kind::kSharedRace;
  std::string kernel;
  std::uint64_t ordinal = 0;  // sanitizer launch ordinal (per device)
  int cta = -1;
  int warp = -1;
  int lane = -1;
  int phase = -1;
  // Byte address of the hazard: a shared-memory arena offset for shared
  // checkers, an absolute host address for global stores, or an element
  // index for span bounds violations (see `detail` for units).
  std::uint64_t address = 0;
  std::uint32_t bytes = 0;
  // Conflicting prior access (kSharedRace / kGlobalConflict).
  int other_cta = -1;
  int other_warp = -1;
  int other_phase = -1;
  bool other_was_write = false;
  std::string detail;  // human context: span size, window, capacity, ...

  // "racecheck" / "memcheck" / "initcheck" / "synccheck".
  const char* check_name() const noexcept;
  // One-line report, stable across thread counts.
  std::string message() const;
};

template <class T>
class SmemRef;

namespace detail {

// One coalesced plain (non-atomic) global store interval, byte-addressed.
struct SanStore {
  std::uint64_t lo = 0;  // [lo, hi) absolute host byte addresses
  std::uint64_t hi = 0;
  int warp = -1;
  int phase = -1;
};

// Per-CTA collection slot. CTAs execute sequentially on one pool thread
// each, so slots need no synchronization; the calling thread merges them
// in CTA order after the launch.
struct CtaSanRecord {
  std::vector<SanViolation> violations;
  std::vector<SanStore> stores;
  std::uint64_t dropped = 0;  // violations over the per-CTA cap

  void reset() {
    violations.clear();
    stores.clear();
    dropped = 0;
  }
};

// Staged-launch shard metadata for the conflict checker: the staging
// buffer's address range, the declared window (in bytes over dst), and the
// CTA range the shard runs.
struct SanShardInfo {
  std::uint64_t stage_lo = 0;
  std::uint64_t stage_hi = 0;
  std::uint64_t win_lo = 0;
  std::uint64_t win_hi = 0;
  int cta_begin = 0;
  int cta_end = 0;
};

// One launch's armed sanitizer view, carried to every Cta in the launch's
// LaunchHooks. Reused across launches; armed under the device launch
// mutex.
struct LaunchSanState {
  unsigned checks = 0;
  std::string kernel;
  std::uint64_t ordinal = 0;
  // Staged-launch declaration (empty shards = conflict-free launch).
  int policy = 0;  // static_cast<int>(ConflictPolicy)
  std::size_t elem_bytes = 0;
  std::vector<SanShardInfo> shards;
  int ctas = 0;
  std::vector<CtaSanRecord> cta;
};

// Shadow state for one shared-memory byte: the last write and the last
// read, each with the phase and warp that performed it. warp -2 = never
// accessed; warp -1 = CTA-uniform access (outside any for_each_warp), which
// marks bytes valid but never races (it is the host-side idiom for a
// uniform fill the GPU would do cooperatively).
struct SanShadowByte {
  std::int32_t write_phase = -1;
  std::int32_t read_phase = -1;
  std::int16_t write_warp = -2;
  std::int16_t read_warp = -2;
};

// Per-CTA analysis context: shadow memory over the CTA's shared arena plus
// the warp/phase cursor. One reusable instance per host thread (the
// executor runs one CTA at a time per thread); begin() rebinds it to a CTA.
class CtaSan {
 public:
  static CtaSan& local() {
    static thread_local CtaSan ctx;
    return ctx;
  }

  void begin(LaunchSanState& st, int cta_id);

  // --- warp/phase cursor (driven by Cta) ---------------------------------
  void set_warp(int w) noexcept { cur_warp_ = w; }
  void begin_phase() noexcept { in_phase_ = true; }
  void end_phase() noexcept {
    in_phase_ = false;
    cur_warp_ = -1;
  }
  int phase() const noexcept { return phase_; }

  bool armed(unsigned check) const noexcept {
    return (st_->checks & check) != 0;
  }

  // --- Cta hooks ---------------------------------------------------------
  void on_barrier();
  void on_shared_alloc(std::size_t off, std::size_t bytes);

  // --- shared-memory access (from SmemRef) -------------------------------
  void smem_read(std::uint32_t off, std::uint32_t bytes);
  void smem_write(std::uint32_t off, std::uint32_t bytes);

  // Out-of-bounds shared index: report (memcheck) and hand back a sink slot
  // so the access stays defined. `off` is the span's arena byte offset.
  template <class T>
  SmemRef<T> smem_oob(std::size_t i, std::size_t n, std::uint32_t off);

  // --- global-memory hooks (from Warp) -----------------------------------
  void oob(const void* base, std::size_t elems, std::size_t elem_bytes,
           std::int64_t idx, int lane, bool is_load);
  void misaligned(const void* addr, std::size_t elem_bytes, int lane,
                  bool is_load);
  // Record one plain-store byte interval (coalesced with the previous one
  // when contiguous and same warp/phase).
  void plain_store(std::uint64_t lo, std::uint64_t hi);

  void report(SanViolation v);

 private:
  static constexpr std::size_t kMaxViolationsPerCta = 64;

  LaunchSanState* st_ = nullptr;
  CtaSanRecord* rec_ = nullptr;
  int cta_id_ = -1;
  int cur_warp_ = -1;
  int phase_ = 0;
  bool in_phase_ = false;
  std::vector<SanShadowByte> shadow_;
  alignas(16) std::byte sink_[64] = {};
};

}  // namespace detail

// A bounds- and shadow-checked view over a Cta::shared allocation. When the
// sanitizer is disarmed (`san == nullptr`) every access costs one pointer
// null-check over a plain span — same indexing, same values.
template <class T>
class SmemRef {
 public:
  SmemRef(T* p, detail::CtaSan* san, std::uint32_t off) noexcept
      : p_(p), san_(san), off_(off) {}
  SmemRef(const SmemRef&) = default;

  operator T() const {  // NOLINT(google-explicit-constructor): span element
    if (san_ != nullptr) san_->smem_read(off_, sizeof(T));
    return *p_;
  }

  SmemRef& operator=(const T& v) {
    if (san_ != nullptr) san_->smem_write(off_, sizeof(T));
    *p_ = v;
    return *this;
  }

  SmemRef& operator=(const SmemRef& o) {  // NOLINT(cert-oop54-cpp)
    return *this = static_cast<T>(o);
  }

 private:
  T* p_;
  detail::CtaSan* san_;
  std::uint32_t off_;
};

template <class T>
class SmemSpan {
 public:
  SmemSpan() = default;
  SmemSpan(T* p, std::size_t n, detail::CtaSan* san, std::uint32_t off) noexcept
      : p_(p), n_(n), san_(san), off_(off) {}

  std::size_t size() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }

  SmemRef<T> operator[](std::size_t i) const {
    if (san_ != nullptr && i >= n_) return san_->template smem_oob<T>(i, n_, off_);
    return SmemRef<T>(p_ + i, san_, off_ + static_cast<std::uint32_t>(i * sizeof(T)));
  }

  // CTA-uniform fill — the host idiom for a cooperative memset; recorded as
  // a warp-agnostic write (marks bytes valid, never races).
  void fill(const T& v) const {
    for (std::size_t i = 0; i < n_; ++i) (*this)[i] = v;
  }

  // Bulk copy in. Disarmed it collapses to one memcpy; armed it replays
  // the element-at-a-time proxy accesses in the same order the unfused
  // loops used, so shadow updates and violation provenance are identical.
  void copy_in(std::size_t at, const T* src, std::size_t n) const {
    if (san_ == nullptr) {
      std::memcpy(p_ + at, src, n * sizeof(T));
      return;
    }
    for (std::size_t i = 0; i < n; ++i) (*this)[at + i] = src[i];
  }

  // Bulk copy out, the counterpart of copy_in: one memcpy disarmed, the
  // element-at-a-time proxy reads in index order armed.
  void copy_out(std::size_t at, T* dst, std::size_t n) const {
    if (san_ == nullptr) {
      std::memcpy(dst, p_ + at, n * sizeof(T));
      return;
    }
    for (std::size_t i = 0; i < n; ++i) dst[i] = (*this)[at + i];
  }

 private:
  T* p_ = nullptr;
  std::size_t n_ = 0;
  detail::CtaSan* san_ = nullptr;
  std::uint32_t off_ = 0;
};

namespace detail {

template <class T>
SmemRef<T> CtaSan::smem_oob(std::size_t i, std::size_t n, std::uint32_t off) {
  static_assert(sizeof(T) <= sizeof(sink_), "sink covers all POD elements");
  if (armed(kSanMem)) {
    SanViolation v;
    v.kind = SanViolation::Kind::kOutOfBounds;
    v.lane = -1;
    v.address = i;
    v.bytes = static_cast<std::uint32_t>(sizeof(T));
    v.detail = "shared span of " + std::to_string(n) +
               " elements (arena offset " + std::to_string(off) + ")";
    report(std::move(v));
  }
  // Detached ref: reads/writes land in the sink, not the shadow.
  return SmemRef<T>(reinterpret_cast<T*>(sink_), nullptr, 0);
}

}  // namespace detail

// Device-owned collector: arms per-launch state, merges per-CTA records in
// CTA order, runs the cross-CTA conflict analysis, and publishes
// sanitizer.* metrics and tracer instants from the calling thread. All
// mutable state is guarded by the device launch mutex.
class Sanitizer {
 public:
  Sanitizer() = default;
  explicit Sanitizer(SanitizerConfig cfg) : cfg_(cfg) {}

  bool active() const noexcept { return cfg_.active(); }
  const SanitizerConfig& config() const noexcept { return cfg_; }

  // Arms the reusable per-launch state for `kernel` and advances the launch
  // ordinal. The caller must hold the device launch mutex.
  detail::LaunchSanState* arm(const std::string& kernel, int ctas);

  // Post-launch accounting from the calling thread: merges per-CTA records
  // in CTA order, runs the global-store conflict analysis, and publishes
  // sanitizer.* counters and a tracer instant when anything fired.
  void finish_launch(detail::LaunchSanState& st);

  // Violations collected so far, sorted by (launch ordinal, cta, warp,
  // program order). Read quiesced (between launches).
  const std::vector<SanViolation>& violations() const noexcept {
    return violations_;
  }
  std::uint64_t total_violations() const noexcept { return total_; }
  std::uint64_t dropped() const noexcept { return dropped_; }
  std::uint64_t launches_seen() const noexcept { return ordinal_; }

  // Formatted deterministic report (one line per violation).
  std::string report() const;

  // Drops collected violations; config and ordinal remain.
  void clear();

 private:
  static constexpr std::size_t kMaxViolations = 1024;
  static constexpr std::size_t kMaxConflictReports = 16;

  void keep(SanViolation&& v);
  void analyze_stores(detail::LaunchSanState& st);

  SanitizerConfig cfg_;
  std::uint64_t ordinal_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<SanViolation> violations_;
  detail::LaunchSanState state_;
};

}  // namespace hg::simt
