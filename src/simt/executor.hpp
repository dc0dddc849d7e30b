// Device/Stream executor: parallel, deterministic CTA execution.
//
// A Device owns a persistent host thread pool (size from HALFGNN_THREADS,
// default hardware_concurrency; 1 = sequential on the calling thread) and
// the DeviceSpec cost model. A Stream is the launch API the kernels use.
//
// Determinism contract: every number a launch produces — output tensors,
// KernelStats, and everything src/obs publishes — is bit-identical for any
// thread count. Three mechanisms make that hold:
//
//  1. CTAs execute in fixed contiguous chunks (kCtasPerChunk, a property of
//     the launch, not of the pool). Each chunk accumulates into a private
//     KernelStats shard and a private per-CTA cost vector; shards merge in
//     chunk order via KernelStats::operator+= (raw-denominator semantics),
//     so double-precision accumulation order never depends on scheduling.
//  2. Kernels with cross-CTA conflict writes (atomic cuSPARSE-like SpMM,
//     the Fig. 13 atomic ablation, Huang-style group partials) declare a
//     ConflictPolicy. The executor then gives each shard a private staging
//     view of the output; a follow-up merge pass folds the shards into the
//     destination in fixed shard order — the same staging-plus-deterministic-
//     merge design HalfGNN itself uses instead of device atomics
//     (paper Sec. 4.1.3/5.2.3), applied to host threads. Staging is active
//     at every thread count (including 1), so float/half accumulation order
//     and overflow behavior are launch properties, not schedule properties.
//  3. The merged stats are finalized and published exactly once per launch,
//     from the calling thread.
//
// The staged merge is host machinery, not device work: it charges nothing
// to the cost model (the kernels' atomic charges stay), so profiled output
// is unchanged in schema and value. Host wall time is measured per launch
// into KernelStats::host_ms, which is reported by the benches but never
// published to metrics/trace JSON.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/prof/prof.hpp"
#include "simt/cta.hpp"
#include "simt/fault.hpp"
#include "simt/sanitizer.hpp"

namespace hg::simt {

struct LaunchDesc {
  std::string name;
  int ctas = 1;
  int warps_per_cta = 4;
};

// How a launch's cross-CTA conflicting writes combine during the staged
// merge. kNone means CTA output locations are exclusive: CTAs write the
// output directly, with no staging.
enum class ConflictPolicy { kNone, kStagedSum, kStagedMax };

// Element window [begin, end) of the output that CTAs [cta_begin, cta_end)
// may write. Bounds the staging memory the executor zeroes and merges; must
// be a superset of the CTAs' actual writes. Unset = the whole output.
using CtaWindowFn =
    std::function<std::pair<std::size_t, std::size_t>(int cta_begin,
                                                      int cta_end)>;

// A launch's output declaration.
template <class T>
struct StagedOutput {
  std::span<T> dst;
  ConflictPolicy policy = ConflictPolicy::kStagedSum;
  CtaWindowFn window;  // optional
};

namespace detail {

// CTAs per execution chunk — fixed so chunk structure (and therefore every
// accumulation order) is independent of the thread count.
inline constexpr int kCtasPerChunk = 8;
// Staging shards for conflict launches: enough to keep 16 host threads
// busy, few enough that staging memory stays ~shards/ctas of the output.
inline constexpr int kConflictShards = 16;
// Elements per merge-pass job.
inline constexpr std::size_t kMergeBlockElems = std::size_t{1} << 16;

// The most host threads HALFGNN_THREADS may ask for: a typo must not spawn
// an unbounded number of OS threads.
inline constexpr int kMaxEnvThreads = 256;

// HALFGNN_THREADS: a whole number in 0..kMaxEnvThreads; unset, empty or 0
// is std::thread::hardware_concurrency(). Anything else throws
// std::invalid_argument naming the variable.
int env_threads();

// One chunk's private stats accumulator, padded to a cache line so pool
// threads flushing neighboring shards never false-share.
struct alignas(64) StatsShard {
  KernelStats ks;
};

// Per-device launch workspace, reused across launches (the launch mutex
// serializes access): shard stats, per-chunk cost vectors, the merged CTA
// cost list, and staging windows. Steady-state launches allocate nothing
// here — vectors only grow, never shrink.
struct LaunchScratch {
  std::vector<StatsShard> part;
  std::vector<std::vector<std::pair<double, double>>> cost;
  std::vector<std::pair<double, double>> cta_cost;
  std::vector<std::pair<std::size_t, std::size_t>> win;

  void prepare(std::size_t shards, bool profiled) {
    if (part.size() < shards) part.resize(shards);
    for (std::size_t i = 0; i < shards; ++i) part[i].ks = KernelStats{};
    if (profiled) {
      if (cost.size() < shards) cost.resize(shards);
      for (std::size_t i = 0; i < shards; ++i) cost[i].clear();
    }
    cta_cost.clear();
  }
};

// Device-level scheduling model: CTA costs are distributed round-robin
// over min(num_sms, num_ctas) SMs (a 1-CTA launch models a 1-SM device);
// resident CTAs hide stalls but contend for issue slots; the result is
// clamped by peak DRAM bandwidth.
void finalize(KernelStats& ks, const DeviceSpec& spec,
              const std::vector<std::pair<double, double>>& cta_cost);

}  // namespace detail

// A modeled GPU plus the host thread pool that simulates it.
class Device {
 public:
  explicit Device(const DeviceSpec& spec, int threads = detail::env_threads());
  ~Device();
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const DeviceSpec& spec() const noexcept { return spec_; }
  int threads() const noexcept { return threads_; }

  // Runs fn(0..jobs-1) across the pool; the calling thread participates.
  // Job indices are claimed dynamically, so callers must write results to
  // per-job slots and merge in index order. Worker exceptions rethrow here.
  // The caller must hold the launch mutex (Stream does).
  void run_jobs(int jobs, const std::function<void(int)>& fn);

  // run_jobs for host work outside a launch (the dense ops of
  // tensor/dense_ops.cpp): takes the launch mutex itself, so host jobs never
  // overlap a launch on the same pool. Must not be called with the launch
  // mutex held, i.e. never from a kernel body or another job.
  void run_host_jobs(int jobs, const std::function<void(int)>& fn);

  // Reusable per-shard staging arena (bytes survive across launches so
  // repeated conflict launches do not re-fault pages).
  std::span<std::byte> scratch(int slot, std::size_t bytes);

  // Replaces the device's fault configuration (the default is
  // HALFGNN_FAULTS, read at construction). Takes the launch mutex, so it
  // must not be called from inside a kernel body.
  void set_faults(FaultConfig cfg);
  // The device's injector; read its totals only between launches.
  const FaultInjector& faults() const noexcept { return injector_; }

  // Replaces the device's sanitizer (the default configuration is
  // HALFGNN_SANITIZE, read at construction). Takes the launch mutex, so it
  // must not be called from inside a kernel body. Resets collected
  // violations and the launch ordinal.
  void set_sanitizer(SanitizerConfig cfg);
  // The device's hazard collector; read its violations only between
  // launches.
  const Sanitizer& sanitizer() const noexcept { return sanitizer_; }
  Sanitizer& sanitizer() noexcept { return sanitizer_; }

  // Replaces the device's profiler (hgprof; the default configuration is
  // HALFGNN_PROF, read at construction). Takes the launch mutex, so it must
  // not be called from inside a kernel body. Drops collected data.
  void set_profiler(obs::prof::ProfConfig cfg);
  // The device's profiler; read reports / feed trainer telemetry only
  // between launches.
  const obs::prof::Profiler& profiler() const noexcept { return profiler_; }
  obs::prof::Profiler& profiler() noexcept { return profiler_; }

  // Per-launch watchdog deadline in wall-clock milliseconds (default from
  // HALFGNN_WATCHDOG_MS; <= 0 disables). A launch that exceeds it — a
  // `stuck` fault, or real work that hangs — is reaped as a typed
  // LaunchHang, which rides the same TrainGuard retry ladder as
  // LaunchFault. The reap is wall-clock work, so it publishes nothing to
  // metrics/trace (the deterministic `stuck` arm already did). Takes the
  // launch mutex. Throws std::invalid_argument unless `ms` is finite and
  // its deadline fits steady_clock.
  void set_watchdog_ms(double ms);
  double watchdog_ms() const noexcept { return wd_ms_; }

  // Parses every environment variable the constructor reads
  // (HALFGNN_FAULTS, _SANITIZE, _PROF, _WATCHDOG_MS, _SIMD, _THREADS), so a
  // CLI can reject a malformed one before the default device exists.
  // Throws std::invalid_argument naming the first malformed variable.
  static void check_env();

 private:
  // HALFGNN_WATCHDOG_MS parsed strictly: unset or empty is 0 (disabled);
  // anything but one number set_watchdog_ms accepts throws
  // std::invalid_argument naming the variable.
  static double watchdog_ms_from_env();

  friend class Stream;

  // Arms every per-launch hook for `kernel` — faults, the sanitizer and
  // hgprof — into the caller's `hooks` and returns &hooks, or nullptr when
  // nothing is armed (the common case costs three branches here and one
  // null-check per access). Throws LaunchFault when a launchfail clause
  // fires; a `stuck` launch blocks in stuck_wait until the watchdog reaps
  // it. The caller must hold launch_mu_.
  const LaunchHooks* arm(const std::string& kernel, int ctas,
                         LaunchHooks& hooks);
  // Post-launch accounting from the calling thread, once per launch in
  // program order: fault totals + fault.* counters, then the sanitizer
  // merge, then hgprof. The profiler sees the merged (already
  // thread-invariant) stats, so its aggregates inherit determinism.
  void publish(const LaunchHooks& hooks, const KernelStats& ks, bool profiled);

  void worker_loop();
  bool claim(std::uint64_t gen, int jobs, int& idx);
  void run_claimed(std::uint64_t gen, int jobs,
                   const std::function<void(int)>& fn);

  // --- watchdog (all called with launch_mu_ held, except the loop) ---------
  // Simulates the hang on the calling thread: blocks until the watchdog
  // reaps it (throwing LaunchHang), or forever when no watchdog is armed —
  // exactly like hardware.
  [[noreturn]] void stuck_wait(const std::string& kernel);
  void arm_watchdog();
  void disarm_watchdog() noexcept;
  bool watchdog_cancelled() const noexcept {
    return wd_cancel_.load(std::memory_order_relaxed);
  }
  [[noreturn]] void throw_hang(const std::string& kernel) const;
  void watchdog_loop();

  DeviceSpec spec_;
  int threads_;

  // One launch in flight per device; Stream locks this around each launch.
  std::mutex launch_mu_;

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;
  std::function<void(int)> job_;
  int jobs_ = 0;
  int done_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;
  // Packs (generation << 32) | next_job_index; claims CAS the low half so
  // a stale worker can never claim into a newer launch.
  std::atomic<std::uint64_t> claim_{0};

  std::vector<std::thread> workers_;
  std::vector<std::vector<std::byte>> scratch_;
  // Reused launch workspace; guarded by launch_mu_.
  detail::LaunchScratch launch_scratch_;
  // Fault injection (simt/fault.hpp); both guarded by launch_mu_.
  FaultInjector injector_;
  detail::LaunchFaultState fault_state_;
  // Hazard analysis (simt/sanitizer.hpp); guarded by launch_mu_.
  Sanitizer sanitizer_;
  // hgprof (obs/prof/prof.hpp); launch path guarded by launch_mu_.
  obs::prof::Profiler profiler_;

  // Watchdog: one deadline thread per device, started lazily on the first
  // armed launch. wd_ms_ is guarded by launch_mu_; the arm/deadline state
  // by wd_mu_; wd_cancel_ is the lock-free reap signal kernel chunks poll.
  double wd_ms_ = 0;
  bool wd_started_ = false;
  std::thread wd_thread_;
  std::mutex wd_mu_;
  std::condition_variable wd_cv_;
  bool wd_stop_ = false;
  bool wd_armed_ = false;
  std::uint64_t wd_gen_ = 0;
  std::chrono::steady_clock::time_point wd_deadline_{};
  std::atomic<bool> wd_cancel_{false};
};

// The launch API. Kernels hold a Stream& and call launch(); SparseCtx
// carries a Stream* (see nn/common.hpp).
class Stream {
 public:
  explicit Stream(Device& dev) : dev_(&dev) {}

  Device& device() const noexcept { return *dev_; }
  const DeviceSpec& spec() const noexcept { return dev_->spec(); }

  // Conflict-free launch: body(Cta<Profiled>&). CTA output locations must
  // be exclusive per CTA (or written only through kernel-private staging).
  template <bool Profiled, class Body>
  KernelStats launch(LaunchDesc desc, Body&& body) {
    // The declared output is empty and never touched (its type is moot).
    const StagedOutput<float> none{{}, ConflictPolicy::kNone, {}};
    auto ctas_only = [&](Cta<Profiled>& cta, std::span<float>) { body(cta); };
    return run<Profiled>(desc, none, ctas_only);
  }

  // Declared-output launch: body(Cta<Profiled>&, std::span<T> out). Under
  // kNone `out` is staged.dst itself. Under a staged policy `out` is a
  // per-shard staging view indexed like staged.dst, through which the body
  // writes every conflicting (and interior) output element; shards merge
  // into staged.dst in fixed shard order under the declared policy.
  template <bool Profiled, class T, class Body>
  KernelStats launch(LaunchDesc desc, StagedOutput<T> staged, Body&& body) {
    return run<Profiled>(desc, staged, body);
  }

 private:
  // Arms the device watchdog for one launch and disarms it on every exit
  // path (normal return, LaunchHang reap, kernel-body exception).
  class WdGuard {
   public:
    explicit WdGuard(Device* d) : d_(d) { d_->arm_watchdog(); }
    ~WdGuard() { d_->disarm_watchdog(); }
    WdGuard(const WdGuard&) = delete;
    WdGuard& operator=(const WdGuard&) = delete;

   private:
    Device* d_;
  };

  // The one launch body. The policy picks the partition: kNone runs the
  // CTAs in kCtasPerChunk chunks writing staged.dst directly; a staged
  // policy splits them over at most kConflictShards shards, each writing a
  // private staging copy of its window, merged afterwards.
  template <bool Profiled, class T, class Body>
  KernelStats run(const LaunchDesc& desc, const StagedOutput<T>& staged,
                  Body& body) {
    const auto t0 = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> guard(dev_->launch_mu_);
    LaunchHooks armed;
    const LaunchHooks* hooks = dev_->arm(desc.name, desc.ctas, armed);
    WdGuard wd(dev_);

    const int ctas = desc.ctas;
    const bool staging = staged.policy != ConflictPolicy::kNone;
    const int shards =
        staging ? std::min(detail::kConflictShards, std::max(1, ctas))
                : (ctas + detail::kCtasPerChunk - 1) / detail::kCtasPerChunk;
    detail::LaunchScratch& ls = dev_->launch_scratch_;
    ls.prepare(static_cast<std::size_t>(shards), Profiled);
    std::vector<std::span<T>> stage;
    if (staging) stage = stage_shards(staged, ctas, shards, hooks);

    const WarpCombine k = staged.policy == ConflictPolicy::kStagedMax
                              ? WarpCombine::kMax
                              : WarpCombine::kAdd;
    auto& part = ls.part;
    auto& cost = ls.cost;
    dev_->run_jobs(ctas > 0 ? shards : 0, [&](int s) {
      if (dev_->watchdog_cancelled()) dev_->throw_hang(desc.name);
      const auto su = static_cast<std::size_t>(s);
      if (staging) {
        const auto [w0, w1] = ls.win[su];
        std::fill(stage[su].begin() + static_cast<std::ptrdiff_t>(w0),
                  stage[su].begin() + static_cast<std::ptrdiff_t>(w1),
                  combine_identity<T>(k));
      }
      const int c0 = first_cta(staging, ctas, shards, s);
      const int c1 = first_cta(staging, ctas, shards, s + 1);
      if constexpr (Profiled) {
        cost[su].reserve(static_cast<std::size_t>(c1 - c0));
      }
      for (int c = c0; c < c1; ++c) {
        Cta<Profiled> cta(dev_->spec(), part[su].ks, c, desc.warps_per_cta,
                          CtaArena::local(), hooks);
        body(cta, staging ? stage[su] : staged.dst);
        auto cc = cta.finish();
        if constexpr (Profiled) cost[su].push_back(cc);
      }
    });
    if (staging) merge(staged.dst, stage, k);

    KernelStats ks;
    // Copied, not moved: the heap layout this leaves is the one the
    // benchmark's peak RSS was recorded with (a move measurably raised it).
    ks.name = desc.name;
    ks.ctas = ctas;
    ks.warps_per_cta = desc.warps_per_cta;
    for (int s = 0; s < shards; ++s) {
      ks += part[static_cast<std::size_t>(s)].ks;
    }
    if constexpr (Profiled) {
      auto& cta_cost = ls.cta_cost;
      cta_cost.reserve(static_cast<std::size_t>(ctas));
      for (int s = 0; s < shards; ++s) {
        const auto& v = cost[static_cast<std::size_t>(s)];
        cta_cost.insert(cta_cost.end(), v.begin(), v.end());
      }
      detail::finalize(ks, dev_->spec(), cta_cost);
    }
    ks.host_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    if (hooks != nullptr) dev_->publish(*hooks, ks, Profiled);
    // One publish per launch, from the merged stats, on this thread.
    if constexpr (Profiled) publish_profile(ks);
    return ks;
  }

  // First CTA of shard (or chunk) s: fixed kCtasPerChunk chunks without
  // staging, an even split of the CTAs over the shards with it.
  static int first_cta(bool staging, int ctas, int shards, int s) {
    return staging
               ? static_cast<int>(static_cast<long long>(ctas) * s / shards)
               : std::min(ctas, s * detail::kCtasPerChunk);
  }

  // Computes each shard's output window into the launch scratch, hands out
  // its staging buffer, and declares the staged layout to the conflict
  // checker: per-shard staging address ranges (to translate plain stores
  // back to logical offsets), the declared windows in bytes, and each
  // shard's CTA range.
  template <class T>
  std::vector<std::span<T>> stage_shards(const StagedOutput<T>& staged,
                                         int ctas, int shards,
                                         const LaunchHooks* hooks) {
    const auto shard_begin = [&](int s) {
      return first_cta(true, ctas, shards, s);
    };
    auto& win = dev_->launch_scratch_.win;
    win.resize(static_cast<std::size_t>(shards));
    std::vector<std::span<T>> stage(static_cast<std::size_t>(shards));
    for (int s = 0; s < shards; ++s) {
      const auto su = static_cast<std::size_t>(s);
      win[su] = staged.window
                    ? staged.window(shard_begin(s), shard_begin(s + 1))
                    : std::pair<std::size_t, std::size_t>{0,
                                                          staged.dst.size()};
      win[su].second = std::min(win[su].second, staged.dst.size());
      win[su].first = std::min(win[su].first, win[su].second);
      auto bytes = dev_->scratch(s, staged.dst.size() * sizeof(T));
      stage[su] = {reinterpret_cast<T*>(bytes.data()), staged.dst.size()};
    }
    if (hooks != nullptr && hooks->san != nullptr) {
      detail::LaunchSanState& san = *hooks->san;
      san.policy = static_cast<int>(staged.policy);
      san.elem_bytes = sizeof(T);
      san.shards.resize(static_cast<std::size_t>(shards));
      for (int s = 0; s < shards; ++s) {
        const auto su = static_cast<std::size_t>(s);
        detail::SanShardInfo& sh = san.shards[su];
        sh.stage_lo = reinterpret_cast<std::uint64_t>(stage[su].data());
        sh.stage_hi = sh.stage_lo + stage[su].size() * sizeof(T);
        sh.win_lo = win[su].first * sizeof(T);
        sh.win_hi = win[su].second * sizeof(T);
        sh.cta_begin = shard_begin(s);
        sh.cta_end = shard_begin(s + 1);
      }
    }
    return stage;
  }

  // Staged merge (host machinery, never charged to the cost model): fold
  // the shards into dst in shard order, per fixed element blocks. Elements
  // outside every window keep the caller's prefill.
  template <class T>
  void merge(std::span<T> dst, const std::vector<std::span<T>>& stage,
             WarpCombine k) {
    const auto& win = dev_->launch_scratch_.win;
    std::size_t lo = dst.size(), hi = 0;
    for (const auto& w : win) {
      if (w.first >= w.second) continue;
      lo = std::min(lo, w.first);
      hi = std::max(hi, w.second);
    }
    if (lo >= hi) return;
    const T identity = combine_identity<T>(k);
    const auto blocks = static_cast<int>(
        (hi - lo + detail::kMergeBlockElems - 1) / detail::kMergeBlockElems);
    dev_->run_jobs(blocks, [&](int b) {
      const std::size_t b0 =
          lo + static_cast<std::size_t>(b) * detail::kMergeBlockElems;
      const std::size_t b1 = std::min(hi, b0 + detail::kMergeBlockElems);
      for (std::size_t i = b0; i < b1; ++i) {
        T v = identity;
        bool covered = false;
        for (std::size_t s = 0; s < stage.size(); ++s) {
          if (i >= win[s].first && i < win[s].second) {
            v = combine(k, v, stage[s][i]);
            covered = true;
          }
        }
        if (covered) dst[i] = v;
      }
    });
  }

  Device* dev_;
};

// The process-default modeled A100 and its stream (pool size from
// HALFGNN_THREADS, read once on first use).
Device& default_device();
Stream& default_stream();

}  // namespace hg::simt
