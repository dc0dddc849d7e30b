#include "simt/executor.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>

#include "simt/simd.hpp"
#include "util/parse.hpp"

namespace hg::simt {

namespace {

// A watchdog budget must be finite with a deadline that fits steady_clock:
// at most half its nanosecond range, leaving the other half for the
// clock's own epoch offset. <= 0 disables the watchdog.
double checked_watchdog_ms(double ms, const char* source) {
  const double max_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::duration::max())
                            .count() /
                        2;
  if (!std::isfinite(ms) || ms > max_ms) {
    char msg[160] = {};
    std::snprintf(msg, sizeof(msg),
                  "%s: watchdog budget %g ms is not a finite number <= %g "
                  "(<= 0 disables the watchdog)",
                  source, ms, max_ms);
    throw std::invalid_argument(msg);
  }
  return ms;
}

}  // namespace

namespace detail {

int env_threads() {
  if (const char* e = std::getenv("HALFGNN_THREADS"); e != nullptr && *e) {
    const int v =
        util::require<int>(e, "HALFGNN_THREADS: ", 0, kMaxEnvThreads);
    if (v > 0) return v;
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

void finalize(KernelStats& ks, const DeviceSpec& spec,
              const std::vector<std::pair<double, double>>& cta_cost) {
  const int sms =
      std::min<int>(spec.num_sms,
                    std::max<int>(1, static_cast<int>(cta_cost.size())));
  std::vector<double> sm_busy(static_cast<std::size_t>(sms), 0.0);
  std::vector<double> sm_stall(static_cast<std::size_t>(sms), 0.0);
  for (std::size_t c = 0; c < cta_cost.size(); ++c) {
    sm_busy[c % static_cast<std::size_t>(sms)] += cta_cost[c].first;
    sm_stall[c % static_cast<std::size_t>(sms)] += cta_cost[c].second;
  }
  const double conc = std::max(
      1.0,
      std::min({static_cast<double>(spec.max_concurrent_ctas_per_sm),
                static_cast<double>(cta_cost.size()) / sms,
                spec.stall_hide}));
  double sched_cycles = 0;
  for (std::size_t s = 0; s < sm_busy.size(); ++s) {
    // Concurrent CTAs hide each other's stalls but contend for issue slots.
    sched_cycles = std::max(sched_cycles, sm_busy[s] + sm_stall[s] / conc);
  }
  sched_cycles += spec.launch_overhead_cycles;

  // DRAM bandwidth clamp.
  const double bw_bytes_per_cycle = spec.peak_bw_gbps / spec.clock_ghz;
  const double bw_cycles =
      static_cast<double>(ks.bytes_moved) / bw_bytes_per_cycle;
  ks.device_cycles = std::max(sched_cycles, bw_cycles);
  ks.time_ms = spec.cycles_to_ms(ks.device_cycles);

  // Raw capacities; recompute_derived() turns them into the NCU-style
  // percentages. bw: peak DRAM bytes deliverable over the kernel's modeled
  // runtime. sm ("SM %" analogue): issue+memory pipe slots of the resident
  // warps, excluding time spent *waiting* on contended atomics (the warp
  // occupies no pipe while its CAS retries).
  ks.bw_cap_bytes = ks.device_cycles * bw_bytes_per_cycle;
  ks.sm_cap_cycles = ks.device_cycles * sms * std::max(1, ks.warps_per_cta);
  ks.recompute_derived();
}

}  // namespace detail

Device::Device(const DeviceSpec& spec, int threads)
    : spec_(spec),
      threads_(std::max(1, threads)),
      scratch_(static_cast<std::size_t>(detail::kConflictShards)),
      injector_(FaultConfig::from_env()),
      sanitizer_(SanitizerConfig::from_env()),
      profiler_(obs::prof::ProfConfig::from_env()),
      wd_ms_(watchdog_ms_from_env()) {
  // The path itself was resolved before main(), where a malformed value
  // could only run auto; a device is where it is rejected.
  (void)simd::requested_path();
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int t = 0; t < threads_ - 1; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Device::~Device() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
  if (wd_started_) {
    {
      std::lock_guard<std::mutex> lk(wd_mu_);
      wd_stop_ = true;
    }
    wd_cv_.notify_all();
    wd_thread_.join();
  }
}

std::span<std::byte> Device::scratch(int slot, std::size_t bytes) {
  auto& buf = scratch_[static_cast<std::size_t>(slot)];
  if (buf.size() < bytes) buf.resize(bytes);
  return {buf.data(), bytes};
}

void Device::set_faults(FaultConfig cfg) {
  std::lock_guard<std::mutex> guard(launch_mu_);
  injector_ = FaultInjector(std::move(cfg));
  fault_state_.stuck = false;
}

const LaunchHooks* Device::arm(const std::string& kernel, int ctas,
                               LaunchHooks& hooks) {
  hooks = LaunchHooks{};
  // A stuck flag can be left set when the same arm also threw LaunchFault;
  // clear it first so an inactive injector never replays it.
  fault_state_.stuck = false;
  if (injector_.active()) {
    injector_.arm(kernel, fault_state_);  // throws LaunchFault on launchfail
    if (fault_state_.stuck) stuck_wait(kernel);
    if (fault_state_.data_faults()) hooks.faults = &fault_state_;
  }
  if (sanitizer_.active()) hooks.san = sanitizer_.arm(kernel, ctas);
  if (profiler_.active()) hooks.prof = profiler_.arm(kernel);
  const bool armed = hooks.faults != nullptr || hooks.san != nullptr ||
                     hooks.prof != nullptr;
  return armed ? &hooks : nullptr;
}

void Device::publish(const LaunchHooks& hooks, const KernelStats& ks,
                     bool profiled) {
  if (hooks.faults != nullptr) injector_.publish(ks.name, *hooks.faults);
  if (hooks.san != nullptr) sanitizer_.finish_launch(*hooks.san);
  if (hooks.prof != nullptr) {
    profiler_.finish_launch(*hooks.prof, ks, spec_, profiled);
  }
}

void Device::set_watchdog_ms(double ms) {
  ms = checked_watchdog_ms(ms, "Device::set_watchdog_ms");
  std::lock_guard<std::mutex> guard(launch_mu_);
  wd_ms_ = ms;
}

double Device::watchdog_ms_from_env() {
  const char* e = std::getenv("HALFGNN_WATCHDOG_MS");
  if (e == nullptr || *e == '\0') return 0;
  const std::optional<double> ms = util::to_real(e);
  if (!ms) {
    throw std::invalid_argument(
        "HALFGNN_WATCHDOG_MS: expected a number of milliseconds, got '" +
        std::string(e) + "'");
  }
  return checked_watchdog_ms(*ms, "HALFGNN_WATCHDOG_MS");
}

void Device::check_env() {
  (void)FaultConfig::from_env();
  (void)SanitizerConfig::from_env();
  (void)obs::prof::ProfConfig::from_env();
  (void)watchdog_ms_from_env();
  (void)detail::env_threads();
  (void)simd::requested_path();
}

void Device::arm_watchdog() {
  if (wd_ms_ <= 0) return;
  if (!wd_started_) {
    // Lazy start under launch_mu_: a watchdog-free device never pays for
    // the extra thread.
    wd_started_ = true;
    wd_thread_ = std::thread([this] { watchdog_loop(); });
  }
  {
    std::lock_guard<std::mutex> lk(wd_mu_);
    wd_cancel_.store(false, std::memory_order_relaxed);
    wd_armed_ = true;
    ++wd_gen_;  // each arm is distinct: a retry's re-arm must never be
                // mistaken for the arm the loop already reaped
    wd_deadline_ =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(wd_ms_));
  }
  wd_cv_.notify_all();
}

void Device::disarm_watchdog() noexcept {
  if (!wd_started_) return;
  {
    std::lock_guard<std::mutex> lk(wd_mu_);
    wd_armed_ = false;
    wd_cancel_.store(false, std::memory_order_relaxed);
  }
  wd_cv_.notify_all();
}

void Device::watchdog_loop() {
  std::unique_lock<std::mutex> lk(wd_mu_);
  std::uint64_t seen = 0;
  for (;;) {
    wd_cv_.wait(lk, [&] { return wd_stop_ || (wd_armed_ && wd_gen_ != seen); });
    if (wd_stop_) return;
    seen = wd_gen_;
    if (wd_cv_.wait_until(lk, wd_deadline_, [&] {
          return wd_stop_ || !wd_armed_ || wd_gen_ != seen;
        })) {
      if (wd_stop_) return;
      continue;  // disarmed (launch completed) or re-armed with a fresh
                 // deadline before this one expired
    }
    // Deadline passed while this arm is still current: reap. Don't block
    // on the disarm — the launch thread may disarm and immediately re-arm
    // for a guard retry, and a wait keyed on wd_armed_ alone would miss
    // that wakeup and sleep with no deadline. The top-of-loop wait keys on
    // the generation instead, so the next arm always gets through.
    wd_cancel_.store(true, std::memory_order_relaxed);
  }
}

void Device::throw_hang(const std::string& kernel) const {
  const std::uint64_t ord =
      injector_.launches_seen() > 0 ? injector_.launches_seen() - 1 : 0;
  throw LaunchHang(kernel, ord, wd_ms_);
}

void Device::stuck_wait(const std::string& kernel) {
  // Consume the flag: the guard's retry re-arms from the fault config, so
  // a `stuck:every=N` clause hangs the retry only when N divides it too.
  fault_state_.stuck = false;
  arm_watchdog();
  // Block until the watchdog reaps this launch. With no watchdog armed
  // this loops forever — a stuck kernel on real hardware does exactly
  // that; HALFGNN_WATCHDOG_MS is the recovery mechanism, not this loop.
  while (!wd_cancel_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  disarm_watchdog();
  throw_hang(kernel);
}

void Device::set_sanitizer(SanitizerConfig cfg) {
  std::lock_guard<std::mutex> guard(launch_mu_);
  sanitizer_ = Sanitizer(cfg);
}

void Device::set_profiler(obs::prof::ProfConfig cfg) {
  std::lock_guard<std::mutex> guard(launch_mu_);
  profiler_ = obs::prof::Profiler(cfg);
}

bool Device::claim(std::uint64_t gen, int jobs, int& idx) {
  std::uint64_t cur = claim_.load(std::memory_order_acquire);
  for (;;) {
    if ((cur >> 32) != (gen & 0xffffffffu)) return false;
    const auto i = static_cast<int>(cur & 0xffffffffu);
    if (i >= jobs) return false;
    if (claim_.compare_exchange_weak(cur, cur + 1,
                                     std::memory_order_acq_rel)) {
      idx = i;
      return true;
    }
  }
}

void Device::run_claimed(std::uint64_t gen, int jobs,
                         const std::function<void(int)>& fn) {
  int idx = 0;
  while (claim(gen, jobs, idx)) {
    try {
      fn(idx);
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      if (!error_) error_ = std::current_exception();
    }
    bool all_done = false;
    {
      std::lock_guard<std::mutex> lk(mu_);
      all_done = ++done_ == jobs;
    }
    if (all_done) cv_done_.notify_all();
  }
}

void Device::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    std::uint64_t gen = 0;
    int jobs = 0;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_start_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = gen = generation_;
      jobs = jobs_;
    }
    run_claimed(gen, jobs, job_);
  }
}

void Device::run_jobs(int jobs, const std::function<void(int)>& fn) {
  if (jobs <= 0) return;
  if (workers_.empty() || jobs == 1) {
    // Sequential path (HALFGNN_THREADS=1): same chunk/shard structure, no
    // pool — results are identical by construction.
    for (int i = 0; i < jobs; ++i) fn(i);
    return;
  }
  std::uint64_t gen = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    gen = ++generation_;
    job_ = fn;
    jobs_ = jobs;
    done_ = 0;
    error_ = nullptr;
    claim_.store((gen & 0xffffffffu) << 32, std::memory_order_release);
  }
  cv_start_.notify_all();
  run_claimed(gen, jobs, fn);
  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] { return done_ == jobs_; });
    err = error_;
    job_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

void Device::run_host_jobs(int jobs, const std::function<void(int)>& fn) {
  std::lock_guard<std::mutex> guard(launch_mu_);
  run_jobs(jobs, fn);
}

Device& default_device() {
  static Device dev(a100_spec());
  return dev;
}

Stream& default_stream() {
  static Stream stream(default_device());
  return stream;
}

}  // namespace hg::simt
