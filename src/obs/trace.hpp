// Span tracer on the *modeled* SIMT timeline.
//
// The simulator computes each kernel's device time; the tracer strings
// those modeled durations onto a single virtual stream (clock starts at 0,
// advances only via advance_ms), so the exported Chrome trace visualizes
// the simulated A100 execution — not host wall clock. Spans nest
// run -> epoch -> layer -> kernel through a LIFO stack; each span carries
// key/value annotations (dispatch decisions, counters, losses).
//
// Disabled (the default) the whole layer is a relaxed atomic load per call
// site — zero allocations, zero behavior change. Enable explicitly via
// tracer().set_enabled(true) or init_from_env() (HALFGNN_TRACE=<path>).
//
// Export is Chrome trace-event JSON ("X" complete events, ts/dur in
// microseconds), loadable in chrome://tracing and Perfetto.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace hg::obs {

// One span/instant annotation. Numbers stay numbers in the JSON output.
struct TraceArg {
  TraceArg() = default;
  TraceArg(std::string k, double v)
      : key(std::move(k)), is_num(true), num(v) {}
  TraceArg(std::string k, std::int64_t v)
      : key(std::move(k)), is_num(true), num(static_cast<double>(v)) {}
  TraceArg(std::string k, std::uint64_t v)
      : key(std::move(k)), is_num(true), num(static_cast<double>(v)) {}
  TraceArg(std::string k, int v)
      : key(std::move(k)), is_num(true), num(v) {}
  TraceArg(std::string k, std::string v)
      : key(std::move(k)), str(std::move(v)) {}
  TraceArg(std::string k, const char* v) : key(std::move(k)), str(v) {}

  std::string key;
  bool is_num = false;
  double num = 0;
  std::string str;

  template <class Ar>
  void fields(Ar& ar) {
    ar(key, is_num, num, str);
  }
};

class Tracer {
 public:
  static Tracer& instance();

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  // Drops all events and open spans and rewinds the modeled clock to 0.
  void reset();

  // --- modeled clock -------------------------------------------------------
  double now_ms() const;
  void advance_ms(double ms);

  // --- events --------------------------------------------------------------
  // Token-based span API (the RAII Span below is the normal entry point).
  // Tokens are unique per open span; closing a non-top span closes the
  // children above it first (defensive — spans are expected to be LIFO).
  std::uint64_t open_span(std::string name, std::string cat);
  void span_arg(std::uint64_t token, TraceArg arg);
  void close_span(std::uint64_t token);

  // Zero-duration marker (Chrome "instant" event) at the current clock.
  void instant(std::string name, std::string cat,
               std::initializer_list<TraceArg> args);

  std::size_t event_count() const;

  // Token of the innermost open span (0 when none). A resumed training run
  // uses this to adopt the restored run-level span instead of opening a
  // duplicate.
  std::uint64_t top_open_token() const;

  // --- checkpoint state ------------------------------------------------------
  // Full tracer image (fields() below: clock, token/seq allocators,
  // open-span stack, completed events) as an opaque ckpt byte stream. The
  // enabled flag is process configuration and is deliberately not
  // captured. load_state() replaces everything reset() would clear, so
  // restoring on a fresh process reproduces the exact trace a continuous
  // run would emit. It throws std::runtime_error on a malformed image, one
  // with bytes left over included.
  std::string save_state() const;
  void load_state(const std::string& blob);

  // --- export --------------------------------------------------------------
  Json chrome_trace_json() const;
  // Writes chrome_trace_json() to `path`; false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;
  // perf-style folded stacks ("run;epoch;kernel <self-us>", one line per
  // path, deterministic order) over the same spans — feed to any standard
  // flamegraph renderer. Self time is modeled microseconds.
  std::string collapsed_stacks() const;
  // Writes collapsed_stacks() to `path`; false on I/O failure.
  bool write_collapsed(const std::string& path) const;

 private:
  struct Event {
    std::string name;
    std::string cat;
    double ts_ms = 0;
    double dur_ms = 0;
    bool instant = false;
    std::uint64_t seq = 0;
    std::vector<TraceArg> args;

    template <class Ar>
    void fields(Ar& ar) {
      ar(name, cat, ts_ms, dur_ms, instant, seq, args);
    }
  };
  struct OpenSpan {
    std::uint64_t token = 0;
    std::string name;
    std::string cat;
    double start_ms = 0;
    std::uint64_t seq = 0;
    std::vector<TraceArg> args;

    template <class Ar>
    void fields(Ar& ar) {
      ar(token, name, cat, start_ms, seq, args);
    }
  };
  // The checkpoint image: everything reset() clears.
  template <class Ar>
  void fields(Ar& ar) {
    ar(clock_ms_, next_token_, next_seq_, stack_, done_);
  }

  void close_top_locked();

  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  double clock_ms_ = 0;
  std::uint64_t next_token_ = 1;
  std::uint64_t next_seq_ = 0;
  std::vector<OpenSpan> stack_;
  std::vector<Event> done_;
};

inline Tracer& tracer() { return Tracer::instance(); }

// RAII scoped span; inert when tracing is disabled at construction.
class Span {
 public:
  // Tag type: wrap an already-open span (restored from a checkpoint)
  // instead of opening a new one; the Span closes it on destruction.
  struct AdoptSpan {};

  explicit Span(std::string name, std::string cat = "phase") {
    if (tracer().enabled()) {
      token_ = tracer().open_span(std::move(name), std::move(cat));
    }
  }
  Span(AdoptSpan, std::uint64_t token) : token_(token) {}
  ~Span() {
    if (token_ != 0) tracer().close_span(token_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void arg(std::string key, double v) {
    if (token_ != 0) tracer().span_arg(token_, {std::move(key), v});
  }
  void arg(std::string key, std::int64_t v) {
    if (token_ != 0) tracer().span_arg(token_, {std::move(key), v});
  }
  void arg(std::string key, std::string v) {
    if (token_ != 0) {
      tracer().span_arg(token_, {std::move(key), std::move(v)});
    }
  }

 private:
  std::uint64_t token_ = 0;
};

// Records one already-costed operation as a complete span: opens it at the
// current modeled time, advances the clock by `dur_ms`, closes it. This is
// how kernels and dense roofline ops land on the timeline.
void trace_complete(std::string name, std::string cat, double dur_ms,
                    std::initializer_list<TraceArg> args);

// Dispatch decision marker: which kernel variant an op resolved to and why
// (mode, AMP promotion, vector width). Emits an instant event and bumps the
// "dispatch.<op>.<kernel>" registry counter.
void dispatch_decision(const std::string& op, const std::string& kernel,
                       const std::string& why);

// Reads HALFGNN_TRACE / HALFGNN_METRICS / HALFGNN_FLAME and enables the
// tracer/registry accordingly (a flamegraph needs spans, so HALFGNN_FLAME
// also enables the tracer); returns the configured output paths (empty when
// unset). Call write_configured_outputs() at exit to flush them.
struct EnvConfig {
  std::string trace_path;
  std::string metrics_path;
  std::string flame_path;
};
EnvConfig init_from_env();
// Per-output success flags: an unset path counts as ok (nothing to write).
struct WriteStatus {
  bool trace_ok = true;
  bool metrics_ok = true;
  bool flame_ok = true;
};
WriteStatus write_configured_outputs(const EnvConfig& cfg);

#define HG_OBS_CAT2(a, b) a##b
#define HG_OBS_CAT(a, b) HG_OBS_CAT2(a, b)
// Scoped span: HG_TRACE_SCOPE("name") or HG_TRACE_SCOPE("name", "category").
#define HG_TRACE_SCOPE(...) \
  ::hg::obs::Span HG_OBS_CAT(hg_trace_scope_, __LINE__) { __VA_ARGS__ }

}  // namespace hg::obs
