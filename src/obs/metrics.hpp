// Metrics registry: named counters / gauges / histograms plus per-kernel
// counter aggregation, with per-epoch snapshots and a stable JSON schema
// ("halfgnn-metrics-v1").
//
// Publishers: simt::launch (KernelStats per launch), CostLedger (dense
// roofline charges), the AMP GradScaler (scale value, skipped steps), the
// trainer (losses, accuracies, memory meter), and the sparse dispatcher
// (decision counts). Like the tracer, the registry is disabled by default
// and every publish site early-outs on a relaxed atomic — enabling it
// never changes numerics, only records them.
//
// Determinism: all maps are ordered (std::map) and numbers are formatted
// by obs::Json, so two identical runs produce byte-identical JSON.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace hg::obs {

class Registry {
 public:
  static Registry& instance();

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  void reset();

  // --- scalar metrics ------------------------------------------------------
  void add_counter(const std::string& name, double v = 1.0);
  void set_gauge(const std::string& name, double v);
  void observe(const std::string& name, double v);  // histogram sample

  double counter_value(const std::string& name) const;
  // Interpolated quantile estimate (q in [0,1]) from the decade buckets:
  // log-interpolated inside the bucket holding the target rank, clamped to
  // the observed [min, max]. NaN for an unknown/empty histogram. The JSON
  // export carries p50/p95/p99 computed the same way.
  double histogram_quantile(const std::string& name, double q) const;

  // --- per-kernel counter aggregation --------------------------------------
  // Accumulates named counters for one kernel launch (launch count +1).
  void publish_kernel(
      const std::string& kernel,
      std::initializer_list<std::pair<const char*, double>> counters);

  struct KernelEntry {
    std::uint64_t launches = 0;
    std::map<std::string, double> sums;

    template <class Ar>
    void fields(Ar& ar) {
      ar(launches, sums);
    }
  };
  // Copy (for tests / reports); keyed by kernel name.
  std::map<std::string, KernelEntry> kernels() const;

  // --- epoch snapshots ------------------------------------------------------
  // Records the current counter/gauge values under this epoch index.
  void snapshot_epoch(int epoch);

  // --- export ---------------------------------------------------------------
  Json to_json() const;
  bool write_json(const std::string& path) const;

  // --- checkpoint state ------------------------------------------------------
  // Full registry image (fields() below) as an opaque ckpt byte stream;
  // the enabled flag is process configuration and is not captured.
  // load_state() replaces everything reset() would clear, so a resumed
  // run's metrics JSON is byte-identical to the uninterrupted run's. It
  // throws std::runtime_error on a malformed image, one with bytes left
  // over included.
  std::string save_state() const;
  void load_state(const std::string& blob);

 private:
  struct Histogram {
    std::uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
    // Decade buckets: le 1e-6, 1e-5, ..., 1e9, +inf overflow.
    static constexpr int kBuckets = 16;
    std::uint64_t bucket[kBuckets + 1] = {};

    template <class Ar>
    void fields(Ar& ar) {
      ar(count, sum, min, max, bucket);
    }
  };
  static double quantile_of(const Histogram& h, double q);
  struct Snapshot {
    int epoch = 0;
    std::map<std::string, double> counters;
    std::map<std::string, double> gauges;

    template <class Ar>
    void fields(Ar& ar) {
      ar(epoch, counters, gauges);
    }
  };
  // The checkpoint image: everything reset() clears.
  template <class Ar>
  void fields(Ar& ar) {
    ar(counters_, gauges_, histograms_, kernels_, snapshots_);
  }

  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  std::map<std::string, double> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, KernelEntry> kernels_;
  std::vector<Snapshot> snapshots_;
};

inline Registry& registry() { return Registry::instance(); }

}  // namespace hg::obs
