#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "ckpt/serial.hpp"

namespace hg::obs {

namespace {

double bucket_bound(int i) {
  // 1e-6, 1e-5, ..., 1e9.
  return std::pow(10.0, i - 6);
}

}  // namespace

Registry& Registry::instance() {
  static Registry r;
  return r;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  kernels_.clear();
  snapshots_.clear();
}

void Registry::add_counter(const std::string& name, double v) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lk(mu_);
  counters_[name] += v;
}

void Registry::set_gauge(const std::string& name, double v) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lk(mu_);
  gauges_[name] = v;
}

void Registry::observe(const std::string& name, double v) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lk(mu_);
  Histogram& h = histograms_[name];
  if (h.count == 0) {
    h.min = h.max = v;
  } else {
    h.min = std::min(h.min, v);
    h.max = std::max(h.max, v);
  }
  ++h.count;
  h.sum += v;
  int b = 0;
  while (b < Histogram::kBuckets && v > bucket_bound(b)) ++b;
  ++h.bucket[b];
}

void Registry::publish_kernel(
    const std::string& kernel,
    std::initializer_list<std::pair<const char*, double>> counters) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lk(mu_);
  KernelEntry& e = kernels_[kernel];
  ++e.launches;
  for (const auto& kv : counters) e.sums[kv.first] += kv.second;
}

double Registry::counter_value(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

double Registry::quantile_of(const Histogram& h, double q) {
  if (h.count == 0) return std::numeric_limits<double>::quiet_NaN();
  if (q <= 0.0) return h.min;
  if (q >= 1.0) return h.max;
  // Rank the q-th value would have in the sorted sample, then locate the
  // bucket containing it.
  const double rank = q * static_cast<double>(h.count);
  double before = 0;
  for (int b = 0; b <= Histogram::kBuckets; ++b) {
    const auto n = static_cast<double>(h.bucket[b]);
    if (n == 0) continue;
    if (before + n < rank) {
      before += n;
      continue;
    }
    // Bucket b spans (bound(b-1), bound(b)]; the edge buckets borrow their
    // open ends from the observed extremes.
    double lo = b > 0 ? bucket_bound(b - 1) : h.min;
    double hi = b < Histogram::kBuckets ? bucket_bound(b) : h.max;
    lo = std::clamp(lo, h.min, h.max);
    hi = std::clamp(hi, h.min, h.max);
    const double frac = (rank - before) / n;
    double v = 0;
    if (lo > 0 && hi > 0) {
      // Decade buckets are geometric: interpolate in log space.
      v = std::exp(std::log(lo) + frac * (std::log(hi) - std::log(lo)));
    } else {
      v = lo + frac * (hi - lo);
    }
    return std::clamp(v, h.min, h.max);
  }
  return h.max;
}

double Registry::histogram_quantile(const std::string& name, double q) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return quantile_of(it->second, q);
}

std::map<std::string, Registry::KernelEntry> Registry::kernels() const {
  std::lock_guard<std::mutex> lk(mu_);
  return kernels_;
}

void Registry::snapshot_epoch(int epoch) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lk(mu_);
  Snapshot s;
  s.epoch = epoch;
  s.counters = counters_;
  s.gauges = gauges_;
  snapshots_.push_back(std::move(s));
}

Json Registry::to_json() const {
  std::lock_guard<std::mutex> lk(mu_);
  Json doc = Json::object();
  doc.set("schema", "halfgnn-metrics-v1");

  Json counters = Json::object();
  for (const auto& kv : counters_) counters.set(kv.first, kv.second);
  doc.set("counters", std::move(counters));

  Json gauges = Json::object();
  for (const auto& kv : gauges_) gauges.set(kv.first, kv.second);
  doc.set("gauges", std::move(gauges));

  Json hists = Json::object();
  for (const auto& kv : histograms_) {
    const Histogram& h = kv.second;
    Json jh = Json::object();
    jh.set("count", h.count);
    jh.set("sum", h.sum);
    jh.set("min", h.min);
    jh.set("max", h.max);
    jh.set("p50", quantile_of(h, 0.50));
    jh.set("p95", quantile_of(h, 0.95));
    jh.set("p99", quantile_of(h, 0.99));
    Json buckets = Json::array();
    for (int b = 0; b <= Histogram::kBuckets; ++b) {
      if (h.bucket[b] == 0) continue;
      Json jb = Json::object();
      if (b < Histogram::kBuckets) {
        jb.set("le", bucket_bound(b));
      } else {
        jb.set("le", "inf");
      }
      jb.set("count", h.bucket[b]);
      buckets.push(std::move(jb));
    }
    jh.set("buckets", std::move(buckets));
    hists.set(kv.first, std::move(jh));
  }
  doc.set("histograms", std::move(hists));

  Json kernels = Json::object();
  for (const auto& kv : kernels_) {
    const KernelEntry& e = kv.second;
    Json jk = Json::object();
    jk.set("launches", e.launches);
    for (const auto& c : e.sums) jk.set(c.first, c.second);
    // Aggregate utilizations: raw numerators over raw capacities, the same
    // rule KernelStats::operator+= uses (see simt/stats.cpp).
    const auto sum_of = [&](const char* k) {
      const auto it = e.sums.find(k);
      return it == e.sums.end() ? 0.0 : it->second;
    };
    const double bw_cap = sum_of("bw_cap_bytes");
    if (bw_cap > 0) {
      jk.set("bw_utilization", sum_of("bytes_moved") / bw_cap);
    }
    const double sm_cap = sum_of("sm_cap_cycles");
    if (sm_cap > 0) {
      jk.set("sm_utilization",
             std::min(1.0, (sum_of("issue_cycles") + sum_of("mem_cycles") -
                            sum_of("atomic_wait_cycles")) /
                               sm_cap));
    }
    kernels.set(kv.first, std::move(jk));
  }
  doc.set("kernels", std::move(kernels));

  Json epochs = Json::array();
  for (const auto& s : snapshots_) {
    Json js = Json::object();
    js.set("epoch", s.epoch);
    Json jc = Json::object();
    for (const auto& kv : s.counters) jc.set(kv.first, kv.second);
    js.set("counters", std::move(jc));
    Json jg = Json::object();
    for (const auto& kv : s.gauges) jg.set(kv.first, kv.second);
    js.set("gauges", std::move(jg));
    epochs.push(std::move(js));
  }
  doc.set("epochs", std::move(epochs));
  return doc;
}

bool Registry::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << to_json().dump(1) << '\n';
  return static_cast<bool>(f);
}

std::string Registry::save_state() const {
  std::lock_guard<std::mutex> lk(mu_);
  ckpt::Writer w;
  const_cast<Registry*>(this)->fields(w);  // the Writer only reads
  return w.take();
}

void Registry::load_state(const std::string& blob) {
  ckpt::Reader r(blob);
  std::lock_guard<std::mutex> lk(mu_);
  fields(r);
  if (!r.done()) throw std::runtime_error("ckpt: trailing bytes after image");
}

}  // namespace hg::obs
