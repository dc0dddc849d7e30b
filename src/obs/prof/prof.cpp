#include "obs/prof/prof.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace hg::obs::prof {

namespace {

int clamp_exp(int e) noexcept {
  return std::clamp(e, ExpHist::kMinExp, ExpHist::kMaxExp);
}

}  // namespace

// ---------------------------------------------------------------------------
// ProfConfig
// ---------------------------------------------------------------------------

ProfConfig ProfConfig::parse(std::string_view spec) {
  return {util::parse_flags(spec, kProfTokens, kEnv, "analyzer")};
}

ProfConfig ProfConfig::from_env() {
  if (const char* e = std::getenv(kEnv)) {
    return parse(e);
  }
  return ProfConfig{};
}

// ---------------------------------------------------------------------------
// ExpHist
// ---------------------------------------------------------------------------

void ExpHist::add_half_bits(std::uint16_t bits) noexcept {
  ++total;
  const unsigned e = (bits >> 10) & 0x1F;
  const unsigned man = bits & 0x3FF;
  if (e == 0x1F) {
    if (man == 0) {
      ++overflows;  // at a half store site ±Inf IS the overflow event
    } else {
      ++nans;
    }
    return;
  }
  int exponent = 0;
  if (e == 0) {
    if (man == 0) {
      ++zeros;
      return;
    }
    ++subnormals;
    // Value is man * 2^-24; its leading bit fixes floor(log2).
    exponent = (std::bit_width(man) - 1) - 24;
  } else {
    exponent = static_cast<int>(e) - 15;
  }
  ++bins[exponent - kMinExp];
}

void ExpHist::add_float(float v) noexcept {
  ++total;
  switch (std::fpclassify(v)) {
    case FP_NAN:
      ++nans;
      return;
    case FP_INFINITE:
      ++overflows;
      return;
    case FP_ZERO:
      ++zeros;
      return;
    case FP_SUBNORMAL:
      ++subnormals;
      break;
    default:
      break;
  }
  // ilogb = floor(log2|v|), exact for normals and subnormals alike; f32
  // exponents beyond the table clamp into the edge bins.
  ++bins[clamp_exp(std::ilogb(v)) - kMinExp];
}

void ExpHist::merge(const ExpHist& o) noexcept {
  for (int i = 0; i < kBins; ++i) bins[i] += o.bins[i];
  zeros += o.zeros;
  subnormals += o.subnormals;
  overflows += o.overflows;
  nans += o.nans;
  total += o.total;
}

Json ExpHist::to_json() const {
  Json j = Json::object();
  j.set("total", total);
  j.set("zeros", zeros);
  j.set("subnormals", subnormals);
  j.set("overflows", overflows);
  j.set("nans", nans);
  Json b = Json::object();  // sparse, ascending exponent => deterministic
  for (int i = 0; i < kBins; ++i) {
    if (bins[i] != 0) b.set(std::to_string(kMinExp + i), bins[i]);
  }
  j.set("exp2_bins", std::move(b));
  return j;
}

namespace detail {

void AtomicExpHist::reset() noexcept {
  for (auto& b : bins) b.store(0, std::memory_order_relaxed);
  zeros.store(0, std::memory_order_relaxed);
  subnormals.store(0, std::memory_order_relaxed);
  overflows.store(0, std::memory_order_relaxed);
  nans.store(0, std::memory_order_relaxed);
  total.store(0, std::memory_order_relaxed);
}

void AtomicExpHist::merge_from(const ExpHist& h) noexcept {
  for (int i = 0; i < ExpHist::kBins; ++i) {
    if (h.bins[i] != 0) bins[i].fetch_add(h.bins[i], std::memory_order_relaxed);
  }
  if (h.zeros != 0) zeros.fetch_add(h.zeros, std::memory_order_relaxed);
  if (h.subnormals != 0) {
    subnormals.fetch_add(h.subnormals, std::memory_order_relaxed);
  }
  if (h.overflows != 0) {
    overflows.fetch_add(h.overflows, std::memory_order_relaxed);
  }
  if (h.nans != 0) nans.fetch_add(h.nans, std::memory_order_relaxed);
  total.fetch_add(h.total, std::memory_order_relaxed);
}

ExpHist AtomicExpHist::snapshot() const noexcept {
  ExpHist h;
  for (int i = 0; i < ExpHist::kBins; ++i) {
    h.bins[i] = bins[i].load(std::memory_order_relaxed);
  }
  h.zeros = zeros.load(std::memory_order_relaxed);
  h.subnormals = subnormals.load(std::memory_order_relaxed);
  h.overflows = overflows.load(std::memory_order_relaxed);
  h.nans = nans.load(std::memory_order_relaxed);
  h.total = total.load(std::memory_order_relaxed);
  return h;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Bottleneck classification
// ---------------------------------------------------------------------------

std::string classify_bottleneck(double bw_utilization, double sm_utilization,
                                double atomic_wait_cycles,
                                double busy_cycles) {
  // Thresholds documented in DESIGN.md Sec. 11. Atomic serialization wins
  // first: a kernel can be far from both roofs yet dominated by CAS loops
  // (the paper's fp16 atomic penalty, Sec. 3.1.1).
  if (busy_cycles > 0 && atomic_wait_cycles >= 0.4 * busy_cycles) {
    return "atomic-bound";
  }
  if (bw_utilization >= 0.5 && bw_utilization >= sm_utilization) {
    return "memory-bound";
  }
  if (sm_utilization >= 0.5) return "compute-bound";
  return "latency-bound";
}

// ---------------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------------

Profiler::Profiler(Profiler&& o) noexcept { *this = std::move(o); }

Profiler& Profiler::operator=(Profiler&& o) noexcept {
  if (this == &o) return *this;
  cfg_ = o.cfg_;
  ordinal_ = o.ordinal_;
  roofline_ = std::move(o.roofline_);
  kernel_numerics_ = std::move(o.kernel_numerics_);
  tensors_ = std::move(o.tensors_);
  loss_scale_ = std::move(o.loss_scale_);
  audits_ = std::move(o.audits_);
  epoch_ = o.epoch_;
  return *this;
}

detail::LaunchProfState* Profiler::arm(const std::string& kernel) {
  if (!cfg_.active()) return nullptr;
  state_.analyzers = cfg_.analyzers;
  state_.kernel = kernel;
  state_.ordinal = ordinal_++;
  state_.stores.reset();
  return &state_;
}

void Profiler::finish_launch(detail::LaunchProfState& st,
                             const simt::KernelStats& ks,
                             const simt::DeviceSpec& spec, bool profiled) {
  if (cfg_.roofline()) {
    RooflineAgg& agg = roofline_[ks.name];
    if (!profiled) {
      // Training-mode launches carry no counters; count them so the report
      // is honest about coverage.
      ++agg.unprofiled_launches;
    } else {
      ++agg.launches;
      agg.lane_ops += static_cast<double>(ks.lane_ops);
      agg.bytes_moved += static_cast<double>(ks.bytes_moved);
      agg.useful_bytes += static_cast<double>(ks.useful_bytes);
      agg.atomic_instrs += static_cast<double>(ks.atomic_instrs);
      agg.atomic_serialized += static_cast<double>(ks.atomic_serialized);
      agg.cta_barriers += static_cast<double>(ks.cta_barriers);
      agg.issue_cycles += ks.issue_cycles;
      agg.mem_cycles += ks.mem_cycles;
      agg.stall_cycles += ks.stall_cycles;
      agg.atomic_wait_cycles += ks.atomic_wait_cycles;
      agg.device_cycles += ks.device_cycles;
      agg.modeled_ms += ks.time_ms;
      agg.bw_cap_bytes += ks.bw_cap_bytes;
      agg.sm_cap_cycles += ks.sm_cap_cycles;
      ++agg.bottlenecks[classify_bottleneck(
          ks.bw_utilization, ks.sm_utilization, ks.atomic_wait_cycles,
          ks.issue_cycles + ks.mem_cycles)];
    }
  }
  if (st.numerics()) {
    const ExpHist h = st.stores.snapshot();
    if (h.total != 0) kernel_numerics_[ks.name].merge(h);
  }
  (void)spec;
}

void Profiler::begin_epoch(int epoch) {
  if (!cfg_.numerics()) return;
  epoch_ = epoch;
}

void Profiler::sample_tensor(const std::string& name,
                             std::span<const half_t> vals) {
  if (!cfg_.numerics()) return;
  ExpHist& h = tensors_[name].by_epoch[epoch_];
  for (const half_t v : vals) h.add_half_bits(v.bits());
}

void Profiler::sample_tensor(const std::string& name,
                             std::span<const float> vals) {
  if (!cfg_.numerics()) return;
  ExpHist& h = tensors_[name].by_epoch[epoch_];
  for (const float v : vals) h.add_float(v);
}

void Profiler::sample_tensor(const std::string& name,
                             std::span<const bf16_t> vals) {
  if (!cfg_.numerics()) return;
  ExpHist& h = tensors_[name].by_epoch[epoch_];
  for (const bf16_t v : vals) h.add_float(v.to_float());
}

void Profiler::note_loss_scale(float scale) {
  if (!cfg_.numerics()) return;
  loss_scale_.emplace_back(epoch_, scale);
}

void Profiler::audit(std::string event, std::string site,
                     std::string signal) {
  if (!cfg_.numerics()) return;
  AuditRecord r;
  r.seq = audits_.size();
  r.epoch = epoch_;
  r.event = std::move(event);
  r.site = std::move(site);
  r.signal = std::move(signal);
  audits_.push_back(std::move(r));
}

Json Profiler::report_json() const {
  Json doc = Json::object();
  doc.set("schema", "halfgnn-prof-v1");
  Json analyzers = Json::array();
  if (cfg_.roofline()) analyzers.push(Json("roofline"));
  if (cfg_.numerics()) analyzers.push(Json("numerics"));
  doc.set("analyzers", std::move(analyzers));
  doc.set("launches", ordinal_);

  const simt::DeviceSpec& spec = simt::a100_spec();
  // Packed-half2 peak: every SM issues one warp ALU instruction per cycle
  // at 2 lane-ops per lane.
  const double peak_flops = static_cast<double>(spec.num_sms) *
                            spec.warp_size * 2.0 * spec.clock_ghz * 1e9;
  const double peak_bw = spec.peak_bw_gbps * 1e9;
  Json dev = Json::object();
  dev.set("num_sms", spec.num_sms);
  dev.set("warp_size", spec.warp_size);
  dev.set("clock_ghz", spec.clock_ghz);
  dev.set("peak_bw_gbps", spec.peak_bw_gbps);
  dev.set("peak_half2_lane_ops_per_s", peak_flops);
  dev.set("ridge_ai", peak_flops / peak_bw);
  doc.set("device", std::move(dev));

  if (cfg_.roofline()) {
    Json roof = Json::object();
    for (const auto& [name, agg] : roofline_) {
      Json k = Json::object();
      k.set("launches", agg.launches);
      k.set("unprofiled_launches", agg.unprofiled_launches);
      if (agg.launches > 0) {
        const double ai =
            agg.bytes_moved > 0 ? agg.lane_ops / agg.bytes_moved : 0.0;
        const double attainable =
            std::min(peak_flops, ai * peak_bw);
        const double achieved =
            agg.modeled_ms > 0 ? agg.lane_ops / (agg.modeled_ms * 1e-3) : 0.0;
        k.set("lane_ops", agg.lane_ops);
        k.set("bytes_moved", agg.bytes_moved);
        k.set("useful_bytes", agg.useful_bytes);
        k.set("arithmetic_intensity", ai);
        k.set("achieved_lane_ops_per_s", achieved);
        k.set("attainable_lane_ops_per_s", attainable);
        k.set("roofline_pct", attainable > 0 ? achieved / attainable : 0.0);
        k.set("bw_utilization",
              agg.bw_cap_bytes > 0 ? agg.bytes_moved / agg.bw_cap_bytes : 0.0);
        k.set("sm_utilization", agg.sm_cap_cycles > 0
                                    ? agg.issue_cycles / agg.sm_cap_cycles
                                    : 0.0);
        k.set("atomic_instrs", agg.atomic_instrs);
        k.set("atomic_serialized", agg.atomic_serialized);
        k.set("cta_barriers", agg.cta_barriers);
        k.set("atomic_wait_cycles", agg.atomic_wait_cycles);
        k.set("stall_cycles", agg.stall_cycles);
        k.set("device_cycles", agg.device_cycles);
        k.set("modeled_ms", agg.modeled_ms);
        // Majority vote across launches; ties resolve to the first name in
        // map (alphabetical) order — deterministic.
        const std::string* best = nullptr;
        std::uint64_t best_n = 0;
        Json votes = Json::object();
        for (const auto& [cls, n] : agg.bottlenecks) {
          votes.set(cls, n);
          if (n > best_n) {
            best = &cls;
            best_n = n;
          }
        }
        k.set("bottleneck", best != nullptr ? Json(*best) : Json());
        k.set("bottleneck_votes", std::move(votes));
      }
      roof.set(name, std::move(k));
    }
    doc.set("roofline", std::move(roof));
  }

  if (cfg_.numerics()) {
    Json num = Json::object();
    Json stores = Json::object();
    for (const auto& [name, h] : kernel_numerics_) {
      stores.set(name, h.to_json());
    }
    num.set("kernel_stores", std::move(stores));
    Json tensors = Json::object();
    for (const auto& [name, series] : tensors_) {
      Json by_epoch = Json::object();
      for (const auto& [epoch, h] : series.by_epoch) {
        by_epoch.set(std::to_string(epoch), h.to_json());
      }
      tensors.set(name, std::move(by_epoch));
    }
    num.set("tensors", std::move(tensors));
    Json scale = Json::array();
    for (const auto& [epoch, s] : loss_scale_) {
      Json pt = Json::object();
      pt.set("epoch", epoch);
      pt.set("scale", static_cast<double>(s));
      scale.push(std::move(pt));
    }
    num.set("loss_scale", std::move(scale));
    Json audits = Json::array();
    for (const AuditRecord& r : audits_) {
      Json a = Json::object();
      a.set("seq", r.seq);
      a.set("epoch", r.epoch);
      a.set("event", r.event);
      a.set("site", r.site);
      a.set("signal", r.signal);
      audits.push(std::move(a));
    }
    num.set("audits", std::move(audits));
    doc.set("numerics", std::move(num));
  }
  return doc;
}

bool Profiler::write_report(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::string text = report_json().dump(1) + "\n";
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

std::map<std::string, ExpHist> Profiler::tensor_numerics_merged() const {
  std::map<std::string, ExpHist> out;
  for (const auto& [name, series] : tensors_) {
    ExpHist merged;
    for (const auto& [epoch, h] : series.by_epoch) merged.merge(h);
    if (merged.total != 0) out[name] = merged;
  }
  return out;
}

void Profiler::clear() {
  roofline_.clear();
  kernel_numerics_.clear();
  tensors_.clear();
  loss_scale_.clear();
  audits_.clear();
  epoch_ = -1;
}

// ---------------------------------------------------------------------------
// Collapsed-stack flamegraph
// ---------------------------------------------------------------------------

std::string collapsed_stacks_from_trace(const Json& chrome_trace) {
  const Json* events = chrome_trace.find("traceEvents");
  if (events == nullptr || !events->is_array()) return {};

  struct Ev {
    std::string name;
    double ts = 0;
    double dur = 0;
    double seq = 0;
  };
  std::vector<Ev> evs;
  for (const Json& e : events->items()) {
    const Json* ph = e.find("ph");
    if (ph == nullptr || ph->as_string() != "X") continue;
    Ev ev;
    ev.name = e.find("name")->as_string();
    ev.ts = e.find("ts")->as_double();
    ev.dur = e.find("dur")->as_double();
    if (const Json* args = e.find("args")) {
      if (const Json* seq = args->find("seq")) ev.seq = seq->as_double();
    }
    evs.push_back(std::move(ev));
  }
  // Chrome-trace span order (the tracer's own sort): parents before their
  // children, so a simple stack walk reconstructs nesting.
  std::stable_sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    if (a.dur != b.dur) return a.dur > b.dur;
    return a.seq < b.seq;
  });

  struct Frame {
    std::string path;
    double end = 0;
    double self = 0;  // dur minus children, in trace microseconds
  };
  std::map<std::string, double> folded;  // path -> self us (map: stable order)
  std::vector<Frame> stack;
  const auto fold_top = [&] {
    folded[stack.back().path] += std::max(0.0, stack.back().self);
    stack.pop_back();
  };
  for (const Ev& ev : evs) {
    while (!stack.empty() && ev.ts >= stack.back().end - 1e-9) fold_top();
    Frame f;
    f.path = stack.empty() ? ev.name : stack.back().path + ";" + ev.name;
    f.end = ev.ts + ev.dur;
    f.self = ev.dur;
    if (!stack.empty()) stack.back().self -= ev.dur;
    stack.push_back(std::move(f));
  }
  while (!stack.empty()) fold_top();

  // perf-style folded lines with integer sample counts (microseconds on the
  // modeled clock — deterministic, so the file is byte-stable).
  std::string out;
  for (const auto& [path, self_us] : folded) {
    const long long n = std::llround(self_us);
    if (n <= 0) continue;
    out += path;
    out.push_back(' ');
    out += std::to_string(n);
    out.push_back('\n');
  }
  return out;
}

// ---------------------------------------------------------------------------
// Schema validation
// ---------------------------------------------------------------------------

std::string validate_prof_report(const Json& doc) {
  if (!doc.is_object()) return "prof report: root is not an object";
  const Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "halfgnn-prof-v1") {
    return "prof report: schema != halfgnn-prof-v1";
  }
  const Json* analyzers = doc.find("analyzers");
  if (analyzers == nullptr || !analyzers->is_array()) {
    return "prof report: missing analyzers array";
  }
  bool has_roofline = false, has_numerics = false;
  for (const Json& a : analyzers->items()) {
    if (!a.is_string()) return "prof report: non-string analyzer";
    if (a.as_string() == "roofline") has_roofline = true;
    else if (a.as_string() == "numerics") has_numerics = true;
    else return "prof report: unknown analyzer '" + a.as_string() + "'";
  }
  const Json* launches = doc.find("launches");
  if (launches == nullptr || !launches->is_number()) {
    return "prof report: missing launches count";
  }
  const Json* dev = doc.find("device");
  if (dev == nullptr || !dev->is_object()) {
    return "prof report: missing device object";
  }
  for (const char* key :
       {"num_sms", "clock_ghz", "peak_bw_gbps", "ridge_ai"}) {
    const Json* v = dev->find(key);
    if (v == nullptr || !v->is_number()) {
      return std::string("prof report: device.") + key + " missing";
    }
  }

  const Json* roof = doc.find("roofline");
  if (has_roofline != (roof != nullptr)) {
    return "prof report: roofline section inconsistent with analyzers";
  }
  if (roof != nullptr) {
    if (!roof->is_object()) return "prof report: roofline is not an object";
    for (const auto& [name, k] : roof->members()) {
      if (!k.is_object()) {
        return "prof report: roofline entry '" + name + "' not an object";
      }
      const Json* l = k.find("launches");
      if (l == nullptr || !l->is_number()) {
        return "prof report: roofline entry '" + name + "' missing launches";
      }
      if (l->as_double() > 0) {
        for (const char* key : {"arithmetic_intensity", "roofline_pct",
                                "bw_utilization", "sm_utilization"}) {
          const Json* v = k.find(key);
          if (v == nullptr || !v->is_number()) {
            return "prof report: roofline entry '" + name + "' missing " +
                   key;
          }
        }
        const Json* b = k.find("bottleneck");
        if (b == nullptr || !b->is_string()) {
          return "prof report: roofline entry '" + name +
                 "' missing bottleneck class";
        }
        const std::string& cls = b->as_string();
        if (cls != "memory-bound" && cls != "compute-bound" &&
            cls != "latency-bound" && cls != "atomic-bound") {
          return "prof report: unknown bottleneck class '" + cls + "'";
        }
      }
    }
  }

  const Json* num = doc.find("numerics");
  if (has_numerics != (num != nullptr)) {
    return "prof report: numerics section inconsistent with analyzers";
  }
  if (num != nullptr) {
    if (!num->is_object()) return "prof report: numerics is not an object";
    for (const char* key : {"kernel_stores", "tensors"}) {
      const Json* v = num->find(key);
      if (v == nullptr || !v->is_object()) {
        return std::string("prof report: numerics.") + key + " missing";
      }
    }
    for (const char* key : {"loss_scale", "audits"}) {
      const Json* v = num->find(key);
      if (v == nullptr || !v->is_array()) {
        return std::string("prof report: numerics.") + key + " missing";
      }
    }
    for (const Json& a : num->find("audits")->items()) {
      for (const char* key : {"event", "signal"}) {
        const Json* v = a.find(key);
        if (v == nullptr || !v->is_string()) {
          return std::string("prof report: audit record missing ") + key;
        }
      }
    }
    // Every exponent histogram must be internally consistent: specials plus
    // binned values account for the total.
    for (const auto& [name, h] : num->find("kernel_stores")->members()) {
      const Json* total = h.find("total");
      const Json* bins = h.find("exp2_bins");
      if (total == nullptr || bins == nullptr || !bins->is_object()) {
        return "prof report: kernel_stores entry '" + name + "' malformed";
      }
      double acc = 0;
      for (const auto& [exp, n] : bins->members()) {
        (void)exp;
        acc += n.as_double();
      }
      for (const char* key : {"zeros", "overflows", "nans"}) {
        const Json* v = h.find(key);
        if (v == nullptr) {
          return "prof report: kernel_stores entry '" + name + "' missing " +
                 key;
        }
        acc += v->as_double();
      }
      if (acc != total->as_double()) {
        return "prof report: kernel_stores entry '" + name +
               "' counts do not sum to total";
      }
    }
  }
  return {};
}

}  // namespace hg::obs::prof
