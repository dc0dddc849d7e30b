#include "simt/sanitizer.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hg::simt {

namespace {

const char* kind_label(SanViolation::Kind k) {
  switch (k) {
    case SanViolation::Kind::kSharedRace:
      return "shared-memory race";
    case SanViolation::Kind::kGlobalConflict:
      return "undeclared cross-CTA write conflict";
    case SanViolation::Kind::kWindowMiss:
      return "staged store outside declared window";
    case SanViolation::Kind::kOutOfBounds:
      return "out-of-bounds access";
    case SanViolation::Kind::kMisaligned:
      return "misaligned vector access";
    case SanViolation::Kind::kUninitRead:
      return "read of uninitialized shared memory";
    case SanViolation::Kind::kDivergentBarrier:
      return "divergent barrier";
    case SanViolation::Kind::kLateSharedAlloc:
      return "shared allocation after first phase";
  }
  return "unknown";
}

}  // namespace

SanitizerConfig SanitizerConfig::parse(std::string_view spec) {
  return {util::parse_flags(spec, kSanTokens, kEnv, "checker")};
}

SanitizerConfig SanitizerConfig::from_env() {
  if (const char* e = std::getenv(kEnv)) {
    return parse(e);
  }
  return SanitizerConfig{};
}

const char* SanViolation::check_name() const noexcept {
  switch (kind) {
    case Kind::kSharedRace:
    case Kind::kGlobalConflict:
    case Kind::kWindowMiss:
      return "racecheck";
    case Kind::kOutOfBounds:
    case Kind::kMisaligned:
      return "memcheck";
    case Kind::kUninitRead:
      return "initcheck";
    case Kind::kDivergentBarrier:
    case Kind::kLateSharedAlloc:
      return "synccheck";
  }
  return "sanitizer";
}

std::string SanViolation::message() const {
  std::string m = std::string(check_name()) + ": " + kind_label(kind) +
                  " in kernel '" + kernel + "' (launch " +
                  std::to_string(ordinal) + ")";
  if (cta >= 0) m += " cta " + std::to_string(cta);
  if (warp >= -1 && cta >= 0) {
    m += warp >= 0 ? " warp " + std::to_string(warp) : " (cta-uniform)";
  }
  if (lane >= 0) m += " lane " + std::to_string(lane);
  if (phase >= 0) m += " phase " + std::to_string(phase);
  m += " at address 0x";
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%llx",
                static_cast<unsigned long long>(address));
  m += buf;
  if (bytes > 0) m += " (" + std::to_string(bytes) + " B)";
  if (other_cta >= 0 || other_warp >= 0) {
    m += "; conflicts with prior ";
    m += other_was_write ? "write" : "read";
    if (other_cta >= 0) m += " by cta " + std::to_string(other_cta);
    if (other_warp >= 0) m += " warp " + std::to_string(other_warp);
    if (other_phase >= 0) m += " phase " + std::to_string(other_phase);
  }
  if (!detail.empty()) m += "; " + detail;
  return m;
}

namespace detail {

void CtaSan::begin(LaunchSanState& st, int cta_id) {
  st_ = &st;
  cta_id_ = cta_id;
  rec_ = &st.cta[static_cast<std::size_t>(cta_id)];
  cur_warp_ = -1;
  phase_ = 0;
  in_phase_ = false;
}

void CtaSan::report(SanViolation v) {
  if (rec_->violations.size() >= kMaxViolationsPerCta) {
    ++rec_->dropped;
    return;
  }
  v.kernel = st_->kernel;
  v.ordinal = st_->ordinal;
  v.cta = cta_id_;
  if (v.warp == -1 && in_phase_) v.warp = cur_warp_;
  if (v.phase == -1) v.phase = phase_;
  rec_->violations.push_back(std::move(v));
}

void CtaSan::on_barrier() {
  if (in_phase_) {
    if (armed(kSanSync)) {
      SanViolation v;
      v.kind = SanViolation::Kind::kDivergentBarrier;
      v.detail = "cta.barrier() reached from inside a for_each_warp phase "
                 "(not every warp arrives)";
      report(std::move(v));
    }
    return;  // divergent: the phase does not advance
  }
  ++phase_;
}

void CtaSan::on_shared_alloc(std::size_t off, std::size_t bytes) {
  if (armed(kSanSync) && (phase_ > 0 || in_phase_)) {
    SanViolation v;
    v.kind = SanViolation::Kind::kLateSharedAlloc;
    v.address = off;
    v.bytes = static_cast<std::uint32_t>(bytes);
    v.detail = in_phase_
                   ? "shared<T>() called from inside a for_each_warp phase"
                   : "shared<T>() called after barrier(); real __shared__ is "
                     "declared at kernel scope";
    report(std::move(v));
  }
  if (shadow_.size() < off + bytes) shadow_.resize(off + bytes);
  std::fill_n(shadow_.begin() + static_cast<std::ptrdiff_t>(off), bytes,
              SanShadowByte{});
}

void CtaSan::smem_read(std::uint32_t off, std::uint32_t bytes) {
  bool saw_uninit = false;
  bool saw_race = false;
  const bool race = armed(kSanRace);
  const bool init = armed(kSanInit);
  for (std::uint32_t b = 0; b < bytes; ++b) {
    SanShadowByte& sb = shadow_[off + b];
    if (init && !saw_uninit && sb.write_phase < 0) {
      saw_uninit = true;
      SanViolation v;
      v.kind = SanViolation::Kind::kUninitRead;
      v.address = off + b;
      v.bytes = bytes;
      v.detail = "shared byte never written this CTA (the simulator "
                 "zero-fills; real hardware would not)";
      report(std::move(v));
    }
    if (race && !saw_race && sb.write_phase == phase_ &&
        sb.write_warp >= 0 && cur_warp_ >= 0 && sb.write_warp != cur_warp_) {
      saw_race = true;
      SanViolation v;
      v.kind = SanViolation::Kind::kSharedRace;
      v.address = off + b;
      v.bytes = bytes;
      v.other_cta = cta_id_;
      v.other_warp = sb.write_warp;
      v.other_phase = sb.write_phase;
      v.other_was_write = true;
      v.detail = "read-after-write by another warp with no barrier between";
      report(std::move(v));
    }
    sb.read_phase = phase_;
    sb.read_warp = static_cast<std::int16_t>(cur_warp_);
  }
}

void CtaSan::smem_write(std::uint32_t off, std::uint32_t bytes) {
  bool saw_race = false;
  const bool race = armed(kSanRace);
  for (std::uint32_t b = 0; b < bytes; ++b) {
    SanShadowByte& sb = shadow_[off + b];
    if (race && !saw_race && cur_warp_ >= 0) {
      if (sb.write_phase == phase_ && sb.write_warp >= 0 &&
          sb.write_warp != cur_warp_) {
        saw_race = true;
        SanViolation v;
        v.kind = SanViolation::Kind::kSharedRace;
        v.address = off + b;
        v.bytes = bytes;
        v.other_cta = cta_id_;
        v.other_warp = sb.write_warp;
        v.other_phase = sb.write_phase;
        v.other_was_write = true;
        v.detail = "write-after-write by another warp with no barrier between";
        report(std::move(v));
      } else if (sb.read_phase == phase_ && sb.read_warp >= 0 &&
                 sb.read_warp != cur_warp_) {
        saw_race = true;
        SanViolation v;
        v.kind = SanViolation::Kind::kSharedRace;
        v.address = off + b;
        v.bytes = bytes;
        v.other_cta = cta_id_;
        v.other_warp = sb.read_warp;
        v.other_phase = sb.read_phase;
        v.other_was_write = false;
        v.detail = "write-after-read by another warp with no barrier between";
        report(std::move(v));
      }
    }
    sb.write_phase = phase_;
    sb.write_warp = static_cast<std::int16_t>(cur_warp_);
  }
}

void CtaSan::oob(const void* base, std::size_t elems, std::size_t elem_bytes,
                 std::int64_t idx, int lane, bool is_load) {
  SanViolation v;
  v.kind = SanViolation::Kind::kOutOfBounds;
  v.lane = lane;
  v.address = static_cast<std::uint64_t>(idx);
  v.bytes = static_cast<std::uint32_t>(elem_bytes);
  v.detail = std::string(is_load ? "load" : "store") + " index " +
             std::to_string(idx) + " outside span of " +
             std::to_string(elems) + " elements at base 0x";
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%llx",
                reinterpret_cast<unsigned long long>(base));
  v.detail += buf;
  report(std::move(v));
}

void CtaSan::misaligned(const void* addr, std::size_t elem_bytes, int lane,
                        bool is_load) {
  SanViolation v;
  v.kind = SanViolation::Kind::kMisaligned;
  v.lane = lane;
  v.address = reinterpret_cast<std::uint64_t>(addr);
  v.bytes = static_cast<std::uint32_t>(elem_bytes);
  v.detail = std::string(is_load ? "load" : "store") + " of a " +
             std::to_string(elem_bytes) +
             "-byte vector element off its natural alignment";
  report(std::move(v));
}

void CtaSan::plain_store(std::uint64_t lo, std::uint64_t hi) {
  if (lo >= hi) return;
  auto& stores = rec_->stores;
  if (!stores.empty()) {
    SanStore& back = stores.back();
    if (back.hi == lo && back.warp == cur_warp_ && back.phase == phase_) {
      back.hi = hi;
      return;
    }
  }
  stores.push_back(SanStore{lo, hi, cur_warp_, phase_});
}

}  // namespace detail

detail::LaunchSanState* Sanitizer::arm(const std::string& kernel, int ctas) {
  state_.checks = cfg_.checks;
  state_.kernel = kernel;
  state_.ordinal = ordinal_++;
  state_.policy = 0;
  state_.elem_bytes = 0;
  state_.shards.clear();
  state_.ctas = ctas;
  if (state_.cta.size() < static_cast<std::size_t>(ctas)) {
    state_.cta.resize(static_cast<std::size_t>(ctas));
  }
  for (int c = 0; c < ctas; ++c) {
    state_.cta[static_cast<std::size_t>(c)].reset();
  }
  return &state_;
}

void Sanitizer::keep(SanViolation&& v) {
  ++total_;
  if (violations_.size() >= kMaxViolations) {
    ++dropped_;
    return;
  }
  violations_.push_back(std::move(v));
}

void Sanitizer::analyze_stores(detail::LaunchSanState& st) {
  struct Interval {
    std::uint64_t lo, hi;
    int cta, warp, phase;
  };
  std::vector<Interval> plain;
  std::size_t window_misses = 0;
  for (int c = 0; c < st.ctas; ++c) {
    const auto& rec = st.cta[static_cast<std::size_t>(c)];
    for (const auto& s : rec.stores) {
      // A store into a shard's staging buffer is covered by the declared
      // ConflictPolicy — but only inside the declared window; the merge
      // pass drops everything outside it.
      const detail::SanShardInfo* shard = nullptr;
      for (const auto& sh : st.shards) {
        if (s.lo >= sh.stage_lo && s.hi <= sh.stage_hi) {
          shard = &sh;
          break;
        }
      }
      if (shard != nullptr) {
        const std::uint64_t log_lo = s.lo - shard->stage_lo;
        const std::uint64_t log_hi = s.hi - shard->stage_lo;
        if (log_lo < shard->win_lo || log_hi > shard->win_hi) {
          if (window_misses++ < kMaxConflictReports) {
            SanViolation v;
            v.kind = SanViolation::Kind::kWindowMiss;
            v.kernel = st.kernel;
            v.ordinal = st.ordinal;
            v.cta = c;
            v.warp = s.warp;
            v.phase = s.phase;
            v.address = log_lo;
            v.bytes = static_cast<std::uint32_t>(log_hi - log_lo);
            v.detail =
                "declared window [" + std::to_string(shard->win_lo) + ", " +
                std::to_string(shard->win_hi) +
                ") bytes; the staged merge drops stores outside it "
                "(misdeclared ConflictPolicy window)";
            keep(std::move(v));
          } else {
            ++total_;
            ++dropped_;
          }
        }
        continue;
      }
      plain.push_back(Interval{s.lo, s.hi, c, s.warp, s.phase});
    }
  }

  // Cross-CTA overlap sweep. Plain stores within one CTA are ordered by
  // the simulator (warps run sequentially), so only different-CTA overlap
  // is a hazard — those CTAs run concurrently on real hardware.
  std::sort(plain.begin(), plain.end(), [](const Interval& a,
                                           const Interval& b) {
    if (a.lo != b.lo) return a.lo < b.lo;
    if (a.cta != b.cta) return a.cta < b.cta;
    if (a.hi != b.hi) return a.hi < b.hi;
    return a.warp < b.warp;
  });
  // `best` = max-hi interval seen; `alt` = max-hi among CTAs != best.cta.
  const Interval* best = nullptr;
  const Interval* alt = nullptr;
  std::size_t conflicts = 0;
  std::vector<std::pair<int, int>> reported_pairs;
  for (const auto& cur : plain) {
    const Interval* hit = nullptr;
    if (best != nullptr && cur.lo < best->hi && cur.cta != best->cta) {
      hit = best;
    } else if (alt != nullptr && cur.lo < alt->hi && cur.cta != alt->cta) {
      hit = alt;
    }
    if (hit != nullptr) {
      const std::pair<int, int> key{std::min(cur.cta, hit->cta),
                                    std::max(cur.cta, hit->cta)};
      if (std::find(reported_pairs.begin(), reported_pairs.end(), key) ==
          reported_pairs.end()) {
        reported_pairs.push_back(key);
        if (conflicts++ < kMaxConflictReports) {
          SanViolation v;
          v.kind = SanViolation::Kind::kGlobalConflict;
          v.kernel = st.kernel;
          v.ordinal = st.ordinal;
          v.cta = cur.cta;
          v.warp = cur.warp;
          v.phase = cur.phase;
          v.address = cur.lo;
          v.bytes = static_cast<std::uint32_t>(
              std::min(cur.hi, hit->hi) - cur.lo);
          v.other_cta = hit->cta;
          v.other_warp = hit->warp;
          v.other_phase = hit->phase;
          v.other_was_write = true;
          v.detail =
              "plain (non-atomic) stores from two CTAs overlap and the "
              "launch declares no ConflictPolicy covering them";
          keep(std::move(v));
        } else {
          ++total_;
          ++dropped_;
        }
      }
    }
    if (best == nullptr || cur.hi > best->hi) {
      if (best != nullptr && best->cta != cur.cta &&
          (alt == nullptr || best->hi > alt->hi)) {
        alt = best;
      }
      best = &cur;
    } else if (cur.cta != best->cta && (alt == nullptr || cur.hi > alt->hi)) {
      alt = &cur;
    }
  }
}

void Sanitizer::finish_launch(detail::LaunchSanState& st) {
  const std::size_t first = violations_.size();
  const std::uint64_t total_before = total_;
  for (int c = 0; c < st.ctas; ++c) {
    auto& rec = st.cta[static_cast<std::size_t>(c)];
    for (auto& v : rec.violations) keep(std::move(v));
    total_ += rec.dropped;
    dropped_ += rec.dropped;
  }
  if ((st.checks & kSanRace) != 0) analyze_stores(st);

  const std::uint64_t fired = total_ - total_before;
  if (fired == 0) return;

  // Publish once per launch, from the calling thread, in program order —
  // mirrors FaultInjector::publish so metrics/trace JSON stays
  // schedule-independent (and byte-identical when nothing fires).
  std::uint64_t by_check[4] = {0, 0, 0, 0};
  for (std::size_t i = first; i < violations_.size(); ++i) {
    switch (violations_[i].kind) {
      case SanViolation::Kind::kSharedRace:
      case SanViolation::Kind::kGlobalConflict:
      case SanViolation::Kind::kWindowMiss:
        ++by_check[0];
        break;
      case SanViolation::Kind::kOutOfBounds:
      case SanViolation::Kind::kMisaligned:
        ++by_check[1];
        break;
      case SanViolation::Kind::kUninitRead:
        ++by_check[2];
        break;
      case SanViolation::Kind::kDivergentBarrier:
      case SanViolation::Kind::kLateSharedAlloc:
        ++by_check[3];
        break;
    }
  }
  if (obs::registry().enabled()) {
    obs::registry().add_counter("sanitizer.violations",
                                static_cast<double>(fired));
    static constexpr const char* kNames[4] = {
        "sanitizer.race", "sanitizer.mem", "sanitizer.init", "sanitizer.sync"};
    for (int i = 0; i < 4; ++i) {
      if (by_check[i] != 0) {
        obs::registry().add_counter(kNames[i],
                                    static_cast<double>(by_check[i]));
      }
    }
  }
  if (obs::tracer().enabled()) {
    obs::tracer().instant(
        "sanitizer:violation", "sanitizer",
        {{"kernel", st.kernel},
         {"ordinal", static_cast<std::int64_t>(st.ordinal)},
         {"count", static_cast<std::int64_t>(fired)}});
  }
}

std::string Sanitizer::report() const {
  std::string out;
  for (const auto& v : violations_) {
    out += v.message();
    out += '\n';
  }
  if (dropped_ != 0) {
    out += "... and " + std::to_string(dropped_) + " more violations\n";
  }
  return out;
}

void Sanitizer::clear() {
  violations_.clear();
  total_ = 0;
  dropped_ = 0;
}

}  // namespace hg::simt
