#include "nn/guard.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hg::nn {

TrainGuard::TrainGuard(GuardConfig cfg) : cfg_(cfg) {}

ckpt::ModelState capture_model_state(int epoch, int adam_t, float scale,
                                     const std::vector<Param*>& params) {
  ckpt::ModelState st;
  st.epoch = epoch;
  st.adam_t = adam_t;
  st.scale = scale;
  st.master.reserve(params.size());
  st.m.reserve(params.size());
  st.v.reserve(params.size());
  for (Param* p : params) {
    const auto w = p->master().f();
    const auto m = p->adam_m().f();
    const auto v = p->adam_v().f();
    st.master.emplace_back(w.begin(), w.end());
    st.m.emplace_back(m.begin(), m.end());
    st.v.emplace_back(v.begin(), v.end());
  }
  return st;
}

void restore_model_state(const ckpt::ModelState& st,
                         const std::vector<Param*>& params) {
  for (std::size_t i = 0; i < params.size() && i < st.master.size(); ++i) {
    Param* p = params[i];
    std::copy(st.master[i].begin(), st.master[i].end(),
              p->master().f().begin());
    std::copy(st.m[i].begin(), st.m[i].end(), p->adam_m().f().begin());
    std::copy(st.v[i].begin(), st.v[i].end(), p->adam_v().f().begin());
    p->zero_grad();
    p->invalidate_working();  // half working copies are polluted too
  }
}

void TrainGuard::count_retry(const std::string& site) {
  ++retries_;
  if (obs::registry().enabled()) {
    obs::registry().add_counter("guard.retries");
    obs::registry().add_counter("guard.retries." + site);
  }
  if (obs::tracer().enabled()) {
    obs::tracer().instant("guard:retry", "guard", {{"site", site}});
  }
  if (prof_ != nullptr) {
    prof_->audit("retry", site,
                 "simt::LaunchFault on attempt (budget " +
                     std::to_string(cfg_.retry_budget) + ")");
  }
}

int TrainGuard::level(const std::string& site) const {
  const auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.level;
}

void TrainGuard::observe_output(const std::string& site, bool nonfinite,
                                int chain_len,
                                const std::string& next_kernel) {
  Site& s = sites_[site];
  if (!nonfinite) {
    s.streak = 0;
    return;
  }
  if (++s.streak < std::max(1, cfg_.overflow_streak)) return;
  s.streak = 0;
  if (s.level >= chain_len - 1) return;  // already at the end of the chain
  ++s.level;
  ++fallbacks_;
  if (obs::registry().enabled()) {
    obs::registry().add_counter("guard.fallbacks");
    obs::registry().set_gauge("guard.level." + site, s.level);
  }
  if (obs::tracer().enabled()) {
    obs::tracer().instant("guard:fallback", "guard",
                          {{"site", site}, {"level", s.level}});
  }
  if (prof_ != nullptr) {
    prof_->audit("fallback", site,
                 "non-finite output streak reached " +
                     std::to_string(std::max(1, cfg_.overflow_streak)) +
                     "; escalated to chain level " + std::to_string(s.level) +
                     (next_kernel.empty() ? std::string()
                                          : " (" + next_kernel + ")"));
  }
}

void TrainGuard::maybe_checkpoint(int epoch,
                                  const std::vector<Param*>& params,
                                  const amp::GradScaler& scaler, int adam_t) {
  if (cfg_.checkpoint_interval <= 0 ||
      epoch % cfg_.checkpoint_interval != 0) {
    return;
  }
  if (!last_loss_finite_) return;  // a collapsing state is not worth keeping
  ring_.push_back(capture_model_state(epoch, adam_t, scaler.scale(), params));
  while (static_cast<int>(ring_.size()) > std::max(1, cfg_.checkpoint_ring)) {
    ring_.pop_front();
  }
  ++checkpoints_;
}

bool TrainGuard::note_loss(double loss) {
  const bool finite = std::isfinite(loss);
  last_loss_finite_ = finite;
  if (finite) {
    nan_streak_ = 0;
    return false;
  }
  if (++nan_streak_ < std::max(1, cfg_.nan_streak)) return false;
  nan_streak_ = 0;
  return !ring_.empty();
}

void TrainGuard::rollback(const std::vector<Param*>& params,
                          amp::GradScaler& scaler, int& adam_t) {
  if (ring_.empty()) return;
  const ckpt::ModelState& cp = ring_.back();
  restore_model_state(cp, params);
  adam_t = cp.adam_t;
  scaler.set_scale(cp.scale * cfg_.rollback_scale_backoff);
  ++rollbacks_;
  if (obs::registry().enabled()) {
    obs::registry().add_counter("guard.rollbacks");
    obs::registry().set_gauge("guard.restored_epoch", cp.epoch);
  }
  if (obs::tracer().enabled()) {
    obs::tracer().instant("guard:rollback", "guard",
                          {{"restored_epoch", cp.epoch},
                           {"adam_t", cp.adam_t},
                           {"scale", static_cast<double>(scaler.scale())}});
  }
  if (prof_ != nullptr) {
    prof_->audit("rollback", "loss",
                 "NaN-loss streak reached " +
                     std::to_string(std::max(1, cfg_.nan_streak)) +
                     "; restored epoch " + std::to_string(cp.epoch) +
                     ", scale backed off to " +
                     obs::Json::number_to_string(
                         static_cast<double>(scaler.scale())));
  }
}

ckpt::GuardState TrainGuard::save_state() const {
  ckpt::GuardState st;
  st.sites.reserve(sites_.size());
  for (const auto& kv : sites_) {
    ckpt::GuardSiteState s;
    s.site = kv.first;
    s.level = kv.second.level;
    s.streak = kv.second.streak;
    st.sites.push_back(std::move(s));
  }
  st.ring.assign(ring_.begin(), ring_.end());
  st.nan_streak = nan_streak_;
  st.last_loss_finite = last_loss_finite_;
  st.retries = retries_;
  st.rollbacks = rollbacks_;
  st.fallbacks = fallbacks_;
  st.checkpoints = checkpoints_;
  return st;
}

void TrainGuard::restore_state(const ckpt::GuardState& st) {
  sites_.clear();
  for (const auto& s : st.sites) {
    sites_[s.site] = Site{s.level, s.streak};
  }
  ring_.assign(st.ring.begin(), st.ring.end());
  nan_streak_ = st.nan_streak;
  last_loss_finite_ = st.last_loss_finite;
  retries_ = st.retries;
  rollbacks_ = st.rollbacks;
  fallbacks_ = st.fallbacks;
  checkpoints_ = st.checkpoints;
}

}  // namespace hg::nn
