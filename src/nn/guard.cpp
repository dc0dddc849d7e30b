#include "nn/guard.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hg::nn {

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

void check_model_state(const ckpt::ModelState& st,
                       const std::vector<Param*>& params,
                       const std::string& what) {
  const auto check = [&](const char* name,
                         const std::vector<std::vector<float>>& saved) {
    if (saved.size() != params.size()) {
      throw std::invalid_argument(
          "ckpt: " + what + " holds " + std::to_string(saved.size()) + " " +
          name + " tensors, the model has " + std::to_string(params.size()) +
          " params");
    }
    for (std::size_t i = 0; i < saved.size(); ++i) {
      const std::size_t want = params[i]->master().f().size();
      if (saved[i].size() != want) {
        throw std::invalid_argument(
            "ckpt: " + what + " " + name + "[" + std::to_string(i) +
            "] holds " + std::to_string(saved[i].size()) +
            " values, param " + std::to_string(i) + " has " +
            std::to_string(want));
      }
    }
  };
  check("master", st.master);
  check("m", st.m);
  check("v", st.v);
}

void restore_model_state(const ckpt::ModelState& st,
                         const std::vector<Param*>& params) {
  check_model_state(st, params, "model snapshot");
  for (std::size_t i = 0; i < params.size(); ++i) {
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
  ++st_.retries;
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
                     std::to_string(kRetryBudget) + ")");
  }
}

int TrainGuard::level(const std::string& site) const {
  const auto it = st_.sites.find(site);
  return it == st_.sites.end() ? 0 : it->second.level;
}

void TrainGuard::observe_output(const std::string& site, bool nonfinite,
                                int chain_len,
                                const std::string& next_kernel) {
  ckpt::GuardState::Site& s = st_.sites[site];
  if (!nonfinite) {
    s.streak = 0;
    return;
  }
  if (++s.streak < kOverflowStreak) return;
  s.streak = 0;
  if (s.level >= chain_len - 1) return;  // already at the end of the chain
  ++s.level;
  ++st_.fallbacks;
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
                     std::to_string(kOverflowStreak) +
                     "; escalated to chain level " + std::to_string(s.level) +
                     (next_kernel.empty() ? std::string()
                                          : " (" + next_kernel + ")"));
  }
}

void TrainGuard::maybe_checkpoint(int epoch,
                                  const std::vector<Param*>& params,
                                  const amp::GradScaler& scaler, int adam_t) {
  if (epoch % kCheckpointInterval != 0) return;
  if (!st_.last_loss_finite) return;  // a collapsing state is not worth keeping
  st_.ring.push_back(
      capture_model_state(epoch, adam_t, scaler.scale(), params));
  while (static_cast<int>(st_.ring.size()) > kCheckpointRing) {
    st_.ring.pop_front();
  }
  ++st_.checkpoints;
}

bool TrainGuard::note_loss(double loss) {
  const bool finite = std::isfinite(loss);
  st_.last_loss_finite = finite;
  if (finite) {
    st_.nan_streak = 0;
    return false;
  }
  if (++st_.nan_streak < kNanStreak) return false;
  st_.nan_streak = 0;
  return !st_.ring.empty();
}

void TrainGuard::rollback(const std::vector<Param*>& params,
                          amp::GradScaler& scaler, int& adam_t) {
  if (st_.ring.empty()) return;
  const ckpt::ModelState& cp = st_.ring.back();
  restore_model_state(cp, params);
  adam_t = cp.adam_t;
  scaler.set_scale(cp.scale * kRollbackScaleBackoff);
  ++st_.rollbacks;
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
                     std::to_string(kNanStreak) +
                     "; restored epoch " + std::to_string(cp.epoch) +
                     ", scale backed off to " +
                     obs::Json::number_to_string(
                         static_cast<double>(scaler.scale())));
  }
}

}  // namespace hg::nn
