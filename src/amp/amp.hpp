// Mixed-precision machinery (paper Sec. 3, 5.3).
//
//  * autocast policy — PyTorch AMP promotes exp, softmax, sum and the like
//    to float32 out of "fear of overflow" (Sec. 3.1.2). Which sparse ops
//    DGL-half promotes, paying a half->float->half round trip each, is the
//    kernel table's `promoted` entries (nn/kernel_table.cpp); HalfGNN runs
//    them in half through shadow APIs (Sec. 5.3).
//
//  * GradScaler — dynamic loss scaling exactly like torch.cuda.amp: scale
//    the loss, unscale the master gradients, skip the optimizer step and
//    back off when any gradient is non-finite, grow the scale after a
//    streak of clean steps. Note what it can and cannot fix: gradient
//    underflow yes, *forward* overflow (INF from an unprotected SpMM
//    reduction) no — which is why DGL-half still collapses in Fig. 1c.
#pragma once

#include <vector>

#include "obs/metrics.hpp"
#include "tensor/tensor.hpp"

namespace hg::amp {

// Whether training in `dt` requires dynamic loss scaling. Only f16: its
// 5-bit exponent underflows small gradients. bf16 explicitly does NOT —
// the trainer must leave the GradScaler disengaged (scale pinned at 1).
bool needs_loss_scaling(Dtype dt);

class GradScaler {
 public:
  // The loss-scale trajectory: everything update() changes. A checkpoint
  // carries it whole, and restore() reinstates it exactly.
  struct Trajectory {
    float scale = 1.0f;
    int clean_steps = 0;
    int skipped = 0;
    int stepped = 0;
    // Post-update scale per step, in order — the trajectory the per-epoch
    // amp.loss_scale gauge snapshots, available without the registry.
    std::vector<float> history;

    template <class Ar>
    void fields(Ar& ar) {
      ar(scale, clean_steps, skipped, stepped, history);
    }
  };

  // Defaults match torch.cuda.amp's growth policy with this repo's
  // historical clamps: scale floor 1.0 (torch itself allows lower — pass a
  // smaller min_scale to match), cap 65536.
  explicit GradScaler(float init_scale = 1024.0f, float growth = 2.0f,
                      float backoff = 0.5f, int growth_interval = 200,
                      float min_scale = 1.0f, float max_scale = 65536.0f)
      : growth_(growth),
        backoff_(backoff),
        growth_interval_(growth_interval),
        min_scale_(min_scale),
        max_scale_(max_scale) {
    t_.scale = init_scale;
  }

  float scale() const noexcept { return t_.scale; }
  float min_scale() const noexcept { return min_scale_; }
  float max_scale() const noexcept { return max_scale_; }

  // Force the scale (clamped to [min_scale, max_scale]) without touching
  // the clean-step streak bookkeeping — the TrainGuard rollback path.
  void set_scale(float s) {
    t_.scale = std::min(max_scale_, std::max(min_scale_, s));
    t_.clean_steps = 0;
  }

  // Call with whether any unscaled master gradient was non-finite.
  // Returns true if the optimizer step should proceed.
  bool update(bool found_nonfinite) {
    bool step = true;
    if (found_nonfinite) {
      t_.scale = std::max(min_scale_, t_.scale * backoff_);
      t_.clean_steps = 0;
      ++t_.skipped;
      step = false;
    } else {
      if (++t_.clean_steps >= growth_interval_) {
        t_.scale = std::min(max_scale_, t_.scale * growth_);
        t_.clean_steps = 0;
      }
      ++t_.stepped;
    }
    t_.history.push_back(t_.scale);
    // Loss-scale trajectory and skip count into the metrics registry (the
    // Fig. 1 diagnostic: a scale pinned at the floor with a climbing skip
    // counter is the signature of unrecoverable forward overflow).
    if (obs::registry().enabled()) {
      obs::registry().set_gauge("amp.loss_scale",
                                static_cast<double>(t_.scale));
      obs::registry().add_counter(step ? "amp.steps" : "amp.skipped_steps");
    }
    return step;
  }

  int skipped_steps() const noexcept { return t_.skipped; }
  int taken_steps() const noexcept { return t_.stepped; }
  int clean_steps() const noexcept { return t_.clean_steps; }
  const std::vector<float>& scale_history() const noexcept {
    return t_.history;
  }

  const Trajectory& trajectory() const noexcept { return t_; }
  // Checkpoint restore: reinstates the exact mid-run trajectory with no
  // clamping or streak reset (set_scale is the rollback path; this is not).
  void restore(Trajectory t) { t_ = std::move(t); }

 private:
  float growth_;
  float backoff_;
  int growth_interval_;
  float min_scale_;
  float max_scale_;
  Trajectory t_;
};

}  // namespace hg::amp
