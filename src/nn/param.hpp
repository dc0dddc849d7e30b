// Trainable parameter with float32 master storage (Micikevicius et al.'s
// rule, Sec. 3: weight updates must be in float), a float gradient, Adam
// moments, and a cached half-precision working copy for the mixed-precision
// modes. Refreshing the working copy after an optimizer step is a real
// (metered) conversion, as in torch autocast.
#pragma once

#include <cmath>
#include <vector>

#include "nn/common.hpp"
#include "tensor/dense_ops.hpp"

namespace hg::nn {

class Param {
 public:
  Param() = default;
  Param(std::int64_t rows, std::int64_t cols)
      : master_(MTensor::f32(rows, cols)),
        grad_(MTensor::f32(rows, cols)),
        m_(MTensor::f32(rows, cols)),
        v_(MTensor::f32(rows, cols)) {}

  MTensor& master() { return master_; }
  const MTensor& master() const { return master_; }
  MTensor& grad() { return grad_; }
  // Adam moment tensors, exposed for TrainGuard checkpoint/rollback.
  MTensor& adam_m() { return m_; }
  MTensor& adam_v() { return v_; }

  // Working-precision view for forward/backward compute, keyed on the
  // lattice dtype. f32 (and the non-trainable PTQ dtypes, whose dense ops
  // run in f32) alias the master; 16-bit dtypes get a cached converted
  // copy refreshed after each optimizer step.
  const MTensor& working(Dtype dt, CostLedger* ledger) {
    if (dt == Dtype::kF32 || !dtype_trainable(dt)) return master_;
    if (!h_valid_ || h_dtype_ != dt) {
      h_copy_ = to_dtype(master_, dt, ledger);
      h_dtype_ = dt;
      h_valid_ = true;
    }
    return h_copy_;
  }

  void zero_grad() { grad_.fill(0.0f); }
  // A stale working copy also gives up its storage, which the next
  // working() then takes from the trainer's pool (tensor/pool.hpp).
  void invalidate_working() {
    h_valid_ = false;
    h_copy_ = MTensor{};
  }

  std::uint64_t master_bytes() const {
    return master_.bytes() + grad_.bytes() + m_.bytes() + v_.bytes();
  }

  // One Adam update; grad is divided by `inv_scale_divisor` (the GradScaler
  // unscale) before use. Returns false (and skips) if any unscaled gradient
  // is non-finite — the caller aggregates this across params for the
  // scaler's skip decision, so this only applies the update.
  void adam_step(float lr, float beta1, float beta2, float eps,
                 float inv_scale, int t) {
    auto w = master_.f();
    auto g = grad_.f();
    auto m = m_.f();
    auto v = v_.f();
    const float bc1 = 1.0f - std::pow(beta1, static_cast<float>(t));
    const float bc2 = 1.0f - std::pow(beta2, static_cast<float>(t));
    for (std::size_t i = 0; i < w.size(); ++i) {
      const float gi = g[i] * inv_scale;
      m[i] = beta1 * m[i] + (1 - beta1) * gi;
      v[i] = beta2 * v[i] + (1 - beta2) * gi * gi;
      const float mh = m[i] / bc1;
      const float vh = v[i] / bc2;
      w[i] -= lr * mh / (std::sqrt(vh) + eps);
    }
    invalidate_working();
  }

  bool grad_nonfinite(float inv_scale) const {
    for (float g : grad_.f()) {
      if (!std::isfinite(g * inv_scale)) return true;
    }
    return false;
  }

 private:
  MTensor master_, grad_, m_, v_;
  MTensor h_copy_;
  Dtype h_dtype_ = Dtype::kF16;
  bool h_valid_ = false;
};

}  // namespace hg::nn
