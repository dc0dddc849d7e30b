// Linear layer: y = x W (+ b). Compute runs in the mode's working dtype
// (f16 GEMM = tensor-core path, float accumulate); weight gradients land
// directly in float master storage.
//
// Like the convolutions in models.hpp, the layer is written once against an
// op backend B (the trainer's, or hgcheck's abstract interpreter); each
// backend call carries the site name hgcheck reports it under.
#pragma once

#include "nn/param.hpp"

namespace hg::nn {

template <class B>
class Linear {
 public:
  using Tensor = typename B::Tensor;

  Linear(int in, int out, bool bias, Rng& rng)
      : w_(in, out), b_(1, out), has_bias_(bias) {
    xavier_init(w_.master(), rng);
  }

  Tensor forward(B& b, const char* site, const Tensor& x) {
    saved_x_ = b.copy(x);  // state tensor
    b.meter(saved_x_);
    return b.linear(site, x, w_, bias());
  }

  // Returns dx; accumulates float master gradients.
  Tensor backward(B& b, const char* dw_site, const char* dx_site,
                  const Tensor& dy) {
    b.weight_grad(dw_site, saved_x_, dy, w_, bias());
    return b.input_grad(dx_site, dy, w_);
  }

  std::vector<Param*> params() {
    std::vector<Param*> p{&w_};
    if (has_bias_) p.push_back(&b_);
    return p;
  }

 private:
  Param* bias() { return has_bias_ ? &b_ : nullptr; }

  Param w_, b_;
  bool has_bias_;
  Tensor saved_x_;
};

}  // namespace hg::nn
