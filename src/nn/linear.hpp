// Linear layer: y = x W (+ b). Compute runs in the mode's working dtype
// (f16 GEMM = tensor-core path, float accumulate); weight gradients land
// directly in float master storage.
//
// Like the convolutions in models.hpp, the layer is written once against an
// op backend B (the trainer's, or hgcheck's abstract interpreter); each
// backend call carries the site name hgcheck reports it under.
#pragma once

#include <utility>

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

  // The input is saved for backward without a copy. An rvalue moves into
  // the layer. An lvalue is referenced, so it must stay alive and unchanged
  // until backward returns, as the trainer's feature tensor does.
  Tensor forward(B& b, const char* site, Tensor&& x) {
    kept_x_ = std::move(x);
    return forward_saved(b, site, kept_x_);
  }
  Tensor forward(B& b, const char* site, const Tensor& x) {
    return forward_saved(b, site, x);
  }

  // Returns dx; accumulates float master gradients. Releases the saved
  // input, so the next forward pass finds its storage free.
  Tensor backward(B& b, const char* dw_site, const char* dx_site,
                  const Tensor& dy) {
    b.weight_grad(dw_site, *saved_x_, dy, w_, bias());
    saved_x_ = nullptr;
    kept_x_ = Tensor{};
    return b.input_grad(dx_site, dy, w_);
  }

  std::vector<Param*> params() {
    std::vector<Param*> p{&w_};
    if (has_bias_) p.push_back(&b_);
    return p;
  }

 private:
  Param* bias() { return has_bias_ ? &b_ : nullptr; }

  Tensor forward_saved(B& b, const char* site, const Tensor& x) {
    saved_x_ = &x;
    b.meter(x);  // state tensor
    return b.linear(site, x, w_, bias());
  }

  Param w_, b_;
  bool has_bias_;
  Tensor kept_x_;                    // the saved input when the layer owns it
  const Tensor* saved_x_ = nullptr;  // the saved input
};

}  // namespace hg::nn
