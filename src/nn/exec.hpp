// The trainer's op backend for the layer code in models.hpp; models.cpp
// runs every Model through it. Each call is the nn:: sparse entry point or
// hg:: dense op of the same name, with the mode's working weights and the
// pass's ledger and memory meter. Those ops stay out of line and are called
// from models.o, which perfbench's link-time interposers rely on. Site
// names are hgcheck's and cost nothing here.
#pragma once

#include "nn/models.hpp"
#include "obs/trace.hpp"

namespace hg::nn {

class Exec {
 public:
  using Tensor = MTensor;

  Exec(const SparseCtx& ctx, const GraphCtx& g) : ctx_(ctx), g_(g) {}

  SystemMode mode() const { return ctx_.mode; }
  void at_layer(int /*layer*/) {}
  obs::Span layer_span(const char* name) { return obs::Span(name, "layer"); }

  MTensor copy(const MTensor& x) { return to_dtype(x, x.dtype(), nullptr); }
  template <class... Ts>
  void meter(const Ts&... state) {
    if (ctx_.meter != nullptr) ctx_.meter->add_state((state.bytes() + ...));
  }

  // --- GEMMs with a Param operand ------------------------------------------
  // gemm stores every element of a non-empty C, so each C starts unfilled.
  MTensor linear(const char* /*site*/, const MTensor& x, Param& w,
                 Param* bias) {
    MTensor y = MTensor::uninit(x.dtype(), x.rows(), w.master().cols());
    gemm(x, false, working(w), false, y, ctx_.ledger);
    if (bias != nullptr) add_bias_rows(y, bias->master(), ctx_.ledger);
    return y;
  }

  // dW = x^T dy, accumulated straight into float (no half rounding).
  void weight_grad(const char* /*site*/, const MTensor& x, const MTensor& dy,
                   Param& w, Param* bias) {
    MTensor dw =
        MTensor::uninit(Dtype::kF32, w.master().rows(), w.master().cols());
    gemm(x, true, dy, false, dw, ctx_.ledger);
    hg::axpby(dw, 1.0f, w.grad(), 1.0f, nullptr);
    if (bias != nullptr) {
      MTensor db = MTensor::f32(1, bias->master().cols());
      colsum(dy, db, ctx_.ledger);
      hg::axpby(db, 1.0f, bias->grad(), 1.0f, nullptr);
    }
  }

  MTensor input_grad(const char* /*site*/, const MTensor& dy, Param& w) {
    MTensor dx = MTensor::uninit(dy.dtype(), dy.rows(), w.master().rows());
    gemm(dy, false, working(w), true, dx, ctx_.ledger);
    return dx;
  }

  void rank1(const char* /*site*/, MTensor& dz, const MTensor& d, Param& a) {
    MTensor r = MTensor::uninit(dz.dtype(), dz.rows(), dz.cols());
    gemm(d, false, working(a), true, r, ctx_.ledger);
    hg::axpby(r, 1.0f, dz, 1.0f, ctx_.ledger);
  }

  // --- elementwise ---------------------------------------------------------
  void axpby(const char* /*site*/, const MTensor& x, double alpha, MTensor& y,
             double beta) {
    hg::axpby(x, static_cast<float>(alpha), y, static_cast<float>(beta),
              ctx_.ledger);
  }
  void scale_rows(MTensor& x) { hg::scale_rows(x, g_.inv_deg(), ctx_.ledger); }
  void relu_forward(MTensor& x, std::vector<std::uint8_t>& mask) {
    hg::relu_forward(x, mask, ctx_.ledger);
  }
  void relu_backward(MTensor& g, const std::vector<std::uint8_t>& mask) {
    hg::relu_backward(g, mask, ctx_.ledger);
  }

  // --- sparse (nn/sparse_dispatch.hpp) -------------------------------------
  MTensor spmm(const char* /*site*/, const MTensor* ew, const MTensor& x,
               kernels::Reduce r) {
    return nn::spmm(ctx_, g_, ew, x, r);
  }
  MTensor spmm_transposed(const char* /*site*/, const MTensor* ew,
                          const MTensor& x, kernels::Reduce r,
                          const char* /*perm_site*/ = nullptr) {
    return nn::spmm_transposed(ctx_, g_, ew, x, r);
  }
  MTensor sddmm(const char* /*site*/, const MTensor& a, const MTensor& b) {
    return nn::sddmm(ctx_, g_, a, b);
  }
  MTensor seg_reduce(const char* /*site*/, const MTensor& v,
                     kernels::SegReduce r) {
    return nn::seg_reduce(ctx_, g_, v, r);
  }
  MTensor edge_add_scalars(const char* /*site*/, const MTensor& el,
                           const MTensor& er, double slope) {
    return nn::edge_add_scalars(ctx_, g_, el, er, static_cast<float>(slope));
  }
  MTensor edge_exp_sub_row(const char* /*site*/, const MTensor& v,
                           const MTensor& rowv) {
    return nn::edge_exp_sub_row(ctx_, g_, v, rowv);
  }
  MTensor edge_div_row(const char* /*site*/, const MTensor& v,
                       const MTensor& rowv) {
    return nn::edge_div_row(ctx_, g_, v, rowv);
  }
  MTensor edge_mul(const char* /*site*/, const MTensor& a, const MTensor& b) {
    return nn::edge_mul(ctx_, a, b);
  }
  MTensor edge_softmax_backward(const char* /*site*/, const MTensor& alpha,
                                const MTensor& dalpha, const MTensor& c) {
    return nn::edge_softmax_backward(ctx_, g_, alpha, dalpha, c);
  }
  MTensor edge_leaky_backward(const char* /*site*/, const MTensor& pre,
                              const MTensor& grad, double slope) {
    return nn::edge_leaky_backward(ctx_, pre, grad, static_cast<float>(slope));
  }
  MTensor edge_permute(const char* /*site*/, const MTensor& in) {
    return nn::edge_permute(ctx_, in, g_.rev_perm());
  }

 private:
  const MTensor& working(Param& p) {
    return p.working(ctx_.dtype(), ctx_.ledger);
  }

  const SparseCtx& ctx_;
  const GraphCtx& g_;
};

}  // namespace hg::nn
