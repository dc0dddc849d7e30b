// GCN, GIN and GAT convolutions and the two-layer models the paper trains
// (Sec. 6: hidden width 64, 400 epochs), with hand-derived backward passes
// expressed in the paper's own kernel vocabulary: SpMM for aggregation,
// SpMM over A^T + SDDMM for the backward pass (Sec. 2.1.2), and the
// edge-softmax kernel chain for GAT (Eq. 1).
//
// Each layer is written once, as a template over an op backend B. Two
// backends interpret the same code:
//   * the trainer's (nn/exec.hpp, run by models.cpp behind Model and
//     make_model): every call is the nn:: sparse entry point or hg:: dense
//     op it names, on MTensors;
//   * hgcheck's (src/check/check.cpp): every call is that op's transfer
//     function on exponent intervals plus an exact f64 epoch-0 value.
// B provides `Tensor`, `mode()`, and these calls, each tagged with the site
// name hgcheck reports ("fwd.gemm", "bwd.permA", ...):
//   spmm, spmm_transposed, sddmm, seg_reduce, edge_add_scalars,
//     edge_exp_sub_row, edge_div_row, edge_mul, edge_softmax_backward,
//     edge_leaky_backward, edge_permute   — the sparse_dispatch.hpp ops;
//   linear (x W + b), weight_grad (W.grad += x^T dy, b.grad += colsum dy),
//     input_grad (dy W^T), rank1 (dz += d a^T) — GEMMs with a Param operand;
//   axpby; and, untagged, scale_rows (by 1/deg), relu_forward, relu_backward;
// plus the hooks copy (a tensor the layer scales in place), meter (state
// bytes on the memory meter), at_layer (1-based layer of the calls that
// follow) and layer_span (the trace scope of one conv pass).
//
// A conv's forward takes its input as Linear does: an rvalue moves into the
// layer, an lvalue (the trainer's feature tensor) is kept by reference and
// must outlive backward. Backward releases what forward saved.
#pragma once

#include <memory>
#include <utility>

#include "nn/linear.hpp"
#include "nn/sparse_dispatch.hpp"
#include "util/parse.hpp"

namespace hg::nn {

// ---------------------------------------------------------------------------
// GCN (Eq. 2, right degree-norm): y = D^-1 A (x W + b)
// ---------------------------------------------------------------------------
template <class B>
class GcnConv {
 public:
  using Tensor = typename B::Tensor;

  GcnConv(int in, int out, int /*hidden*/, Rng& rng)
      : lin_(in, out, /*bias=*/true, rng) {}

  template <class X>
  Tensor forward(B& b, X&& x) {
    [[maybe_unused]] const auto span = b.layer_span("GcnConv::forward");
    Tensor z = lin_.forward(b, "fwd.gemm", std::forward<X>(x));
    // DGL modes: sum + post degree-norm (overflows in half at hubs);
    // HalfGNN: discretized-scaled mean — same math, protected range.
    return b.spmm("fwd.spmm", nullptr, z, kernels::Reduce::kMean);
  }

  Tensor backward(B& b, const Tensor& dy) {
    [[maybe_unused]] const auto span = b.layer_span("GcnConv::backward");
    // d(D^-1 A z) / dz = A^T D^-1: scale rows by 1/deg, then SpMM-sum over
    // the (symmetric) transpose.
    Tensor t = b.copy(dy);
    b.scale_rows(t);
    Tensor dz = b.spmm_transposed("bwd.spmmT", nullptr, t,
                                  kernels::Reduce::kSum);
    return lin_.backward(b, "bwd.dW", "bwd.dX", dz);
  }

  std::vector<Param*> params() { return lin_.params(); }

 private:
  Linear<B> lin_;
};

// ---------------------------------------------------------------------------
// GIN with DGL's 'mean' aggregation variant (Sec. 3.1.3(b)); HalfGNN uses
// the paper's Eq. 4: h = MLP((1+eps) x + lambda * mean_agg(x)), lambda=0.1.
// ---------------------------------------------------------------------------
template <class B>
class GinConv {
 public:
  using Tensor = typename B::Tensor;

  // The MLP is in -> hidden -> out.
  GinConv(int in, int out, int hidden, Rng& rng)
      : mlp1_(in, hidden, true, rng), mlp2_(hidden, out, true, rng) {}

  // Aggregation follows Sec. 3.1.3(b): the DGL modes use DGL's 'mean'
  // reduction variant of GIN (plain Eq. 3 sums explode numerically on hub
  // graphs even in float32) — implemented as sum + post degree-norm, which
  // is exactly why DGL-half still overflows. HalfGNN uses Eq. 4:
  // discretized mean plus the lambda damping.
  template <class X>
  Tensor forward(B& b, X&& x) {
    [[maybe_unused]] const auto span = b.layer_span("GinConv::forward");
    // comb = (1 + eps) x + lambda * agg  (eps = 0, DGL's default).
    Tensor comb = b.spmm("fwd.spmm", nullptr, x, kernels::Reduce::kMean);
    b.axpby("fwd.axpby", x, 1.0 + kEps, comb, lambda(b));
    Tensor h = mlp1_.forward(b, "fwd.gemm1", std::move(comb));
    b.relu_forward(h, relu_mask_);
    return mlp2_.forward(b, "fwd.gemm2", std::move(h));
  }

  Tensor backward(B& b, const Tensor& dout) {
    [[maybe_unused]] const auto span = b.layer_span("GinConv::backward");
    Tensor dh = mlp2_.backward(b, "bwd.dW2", "bwd.dX2", dout);
    b.relu_backward(dh, relu_mask_);
    Tensor dcomb = mlp1_.backward(b, "bwd.dW1", "bwd.dX1", dh);
    // dx = (1+eps) dcomb + lambda * MeanAgg^T(dcomb).
    Tensor t = b.copy(dcomb);
    b.scale_rows(t);
    Tensor dx = b.spmm_transposed("bwd.spmmT", nullptr, t,
                                  kernels::Reduce::kSum);
    b.axpby("bwd.axpby", dcomb, 1.0 + kEps, dx, lambda(b));
    return dx;
  }

  std::vector<Param*> params() {
    auto p = mlp1_.params();
    for (auto* q : mlp2_.params()) p.push_back(q);
    return p;
  }

  static constexpr double kEps = 0.0;
  static constexpr double kLambda = 0.1;  // Eq. 4

 private:
  static double lambda(const B& b) {
    return b.mode() == SystemMode::kHalfGnn ? kLambda : 1.0;
  }

  Linear<B> mlp1_, mlp2_;
  std::vector<std::uint8_t> relu_mask_;
};

// ---------------------------------------------------------------------------
// GAT (Eq. 1, single head): z = xW; e = LeakyReLU(z a_l [row] + z a_r [col]);
// alpha = edge_softmax(e); y = SpMMve(alpha, z).
// ---------------------------------------------------------------------------
template <class B>
class GatConv {
 public:
  using Tensor = typename B::Tensor;

  GatConv(int in, int out, int /*hidden*/, Rng& rng)
      : lin_(in, out, /*bias=*/false, rng), al_(out, 1), ar_(out, 1) {
    xavier_init(al_.master(), rng);
    xavier_init(ar_.master(), rng);
    // Gentle attention init: raw scores start near zero so the edge
    // softmax starts near uniform (mean aggregation) instead of saturated.
    for (auto& v : al_.master().f()) v *= 0.2f;
    for (auto& v : ar_.master().f()) v *= 0.2f;
  }

  template <class X>
  Tensor forward(B& b, X&& x) {
    [[maybe_unused]] const auto span = b.layer_span("GatConv::forward");
    z_ = lin_.forward(b, "fwd.gemm", std::forward<X>(x));
    Tensor el = b.linear("fwd.gemm.el", z_, al_, nullptr);
    Tensor er = b.linear("fwd.gemm.er", z_, ar_, nullptr);
    s_ = b.edge_add_scalars("fwd.scores", el, er, kSlope);
    Tensor mx = b.seg_reduce("fwd.segmax", s_, kernels::SegReduce::kMax);
    Tensor p = b.edge_exp_sub_row("fwd.exp", s_, mx);
    Tensor d = b.seg_reduce("fwd.segsum", p, kernels::SegReduce::kSum);
    alpha_ = b.edge_div_row("fwd.softmax", p, d);
    b.meter(z_, s_, alpha_);  // state the backward pass holds on to
    // alpha is a convex combination: SpMMve-sum cannot overflow.
    return b.spmm("fwd.spmm", &alpha_, z_, kernels::Reduce::kSum);
  }

  Tensor backward(B& b, const Tensor& dy) {
    [[maybe_unused]] const auto span = b.layer_span("GatConv::backward");
    // d alpha_e = dot(dy[row], z[col]) — the backward SDDMM (Sec. 2.1.2).
    Tensor dalpha = b.sddmm("bwd.sddmm", dy, z_);
    // dz (aggregation term) = SpMMve(alpha, dy) over A^T; alpha rides
    // through the reverse-edge permutation first.
    Tensor dz = b.spmm_transposed("bwd.spmmT", &alpha_, dy,
                                  kernels::Reduce::kSum, "bwd.permA");
    // Softmax backward: ds = alpha * (dalpha - sum_row(alpha * dalpha)).
    Tensor t = b.edge_mul("bwd.mul", alpha_, dalpha);
    Tensor csum = b.seg_reduce("bwd.segsum.c", t, kernels::SegReduce::kSum);
    Tensor ds =
        b.edge_softmax_backward("bwd.softmax", alpha_, dalpha, csum);
    // LeakyReLU backward (slope > 0, so sign(s) == sign(pre-activation)).
    ds = b.edge_leaky_backward("bwd.leaky", s_, ds, kSlope);
    // Score backward: del_i = sum_{row=i} ds; der_j = sum_{col=j} ds.
    Tensor del = b.seg_reduce("bwd.segsum.del", ds, kernels::SegReduce::kSum);
    Tensor ds_rev = b.edge_permute("bwd.permDs", ds);
    Tensor der =
        b.seg_reduce("bwd.segsum.der", ds_rev, kernels::SegReduce::kSum);
    // Attention-vector gradients (float accumulate).
    b.weight_grad("bwd.dal", z_, del, al_, nullptr);
    b.weight_grad("bwd.dar", z_, der, ar_, nullptr);
    // dz += del a_l^T + der a_r^T (rank-1 updates).
    b.rank1("bwd.rank1.al", dz, del, al_);
    b.rank1("bwd.rank1.ar", dz, der, ar_);
    z_ = Tensor{};
    s_ = Tensor{};
    alpha_ = Tensor{};
    return lin_.backward(b, "bwd.dW", "bwd.dX", dz);
  }

  std::vector<Param*> params() {
    auto p = lin_.params();
    p.push_back(&al_);
    p.push_back(&ar_);
    return p;
  }

  static constexpr double kSlope = 0.2;

 private:
  Linear<B> lin_;
  Param al_, ar_;
  Tensor z_, s_, alpha_;
};

// ---------------------------------------------------------------------------
// Two-layer models (hidden = 64, as in Sec. 6)
// ---------------------------------------------------------------------------
template <class B, template <class> class Conv>
class TwoLayer {
 public:
  using Tensor = typename B::Tensor;

  TwoLayer(int in, int hidden, int out, Rng& rng)
      : c1_(in, hidden, hidden, rng), c2_(hidden, out, hidden, rng) {}

  // x must outlive backward: layer 1 keeps it by reference.
  Tensor forward(B& b, const Tensor& x) {
    b.at_layer(1);
    Tensor h = c1_.forward(b, x);
    b.relu_forward(h, mask_);
    b.at_layer(2);
    return c2_.forward(b, std::move(h));
  }

  void backward(B& b, const Tensor& dlogits) {
    b.at_layer(2);
    Tensor dh = c2_.backward(b, dlogits);
    b.relu_backward(dh, mask_);
    b.at_layer(1);
    (void)c1_.backward(b, dh);  // dX is not needed
  }

  std::vector<Param*> params() {
    auto p = c1_.params();
    for (auto* q : c2_.params()) p.push_back(q);
    return p;
  }

 private:
  Conv<B> c1_, c2_;
  std::vector<std::uint8_t> mask_;
};

enum class ModelKind { kGcn, kGat, kGin };

inline const char* model_name(ModelKind k) {
  switch (k) {
    case ModelKind::kGcn: return "GCN";
    case ModelKind::kGat: return "GAT";
    case ModelKind::kGin: return "GIN";
  }
  return "?";
}

// The --model spellings of the command-line tools.
inline constexpr util::Token<ModelKind> kModelFlags[] = {
    {"gcn", ModelKind::kGcn},
    {"gat", ModelKind::kGat},
    {"gin", ModelKind::kGin}};

// The trainer's view of a two-layer model: the layer code above run by the
// trainer's backend (nn/exec.hpp).
class Model {
 public:
  virtual ~Model() = default;
  virtual MTensor forward(const SparseCtx& ctx, const GraphCtx& g,
                          const MTensor& x) = 0;
  virtual void backward(const SparseCtx& ctx, const GraphCtx& g,
                        const MTensor& dlogits) = 0;
  virtual std::vector<Param*> params() = 0;
};

std::unique_ptr<Model> make_model(ModelKind kind, int in_dim, int hidden,
                                  int out_dim, Rng& rng);

// Runs the layer code of `kind` on feature widths alone and throws
// std::invalid_argument when a sparse op meets a kernel in its (mode, dt)
// dispatch chain that cannot take the op's width (KernelRow::feat_multiple)
// — the launch that would otherwise throw mid-epoch. No kernel runs.
void check_feature_widths(ModelKind kind, SystemMode mode, Dtype dt,
                          int in_dim, int hidden, int out_dim);

}  // namespace hg::nn
