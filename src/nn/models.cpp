#include "nn/models.hpp"

#include <stdexcept>
#include <string>

#include "nn/exec.hpp"
#include "nn/kernel_table.hpp"

namespace hg::nn {

namespace {

template <template <class> class Conv>
class Net final : public Model {
 public:
  Net(int in, int hidden, int out, Rng& rng) : net_(in, hidden, out, rng) {}

  MTensor forward(const SparseCtx& ctx, const GraphCtx& g,
                  const MTensor& x) override {
    Exec b(ctx, g);
    return net_.forward(b, x);
  }

  void backward(const SparseCtx& ctx, const GraphCtx& g,
                const MTensor& dlogits) override {
    Exec b(ctx, g);
    net_.backward(b, dlogits);
  }

  std::vector<Param*> params() override { return net_.params(); }

 private:
  TwoLayer<Exec, Conv> net_;
};

// The shape-only backend: a tensor is its column count, and every sparse
// call checks that count against each kernel of the op's chain.
class WidthProbe {
 public:
  struct Tensor {
    std::int64_t cols = 0;
  };
  struct NoSpan {};

  WidthProbe(ModelKind kind, SystemMode mode, Dtype dt)
      : kind_(kind), mode_(mode), dt_(dt) {}

  SystemMode mode() const { return mode_; }
  void at_layer(int /*layer*/) {}
  NoSpan layer_span(const char* /*name*/) const { return {}; }
  Tensor copy(const Tensor& x) const { return x; }
  template <class... Ts>
  void meter(const Ts&... /*state*/) const {}

  Tensor linear(const char* /*site*/, const Tensor& /*x*/, Param& w,
                Param* /*bias*/) const {
    return {w.master().cols()};
  }
  void weight_grad(const char* /*site*/, const Tensor& /*x*/,
                   const Tensor& /*dy*/, Param& /*w*/,
                   Param* /*bias*/) const {}
  Tensor input_grad(const char* /*site*/, const Tensor& /*dy*/,
                    Param& w) const {
    return {w.master().rows()};
  }
  void rank1(const char* /*site*/, Tensor& /*dz*/, const Tensor& /*d*/,
             Param& /*a*/) const {}
  void axpby(const char* /*site*/, const Tensor& /*x*/, double /*alpha*/,
             Tensor& /*y*/, double /*beta*/) const {}
  void scale_rows(Tensor& /*x*/) const {}
  void relu_forward(Tensor& /*x*/, std::vector<std::uint8_t>& /*mask*/) const {
  }
  void relu_backward(Tensor& /*g*/,
                     const std::vector<std::uint8_t>& /*mask*/) const {}

  Tensor spmm(const char* /*site*/, const Tensor* /*ew*/, const Tensor& x,
              kernels::Reduce /*r*/) const {
    return check(Op::kSpmm, x);
  }
  Tensor spmm_transposed(const char* site, const Tensor* ew, const Tensor& x,
                         kernels::Reduce r,
                         const char* /*perm_site*/ = nullptr) const {
    if (ew != nullptr) edge_permute(site, *ew);
    return spmm(site, ew, x, r);
  }
  Tensor sddmm(const char* /*site*/, const Tensor& a,
               const Tensor& /*b*/) const {
    check(Op::kSddmm, a);
    return {1};
  }
  Tensor seg_reduce(const char* /*site*/, const Tensor& v,
                    kernels::SegReduce r) const {
    return check(r == kernels::SegReduce::kSum ? Op::kSegSum : Op::kSegMax,
                 v);
  }
  Tensor edge_add_scalars(const char* /*site*/, const Tensor& el,
                          const Tensor& /*er*/, double /*slope*/) const {
    return check(Op::kEdgeAddScalars, el);
  }
  Tensor edge_exp_sub_row(const char* /*site*/, const Tensor& v,
                          const Tensor& /*rowv*/) const {
    return check(Op::kEdgeExp, v);
  }
  Tensor edge_div_row(const char* /*site*/, const Tensor& v,
                      const Tensor& /*rowv*/) const {
    return check(Op::kEdgeDivRow, v);
  }
  Tensor edge_mul(const char* /*site*/, const Tensor& a,
                  const Tensor& /*b*/) const {
    return check(Op::kEdgeMul, a);
  }
  Tensor edge_softmax_backward(const char* /*site*/, const Tensor& alpha,
                               const Tensor& /*dalpha*/,
                               const Tensor& /*c*/) const {
    return check(Op::kEdgeSoftmaxBackward, alpha);
  }
  Tensor edge_leaky_backward(const char* /*site*/, const Tensor& /*pre*/,
                             const Tensor& grad, double /*slope*/) const {
    return check(Op::kEdgeLeakyBackward, grad);
  }
  Tensor edge_permute(const char* /*site*/, const Tensor& in) const {
    return check(Op::kEdgePermute, in);
  }

 private:
  Tensor check(Op op, const Tensor& x) const {
    const Chain& chain = dispatch_chain(op, mode_, dt_);
    for (int i = 0; i < chain.len; ++i) {
      const KernelRow& row = kernel_row(chain.at(i).kernel);
      if (x.cols % row.feat_multiple != 0) {
        throw std::invalid_argument(
            std::string(model_name(kind_)) + " " + mode_name(mode_) + " " +
            std::string(dtype_name(dt_)) + ": " + std::string(op_name(op)) +
            " runs " + std::string(row.label) +
            ", which takes feature widths that are multiples of " +
            std::to_string(row.feat_multiple) + ", not " +
            std::to_string(x.cols));
      }
    }
    return x;
  }

  ModelKind kind_;
  SystemMode mode_;
  Dtype dt_;
};

template <template <class> class Conv>
void probe_widths(ModelKind kind, SystemMode mode, Dtype dt, int in_dim,
                  int hidden, int out_dim) {
  Rng rng(0);  // the probe's parameters are never read
  TwoLayer<WidthProbe, Conv> net(in_dim, hidden, out_dim, rng);
  WidthProbe b(kind, mode, dt);
  const WidthProbe::Tensor x{in_dim};  // layer 1 keeps it until backward
  const WidthProbe::Tensor logits = net.forward(b, x);
  net.backward(b, logits);
}

}  // namespace

void check_feature_widths(ModelKind kind, SystemMode mode, Dtype dt,
                          int in_dim, int hidden, int out_dim) {
  // Nothing to find when every width suits every kernel; the probe's model
  // would only churn the heap of a long-running trainer.
  const int all = common_feat_multiple();
  if (in_dim % all == 0 && hidden % all == 0 && out_dim % all == 0) return;
  switch (kind) {
    case ModelKind::kGcn:
      return probe_widths<GcnConv>(kind, mode, dt, in_dim, hidden, out_dim);
    case ModelKind::kGat:
      return probe_widths<GatConv>(kind, mode, dt, in_dim, hidden, out_dim);
    case ModelKind::kGin:
      return probe_widths<GinConv>(kind, mode, dt, in_dim, hidden, out_dim);
  }
}

std::unique_ptr<Model> make_model(ModelKind kind, int in_dim, int hidden,
                                  int out_dim, Rng& rng) {
  switch (kind) {
    case ModelKind::kGcn:
      return std::make_unique<Net<GcnConv>>(in_dim, hidden, out_dim, rng);
    case ModelKind::kGat:
      return std::make_unique<Net<GatConv>>(in_dim, hidden, out_dim, rng);
    case ModelKind::kGin:
      return std::make_unique<Net<GinConv>>(in_dim, hidden, out_dim, rng);
  }
  throw std::invalid_argument("make_model: unknown kind");
}

}  // namespace hg::nn
