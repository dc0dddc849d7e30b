#include "nn/models.hpp"

#include "nn/exec.hpp"

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

}  // namespace

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
