// Dense operations over MTensor: GEMM, activations, reductions, dtype
// conversions, and the fused softmax-cross-entropy loss.
//
// These are the "everything else" kernels of GNN training — linear layers,
// bias, activation, loss — which the paper notes are shared between
// baseline and HalfGNN (both ride PyTorch/cuBLAS). Functionally they run on
// the host; their modeled device time comes from the analytic roofline in
// CostLedger. Numerics follow the device semantics: f16 GEMM multiplies in
// half and accumulates in float (tensor-core style), elementwise f16 ops
// round after every operation.
//
// Host parallelism: while a DensePoolScope is open on the calling thread,
// gemm, softmax_xent, to_dtype and the row-wise elementwise ops split their
// rows (or elements) over that device's worker pool. Every output bit is
// independent of the split, so results match the serial run at any
// HALFGNN_THREADS (DESIGN.md Sec. 8).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/ledger.hpp"
#include "tensor/tensor.hpp"

namespace hg {

namespace simt {
class Device;
}  // namespace simt

// Ambient worker pool of the dense ops on this thread. The dense ops take
// no Device (their signatures are fixed), so a caller that owns one opens
// this scope around its run: ops large enough to pay for a pool round trip
// then run their row ranges through Device::run_host_jobs, which takes the
// device's launch mutex. Kernels never call dense ops (hg_kernels does not
// link hg_tensor), so the mutex is never already held on entry. A null
// device, a one-thread device or no open scope keeps every op serial on the
// calling thread. Scopes nest; closing one restores the previous pool.
class DensePoolScope {
 public:
  explicit DensePoolScope(simt::Device* dev) noexcept;
  ~DensePoolScope();
  DensePoolScope(const DensePoolScope&) = delete;
  DensePoolScope& operator=(const DensePoolScope&) = delete;

 private:
  simt::Device* prev_;
};

// out = convert(in) to `dt`; charges the conversion to the ledger (this is
// the Sec. 3.1.2 churn being metered).
MTensor to_dtype(const MTensor& in, Dtype dt, CostLedger* ledger);

// C = op_a(A) * op_b(B). A and B must share a dtype; C must be pre-shaped.
// f16 x f16 may write into an f32 C (tensor-core float accumulate output) —
// used for weight gradients so master grads never round through half.
void gemm(const MTensor& a, bool trans_a, const MTensor& b, bool trans_b,
          MTensor& c, CostLedger* ledger);

// x[r, :] += bias[0, :] (bias is a 1 x C float master tensor).
void add_bias_rows(MTensor& x, const MTensor& bias, CostLedger* ledger);

// In-place ReLU; mask receives 1 where the input was positive.
void relu_forward(MTensor& x, std::vector<std::uint8_t>& mask,
                  CostLedger* ledger);
// In-place: grad *= mask.
void relu_backward(MTensor& grad, const std::vector<std::uint8_t>& mask,
                   CostLedger* ledger);

// x[r, :] *= s[r] (used for degree scalings in backward passes).
void scale_rows(MTensor& x, std::span<const float> s, CostLedger* ledger);

// out(1 x C, f32) = column sums of x (bias gradient).
void colsum(const MTensor& x, MTensor& out, CostLedger* ledger);

// y = alpha * x + beta * y, elementwise (same shape/dtype).
void axpby(const MTensor& x, float alpha, MTensor& y, float beta,
           CostLedger* ledger);

struct LossResult {
  double loss = 0;          // mean masked cross-entropy (NaN propagates!)
  double correct = 0;       // # correct predictions among masked rows
  double count = 0;         // # masked rows
};

// Fused masked softmax + cross-entropy, computed in float (AMP promotes
// it; the paper's Sec. 3.1.2 list). Only the first `valid_classes` columns
// participate (feature padding adds dead logit columns). dlogits gets the
// gradient scaled by `grad_scale` (the GradScaler factor), in the logits'
// dtype. When logits are f16 the round trip through float is charged as
// two tensor conversions. Each row is one pass: one read of the logits,
// one exp per logit serving both the sum and the gradient, one write of
// the gradient with the mean-reduction factor applied.
LossResult softmax_xent(const MTensor& logits, std::span<const int> labels,
                        std::span<const std::uint8_t> mask, bool use_masked,
                        int valid_classes, float grad_scale,
                        MTensor* dlogits, CostLedger* ledger);

// Accuracy over rows where mask == expect (e.g. expect=0 -> test split).
double masked_accuracy(const MTensor& logits, std::span<const int> labels,
                       std::span<const std::uint8_t> mask,
                       std::uint8_t expect, int valid_classes);

}  // namespace hg
