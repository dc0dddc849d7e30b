// The three system modes the paper evaluates, and the sparse-op dispatcher
// that encodes exactly which kernel each system runs:
//
//   kDglFloat — the DGL-float baseline: float32 everywhere, cuSPARSE-like
//               float SpMM (post-reduction degree norm), DGL float SDDMM,
//               float edge ops.
//   kDglHalf  — DGL with half state tensors under PyTorch AMP semantics:
//               cuSPARSE-like *half* SpMM (slow, and overflowing — the
//               Fig. 1 behaviour), DGL half SDDMM, and AMP's float
//               promotions around exp / sum with the resulting tensor
//               conversion churn (Sec. 3.1.2), all metered.
//   kHalfGnn  — the paper's system: discretized-scaled edge-parallel SpMM,
//               half8 SDDMM, shadow-API half edge ops, no conversions.
#pragma once

#include <optional>

#include "graph/datasets.hpp"
#include "kernels/api.hpp"
#include "tensor/ledger.hpp"
#include "tensor/tensor.hpp"
#include "util/parse.hpp"

namespace hg::nn {

enum class SystemMode { kDglFloat, kDglHalf, kHalfGnn };

inline Dtype working_dtype(SystemMode m) {
  return m == SystemMode::kDglFloat ? Dtype::kF32 : Dtype::kF16;
}
inline const char* mode_name(SystemMode m) {
  switch (m) {
    case SystemMode::kDglFloat: return "DGL-float";
    case SystemMode::kDglHalf: return "DGL-half";
    case SystemMode::kHalfGnn: return "HalfGNN";
  }
  return "?";
}

// The --mode spellings of the command-line tools.
inline constexpr util::Token<SystemMode> kModeFlags[] = {
    {"float", SystemMode::kDglFloat},
    {"half", SystemMode::kDglHalf},
    {"halfgnn", SystemMode::kHalfGnn}};

// Feature padding (Sec. 4.1.2 / 5.1.3): HalfGNN requires even SpMM widths
// and multiple-of-8 SDDMM widths; we pad every layer width to a multiple
// of 8 in all modes so the compared models are identical.
inline int pad_feat(int f) { return (f + 7) / 8 * 8; }

// Topology context shared by all layers operating on one dataset.
class GraphCtx {
 public:
  explicit GraphCtx(const Csr& csr, const Coo& coo)
      : csr_(&csr), coo_(&coo), inv_deg_(static_cast<std::size_t>(
                                    csr.num_vertices)) {
    for (vid_t v = 0; v < csr.num_vertices; ++v) {
      inv_deg_[static_cast<std::size_t>(v)] =
          1.0f / static_cast<float>(std::max<vid_t>(1, csr.degree(v)));
    }
  }

  kernels::GraphView view() const { return kernels::view(*csr_, *coo_); }
  const Csr& csr() const { return *csr_; }
  vid_t n() const { return csr_->num_vertices; }
  eid_t m() const { return csr_->num_edges(); }
  std::span<const float> inv_deg() const { return inv_deg_; }

  // Lazily built reverse-edge permutation (transpose support; all datasets
  // are symmetric so the topology itself is shared).
  std::span<const eid_t> rev_perm() const {
    if (perm_.empty()) perm_ = reverse_edge_permutation(*csr_);
    return perm_;
  }

 private:
  const Csr* csr_;
  const Coo* coo_;
  std::vector<float> inv_deg_;
  mutable std::vector<eid_t> perm_;
};

class TrainGuard;  // nn/guard.hpp

// Everything a layer call needs to know about *how* to execute.
struct SparseCtx {
  simt::Stream* stream = &simt::default_stream();
  SystemMode mode = SystemMode::kDglFloat;
  bool profiled = false;       // run kernels under the cost model
  CostLedger* ledger = nullptr;
  MemoryMeter* meter = nullptr;  // non-null: meter state tensors this pass
  // Non-null: sparse ops retry injected LaunchFaults and may dispatch down
  // a per-site fallback chain after persistent non-finite outputs
  // (nn/guard.hpp; nullptr = exactly the historical dispatch).
  TrainGuard* guard = nullptr;
  // Working dtype override from the precision lattice. Unset = the
  // historical mode-implied dtype (kDglFloat -> f32, else f16), so every
  // pre-lattice call site dispatches exactly as before. bf16 trains
  // end-to-end; i8/b1 are inference-only overrides applied at eval.
  std::optional<Dtype> dtype_override;

  Dtype dtype() const {
    return dtype_override.value_or(working_dtype(mode));
  }
};

}  // namespace hg::nn
