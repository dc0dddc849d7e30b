// CostLedger: accumulates the modeled execution time of a training run;
// MemoryMeter: the modeled memory of one (Fig. 6).
//
// Sparse kernels contribute their SIMT-simulated KernelStats; dense ops
// (GEMM, elementwise, conversions) contribute an analytic roofline estimate
// on the same A100-like device — the paper notes both systems share the
// identical PyTorch dense kernels, so an analytic model is exact enough for
// the *relative* training-time figures (Fig. 7/8). Conversion time and
// counts are tracked separately because the data-conversion churn of naive
// mixed precision (Sec. 3.1.2) is itself one of the measured effects.
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simt/stats.hpp"

namespace hg {

struct DenseCost {
  // A100-ish peaks: fp32 CUDA cores, fp16 tensor cores (practical), HBM.
  double f32_flops = 19.5e12;
  double f16_flops = 120e12;
  double hbm_bytes_per_s = 1.4e12;
  double launch_us = 1.5;  // per dense kernel launch

  double gemm_ms(std::int64_t m, std::int64_t n, std::int64_t k,
                 bool half) const {
    const double flops = 2.0 * static_cast<double>(m) *
                         static_cast<double>(n) * static_cast<double>(k);
    const double bytes =
        (half ? 2.0 : 4.0) *
        (static_cast<double>(m) * static_cast<double>(k) +
         static_cast<double>(k) * static_cast<double>(n) +
         static_cast<double>(m) * static_cast<double>(n));
    const double t = std::max(flops / (half ? f16_flops : f32_flops),
                              bytes / hbm_bytes_per_s);
    return t * 1e3 + launch_us * 1e-3;
  }

  double elementwise_ms(std::uint64_t bytes) const {
    return static_cast<double>(bytes) / hbm_bytes_per_s * 1e3 +
           launch_us * 1e-3;
  }
};

struct CostLedger {
  DenseCost dense_cost;

  // Per-kernel framework dispatch overhead (framework op dispatch, stream
  // submission). GNNBench [10, 12] — the platform the paper integrates
  // into — measures DGL spending substantial time outside kernels; the
  // trainer sets this per system mode (DGL modes pay more than the
  // integrated HalfGNN path).
  double dispatch_us_per_kernel = 0;

  double dense_ms = 0;
  double sparse_ms = 0;
  double convert_ms = 0;

  std::uint64_t sparse_kernels = 0;
  std::uint64_t dense_kernels = 0;
  // Tensor dtype conversions (the Sec. 3.1.2 churn).
  std::uint64_t conversions = 0;
  std::uint64_t converted_bytes = 0;

  double dispatch_ms() const {
    return dispatch_us_per_kernel * 1e-3 *
           static_cast<double>(sparse_kernels + dense_kernels + conversions);
  }
  double total_ms() const {
    return dense_ms + sparse_ms + convert_ms + dispatch_ms();
  }

  void add_sparse(const simt::KernelStats& ks) {
    sparse_ms += ks.time_ms;
    ++sparse_kernels;
    // The launch itself already emitted the kernel span / counters; the
    // ledger only tallies aggregate sparse time.
    if (obs::registry().enabled()) {
      obs::registry().add_counter("ledger.sparse_kernels");
    }
  }
  void add_gemm(std::int64_t m, std::int64_t n, std::int64_t k, bool half) {
    const double ms = dense_cost.gemm_ms(m, n, k, half);
    dense_ms += ms;
    ++dense_kernels;
    if (obs::tracer().enabled()) {
      // Roofline annotation: which side of the max() bound this GEMM.
      const double flops = 2.0 * static_cast<double>(m) *
                           static_cast<double>(n) * static_cast<double>(k);
      const double flop_ms =
          flops / (half ? dense_cost.f16_flops : dense_cost.f32_flops) * 1e3;
      obs::trace_complete(
          "gemm", "dense", ms,
          {{"m", m},
           {"n", n},
           {"k", k},
           {"dtype", half ? "f16" : "f32"},
           {"time_ms", ms},
           {"bound", flop_ms * 2 > ms ? "compute" : "bandwidth"}});
    }
    if (obs::registry().enabled()) {
      obs::registry().add_counter("ledger.dense_kernels");
    }
  }
  void add_elementwise(std::uint64_t bytes) {
    const double ms = dense_cost.elementwise_ms(bytes);
    dense_ms += ms;
    ++dense_kernels;
    if (obs::tracer().enabled()) {
      obs::trace_complete("elementwise", "dense", ms,
                          {{"bytes", bytes}, {"time_ms", ms}});
    }
    if (obs::registry().enabled()) {
      obs::registry().add_counter("ledger.dense_kernels");
    }
  }
  void add_conversion(std::uint64_t bytes) {
    // A dtype cast reads + writes the tensor.
    const double ms = dense_cost.elementwise_ms(bytes * 3 / 2);
    convert_ms += ms;
    ++conversions;
    converted_bytes += bytes;
    if (obs::tracer().enabled()) {
      obs::trace_complete("dtype_convert", "convert", ms,
                          {{"bytes", bytes}, {"time_ms", ms}});
    }
    if (obs::registry().enabled()) {
      obs::registry().add_counter("ledger.conversions");
      obs::registry().add_counter("ledger.converted_bytes",
                                  static_cast<double>(bytes));
    }
  }

  // The charges a checkpoint carries (dense_cost is configuration).
  template <class Ar>
  void fields(Ar& ar) {
    ar(dispatch_us_per_kernel, dense_ms, sparse_ms, convert_ms, sparse_kernels,
       dense_kernels, conversions, converted_bytes);
  }

  CostLedger& operator+=(const CostLedger& o) {
    dense_ms += o.dense_ms;
    sparse_ms += o.sparse_ms;
    convert_ms += o.convert_ms;
    sparse_kernels += o.sparse_kernels;
    dense_kernels += o.dense_kernels;
    conversions += o.conversions;
    converted_bytes += o.converted_bytes;
    return *this;
  }
};

// Memory accounting for Fig. 6 (see EXPERIMENTS.md for the model).
struct MemoryMeter {
  std::uint64_t graph_bytes = 0;
  std::uint64_t state_bytes = 0;   // saved activations / state tensors
  std::uint64_t param_bytes = 0;   // master weights + Adam moments
  std::uint64_t workspace_bytes = 0;
  std::uint64_t framework_overhead = 0;

  std::uint64_t total() const {
    return graph_bytes + state_bytes + param_bytes + workspace_bytes +
           framework_overhead;
  }
  void add_state(std::uint64_t bytes) { state_bytes += bytes; }

  template <class Ar>
  void fields(Ar& ar) {
    ar(graph_bytes, state_bytes, param_bytes, workspace_bytes,
       framework_overhead);
  }
};

}  // namespace hg
