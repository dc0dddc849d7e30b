#include "nn/sparse_dispatch.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "kernels/bf16_ops.hpp"
#include "kernels/int8_ops.hpp"
#include "kernels/reference.hpp"
#include "kernels/sddmm.hpp"
#include "kernels/spmm_binary.hpp"
#include "kernels/spmm_cusparse_like.hpp"
#include "kernels/spmm_halfgnn.hpp"
#include "nn/guard.hpp"
#include "nn/kernel_table.hpp"
#include "obs/trace.hpp"
#include "simt/fault.hpp"
#include "tensor/dense_ops.hpp"

namespace hg::nn {

namespace {

void charge(const SparseCtx& ctx, const simt::KernelStats& ks) {
  if (ctx.ledger != nullptr) ctx.ledger->add_sparse(ks);
}

// Records the chain entry an op runs and why: an instant trace event plus
// a dispatch.<op>.<label> counter. Only pays when the tracer or registry is
// enabled; entries without a reason announce nothing.
void announce(Op op, const ChainEntry& e) {
  if (e.why.empty()) return;
  if (obs::tracer().enabled() || obs::registry().enabled()) {
    obs::dispatch_decision(std::string(op_name(op)),
                           std::string(kernel_row(e.kernel).label),
                           std::string(e.why));
  }
}

// kDglHalf promotion helper: run `f32_op` on a half tensor through the AMP
// float round trip, charging both conversions.
template <class F32Op>
MTensor promoted(const SparseCtx& ctx, const MTensor& in, F32Op&& op) {
  MTensor in_f = to_dtype(in, Dtype::kF32, ctx.ledger);
  MTensor out_f = op(in_f);
  return to_dtype(out_f, Dtype::kF16, ctx.ledger);
}

// Runs the body of `op`'s chain entry `e`, announcing the entry at every
// attempt, and retries on injected simt::LaunchFault up to the guard's
// budget of attempts per call (the injector's launch ordinal advances on
// every attempt, so a transient failure clears on retry). Bodies allocate
// their outputs inside the lambda, so a fault that interrupts a multi-launch
// op leaves no partial state behind for the retry. Without a guard the
// fault propagates to the caller untouched.
template <class F>
MTensor guarded(const SparseCtx& ctx, Op op, const ChainEntry& e, F&& body) {
  const int budget =
      ctx.guard != nullptr ? std::max(1, ctx.guard->retry_budget()) : 1;
  for (int attempt = 1;; ++attempt) {
    try {
      announce(op, e);
      return body();
    } catch (const simt::LaunchFault&) {
      if (attempt >= budget) throw;
      ctx.guard->count_retry(std::string(op_name(op)));
    }
  }
}

// Runs body(entry) for the chain entry at the guard's level of an
// escalating op (spmm, sddmm), then feeds the output's health back to the
// guard; its audit record names the kernel one level further down.
template <class Body>
MTensor escalating(const SparseCtx& ctx, Op op, Body&& body) {
  const Chain& chain = dispatch_chain(op, ctx.mode, ctx.dtype());
  const std::string site(op_name(op));
  const int level = ctx.guard != nullptr
                        ? std::min(ctx.guard->level(site), chain.len - 1)
                        : 0;
  const ChainEntry& e = chain.at(level);
  MTensor out = guarded(ctx, op, e, [&] { return body(e); });
  if (ctx.guard != nullptr) {
    ctx.guard->observe_output(
        site, out.has_nonfinite(), chain.len,
        std::string(kernel_row(chain.at(level + 1).kernel).label));
  }
  return out;
}

// The element type a Dtype stores, as a tag: one generic body runs the
// f32, bf16 or f16 flavour of a kernel family.
template <class Fn>
decltype(auto) with_element(Dtype dt, Fn&& fn) {
  switch (dt) {
    case Dtype::kF32: return fn(std::type_identity<float>{});
    case Dtype::kBf16: return fn(std::type_identity<bf16_t>{});
    default: return fn(std::type_identity<half_t>{});
  }
}

// MTensor's storage as a span of T.
template <class T, class M>
auto elems(M& t) {
  if constexpr (std::is_same_v<T, float>) {
    return t.f();
  } else if constexpr (std::is_same_v<T, bf16_t>) {
    return t.b();
  } else {
    return t.h();
  }
}

// The T flavour of a per-dtype kernel family.
template <class T, class F32, class Bf16, class F16>
auto flavour(F32 f32, Bf16 bf16, F16 f16) {
  if constexpr (std::is_same_v<T, float>) {
    return f32;
  } else if constexpr (std::is_same_v<T, bf16_t>) {
    return bf16;
  } else {
    return f16;
  }
}

// Runs the one entry of an edge op at `dt`: allocates a rows x cols output
// in the row's storage and charges launch(element tag, out).
template <class Launch>
MTensor run_edge(const SparseCtx& ctx, Op op, Dtype dt, std::int64_t rows,
                 std::int64_t cols, Launch&& launch) {
  const ChainEntry& e = dispatch_chain(op, ctx.mode, dt).at(0);
  const Dtype storage = kernel_row(e.kernel).storage;
  return guarded(ctx, op, e, [&]() -> MTensor {
    MTensor out = MTensor::zeros(storage, rows, cols);
    charge(ctx, with_element(storage, [&](auto tag) {
             return launch(tag, out);
           }));
    return out;
  });
}

std::vector<float> to_f32_copy(const MTensor& t) {
  const MTensor f = to_dtype(t, Dtype::kF32, nullptr);
  return {f.f().begin(), f.f().end()};
}

// A host f64 result stored as `dt`, rounded through float.
MTensor from_f64(const std::vector<double>& ref, Dtype dt, std::int64_t rows,
                 std::int64_t cols) {
  MTensor f = MTensor::f32(rows, cols);
  std::transform(ref.begin(), ref.end(), f.f().begin(),
                 [](double v) { return static_cast<float>(v); });
  return to_dtype(f, dt, nullptr);
}

// Last link of every TrainGuard fallback chain: the serial host reference
// (double accumulation). It never touches the SIMT substrate, so injected
// faults cannot reach it; it also charges nothing to the cost model — the
// guard has given up on the modeled kernel for this site.
MTensor spmm_reference(const GraphCtx& g, const MTensor* edge_w,
                       const MTensor& x, kernels::Reduce reduce) {
  const int feat = static_cast<int>(x.cols());
  std::vector<float> wf;
  if (edge_w != nullptr) wf = to_f32_copy(*edge_w);
  return from_f64(
      kernels::reference_spmm(g.csr(), wf, to_f32_copy(x), feat, reduce),
      x.dtype(), g.n(), feat);
}

MTensor sddmm_reference(const GraphCtx& g, const MTensor& a,
                        const MTensor& b) {
  return from_f64(kernels::reference_sddmm(*g.view().coo, to_f32_copy(a),
                                           to_f32_copy(b),
                                           static_cast<int>(a.cols())),
                  a.dtype(), g.m(), 1);
}

}  // namespace

MTensor spmm(const SparseCtx& ctx, const GraphCtx& g, const MTensor* edge_w,
             const MTensor& x, kernels::Reduce reduce) {
  const int feat = static_cast<int>(x.cols());
  return escalating(ctx, Op::kSpmm, [&](const ChainEntry& e) -> MTensor {
    const Dtype dt = kernel_row(e.kernel).storage;
    // The row-parallel f32/f16 cuSPARSE-like kernels and bf16's share one
    // signature.
    const auto row_parallel = [&](const MTensor* w, const MTensor& xs) {
      MTensor out = MTensor::zeros(dt, g.n(), feat);
      charge(ctx, with_element(dt, [&]<class T>(std::type_identity<T>) {
               return flavour<T>(kernels::spmm_cusparse_f32, kernels::spmm_bf16,
                                 kernels::spmm_cusparse_f16)(
                   *ctx.stream, ctx.profiled, g.view(),
                   w != nullptr ? elems<T>(*w) : std::span<const T>{},
                   elems<T>(xs), elems<T>(out), feat, reduce);
             }));
      return out;
    };
    switch (e.kernel) {
      case Kernel::kSpmmHalfgnn: {
        kernels::HalfgnnSpmmOpts opts;
        opts.reduce = reduce;
        opts.scale = kernels::ScaleMode::kDiscretized;
        MTensor out = MTensor::f16(g.n(), feat);
        charge(ctx, kernels::spmm_halfgnn(
                        *ctx.stream, ctx.profiled, g.view(),
                        edge_w != nullptr ? edge_w->h()
                                          : std::span<const half_t>{},
                        x.h(), out.h(), feat, opts));
        return out;
      }
      case Kernel::kSpmmInt8: {
        // PTQ path: operands arrive f32 (the model trained in f32); quantize
        // on the way in, accumulate int32, dequantize in the kernel epilogue.
        const kernels::QuantParams xq = kernels::calibrate_int8(x.f());
        AlignedVec<std::int8_t> xqbuf(x.numel());
        charge(ctx, kernels::quantize_int8(*ctx.stream, ctx.profiled, x.f(),
                                           std::span<std::int8_t>(xqbuf), xq));
        kernels::QuantParams wq;
        AlignedVec<std::int8_t> wqbuf;
        if (edge_w != nullptr && reduce != kernels::Reduce::kMax) {
          wq = kernels::calibrate_int8(edge_w->f());
          wqbuf.resize(edge_w->numel());
          charge(ctx,
                 kernels::quantize_int8(*ctx.stream, ctx.profiled, edge_w->f(),
                                        std::span<std::int8_t>(wqbuf), wq));
        }
        MTensor out = MTensor::f32(g.n(), feat);
        charge(ctx, kernels::spmm_int8(
                        *ctx.stream, ctx.profiled, g.view(),
                        std::span<const std::int8_t>(wqbuf), wq,
                        std::span<const std::int8_t>(xqbuf), xq, out.f(), feat,
                        reduce));
        return out;
      }
      case Kernel::kSpmmBinary: {
        kernels::BinarizedFeatures xb;
        charge(ctx, kernels::binarize_pack(*ctx.stream, ctx.profiled, x.f(),
                                           static_cast<vid_t>(x.rows()), feat,
                                           xb));
        MTensor out = MTensor::f32(g.n(), feat);
        charge(ctx, kernels::spmm_binary(*ctx.stream, ctx.profiled, g.view(),
                                         xb, out.f(), feat, reduce));
        return out;
      }
      case Kernel::kSpmmReference:
        return spmm_reference(g, edge_w, x, reduce);
      default: {
        if (!e.promoted) return row_parallel(edge_w, x);
        MTensor w_f;
        if (edge_w != nullptr) w_f = to_dtype(*edge_w, Dtype::kF32, ctx.ledger);
        return promoted(ctx, x, [&](const MTensor& x_f) {
          return row_parallel(edge_w != nullptr ? &w_f : nullptr, x_f);
        });
      }
    }
  });
}

MTensor spmm_transposed(const SparseCtx& ctx, const GraphCtx& g,
                        const MTensor* edge_w, const MTensor& x,
                        kernels::Reduce reduce) {
  if (edge_w == nullptr) {
    return spmm(ctx, g, nullptr, x, reduce);  // symmetric topology
  }
  MTensor wp = edge_permute(ctx, *edge_w, g.rev_perm());
  return spmm(ctx, g, &wp, x, reduce);
}

MTensor sddmm(const SparseCtx& ctx, const GraphCtx& g, const MTensor& a,
              const MTensor& b) {
  if (a.cols() != b.cols()) {
    throw std::invalid_argument("sddmm: feature width mismatch");
  }
  const int feat = static_cast<int>(a.cols());
  return escalating(ctx, Op::kSddmm, [&](const ChainEntry& e) -> MTensor {
    if (e.kernel == Kernel::kSddmmReference) return sddmm_reference(g, a, b);
    MTensor o = MTensor::zeros(a.dtype(), g.m(), 1);
    if (e.kernel == Kernel::kSddmmHalfgnn) {
      charge(ctx, kernels::sddmm_halfgnn(*ctx.stream, ctx.profiled, g.view(),
                                         a.h(), b.h(), o.h(), feat,
                                         kernels::SddmmVec::kHalf8));
      return o;
    }
    // The scalar-load DGL-style kernels (f32, f16) and bf16's.
    charge(ctx, with_element(kernel_row(e.kernel).storage,
                             [&]<class T>(std::type_identity<T>) {
                               return flavour<T>(kernels::sddmm_dgl_f32,
                                                 kernels::sddmm_bf16,
                                                 kernels::sddmm_dgl_f16)(
                                   *ctx.stream, ctx.profiled, g.view(),
                                   elems<T>(a), elems<T>(b), elems<T>(o),
                                   feat);
                             }));
    return o;
  });
}

MTensor seg_reduce(const SparseCtx& ctx, const GraphCtx& g,
                   const MTensor& edge_vals, kernels::SegReduce reduce) {
  const Op op =
      reduce == kernels::SegReduce::kSum ? Op::kSegSum : Op::kSegMax;
  const ChainEntry& e = dispatch_chain(op, ctx.mode, ctx.dtype()).at(0);
  const Dtype dt = kernel_row(e.kernel).storage;
  return guarded(ctx, op, e, [&]() -> MTensor {
    const auto run = [&](const MTensor& vals) {
      MTensor out = MTensor::zeros(dt, g.n(), 1);
      charge(ctx, with_element(dt, [&]<class T>(std::type_identity<T>) {
               return flavour<T>(kernels::edge_segment_reduce_f32,
                                 kernels::edge_segment_reduce_bf16,
                                 kernels::edge_segment_reduce_f16)(
                   *ctx.stream, ctx.profiled, g.view(), elems<T>(vals),
                   elems<T>(out), reduce);
             }));
      return out;
    };
    return e.promoted ? promoted(ctx, edge_vals, run) : run(edge_vals);
  });
}

MTensor edge_add_scalars(const SparseCtx& ctx, const GraphCtx& g,
                         const MTensor& el, const MTensor& er, float slope) {
  return run_edge(
      ctx, Op::kEdgeAddScalars, ctx.dtype(), g.m(), 1,
      [&]<class T>(std::type_identity<T>, MTensor& out) {
        return flavour<T>(kernels::edge_add_scalars_f32,
                          kernels::edge_add_scalars_bf16,
                          kernels::edge_add_scalars_f16)(
            *ctx.stream, ctx.profiled, g.view(), elems<T>(el), elems<T>(er),
            elems<T>(out), slope);
      });
}

MTensor edge_exp_sub_row(const SparseCtx& ctx, const GraphCtx& g,
                         const MTensor& vals, const MTensor& rowv) {
  const ChainEntry& e =
      dispatch_chain(Op::kEdgeExp, ctx.mode, ctx.dtype()).at(0);
  const Dtype dt = kernel_row(e.kernel).storage;
  return guarded(ctx, Op::kEdgeExp, e, [&]() -> MTensor {
    const auto run = [&](const MTensor& v, const MTensor& r) {
      MTensor out = MTensor::zeros(dt, g.m(), 1);
      charge(ctx, with_element(dt, [&]<class T>(std::type_identity<T>) {
               return flavour<T>(kernels::edge_exp_sub_row_f32,
                                 kernels::edge_exp_sub_row_bf16,
                                 kernels::edge_exp_sub_row_f16)(
                   *ctx.stream, ctx.profiled, g.view(), elems<T>(v),
                   elems<T>(r), elems<T>(out));
             }));
      return out;
    };
    if (!e.promoted) return run(vals, rowv);
    // AMP promotes exp: both operands ride to float, the result rides back
    // (the exact churn Sec. 3.1.2 dissects).
    const MTensor rowv_f = to_dtype(rowv, Dtype::kF32, ctx.ledger);
    return promoted(ctx, vals,
                    [&](const MTensor& vals_f) { return run(vals_f, rowv_f); });
  });
}

MTensor edge_div_row(const SparseCtx& ctx, const GraphCtx& g,
                     const MTensor& vals, const MTensor& rowv) {
  return run_edge(
      ctx, Op::kEdgeDivRow, ctx.dtype(), g.m(), 1,
      [&]<class T>(std::type_identity<T>, MTensor& out) {
        const auto kernel =
            flavour<T>(kernels::edge_div_row_f32, kernels::edge_div_row_bf16,
                       kernels::edge_div_row_f16);
        if constexpr (std::is_same_v<T, float>) {
          return kernel(*ctx.stream, ctx.profiled, g.view(), vals.f(),
                        rowv.f(), out.f());
        } else {
          // Inputs may arrive in float (post-promotion); bring them home to
          // the half format first — DGL does exactly this to invoke its
          // half kernels (Sec. 3.1.2). A same-dtype copy is not charged.
          const MTensor vh = to_dtype(vals, out.dtype(), ctx.ledger);
          const MTensor rh = to_dtype(rowv, out.dtype(), ctx.ledger);
          return kernel(*ctx.stream, ctx.profiled, g.view(), elems<T>(vh),
                        elems<T>(rh), elems<T>(out));
        }
      });
}

MTensor edge_mul(const SparseCtx& ctx, const MTensor& a, const MTensor& b) {
  return run_edge(ctx, Op::kEdgeMul, a.dtype(), a.rows(), a.cols(),
                  [&]<class T>(std::type_identity<T>, MTensor& out) {
                    return flavour<T>(kernels::edge_mul_f32,
                                      kernels::edge_mul_bf16,
                                      kernels::edge_mul_f16)(
                        *ctx.stream, ctx.profiled, elems<T>(a), elems<T>(b),
                        elems<T>(out));
                  });
}

MTensor edge_softmax_backward(const SparseCtx& ctx, const GraphCtx& g,
                              const MTensor& alpha, const MTensor& dalpha,
                              const MTensor& c) {
  return run_edge(ctx, Op::kEdgeSoftmaxBackward, alpha.dtype(), alpha.rows(),
                  1, [&]<class T>(std::type_identity<T>, MTensor& out) {
                    return flavour<T>(kernels::edge_softmax_backward_f32,
                                      kernels::edge_softmax_backward_bf16,
                                      kernels::edge_softmax_backward_f16)(
                        *ctx.stream, ctx.profiled, g.view(), elems<T>(alpha),
                        elems<T>(dalpha), elems<T>(c), elems<T>(out));
                  });
}

MTensor edge_leaky_backward(const SparseCtx& ctx, const MTensor& pre,
                            const MTensor& grad, float slope) {
  return run_edge(ctx, Op::kEdgeLeakyBackward, grad.dtype(), grad.rows(), 1,
                  [&]<class T>(std::type_identity<T>, MTensor& out) {
                    return flavour<T>(kernels::edge_leaky_backward_f32,
                                      kernels::edge_leaky_backward_bf16,
                                      kernels::edge_leaky_backward_f16)(
                        *ctx.stream, ctx.profiled, elems<T>(pre),
                        elems<T>(grad), elems<T>(out), slope);
                  });
}

MTensor edge_permute(const SparseCtx& ctx, const MTensor& in,
                     std::span<const eid_t> perm) {
  return run_edge(ctx, Op::kEdgePermute, in.dtype(), in.rows(), in.cols(),
                  [&]<class T>(std::type_identity<T>, MTensor& out) {
                    return flavour<T>(kernels::edge_permute_f32,
                                      kernels::edge_permute_bf16,
                                      kernels::edge_permute_f16)(
                        *ctx.stream, ctx.profiled, elems<T>(in), perm,
                        elems<T>(out));
                  });
}

}  // namespace hg::nn
