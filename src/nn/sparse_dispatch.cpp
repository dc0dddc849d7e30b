#include "nn/sparse_dispatch.hpp"

#include <algorithm>
#include <array>
#include <initializer_list>
#include <span>
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

// The operands an op's kernel reads, in the order the op lists them;
// nullptr marks an absent one (an unweighted spmm's edge weights).
using Operands = std::span<const MTensor* const>;

// The one run path of every sparse op: runs body(entry, operands) for the
// entry of `op`'s chain at (mode, dt) that the guard's level selects
// (level 0 without a guard and for the ops that do not escalate),
// announcing the entry at every attempt. A promoted entry (AMP) converts
// the operands to f32 in the order listed and the result back to `dt`,
// charging every conversion. An injected simt::LaunchFault is retried up to
// the guard's budget of attempts per call (the injector's launch ordinal
// advances on every attempt, so a transient failure clears on retry). Each
// attempt converts anew and bodies allocate their outputs, so a fault that
// interrupts a multi-launch op leaves no partial state behind for the
// retry; without a guard the fault propagates to the caller untouched.
// After an escalating op (spmm, sddmm) the guard observes the output's
// health; its audit record names the kernel one level further down.
template <class Body>
MTensor run(const SparseCtx& ctx, Op op, Dtype dt,
            std::initializer_list<const MTensor*> in, Body&& body) {
  TrainGuard* const guard = ctx.guard;
  const bool escalating = guard != nullptr && escalates(op);
  const Chain& chain = dispatch_chain(op, ctx.mode, dt);
  const int level = escalating ? guard->level(std::string(op_name(op))) : 0;
  const ChainEntry& e = chain.at(level);
  const auto attempt = [&]() -> MTensor {
    announce(op, e);
    if (!e.promoted) return body(e, Operands(in.begin(), in.size()));
    std::array<MTensor, 3> f32;  // three: the most operands an op lists
    std::array<const MTensor*, 3> in_f{};
    for (std::size_t i = 0; i < in.size(); ++i) {
      if (const MTensor* t = in.begin()[i]; t != nullptr) {
        f32.at(i) = to_dtype(*t, Dtype::kF32, ctx.ledger);
        in_f.at(i) = &f32.at(i);
      }
    }
    return to_dtype(body(e, Operands(in_f.data(), in.size())), dt,
                    ctx.ledger);
  };
  const int budget =
      guard != nullptr ? std::max(1, guard->retry_budget()) : 1;
  MTensor out;
  for (int n = 1;; ++n) {
    try {
      out = attempt();
      break;
    } catch (const simt::LaunchFault&) {
      if (n >= budget) throw;
      guard->count_retry(std::string(op_name(op)));
    }
  }
  if (escalating) {
    guard->observe_output(
        std::string(op_name(op)), out.has_nonfinite(), chain.len,
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

// Allocates a rows x cols output in the storage dtype of `e`'s kernel and
// charges launch(element tag, out): the shared tail of the edge ops and the
// per-dtype SpMM/SDDMM families.
template <class Launch>
MTensor launch_into(const SparseCtx& ctx, const ChainEntry& e,
                    std::int64_t rows, std::int64_t cols, Launch&& launch) {
  const Dtype dt = kernel_row(e.kernel).storage;
  MTensor out = MTensor::zeros(dt, rows, cols);
  charge(ctx, with_element(dt, [&](auto tag) { return launch(tag, out); }));
  return out;
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
  // AMP converts the weights first, then the features.
  return run(ctx, Op::kSpmm, ctx.dtype(), {edge_w, &x},
             [&](const ChainEntry& e, Operands in) -> MTensor {
    const MTensor* w = in[0];
    const MTensor& xs = *in[1];
    switch (e.kernel) {
      case Kernel::kSpmmHalfgnn: {
        kernels::HalfgnnSpmmOpts opts;
        opts.reduce = reduce;
        opts.scale = kernels::ScaleMode::kDiscretized;
        MTensor out = MTensor::f16(g.n(), feat);
        charge(ctx, kernels::spmm_halfgnn(
                        *ctx.stream, ctx.profiled, g.view(),
                        w != nullptr ? w->h() : std::span<const half_t>{},
                        xs.h(), out.h(), feat, opts));
        return out;
      }
      case Kernel::kSpmmInt8: {
        // PTQ path: operands arrive f32 (the model trained in f32); quantize
        // on the way in, accumulate int32, dequantize in the kernel epilogue.
        const kernels::QuantParams xq = kernels::calibrate_int8(xs.f());
        AlignedVec<std::int8_t> xqbuf(xs.numel());
        charge(ctx, kernels::quantize_int8(*ctx.stream, ctx.profiled, xs.f(),
                                           std::span<std::int8_t>(xqbuf), xq));
        kernels::QuantParams wq;
        AlignedVec<std::int8_t> wqbuf;
        if (w != nullptr && reduce != kernels::Reduce::kMax) {
          wq = kernels::calibrate_int8(w->f());
          wqbuf.resize(w->numel());
          charge(ctx, kernels::quantize_int8(*ctx.stream, ctx.profiled, w->f(),
                                             std::span<std::int8_t>(wqbuf),
                                             wq));
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
        charge(ctx, kernels::binarize_pack(*ctx.stream, ctx.profiled, xs.f(),
                                           static_cast<vid_t>(xs.rows()), feat,
                                           xb));
        MTensor out = MTensor::f32(g.n(), feat);
        charge(ctx, kernels::spmm_binary(*ctx.stream, ctx.profiled, g.view(),
                                         xb, out.f(), feat, reduce));
        return out;
      }
      case Kernel::kSpmmReference:
        return spmm_reference(g, w, xs, reduce);
      default:
        // The row-parallel f32/f16 cuSPARSE-like kernels and bf16's share
        // one signature.
        return launch_into(
            ctx, e, g.n(), feat,
            [&]<class T>(std::type_identity<T>, MTensor& out) {
              return flavour<T>(kernels::spmm_cusparse_f32, kernels::spmm_bf16,
                                kernels::spmm_cusparse_f16)(
                  *ctx.stream, ctx.profiled, g.view(),
                  w != nullptr ? elems<T>(*w) : std::span<const T>{},
                  elems<T>(xs), elems<T>(out), feat, reduce);
            });
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
  return run(ctx, Op::kSddmm, ctx.dtype(), {&a, &b},
             [&](const ChainEntry& e, Operands in) -> MTensor {
    const MTensor& as = *in[0];
    const MTensor& bs = *in[1];
    if (e.kernel == Kernel::kSddmmReference) return sddmm_reference(g, as, bs);
    return launch_into(
        ctx, e, g.m(), 1, [&]<class T>(std::type_identity<T>, MTensor& o) {
          if (e.kernel == Kernel::kSddmmHalfgnn) {
            return kernels::sddmm_halfgnn(*ctx.stream, ctx.profiled, g.view(),
                                          as.h(), bs.h(), o.h(), feat,
                                          kernels::SddmmVec::kHalf8);
          }
          // The scalar-load DGL-style kernels (f32, f16) and bf16's.
          return flavour<T>(kernels::sddmm_dgl_f32, kernels::sddmm_bf16,
                            kernels::sddmm_dgl_f16)(
              *ctx.stream, ctx.profiled, g.view(), elems<T>(as), elems<T>(bs),
              elems<T>(o), feat);
        });
  });
}

MTensor seg_reduce(const SparseCtx& ctx, const GraphCtx& g,
                   const MTensor& edge_vals, kernels::SegReduce reduce) {
  const Op op =
      reduce == kernels::SegReduce::kSum ? Op::kSegSum : Op::kSegMax;
  return run(ctx, op, ctx.dtype(), {&edge_vals},
             [&](const ChainEntry& e, Operands in) {
    return launch_into(
        ctx, e, g.n(), 1, [&]<class T>(std::type_identity<T>, MTensor& out) {
          return flavour<T>(kernels::edge_segment_reduce_f32,
                            kernels::edge_segment_reduce_bf16,
                            kernels::edge_segment_reduce_f16)(
              *ctx.stream, ctx.profiled, g.view(), elems<T>(*in[0]),
              elems<T>(out), reduce);
        });
  });
}

MTensor edge_add_scalars(const SparseCtx& ctx, const GraphCtx& g,
                         const MTensor& el, const MTensor& er, float slope) {
  return run(ctx, Op::kEdgeAddScalars, ctx.dtype(), {&el, &er},
             [&](const ChainEntry& e, Operands in) {
    return launch_into(
        ctx, e, g.m(), 1, [&]<class T>(std::type_identity<T>, MTensor& out) {
          return flavour<T>(kernels::edge_add_scalars_f32,
                            kernels::edge_add_scalars_bf16,
                            kernels::edge_add_scalars_f16)(
              *ctx.stream, ctx.profiled, g.view(), elems<T>(*in[0]),
              elems<T>(*in[1]), elems<T>(out), slope);
        });
  });
}

MTensor edge_exp_sub_row(const SparseCtx& ctx, const GraphCtx& g,
                         const MTensor& vals, const MTensor& rowv) {
  // AMP converts the row values first, then the edge values (the churn
  // Sec. 3.1.2 dissects).
  return run(ctx, Op::kEdgeExp, ctx.dtype(), {&rowv, &vals},
             [&](const ChainEntry& e, Operands in) {
    return launch_into(
        ctx, e, g.m(), 1, [&]<class T>(std::type_identity<T>, MTensor& out) {
          return flavour<T>(kernels::edge_exp_sub_row_f32,
                            kernels::edge_exp_sub_row_bf16,
                            kernels::edge_exp_sub_row_f16)(
              *ctx.stream, ctx.profiled, g.view(), elems<T>(*in[1]),
              elems<T>(*in[0]), elems<T>(out));
        });
  });
}

MTensor edge_div_row(const SparseCtx& ctx, const GraphCtx& g,
                     const MTensor& vals, const MTensor& rowv) {
  return run(ctx, Op::kEdgeDivRow, ctx.dtype(), {&vals, &rowv},
             [&](const ChainEntry& e, Operands in) {
    return launch_into(
        ctx, e, g.m(), 1, [&]<class T>(std::type_identity<T>, MTensor& out) {
          return flavour<T>(kernels::edge_div_row_f32,
                            kernels::edge_div_row_bf16,
                            kernels::edge_div_row_f16)(
              *ctx.stream, ctx.profiled, g.view(), elems<T>(*in[0]),
              elems<T>(*in[1]), elems<T>(out));
        });
  });
}

MTensor edge_mul(const SparseCtx& ctx, const MTensor& a, const MTensor& b) {
  return run(ctx, Op::kEdgeMul, a.dtype(), {&a, &b},
             [&](const ChainEntry& e, Operands in) {
    return launch_into(
        ctx, e, a.rows(), a.cols(),
        [&]<class T>(std::type_identity<T>, MTensor& out) {
          return flavour<T>(kernels::edge_mul_f32, kernels::edge_mul_bf16,
                            kernels::edge_mul_f16)(
              *ctx.stream, ctx.profiled, elems<T>(*in[0]), elems<T>(*in[1]),
              elems<T>(out));
        });
  });
}

MTensor edge_softmax_backward(const SparseCtx& ctx, const GraphCtx& g,
                              const MTensor& alpha, const MTensor& dalpha,
                              const MTensor& c) {
  return run(ctx, Op::kEdgeSoftmaxBackward, alpha.dtype(),
             {&alpha, &dalpha, &c}, [&](const ChainEntry& e, Operands in) {
    return launch_into(
        ctx, e, alpha.rows(), 1,
        [&]<class T>(std::type_identity<T>, MTensor& out) {
          return flavour<T>(kernels::edge_softmax_backward_f32,
                            kernels::edge_softmax_backward_bf16,
                            kernels::edge_softmax_backward_f16)(
              *ctx.stream, ctx.profiled, g.view(), elems<T>(*in[0]),
              elems<T>(*in[1]), elems<T>(*in[2]), elems<T>(out));
        });
  });
}

MTensor edge_leaky_backward(const SparseCtx& ctx, const MTensor& pre,
                            const MTensor& grad, float slope) {
  return run(ctx, Op::kEdgeLeakyBackward, grad.dtype(), {&pre, &grad},
             [&](const ChainEntry& e, Operands in) {
    return launch_into(
        ctx, e, grad.rows(), 1,
        [&]<class T>(std::type_identity<T>, MTensor& out) {
          return flavour<T>(kernels::edge_leaky_backward_f32,
                            kernels::edge_leaky_backward_bf16,
                            kernels::edge_leaky_backward_f16)(
              *ctx.stream, ctx.profiled, elems<T>(*in[0]), elems<T>(*in[1]),
              elems<T>(out), slope);
        });
  });
}

MTensor edge_permute(const SparseCtx& ctx, const MTensor& in,
                     std::span<const eid_t> perm) {
  return run(ctx, Op::kEdgePermute, in.dtype(), {&in},
             [&](const ChainEntry& e, Operands ins) {
    return launch_into(
        ctx, e, in.rows(), in.cols(),
        [&]<class T>(std::type_identity<T>, MTensor& out) {
          return flavour<T>(kernels::edge_permute_f32,
                            kernels::edge_permute_bf16,
                            kernels::edge_permute_f16)(
              *ctx.stream, ctx.profiled, elems<T>(*ins[0]), perm,
              elems<T>(out));
        });
  });
}

}  // namespace hg::nn
