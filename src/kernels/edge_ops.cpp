#include "kernels/edge_ops.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <utility>

namespace hg::kernels {

namespace {

using simt::Cta;
using simt::KernelStats;
using simt::Lanes;
using simt::LaunchDesc;
using simt::Op;
using simt::prefix_mask;
using simt::Warp;
namespace simd = simt::simd;

// Reduced 16-bit element types (half_t / bf16_t) share the paper's
// half-intrinsic cost class and per-op rounding; float is the reference.
template <class T>
inline constexpr bool reduced_v = sizeof(T) == 2;

template <class T>
float as_f(T v) {
  if constexpr (reduced_v<T>) {
    return v.to_float();
  } else {
    return v;
  }
}
template <class T>
T from_f(float v) {
  if constexpr (reduced_v<T>) {
    return T(v);
  } else {
    return v;
  }
}

// The fused train-mode paths run for f32 and f16. bf16 has no SIMD
// entries, and its segment reduce combines with bf16's own operators, which
// leave the two-NaN operand order to the compiler; it stays on the lane
// path.
template <class T>
inline constexpr bool fusable_v = !std::is_same_v<T, bf16_t>;

template <bool P, class T>
bool fused(Warp<P>& w) {
  return fusable_v<T> && simd::vector_enabled() && w.fused_fast_path();
}

// c ? a : b on the bit patterns: a data-dependent sign costs no branch.
template <class T>
T select(bool c, T a, T b) {
  using Bits =
      std::conditional_t<sizeof(T) == 2, std::uint16_t, std::uint32_t>;
  const auto m = static_cast<Bits>(Bits{0} - Bits{c});
  return std::bit_cast<T>(static_cast<Bits>((std::bit_cast<Bits>(a) & m) |
                                            (std::bit_cast<Bits>(b) & ~m)));
}

// ---------------------------------------------------------------------------
// Edge-parallel skeleton
// ---------------------------------------------------------------------------
// An op names its operands once — each read at the edge itself, or at the
// edge's row, column or permutation entry — and its per-edge arithmetic
// once. One warp handles kEdgesPerWarp edges. Profiled or hook-armed
// launches run the arithmetic lane-batched through the Warp, 32 edges at a
// time: index loads (row, then col, then perm), contiguous edge loads and
// gathers in operand order, the op's ALU charge, one contiguous store — the
// accesses the cost model and the hooks observe. Train mode with every hook
// disarmed runs it as a plain loop over the warp's edges.
enum class At { kEdge, kRow, kCol, kPerm };

template <At A, class T>
struct In {
  std::span<const T> v;
};
template <class T>
In<At::kEdge, T> at_edge(std::span<const T> v) { return {v}; }
template <class T>
In<At::kRow, T> at_row(std::span<const T> v) { return {v}; }
template <class T>
In<At::kCol, T> at_col(std::span<const T> v) { return {v}; }
template <class T>
In<At::kPerm, T> at_perm(std::span<const T> v) { return {v}; }

// Where the index operands come from; unused ones may stay empty.
struct EdgeIndex {
  std::span<const vid_t> row, col;
  std::span<const eid_t> perm;
};

// ALU charge per 32-edge batch: `alu` ops of the value type's class, plus
// one special-function op when `special`.
struct AluCharge {
  int alu = 0;
  bool special = false;
};

template <bool P, class T, class Fn, At... A, std::size_t... K>
void edge_batch(Warp<P>& w, const EdgeIndex& ix, eid_t b, int cnt,
                AluCharge charge, std::span<T> out, const Fn& fn,
                std::index_sequence<K...>, const In<A, T>&... ins) {
  constexpr bool kUses[] = {((A == At::kRow) || ...), ((A == At::kCol) || ...),
                            ((A == At::kPerm) || ...)};
  std::array<Lanes<std::int64_t>, 3> idx{};
  const auto load_index = [&]<class I>(std::span<const I> src,
                                       Lanes<std::int64_t>& dst) {
    Lanes<I> raw{};
    w.template load_contiguous<I>(src, b, cnt, raw);
    for (int l = 0; l < cnt; ++l) {
      dst[static_cast<std::size_t>(l)] = raw[static_cast<std::size_t>(l)];
    }
  };
  if (kUses[0]) load_index(ix.row, idx[0]);
  if (kUses[1]) load_index(ix.col, idx[1]);
  if (kUses[2]) load_index(ix.perm, idx[2]);
  std::array<Lanes<T>, sizeof...(A)> v{};
  const auto load = [&](std::span<const T> src, At at, Lanes<T>& dst) {
    if (at == At::kEdge) w.template load_contiguous<T>(src, b, cnt, dst);
  };
  const auto gather = [&](std::span<const T> src, At at, Lanes<T>& dst) {
    if (at != At::kEdge) {
      w.template gather<T>(src, idx[static_cast<std::size_t>(at) - 1],
                           prefix_mask(cnt), dst);
    }
  };
  (load(ins.v, A, v[K]), ...);
  (gather(ins.v, A, v[K]), ...);
  Lanes<T> r{};
  for (int l = 0; l < cnt; ++l) {
    const auto lu = static_cast<std::size_t>(l);
    r[lu] = fn(v[K][lu]...);
  }
  if (charge.alu > 0) {
    w.alu(reduced_v<T> ? Op::kHalfIntrin : Op::kFloatAlu, charge.alu, cnt);
  }
  if (charge.special) w.alu(Op::kSpecial, 1, cnt);
  w.template store_contiguous<T>(out, b, cnt, r);
}

template <At A, class T>
T read_at(const EdgeIndex& ix, const In<A, T>& in, std::size_t e) {
  if constexpr (A == At::kEdge) {
    return in.v[e];
  } else if constexpr (A == At::kRow) {
    return in.v[static_cast<std::size_t>(ix.row[e])];
  } else if constexpr (A == At::kCol) {
    return in.v[static_cast<std::size_t>(ix.col[e])];
  } else {
    return in.v[static_cast<std::size_t>(ix.perm[e])];
  }
}

template <bool P, class T, class Fn, At... A>
KernelStats edge_parallel(simt::Stream& stream, const char* name, eid_t m,
                          const EdgeIndex& ix, AluCharge charge,
                          std::span<T> out, Fn&& fn, In<A, T>... ins) {
  const LaunchDesc cfg{name, num_ctas_for_edges(m), kWarpsPerCta};
  return stream.launch<P>(cfg, [&](Cta<P>& cta) {
    cta.for_each_warp([&](Warp<P>& w) {
      const eid_t gw = static_cast<eid_t>(cta.cta_id()) * kWarpsPerCta +
                       w.warp_in_cta();
      const eid_t e0 = gw * kEdgesPerWarp;
      const eid_t e1 = std::min<eid_t>(m, e0 + kEdgesPerWarp);
      if (fused<P, T>(w)) {
        for (eid_t e = e0; e < e1; ++e) {
          const auto eu = static_cast<std::size_t>(e);
          out[eu] = fn(read_at(ix, ins, eu)...);
        }
        return;
      }
      for (eid_t b = e0; b < e1; b += 32) {
        edge_batch<P>(w, ix, b, static_cast<int>(std::min<eid_t>(32, e1 - b)),
                      charge, out, fn, std::index_sequence_for<In<A, T>...>{},
                      ins...);
      }
    });
  });
}

// ---------------------------------------------------------------------------
// segment reduce (per-row max / sum over edge scalars)
// ---------------------------------------------------------------------------
// One warp per row: lane l folds the row's edges l, l + 32, .. with
// combine_n, a 32-lane butterfly folds the lanes, and lane 0 holds the row's
// value. The fused path is that sequence as one seg_reduce_{h,f} call per
// row, without the warp's loads and store.
template <bool P, class T>
KernelStats seg_reduce_impl(simt::Stream& stream, const GraphView& g,
                            std::span<const T> vals, std::span<T> out,
                            SegReduce reduce, const char* name) {
  constexpr Op op = reduced_v<T> ? Op::kHalfIntrin : Op::kFloatAlu;
  const vid_t n = g.n();
  const auto k = reduce == SegReduce::kMax ? simt::WarpCombine::kMax
                                           : simt::WarpCombine::kAdd;
  const LaunchDesc cfg{name,
                       static_cast<int>((n + kWarpsPerCta - 1) /
                                        kWarpsPerCta),
                       kWarpsPerCta};
  return stream.launch<P>(cfg, [&](Cta<P>& cta) {
    cta.for_each_warp([&](Warp<P>& w) {
      const vid_t r = static_cast<vid_t>(cta.cta_id()) * kWarpsPerCta +
                      w.warp_in_cta();
      if (r >= n) return;
      const eid_t lo = g.csr->offsets[r];
      const eid_t hi = g.csr->offsets[r + 1];

      if constexpr (fusable_v<T>) {
        if (fused<P, T>(w)) {
          T result{};
          if (hi > lo) {
            const T* v = vals.data() + static_cast<std::size_t>(lo);
            const auto d = static_cast<int>(hi - lo);
            const bool is_max = k == simt::WarpCombine::kMax;
            if constexpr (std::is_same_v<T, float>) {
              result = simd::ops().seg_reduce_f(v, d, is_max);
            } else {
              result = simd::ops().seg_reduce_h(v, d, is_max);
            }
          }
          out[static_cast<std::size_t>(r)] = result;
          return;
        }
      }
      Lanes<T> acc;
      acc.fill(simt::combine_identity<T>(k));
      for (eid_t b = lo; b < hi; b += 32) {
        const int cnt = static_cast<int>(std::min<eid_t>(32, hi - b));
        Lanes<T> v{};
        w.template load_contiguous<T>(vals, b, cnt, v);
        simt::combine_n(k, acc.data(), v.data(), cnt);
        w.alu(op, 1, cnt);
      }
      w.butterfly_reduce(acc, 32, simt::kFullMask, op, k);
      T result = acc[0];
      if (hi == lo) result = T{};  // empty row
      Lanes<std::int64_t> oi{};
      Lanes<T> ov{};
      oi[0] = r;
      ov[0] = result;
      w.template scatter<T>(out, oi, 0x1u, ov);
    });
  });
}

// ---------------------------------------------------------------------------
// The edge-parallel ops: per-edge arithmetic and operands
// ---------------------------------------------------------------------------
// Commutative float ops go through ordered_fadd / ordered_fmul, so every
// loop and every build picks the same NaN when both operands are NaN: the
// operand order the historical lane loops compiled to, probed with two-NaN
// inputs. The first operand's NaN wins, except where noted: el in
// add_scalars; alpha in softmax_backward, but the difference in its f32
// flavour; x in mul, but y in its bf16 flavour. half_t's own operators are
// pinned to the left operand.

// leaky_relu(el[row] + er[col]).
template <bool P, class T>
KernelStats add_scalars_impl(simt::Stream& stream, const GraphView& g,
                             std::span<const T> el, std::span<const T> er,
                             std::span<T> out, float slope,
                             const char* name) {
  return edge_parallel<P>(
      stream, name, g.m(), {g.coo->row, g.coo->col, {}}, {2, false}, out,
      [slope](T a, T c) {
        const float s = ordered_fadd(as_f(a), as_f(c));
        return from_f<T>(s > 0 ? s : slope * s);
      },
      at_row(el), at_col(er));
}

// exp(v - rowv[row]); the reduced flavour rounds the subtraction like the
// device would before the special function.
template <bool P, class T>
KernelStats exp_sub_row_impl(simt::Stream& stream, const GraphView& g,
                             std::span<const T> vals, std::span<const T> rowv,
                             std::span<T> out, const char* name) {
  return edge_parallel<P>(
      stream, name, g.m(), {g.coo->row, {}, {}}, {1, true}, out,
      [](T v, T rv) {
        const float d = as_f(v) - as_f(rv);
        if constexpr (reduced_v<T>) {
          return from_f<T>(std::exp(as_f(from_f<T>(d))));
        } else {
          return std::exp(d);
        }
      },
      at_edge(vals), at_row(rowv));
}

// v / rowv[row], a zero row value treated as 1.
template <bool P, class T>
KernelStats div_row_impl(simt::Stream& stream, const GraphView& g,
                         std::span<const T> vals, std::span<const T> rowv,
                         std::span<T> out, const char* name) {
  return edge_parallel<P>(
      stream, name, g.m(), {g.coo->row, {}, {}}, {1, true}, out,
      [](T v, T rv) {
        const float rf = as_f(rv);
        return from_f<T>(as_f(v) / (rf == 0.0f ? 1.0f : rf));
      },
      at_edge(vals), at_row(rowv));
}

// alpha * (dalpha - c[row]) in the value type's precision.
template <bool P, class T>
KernelStats softmax_bwd_impl(simt::Stream& stream, const GraphView& g,
                             std::span<const T> alpha,
                             std::span<const T> dalpha, std::span<const T> c,
                             std::span<T> out, const char* name) {
  return edge_parallel<P>(
      stream, name, g.m(), {g.coo->row, {}, {}}, {2, false}, out,
      [](T a, T d, T cr) {
        if constexpr (std::is_same_v<T, float>) {
          return ordered_fmul(d - cr, a);
        } else {
          return T(ordered_fmul(a.to_float(), (d - cr).to_float()));
        }
      },
      at_edge(alpha), at_edge(dalpha), at_row(c));
}

template <bool P, class T>
KernelStats leaky_bwd_impl(simt::Stream& stream, std::span<const T> pre,
                           std::span<const T> grad, std::span<T> out,
                           float slope, const char* name) {
  return edge_parallel<P>(
      stream, name, static_cast<eid_t>(pre.size()), {}, {1, false}, out,
      [slope](T p, T gr) {
        T neg;
        if constexpr (reduced_v<T>) {
          neg = gr * from_f<T>(slope);
        } else {
          neg = gr * slope;
        }
        return select(as_f(p) > 0.0f, gr, neg);
      },
      at_edge(pre), at_edge(grad));
}

template <bool P, class T>
KernelStats permute_impl(simt::Stream& stream, std::span<const T> in,
                         std::span<const eid_t> perm, std::span<T> out,
                         const char* name) {
  return edge_parallel<P>(
      stream, name, static_cast<eid_t>(perm.size()), {{}, {}, perm}, {}, out,
      [](T v) { return v; }, at_perm(in));
}

template <bool P, class T>
KernelStats edge_mul_impl(simt::Stream& stream, std::span<const T> a,
                          std::span<const T> b, std::span<T> out,
                          const char* name) {
  return edge_parallel<P>(
      stream, name, static_cast<eid_t>(a.size()), {}, {1, false}, out,
      [](T x, T y) {
        if constexpr (std::is_same_v<T, bf16_t>) {
          return T(ordered_fmul(y.to_float(), x.to_float()));
        } else if constexpr (std::is_same_v<T, half_t>) {
          return x * y;
        } else {
          return ordered_fmul(x, y);
        }
      },
      at_edge(a), at_edge(b));
}

// Runs f with std::true_type when profiled, std::false_type otherwise.
template <class F>
KernelStats by_mode(bool profiled, F&& f) {
  return profiled ? f(std::true_type{}) : f(std::false_type{});
}

}  // namespace

KernelStats edge_segment_reduce_f32(simt::Stream& stream, bool profiled,
                                    const GraphView& g,
                                    std::span<const float> vals,
                                    std::span<float> out, SegReduce reduce) {
  assert(out.size() == static_cast<std::size_t>(g.n()));
  return by_mode(profiled, [&](auto p) {
    return seg_reduce_impl<decltype(p)::value, float>(
        stream, g, vals, out, reduce, "edge_segreduce_f32");
  });
}

KernelStats edge_add_scalars_f32(simt::Stream& stream, bool profiled,
                                 const GraphView& g, std::span<const float> el,
                                 std::span<const float> er,
                                 std::span<float> out, float slope) {
  return by_mode(profiled, [&](auto p) {
    return add_scalars_impl<decltype(p)::value, float>(
        stream, g, el, er, out, slope, "edge_addscalar_f32");
  });
}

KernelStats edge_exp_sub_row_f32(simt::Stream& stream, bool profiled,
                                 const GraphView& g,
                                 std::span<const float> vals,
                                 std::span<const float> rowv,
                                 std::span<float> out) {
  return by_mode(profiled, [&](auto p) {
    return exp_sub_row_impl<decltype(p)::value, float>(
        stream, g, vals, rowv, out, "edge_expsub_f32");
  });
}

KernelStats edge_div_row_f32(simt::Stream& stream, bool profiled,
                             const GraphView& g, std::span<const float> vals,
                             std::span<const float> rowv,
                             std::span<float> out) {
  return by_mode(profiled, [&](auto p) {
    return div_row_impl<decltype(p)::value, float>(
        stream, g, vals, rowv, out, "edge_divrow_f32");
  });
}

KernelStats edge_mul_f32(simt::Stream& stream, bool profiled,
                         std::span<const float> a, std::span<const float> b,
                         std::span<float> out) {
  return by_mode(profiled, [&](auto p) {
    return edge_mul_impl<decltype(p)::value, float>(
        stream, a, b, out, "edge_mul_f32");
  });
}

KernelStats edge_softmax_backward_f32(simt::Stream& stream, bool profiled,
                                      const GraphView& g,
                                      std::span<const float> alpha,
                                      std::span<const float> dalpha,
                                      std::span<const float> c,
                                      std::span<float> out) {
  return by_mode(profiled, [&](auto p) {
    return softmax_bwd_impl<decltype(p)::value, float>(
        stream, g, alpha, dalpha, c, out, "edge_softmax_bwd_f32");
  });
}

KernelStats edge_leaky_backward_f32(simt::Stream& stream, bool profiled,
                                    std::span<const float> pre,
                                    std::span<const float> grad,
                                    std::span<float> out, float slope) {
  return by_mode(profiled, [&](auto p) {
    return leaky_bwd_impl<decltype(p)::value, float>(
        stream, pre, grad, out, slope, "edge_leaky_bwd_f32");
  });
}

KernelStats edge_permute_f32(simt::Stream& stream, bool profiled,
                             std::span<const float> in,
                             std::span<const eid_t> perm,
                             std::span<float> out) {
  return by_mode(profiled, [&](auto p) {
    return permute_impl<decltype(p)::value, float>(
        stream, in, perm, out, "edge_permute_f32");
  });
}

KernelStats edge_segment_reduce_f16(simt::Stream& stream, bool profiled,
                                    const GraphView& g,
                                    std::span<const half_t> vals,
                                    std::span<half_t> out, SegReduce reduce) {
  assert(out.size() == static_cast<std::size_t>(g.n()));
  return by_mode(profiled, [&](auto p) {
    return seg_reduce_impl<decltype(p)::value, half_t>(
        stream, g, vals, out, reduce, "edge_segreduce_f16");
  });
}

KernelStats edge_add_scalars_f16(simt::Stream& stream, bool profiled,
                                 const GraphView& g,
                                 std::span<const half_t> el,
                                 std::span<const half_t> er,
                                 std::span<half_t> out, float slope) {
  return by_mode(profiled, [&](auto p) {
    return add_scalars_impl<decltype(p)::value, half_t>(
        stream, g, el, er, out, slope, "edge_addscalar_f16");
  });
}

KernelStats edge_exp_sub_row_f16(simt::Stream& stream, bool profiled,
                                 const GraphView& g,
                                 std::span<const half_t> vals,
                                 std::span<const half_t> rowv,
                                 std::span<half_t> out) {
  return by_mode(profiled, [&](auto p) {
    return exp_sub_row_impl<decltype(p)::value, half_t>(
        stream, g, vals, rowv, out, "edge_expsub_f16");
  });
}

KernelStats edge_div_row_f16(simt::Stream& stream, bool profiled,
                             const GraphView& g, std::span<const half_t> vals,
                             std::span<const half_t> rowv,
                             std::span<half_t> out) {
  return by_mode(profiled, [&](auto p) {
    return div_row_impl<decltype(p)::value, half_t>(
        stream, g, vals, rowv, out, "edge_divrow_f16");
  });
}

KernelStats edge_mul_f16(simt::Stream& stream, bool profiled,
                         std::span<const half_t> a, std::span<const half_t> b,
                         std::span<half_t> out) {
  return by_mode(profiled, [&](auto p) {
    return edge_mul_impl<decltype(p)::value, half_t>(
        stream, a, b, out, "edge_mul_f16");
  });
}

KernelStats edge_softmax_backward_f16(simt::Stream& stream, bool profiled,
                                      const GraphView& g,
                                      std::span<const half_t> alpha,
                                      std::span<const half_t> dalpha,
                                      std::span<const half_t> c,
                                      std::span<half_t> out) {
  return by_mode(profiled, [&](auto p) {
    return softmax_bwd_impl<decltype(p)::value, half_t>(
        stream, g, alpha, dalpha, c, out, "edge_softmax_bwd_f16");
  });
}

KernelStats edge_leaky_backward_f16(simt::Stream& stream, bool profiled,
                                    std::span<const half_t> pre,
                                    std::span<const half_t> grad,
                                    std::span<half_t> out, float slope) {
  return by_mode(profiled, [&](auto p) {
    return leaky_bwd_impl<decltype(p)::value, half_t>(
        stream, pre, grad, out, slope, "edge_leaky_bwd_f16");
  });
}

KernelStats edge_permute_f16(simt::Stream& stream, bool profiled,
                             std::span<const half_t> in,
                             std::span<const eid_t> perm,
                             std::span<half_t> out) {
  return by_mode(profiled, [&](auto p) {
    return permute_impl<decltype(p)::value, half_t>(
        stream, in, perm, out, "edge_permute_f16");
  });
}

// --- bf16 flavor (precision-lattice dtype; same impls, bf16 rounding) ----

KernelStats edge_segment_reduce_bf16(simt::Stream& stream, bool profiled,
                                     const GraphView& g,
                                     std::span<const bf16_t> vals,
                                     std::span<bf16_t> out, SegReduce reduce) {
  assert(out.size() == static_cast<std::size_t>(g.n()));
  return by_mode(profiled, [&](auto p) {
    return seg_reduce_impl<decltype(p)::value, bf16_t>(
        stream, g, vals, out, reduce, "edge_segreduce_bf16");
  });
}

KernelStats edge_add_scalars_bf16(simt::Stream& stream, bool profiled,
                                  const GraphView& g,
                                  std::span<const bf16_t> el,
                                  std::span<const bf16_t> er,
                                  std::span<bf16_t> out, float slope) {
  return by_mode(profiled, [&](auto p) {
    return add_scalars_impl<decltype(p)::value, bf16_t>(
        stream, g, el, er, out, slope, "edge_addscalar_bf16");
  });
}

KernelStats edge_exp_sub_row_bf16(simt::Stream& stream, bool profiled,
                                  const GraphView& g,
                                  std::span<const bf16_t> vals,
                                  std::span<const bf16_t> rowv,
                                  std::span<bf16_t> out) {
  return by_mode(profiled, [&](auto p) {
    return exp_sub_row_impl<decltype(p)::value, bf16_t>(
        stream, g, vals, rowv, out, "edge_expsub_bf16");
  });
}

KernelStats edge_div_row_bf16(simt::Stream& stream, bool profiled,
                              const GraphView& g, std::span<const bf16_t> vals,
                              std::span<const bf16_t> rowv,
                              std::span<bf16_t> out) {
  return by_mode(profiled, [&](auto p) {
    return div_row_impl<decltype(p)::value, bf16_t>(
        stream, g, vals, rowv, out, "edge_divrow_bf16");
  });
}

KernelStats edge_mul_bf16(simt::Stream& stream, bool profiled,
                          std::span<const bf16_t> a, std::span<const bf16_t> b,
                          std::span<bf16_t> out) {
  return by_mode(profiled, [&](auto p) {
    return edge_mul_impl<decltype(p)::value, bf16_t>(
        stream, a, b, out, "edge_mul_bf16");
  });
}

KernelStats edge_softmax_backward_bf16(simt::Stream& stream, bool profiled,
                                       const GraphView& g,
                                       std::span<const bf16_t> alpha,
                                       std::span<const bf16_t> dalpha,
                                       std::span<const bf16_t> c,
                                       std::span<bf16_t> out) {
  return by_mode(profiled, [&](auto p) {
    return softmax_bwd_impl<decltype(p)::value, bf16_t>(
        stream, g, alpha, dalpha, c, out, "edge_softmax_bwd_bf16");
  });
}

KernelStats edge_leaky_backward_bf16(simt::Stream& stream, bool profiled,
                                     std::span<const bf16_t> pre,
                                     std::span<const bf16_t> grad,
                                     std::span<bf16_t> out, float slope) {
  return by_mode(profiled, [&](auto p) {
    return leaky_bwd_impl<decltype(p)::value, bf16_t>(
        stream, pre, grad, out, slope, "edge_leaky_bwd_bf16");
  });
}

KernelStats edge_permute_bf16(simt::Stream& stream, bool profiled,
                              std::span<const bf16_t> in,
                              std::span<const eid_t> perm,
                              std::span<bf16_t> out) {
  return by_mode(profiled, [&](auto p) {
    return permute_impl<decltype(p)::value, bf16_t>(
        stream, in, perm, out, "edge_permute_bf16");
  });
}

}  // namespace hg::kernels
