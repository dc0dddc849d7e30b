#include "kernels/edge_ops.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace hg::kernels {

namespace {

using simt::Cta;
using simt::KernelStats;
using simt::Lanes;
using simt::LaunchDesc;
using simt::Op;
using simt::prefix_mask;
using simt::Warp;

// Shared edge-parallel skeleton: one warp handles kEdgesPerWarp edges in
// 32-wide batches; `fn(w, e_base, cnt)` processes one batch.
template <bool P, class Fn>
KernelStats edge_parallel(simt::Stream& stream, const char* name,
                          eid_t m, Fn&& fn) {
  const LaunchDesc cfg{name, num_ctas_for_edges(m), kWarpsPerCta};
  return stream.launch<P>(cfg, [&](Cta<P>& cta) {
    cta.for_each_warp([&](Warp<P>& w) {
      const eid_t gw = static_cast<eid_t>(cta.cta_id()) * kWarpsPerCta +
                       w.warp_in_cta();
      const eid_t e0 = gw * kEdgesPerWarp;
      const eid_t e1 = std::min<eid_t>(m, e0 + kEdgesPerWarp);
      for (eid_t b = e0; b < e1; b += 32) {
        fn(w, b, static_cast<int>(std::min<eid_t>(32, e1 - b)));
      }
    });
  });
}

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

// ---------------------------------------------------------------------------
// segment reduce (per-row max / sum over edge scalars)
// ---------------------------------------------------------------------------
template <bool P, class T>
KernelStats seg_reduce_impl(simt::Stream& stream, const GraphView& g,
                            std::span<const T> vals, std::span<T> out,
                            SegReduce reduce, const char* name) {
  constexpr bool is_half = reduced_v<T>;
  const vid_t n = g.n();
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

      const auto k = reduce == SegReduce::kMax ? simt::WarpCombine::kMax
                                               : simt::WarpCombine::kAdd;
      Lanes<T> acc;
      acc.fill(simt::combine_identity<T>(k));
      for (eid_t b = lo; b < hi; b += 32) {
        const int cnt = static_cast<int>(std::min<eid_t>(32, hi - b));
        Lanes<T> v{};
        w.template load_contiguous<T>(vals, b, cnt, v);
        simt::combine_n(k, acc.data(), v.data(), cnt);
        w.alu(is_half ? Op::kHalfIntrin : Op::kFloatAlu, 1, cnt);
      }
      w.butterfly_reduce(acc, 32, simt::kFullMask,
                         is_half ? Op::kHalfIntrin : Op::kFloatAlu, k);
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
// generic edge-parallel elementwise with row gather
// ---------------------------------------------------------------------------
// mode 0: leaky_relu(el[row] + er[col]); mode 1: exp(v - rowv[row]);
// mode 2: v / rowv[row].
template <bool P, class T>
KernelStats edge_rowwise_impl(simt::Stream& stream,
                              const GraphView& g, std::span<const T> va,
                              std::span<const T> vb, std::span<T> out,
                              int mode, float slope, const char* name) {
  constexpr bool is_half = reduced_v<T>;
  return edge_parallel<P>(
      stream, name, g.m(), [&](Warp<P>& w, eid_t b, int cnt) {
        Lanes<vid_t> rows{};
        w.template load_contiguous<vid_t>(g.coo->row, b, cnt, rows);
        Lanes<std::int64_t> ridx{};
        for (int l = 0; l < cnt; ++l) {
          ridx[static_cast<std::size_t>(l)] =
              rows[static_cast<std::size_t>(l)];
        }
        Lanes<T> edge_vals{}, row_vals{};
        Lanes<T> result{};
        if (mode == 0) {
          // el gathered by row, er gathered by col.
          Lanes<vid_t> colsv{};
          w.template load_contiguous<vid_t>(g.coo->col, b, cnt, colsv);
          Lanes<std::int64_t> cidx{};
          for (int l = 0; l < cnt; ++l) {
            cidx[static_cast<std::size_t>(l)] =
                colsv[static_cast<std::size_t>(l)];
          }
          w.template gather<T>(va, ridx, prefix_mask(cnt), edge_vals);
          w.template gather<T>(vb, cidx, prefix_mask(cnt), row_vals);
          for (int l = 0; l < cnt; ++l) {
            const float s = as_f(edge_vals[static_cast<std::size_t>(l)]) +
                            as_f(row_vals[static_cast<std::size_t>(l)]);
            result[static_cast<std::size_t>(l)] =
                from_f<T>(s > 0 ? s : slope * s);
          }
          w.alu(is_half ? Op::kHalfIntrin : Op::kFloatAlu, 2, cnt);
        } else {
          w.template load_contiguous<T>(va, b, cnt, edge_vals);
          w.template gather<T>(vb, ridx, prefix_mask(cnt), row_vals);
          for (int l = 0; l < cnt; ++l) {
            const float v = as_f(edge_vals[static_cast<std::size_t>(l)]);
            const float rv = as_f(row_vals[static_cast<std::size_t>(l)]);
            float res = 0.0f;
            if (mode == 1) {
              res = std::exp(v - rv);
            } else {
              res = v / (rv == 0.0f ? 1.0f : rv);
            }
            // Half flavor: round the intermediate subtraction like the
            // device would, then the special-function result.
            if constexpr (is_half) {
              if (mode == 1) {
                res = std::exp(as_f(from_f<T>(v - rv)));
              }
            }
            result[static_cast<std::size_t>(l)] = from_f<T>(res);
          }
          w.alu(is_half ? Op::kHalfIntrin : Op::kFloatAlu, 1, cnt);
          w.alu(Op::kSpecial, 1, cnt);
        }
        w.template store_contiguous<T>(out, b, cnt, result);
      });
}

// out = alpha * (dalpha - c[row]) in the value type's precision.
template <bool P, class T>
KernelStats softmax_bwd_impl(simt::Stream& stream, const GraphView& g,
                             std::span<const T> alpha,
                             std::span<const T> dalpha, std::span<const T> c,
                             std::span<T> out, const char* name) {
  constexpr bool is_half = reduced_v<T>;
  return edge_parallel<P>(
      stream, name, g.m(), [&](Warp<P>& w, eid_t b, int cnt) {
        Lanes<vid_t> rows{};
        w.template load_contiguous<vid_t>(g.coo->row, b, cnt, rows);
        Lanes<std::int64_t> ridx{};
        for (int l = 0; l < cnt; ++l) {
          ridx[static_cast<std::size_t>(l)] =
              rows[static_cast<std::size_t>(l)];
        }
        Lanes<T> va{}, vd{}, vc{};
        w.template load_contiguous<T>(alpha, b, cnt, va);
        w.template load_contiguous<T>(dalpha, b, cnt, vd);
        w.template gather<T>(c, ridx, prefix_mask(cnt), vc);
        Lanes<T> r{};
        for (int l = 0; l < cnt; ++l) {
          const auto lu = static_cast<std::size_t>(l);
          if constexpr (is_half) {
            r[lu] = va[lu] * (vd[lu] - vc[lu]);
          } else {
            r[lu] = va[lu] * (vd[lu] - vc[lu]);
          }
        }
        w.alu(is_half ? Op::kHalfIntrin : Op::kFloatAlu, 2, cnt);
        w.template store_contiguous<T>(out, b, cnt, r);
      });
}

template <bool P, class T>
KernelStats leaky_bwd_impl(simt::Stream& stream,
                           std::span<const T> pre, std::span<const T> grad,
                           std::span<T> out, float slope, const char* name) {
  constexpr bool is_half = reduced_v<T>;
  return edge_parallel<P>(
      stream, name, static_cast<eid_t>(pre.size()),
      [&](Warp<P>& w, eid_t b, int cnt) {
        Lanes<T> vp{}, vg{};
        w.template load_contiguous<T>(pre, b, cnt, vp);
        w.template load_contiguous<T>(grad, b, cnt, vg);
        Lanes<T> r{};
        for (int l = 0; l < cnt; ++l) {
          const auto lu = static_cast<std::size_t>(l);
          const bool pos = as_f(vp[lu]) > 0.0f;
          r[lu] = pos ? vg[lu] : from_f<T>(as_f(vg[lu]) * slope);
          if constexpr (is_half) {
            if (!pos) r[lu] = vg[lu] * from_f<T>(slope);
          }
        }
        w.alu(is_half ? Op::kHalfIntrin : Op::kFloatAlu, 1, cnt);
        w.template store_contiguous<T>(out, b, cnt, r);
      });
}

template <bool P, class T>
KernelStats permute_impl(simt::Stream& stream, std::span<const T> in,
                         std::span<const eid_t> perm, std::span<T> out,
                         const char* name) {
  return edge_parallel<P>(
      stream, name, static_cast<eid_t>(perm.size()),
      [&](Warp<P>& w, eid_t b, int cnt) {
        Lanes<eid_t> pv{};
        w.template load_contiguous<eid_t>(perm, b, cnt, pv);
        Lanes<std::int64_t> idx{};
        for (int l = 0; l < cnt; ++l) {
          idx[static_cast<std::size_t>(l)] = pv[static_cast<std::size_t>(l)];
        }
        Lanes<T> v{};
        w.template gather<T>(in, idx, prefix_mask(cnt), v);
        w.template store_contiguous<T>(out, b, cnt, v);
      });
}

template <bool P, class T>
KernelStats edge_mul_impl(simt::Stream& stream,
                          std::span<const T> a, std::span<const T> b,
                          std::span<T> out, const char* name) {
  constexpr bool is_half = reduced_v<T>;
  return edge_parallel<P>(
      stream, name, static_cast<eid_t>(a.size()),
      [&](Warp<P>& w, eid_t bb, int cnt) {
        Lanes<T> va{}, vb{};
        w.template load_contiguous<T>(a, bb, cnt, va);
        w.template load_contiguous<T>(b, bb, cnt, vb);
        Lanes<T> r{};
        for (int l = 0; l < cnt; ++l) {
          if constexpr (is_half) {
            r[static_cast<std::size_t>(l)] =
                va[static_cast<std::size_t>(l)] *
                vb[static_cast<std::size_t>(l)];
          } else {
            r[static_cast<std::size_t>(l)] =
                va[static_cast<std::size_t>(l)] *
                vb[static_cast<std::size_t>(l)];
          }
        }
        w.alu(is_half ? Op::kHalfIntrin : Op::kFloatAlu, 1, cnt);
        w.template store_contiguous<T>(out, bb, cnt, r);
      });
}

}  // namespace

#define HG_DISPATCH(fnname, call_true, call_false) \
  return profiled ? call_true : call_false

KernelStats edge_segment_reduce_f32(simt::Stream& stream,
                                    bool profiled, const GraphView& g,
                                    std::span<const float> vals,
                                    std::span<float> out, SegReduce reduce) {
  assert(out.size() == static_cast<std::size_t>(g.n()));
  HG_DISPATCH(seg_reduce,
              (seg_reduce_impl<true, float>(stream, g, vals, out, reduce,
                                            "edge_segreduce_f32")),
              (seg_reduce_impl<false, float>(stream, g, vals, out, reduce,
                                             "edge_segreduce_f32")));
}
KernelStats edge_segment_reduce_f16(simt::Stream& stream,
                                    bool profiled, const GraphView& g,
                                    std::span<const half_t> vals,
                                    std::span<half_t> out, SegReduce reduce) {
  assert(out.size() == static_cast<std::size_t>(g.n()));
  HG_DISPATCH(seg_reduce,
              (seg_reduce_impl<true, half_t>(stream, g, vals, out, reduce,
                                             "edge_segreduce_f16")),
              (seg_reduce_impl<false, half_t>(stream, g, vals, out, reduce,
                                              "edge_segreduce_f16")));
}

KernelStats edge_add_scalars_f32(simt::Stream& stream, bool profiled,
                                 const GraphView& g,
                                 std::span<const float> el,
                                 std::span<const float> er,
                                 std::span<float> out, float slope) {
  HG_DISPATCH(rowwise,
              (edge_rowwise_impl<true, float>(stream, g, el, er, out, 0, slope,
                                              "edge_addscalar_f32")),
              (edge_rowwise_impl<false, float>(stream, g, el, er, out, 0,
                                               slope, "edge_addscalar_f32")));
}
KernelStats edge_add_scalars_f16(simt::Stream& stream, bool profiled,
                                 const GraphView& g,
                                 std::span<const half_t> el,
                                 std::span<const half_t> er,
                                 std::span<half_t> out, float slope) {
  HG_DISPATCH(rowwise,
              (edge_rowwise_impl<true, half_t>(stream, g, el, er, out, 0,
                                               slope, "edge_addscalar_f16")),
              (edge_rowwise_impl<false, half_t>(stream, g, el, er, out, 0,
                                                slope,
                                                "edge_addscalar_f16")));
}

KernelStats edge_exp_sub_row_f32(simt::Stream& stream, bool profiled,
                                 const GraphView& g,
                                 std::span<const float> vals,
                                 std::span<const float> rowv,
                                 std::span<float> out) {
  HG_DISPATCH(rowwise,
              (edge_rowwise_impl<true, float>(stream, g, vals, rowv, out, 1,
                                              0.0f, "edge_expsub_f32")),
              (edge_rowwise_impl<false, float>(stream, g, vals, rowv, out, 1,
                                               0.0f, "edge_expsub_f32")));
}
KernelStats edge_exp_sub_row_f16(simt::Stream& stream, bool profiled,
                                 const GraphView& g,
                                 std::span<const half_t> vals,
                                 std::span<const half_t> rowv,
                                 std::span<half_t> out) {
  HG_DISPATCH(rowwise,
              (edge_rowwise_impl<true, half_t>(stream, g, vals, rowv, out, 1,
                                               0.0f, "edge_expsub_f16")),
              (edge_rowwise_impl<false, half_t>(stream, g, vals, rowv, out, 1,
                                                0.0f, "edge_expsub_f16")));
}

KernelStats edge_div_row_f32(simt::Stream& stream, bool profiled,
                             const GraphView& g, std::span<const float> vals,
                             std::span<const float> rowv,
                             std::span<float> out) {
  HG_DISPATCH(rowwise,
              (edge_rowwise_impl<true, float>(stream, g, vals, rowv, out, 2,
                                              0.0f, "edge_divrow_f32")),
              (edge_rowwise_impl<false, float>(stream, g, vals, rowv, out, 2,
                                               0.0f, "edge_divrow_f32")));
}
KernelStats edge_div_row_f16(simt::Stream& stream, bool profiled,
                             const GraphView& g,
                             std::span<const half_t> vals,
                             std::span<const half_t> rowv,
                             std::span<half_t> out) {
  HG_DISPATCH(rowwise,
              (edge_rowwise_impl<true, half_t>(stream, g, vals, rowv, out, 2,
                                               0.0f, "edge_divrow_f16")),
              (edge_rowwise_impl<false, half_t>(stream, g, vals, rowv, out, 2,
                                                0.0f, "edge_divrow_f16")));
}

KernelStats edge_mul_f32(simt::Stream& stream, bool profiled,
                         std::span<const float> a, std::span<const float> b,
                         std::span<float> out) {
  HG_DISPATCH(mul,
              (edge_mul_impl<true, float>(stream, a, b, out, "edge_mul_f32")),
              (edge_mul_impl<false, float>(stream, a, b, out, "edge_mul_f32")));
}
KernelStats edge_mul_f16(simt::Stream& stream, bool profiled,
                         std::span<const half_t> a,
                         std::span<const half_t> b, std::span<half_t> out) {
  HG_DISPATCH(mul,
              (edge_mul_impl<true, half_t>(stream, a, b, out, "edge_mul_f16")),
              (edge_mul_impl<false, half_t>(stream, a, b, out,
                                            "edge_mul_f16")));
}

KernelStats edge_softmax_backward_f32(simt::Stream& stream,
                                      bool profiled, const GraphView& g,
                                      std::span<const float> alpha,
                                      std::span<const float> dalpha,
                                      std::span<const float> c,
                                      std::span<float> out) {
  HG_DISPATCH(smb,
              (softmax_bwd_impl<true, float>(stream, g, alpha, dalpha, c, out,
                                             "edge_softmax_bwd_f32")),
              (softmax_bwd_impl<false, float>(stream, g, alpha, dalpha, c, out,
                                              "edge_softmax_bwd_f32")));
}
KernelStats edge_softmax_backward_f16(simt::Stream& stream,
                                      bool profiled, const GraphView& g,
                                      std::span<const half_t> alpha,
                                      std::span<const half_t> dalpha,
                                      std::span<const half_t> c,
                                      std::span<half_t> out) {
  HG_DISPATCH(smb,
              (softmax_bwd_impl<true, half_t>(stream, g, alpha, dalpha, c, out,
                                              "edge_softmax_bwd_f16")),
              (softmax_bwd_impl<false, half_t>(stream, g, alpha, dalpha, c,
                                               out, "edge_softmax_bwd_f16")));
}

KernelStats edge_leaky_backward_f32(simt::Stream& stream,
                                    bool profiled, std::span<const float> pre,
                                    std::span<const float> grad,
                                    std::span<float> out, float slope) {
  HG_DISPATCH(lb,
              (leaky_bwd_impl<true, float>(stream, pre, grad, out, slope,
                                           "edge_leaky_bwd_f32")),
              (leaky_bwd_impl<false, float>(stream, pre, grad, out, slope,
                                            "edge_leaky_bwd_f32")));
}
KernelStats edge_leaky_backward_f16(simt::Stream& stream,
                                    bool profiled,
                                    std::span<const half_t> pre,
                                    std::span<const half_t> grad,
                                    std::span<half_t> out, float slope) {
  HG_DISPATCH(lb,
              (leaky_bwd_impl<true, half_t>(stream, pre, grad, out, slope,
                                            "edge_leaky_bwd_f16")),
              (leaky_bwd_impl<false, half_t>(stream, pre, grad, out, slope,
                                             "edge_leaky_bwd_f16")));
}

KernelStats edge_permute_f32(simt::Stream& stream, bool profiled,
                             std::span<const float> in,
                             std::span<const eid_t> perm,
                             std::span<float> out) {
  HG_DISPATCH(perm,
              (permute_impl<true, float>(stream, in, perm, out,
                                         "edge_permute_f32")),
              (permute_impl<false, float>(stream, in, perm, out,
                                          "edge_permute_f32")));
}
KernelStats edge_permute_f16(simt::Stream& stream, bool profiled,
                             std::span<const half_t> in,
                             std::span<const eid_t> perm,
                             std::span<half_t> out) {
  HG_DISPATCH(perm,
              (permute_impl<true, half_t>(stream, in, perm, out,
                                          "edge_permute_f16")),
              (permute_impl<false, half_t>(stream, in, perm, out,
                                           "edge_permute_f16")));
}

// --- bf16 flavor (precision-lattice dtype; same impls, bf16 rounding) ----

KernelStats edge_segment_reduce_bf16(simt::Stream& stream,
                                     bool profiled, const GraphView& g,
                                     std::span<const bf16_t> vals,
                                     std::span<bf16_t> out,
                                     SegReduce reduce) {
  assert(out.size() == static_cast<std::size_t>(g.n()));
  HG_DISPATCH(seg_reduce,
              (seg_reduce_impl<true, bf16_t>(stream, g, vals, out, reduce,
                                             "edge_segreduce_bf16")),
              (seg_reduce_impl<false, bf16_t>(stream, g, vals, out, reduce,
                                              "edge_segreduce_bf16")));
}
KernelStats edge_add_scalars_bf16(simt::Stream& stream, bool profiled,
                                  const GraphView& g,
                                  std::span<const bf16_t> el,
                                  std::span<const bf16_t> er,
                                  std::span<bf16_t> out, float slope) {
  HG_DISPATCH(rowwise,
              (edge_rowwise_impl<true, bf16_t>(stream, g, el, er, out, 0,
                                               slope, "edge_addscalar_bf16")),
              (edge_rowwise_impl<false, bf16_t>(stream, g, el, er, out, 0,
                                                slope,
                                                "edge_addscalar_bf16")));
}
KernelStats edge_exp_sub_row_bf16(simt::Stream& stream, bool profiled,
                                  const GraphView& g,
                                  std::span<const bf16_t> vals,
                                  std::span<const bf16_t> rowv,
                                  std::span<bf16_t> out) {
  HG_DISPATCH(rowwise,
              (edge_rowwise_impl<true, bf16_t>(stream, g, vals, rowv, out, 1,
                                               0.0f, "edge_expsub_bf16")),
              (edge_rowwise_impl<false, bf16_t>(stream, g, vals, rowv, out, 1,
                                                0.0f, "edge_expsub_bf16")));
}
KernelStats edge_div_row_bf16(simt::Stream& stream, bool profiled,
                              const GraphView& g,
                              std::span<const bf16_t> vals,
                              std::span<const bf16_t> rowv,
                              std::span<bf16_t> out) {
  HG_DISPATCH(rowwise,
              (edge_rowwise_impl<true, bf16_t>(stream, g, vals, rowv, out, 2,
                                               0.0f, "edge_divrow_bf16")),
              (edge_rowwise_impl<false, bf16_t>(stream, g, vals, rowv, out, 2,
                                                0.0f, "edge_divrow_bf16")));
}
KernelStats edge_mul_bf16(simt::Stream& stream, bool profiled,
                          std::span<const bf16_t> a,
                          std::span<const bf16_t> b, std::span<bf16_t> out) {
  HG_DISPATCH(mul,
              (edge_mul_impl<true, bf16_t>(stream, a, b, out,
                                           "edge_mul_bf16")),
              (edge_mul_impl<false, bf16_t>(stream, a, b, out,
                                            "edge_mul_bf16")));
}
KernelStats edge_softmax_backward_bf16(simt::Stream& stream,
                                       bool profiled, const GraphView& g,
                                       std::span<const bf16_t> alpha,
                                       std::span<const bf16_t> dalpha,
                                       std::span<const bf16_t> c,
                                       std::span<bf16_t> out) {
  HG_DISPATCH(smb,
              (softmax_bwd_impl<true, bf16_t>(stream, g, alpha, dalpha, c,
                                              out, "edge_softmax_bwd_bf16")),
              (softmax_bwd_impl<false, bf16_t>(stream, g, alpha, dalpha, c,
                                               out,
                                               "edge_softmax_bwd_bf16")));
}
KernelStats edge_leaky_backward_bf16(simt::Stream& stream, bool profiled,
                                     std::span<const bf16_t> pre,
                                     std::span<const bf16_t> grad,
                                     std::span<bf16_t> out, float slope) {
  HG_DISPATCH(lb,
              (leaky_bwd_impl<true, bf16_t>(stream, pre, grad, out, slope,
                                            "edge_leaky_bwd_bf16")),
              (leaky_bwd_impl<false, bf16_t>(stream, pre, grad, out, slope,
                                             "edge_leaky_bwd_bf16")));
}
KernelStats edge_permute_bf16(simt::Stream& stream, bool profiled,
                              std::span<const bf16_t> in,
                              std::span<const eid_t> perm,
                              std::span<bf16_t> out) {
  HG_DISPATCH(perm,
              (permute_impl<true, bf16_t>(stream, in, perm, out,
                                          "edge_permute_bf16")),
              (permute_impl<false, bf16_t>(stream, in, perm, out,
                                           "edge_permute_bf16")));
}

#undef HG_DISPATCH

}  // namespace hg::kernels
