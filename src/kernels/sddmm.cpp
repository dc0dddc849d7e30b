#include "kernels/sddmm.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <vector>

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

// ---------------------------------------------------------------------------
// DGL-style SDDMM, shared skeleton for float and naive half.
// ---------------------------------------------------------------------------
template <bool P, class T>
KernelStats sddmm_dgl_impl(simt::Stream& stream, const GraphView& g,
                           std::span<const T> a, std::span<const T> b,
                           std::span<T> out, int feat, const char* name) {
  const eid_t m = g.m();
  const int fchunks = (feat + 31) / 32;
  const LaunchDesc cfg{name, num_ctas_for_edges(m), kWarpsPerCta};
  constexpr bool is_half = std::is_same_v<T, half_t>;
  // Op pricing per dtype: f32 pays float ALU, f16 pays the through-float
  // conversion tax (Fig. 3a), bf16 fma rounds once per op at intrinsic cost.
  constexpr Op alu_op = std::is_same_v<T, float> ? Op::kFloatAlu
                        : is_half               ? Op::kHalfNaive
                                                : Op::kHalfIntrin;

  return stream.launch<P>(cfg, [&](Cta<P>& cta) {
    cta.for_each_warp([&](Warp<P>& w) {
      const eid_t gw = static_cast<eid_t>(cta.cta_id()) * kWarpsPerCta +
                       w.warp_in_cta();
      const eid_t e0 = gw * kEdgesPerWarp;
      const eid_t e1 = std::min<eid_t>(m, e0 + kEdgesPerWarp);
      if (e0 >= e1) return;

      for (eid_t e = e0; e < e1; ++e) {
        if ((e - e0) % 32 == 0) {
          const int cnt = static_cast<int>(std::min<eid_t>(32, e1 - e));
          Lanes<vid_t> tmp{};
          w.template load_contiguous<vid_t>(g.coo->row, e, cnt, tmp);
          w.template load_contiguous<vid_t>(g.coo->col, e, cnt, tmp);
        }
        const auto r = static_cast<std::int64_t>(
            g.coo->row[static_cast<std::size_t>(e)]);
        const auto c = static_cast<std::int64_t>(
            g.coo->col[static_cast<std::size_t>(e)]);

        // Feature-parallel partial dot products per lane.
        Lanes<T> acc{};
        for (int l = 0; l < 32; ++l) acc[static_cast<std::size_t>(l)] = T{};
        for (int fc = 0; fc < fchunks; ++fc) {
          const int lanes = std::min(32, feat - fc * 32);
          // Both feature rows are contiguous slices: contiguous loads charge
          // identically to the prefix gathers they replace.
          Lanes<T> av{}, bv{};
          w.template load_contiguous<T>(a, r * feat + fc * 32, lanes, av);
          w.template load_contiguous<T>(b, c * feat + fc * 32, lanes, bv);
          if constexpr (is_half) {
            simd::ops().h_fma_mask(acc, av, bv, prefix_mask(lanes));
          } else if constexpr (std::is_same_v<T, bf16_t>) {
            // bf16 fma: exact f32 multiply-add, one bf16 rounding. Stays
            // scalar — bf16 has no SIMD primitive (no hardware convert).
            for (int l = 0; l < lanes; ++l) {
              acc[static_cast<std::size_t>(l)] = bf16_t(
                  av[static_cast<std::size_t>(l)].to_float() *
                      bv[static_cast<std::size_t>(l)].to_float() +
                  acc[static_cast<std::size_t>(l)].to_float());
            }
          } else {
            simd::ops().f_fma_mask(acc, av, bv, prefix_mask(lanes));
          }
          // Fig. 3a: DGL's half arithmetic converts through float.
          w.alu(alu_op, 1, lanes);
        }
        // Full-warp shuffle reduction: five rounds (Sec. 5.1.3).
        w.butterfly_reduce(acc, 32, simt::kFullMask, alu_op,
                           simt::WarpCombine::kAdd);
        // Scalar per-edge store (uncoalesced in the DGL design).
        Lanes<std::int64_t> oi{};
        Lanes<T> ov{};
        oi[0] = e;
        ov[0] = acc[0];
        w.template scatter<T>(out, oi, 0x1u, ov);
      }
    });
  });
}

// ---------------------------------------------------------------------------
// HalfGNN SDDMM, templated on the vector load type (half2/half4/half8).
// ---------------------------------------------------------------------------
template <class VecT>
constexpr int vec_halves() {
  return static_cast<int>(sizeof(VecT) / sizeof(half_t));
}

// The elementwise multiply-accumulate of one vector pair into a packed
// half2 accumulator (arithmetic always lowers to half2, Sec. 5.1.2) is the
// h2_dot_mask lane primitive: kV/2 chained h2fma steps per active lane.

template <bool P, class VecT>
KernelStats sddmm_halfgnn_impl(simt::Stream& stream,
                               const GraphView& g, std::span<const half_t> a,
                               std::span<const half_t> b,
                               std::span<half_t> out, int feat,
                               const char* name) {
  constexpr int kV = vec_halves<VecT>();
  if (feat % kV != 0) {
    throw std::invalid_argument(
        "sddmm_halfgnn: feat must be a multiple of the vector width "
        "(feature padding, Sec. 5.1.3)");
  }
  const eid_t m = g.m();
  const int fvec = feat / kV;  // vector loads per edge
  // Sub-warp width padded to a power of two so the butterfly works; the
  // padding lanes contribute zeros.
  const int lanes_per_edge = std::min(32, static_cast<int>(
                                              std::bit_ceil(
                                                  static_cast<unsigned>(
                                                      std::max(1, fvec)))));
  const int sub_warps = fvec >= 32 ? 1 : 32 / lanes_per_edge;
  const int chunks = (fvec + 31) / 32;
  const int seg = (kEdgesPerWarp + sub_warps - 1) / sub_warps;

  auto av = simt::as_vec<VecT>(a);
  auto bv = simt::as_vec<VecT>(b);

  const LaunchDesc cfg{name, num_ctas_for_edges(m), kWarpsPerCta};
  const eid_t edges_per_cta = static_cast<eid_t>(kEdgesPerWarp) * kWarpsPerCta;

  return stream.launch<P>(cfg, [&](Cta<P>& cta) {
    const eid_t cta_e0 = static_cast<eid_t>(cta.cta_id()) * edges_per_cta;
    const eid_t cta_e1 = std::min<eid_t>(m, cta_e0 + edges_per_cta);
    if (cta_e0 >= cta_e1) return;

    if (simd::vector_enabled() && cta.warp(0).fused_fast_path()) {
      // Fused fast loop (train mode, every hook disarmed): each warp's whole
      // edge range in one h2_sddmm_run call, reading the NZE indices and
      // writing the scores straight from and to global memory. Per edge it
      // is the sub-warp sequence below — the h2_dot_mask chunks, the
      // lane-group butterfly, the leader's h2reduce_add — with the lanes
      // kept in registers; the smem staging, per-lane index builds and
      // charges it skips have no observable effect in this mode.
      cta.for_each_warp([&](Warp<P>& w) {
        const eid_t e0 = cta_e0 + static_cast<eid_t>(w.warp_in_cta()) *
                                      kEdgesPerWarp;
        const eid_t e1 = std::min<eid_t>(cta_e1, e0 + kEdgesPerWarp);
        if (e0 >= e1) return;
        const auto eu = static_cast<std::size_t>(e0);
        simd::ops().h2_sddmm_run(
            out.data() + eu, reinterpret_cast<const half2*>(a.data()),
            reinterpret_cast<const half2*>(b.data()), g.coo->row.data() + eu,
            g.coo->col.data() + eu, kV / 2, fvec, static_cast<int>(e1 - e0));
      });
      return;
    }

    auto s_rows = cta.template shared<vid_t>(
        static_cast<std::size_t>(kWarpsPerCta) * kEdgesPerWarp);
    auto s_cols = cta.template shared<vid_t>(
        static_cast<std::size_t>(kWarpsPerCta) * kEdgesPerWarp);
    auto s_out = cta.template shared<half_t>(
        static_cast<std::size_t>(kWarpsPerCta) * kEdgesPerWarp);

    // Phase 1: coalesced NZE load into shared memory (Sec. 4.1.1).
    cta.for_each_warp([&](Warp<P>& w) {
      const eid_t e0 = cta_e0 + static_cast<eid_t>(w.warp_in_cta()) *
                                    kEdgesPerWarp;
      const eid_t e1 = std::min<eid_t>(cta_e1, e0 + kEdgesPerWarp);
      if (e0 >= e1) return;
      const auto lbase =
          static_cast<std::size_t>(w.warp_in_cta()) * kEdgesPerWarp;
      for (eid_t bb = e0; bb < e1; bb += 32) {
        const int cnt = static_cast<int>(std::min<eid_t>(32, e1 - bb));
        Lanes<vid_t> ids{};
        w.template load_contiguous<vid_t>(g.coo->row, bb, cnt, ids);
        for (int l = 0; l < cnt; ++l) {
          s_rows[lbase + static_cast<std::size_t>(bb - e0) +
                 static_cast<std::size_t>(l)] =
              ids[static_cast<std::size_t>(l)];
        }
        w.smem_access(1);
        w.template load_contiguous<vid_t>(g.coo->col, bb, cnt, ids);
        for (int l = 0; l < cnt; ++l) {
          s_cols[lbase + static_cast<std::size_t>(bb - e0) +
                 static_cast<std::size_t>(l)] =
              ids[static_cast<std::size_t>(l)];
        }
        w.smem_access(1);
      }
    });
    cta.barrier();

    // Phase 2: vector loads, sub-warp dot products, shuffle reduction.
    cta.for_each_warp([&](Warp<P>& w) {
      // Load ILP scales with the vector width: half8 issues 4 half2-widths
      // of features per instruction before the shuffle barrier (Sec. 5.1.3).
      w.set_load_ilp(kV / 2.0);
      const eid_t e0 = cta_e0 + static_cast<eid_t>(w.warp_in_cta()) *
                                    kEdgesPerWarp;
      const eid_t e1 = std::min<eid_t>(cta_e1, e0 + kEdgesPerWarp);
      if (e0 >= e1) return;
      const auto lbase =
          static_cast<std::size_t>(w.warp_in_cta()) * kEdgesPerWarp;

      for (eid_t k = 0; k < seg; ++k) {
        Lanes<half2> acc{};
        for (auto& x : acc) x = half2(0.0f, 0.0f);

        for (int c = 0; c < chunks; ++c) {
          Lanes<std::int64_t> ia{}, ib{};
          simt::LaneMask mask = 0;
          for (int s = 0; s < sub_warps; ++s) {
            const eid_t e = e0 + static_cast<eid_t>(s) * seg + k;
            if (e >= std::min<eid_t>(
                         e1, e0 + static_cast<eid_t>(s + 1) * seg)) {
              continue;
            }
            const auto le = static_cast<std::size_t>(e - e0);
            const auto r = static_cast<std::int64_t>(s_rows[lbase + le]);
            const auto cc = static_cast<std::int64_t>(s_cols[lbase + le]);
            for (int j = 0; j < lanes_per_edge; ++j) {
              const int fv = c * 32 + j;
              if (fv >= fvec) break;  // padded lanes stay inactive
              const int lane = s * lanes_per_edge + j;
              ia[static_cast<std::size_t>(lane)] = r * fvec + fv;
              ib[static_cast<std::size_t>(lane)] = cc * fvec + fv;
              mask |= simt::LaneMask{1} << lane;
            }
          }
          if (mask == 0) continue;
          w.smem_access(1);  // cached NZE reads
          Lanes<VecT> va{}, vb{};
          w.template gather<VecT>(av, ia, mask, va);
          w.template gather<VecT>(bv, ib, mask, vb);
          // Lane-batched vector dot: each active lane chains kV/2 h2fma
          // steps over its packed element in h2[0..] order — exactly the
          // vec_dot_acc sequence this replaced.
          simd::ops().h2_dot_mask(acc, reinterpret_cast<const half2*>(
                                           va.data()),
                                  reinterpret_cast<const half2*>(vb.data()),
                                  kV / 2, mask);
          w.alu(Op::kHalf2, kV / 2);
        }

        // Sub-warp shuffle reduction: log2(lanes_per_edge) rounds.
        w.butterfly_reduce(acc, lanes_per_edge, simt::kFullMask, Op::kHalf2,
                           simt::WarpCombine::kAdd);

        // Leader lanes fold the packed pair and buffer the result.
        for (int s = 0; s < sub_warps; ++s) {
          const eid_t e = e0 + static_cast<eid_t>(s) * seg + k;
          if (e >=
              std::min<eid_t>(e1, e0 + static_cast<eid_t>(s + 1) * seg)) {
            continue;
          }
          const int lead = s * lanes_per_edge;
          s_out[lbase + static_cast<std::size_t>(e - e0)] =
              h2reduce_add(acc[static_cast<std::size_t>(lead)]);
        }
        w.alu(Op::kHalfIntrin, 1);
        w.smem_access(1);
      }

      // Phase 3: coalesced store of the warp's buffered results.
      const eid_t cnt = e1 - e0;
      const eid_t pairs = cnt / 2;
      auto out2 = simt::as_vec_mut<half2>(
          out.subspan(0, (out.size() / 2) * 2));
      for (eid_t bb = 0; bb < pairs; bb += 32) {
        const int n = static_cast<int>(std::min<eid_t>(32, pairs - bb));
        Lanes<half2> v{};
        for (int l = 0; l < n; ++l) {
          const auto at = lbase + 2 * (static_cast<std::size_t>(bb) +
                                       static_cast<std::size_t>(l));
          v[static_cast<std::size_t>(l)] = half2{s_out[at], s_out[at + 1]};
        }
        w.smem_access(1);
        w.template store_contiguous<half2>(out2, e0 / 2 + bb, n, v);
      }
      if (cnt % 2 != 0) {
        Lanes<half_t> v{};
        v[0] = s_out[lbase + static_cast<std::size_t>(cnt - 1)];
        Lanes<std::int64_t> oi{};
        oi[0] = e1 - 1;
        w.template scatter<half_t>(out, oi, 0x1u, v);
      }
    });
  });
}

}  // namespace

KernelStats sddmm_dgl_f32(simt::Stream& stream, bool profiled,
                          const GraphView& g, std::span<const float> a,
                          std::span<const float> b, std::span<float> out,
                          int feat) {
  assert(out.size() == static_cast<std::size_t>(g.m()));
  return profiled
             ? sddmm_dgl_impl<true, float>(stream, g, a, b, out, feat,
                                           "sddmm_dgl_f32")
             : sddmm_dgl_impl<false, float>(stream, g, a, b, out, feat,
                                            "sddmm_dgl_f32");
}

KernelStats sddmm_dgl_f16(simt::Stream& stream, bool profiled,
                          const GraphView& g, std::span<const half_t> a,
                          std::span<const half_t> b, std::span<half_t> out,
                          int feat) {
  assert(out.size() == static_cast<std::size_t>(g.m()));
  return profiled
             ? sddmm_dgl_impl<true, half_t>(stream, g, a, b, out, feat,
                                            "sddmm_dgl_f16")
             : sddmm_dgl_impl<false, half_t>(stream, g, a, b, out, feat,
                                             "sddmm_dgl_f16");
}

KernelStats sddmm_bf16(simt::Stream& stream, bool profiled,
                       const GraphView& g, std::span<const bf16_t> a,
                       std::span<const bf16_t> b, std::span<bf16_t> out,
                       int feat) {
  assert(out.size() == static_cast<std::size_t>(g.m()));
  return profiled
             ? sddmm_dgl_impl<true, bf16_t>(stream, g, a, b, out, feat,
                                            "sddmm_bf16")
             : sddmm_dgl_impl<false, bf16_t>(stream, g, a, b, out, feat,
                                             "sddmm_bf16");
}

KernelStats sddmm_halfgnn(simt::Stream& stream, bool profiled,
                          const GraphView& g, std::span<const half_t> a,
                          std::span<const half_t> b, std::span<half_t> out,
                          int feat, SddmmVec vec) {
  assert(out.size() == static_cast<std::size_t>(g.m()));
  switch (vec) {
    case SddmmVec::kHalf2:
      return profiled ? sddmm_halfgnn_impl<true, half2>(
                            stream, g, a, b, out, feat, "sddmm_halfgnn_h2")
                      : sddmm_halfgnn_impl<false, half2>(
                            stream, g, a, b, out, feat, "sddmm_halfgnn_h2");
    case SddmmVec::kHalf4:
      return profiled ? sddmm_halfgnn_impl<true, half4>(
                            stream, g, a, b, out, feat, "sddmm_halfgnn_h4")
                      : sddmm_halfgnn_impl<false, half4>(
                            stream, g, a, b, out, feat, "sddmm_halfgnn_h4");
    case SddmmVec::kHalf8:
      return profiled ? sddmm_halfgnn_impl<true, half8>(
                            stream, g, a, b, out, feat, "sddmm_halfgnn_h8")
                      : sddmm_halfgnn_impl<false, half8>(
                            stream, g, a, b, out, feat, "sddmm_halfgnn_h8");
  }
  throw std::invalid_argument("sddmm_halfgnn: unknown vector width");
}

}  // namespace hg::kernels
