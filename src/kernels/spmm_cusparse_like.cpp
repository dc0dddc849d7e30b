#include "kernels/spmm_cusparse_like.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

namespace hg::kernels {

namespace {

using simt::ConflictPolicy;
using simt::Cta;
using simt::KernelStats;
using simt::Lanes;
using simt::LaunchDesc;
using simt::Op;
using simt::prefix_mask;
using simt::Warp;
namespace simd = simt::simd;

// The edge-parallel kernels traverse COO edges in CSR order, so a CTA range
// writes a contiguous row window — which bounds the executor's staging.
template <class T>
simt::CtaWindowFn row_window(const GraphView& g, eid_t edges_per_cta,
                             int elems_per_row) {
  return [&g, edges_per_cta,
          elems_per_row](int c0, int c1) -> std::pair<std::size_t,
                                                      std::size_t> {
    const eid_t m = g.m();
    const eid_t e0 = std::min<eid_t>(m, static_cast<eid_t>(c0) *
                                            edges_per_cta);
    const eid_t e1 = std::min<eid_t>(m, static_cast<eid_t>(c1) *
                                            edges_per_cta);
    if (e0 >= e1) return {0, 0};
    const auto r0 = static_cast<std::size_t>(
        g.coo->row[static_cast<std::size_t>(e0)]);
    const auto r1 = static_cast<std::size_t>(
        g.coo->row[static_cast<std::size_t>(e1 - 1)]);
    const auto k = static_cast<std::size_t>(elems_per_row);
    return {r0 * k, (r1 + 1) * k};
  };
}

// ---------------------------------------------------------------------------
// float path: edge-parallel segments with register accumulation per row run
// and atomic-float adds at segment boundaries.
// ---------------------------------------------------------------------------
template <bool P>
KernelStats spmm_f32_impl(simt::Stream& stream, const GraphView& g,
                          std::span<const float> edge_w,
                          std::span<const float> x, std::span<float> y,
                          int feat, Reduce reduce) {
  const eid_t m = g.m();
  const auto f = static_cast<std::size_t>(feat);
  const bool is_max = reduce == Reduce::kMax;
  const auto k = is_max ? simt::WarpCombine::kMax : simt::WarpCombine::kAdd;
  std::fill(y.begin(), y.end(), simt::combine_identity<float>(k));

  const int fchunks = (feat + 31) / 32;
  const eid_t edges_per_cta =
      static_cast<eid_t>(kEdgesPerWarp) * kWarpsPerCta;
  // Boundary rows are shared between warps (and CTAs): a conflict launch.
  const simt::StagedOutput<float> staged{
      y, is_max ? ConflictPolicy::kStagedMax : ConflictPolicy::kStagedSum,
      row_window<float>(g, edges_per_cta, feat)};

  auto ks = stream.launch<P>(
      LaunchDesc{"spmm_cusparse_f32", num_ctas_for_edges(m), kWarpsPerCta},
      staged, [&](Cta<P>& cta, std::span<float> out) {
    cta.for_each_warp([&](Warp<P>& w) {
      const eid_t gw = static_cast<eid_t>(cta.cta_id()) * kWarpsPerCta +
                       w.warp_in_cta();
      const eid_t e0 = gw * kEdgesPerWarp;
      const eid_t e1 = std::min<eid_t>(m, e0 + kEdgesPerWarp);
      if (e0 >= e1) return;

      const vid_t row_first = g.coo->row[static_cast<std::size_t>(e0)];
      const vid_t row_last = g.coo->row[static_cast<std::size_t>(e1 - 1)];

      const auto acc = cta.template scratch<float>(f);
      const auto reset = [&] {
        std::fill(acc.begin(), acc.end(), simt::combine_identity<float>(k));
      };
      reset();

      const auto flush = [&](vid_t r) {
        const bool interior = r != row_first && r != row_last;
        for (int fc = 0; fc < fchunks; ++fc) {
          const int lanes = std::min(32, feat - fc * 32);
          Lanes<float> vals{};
          for (int l = 0; l < lanes; ++l) {
            vals[static_cast<std::size_t>(l)] =
                acc[static_cast<std::size_t>(fc * 32 + l)];
          }
          if (interior) {
            // Exclusive to this warp: plain coalesced store.
            w.template store_contiguous<float>(
                out, static_cast<std::int64_t>(r) * feat + fc * 32, lanes,
                vals);
          } else {
            Lanes<std::int64_t> idx{};
            for (int l = 0; l < lanes; ++l) {
              idx[static_cast<std::size_t>(l)] =
                  static_cast<std::int64_t>(r) * feat + fc * 32 + l;
            }
            const int contention = std::min<int>(
                8, 2 + static_cast<int>(g.csr->degree(r)) / kEdgesPerWarp);
            w.atomic(k, out, idx, prefix_mask(lanes), vals, contention);
          }
        }
      };

      vid_t cur_row = row_first;
      for (eid_t e = e0; e < e1; ++e) {
        // Batched metadata loads: 32 col ids, 32 row ids, 32 weights.
        if ((e - e0) % 32 == 0) {
          const int cnt = static_cast<int>(std::min<eid_t>(32, e1 - e));
          Lanes<vid_t> tmp_ids{};
          w.template load_contiguous<vid_t>(g.coo->col, e, cnt, tmp_ids);
          w.template load_contiguous<vid_t>(g.coo->row, e, cnt, tmp_ids);
          if (!edge_w.empty()) {
            Lanes<float> tmp_w{};
            w.template load_contiguous<float>(edge_w, e, cnt, tmp_w);
          }
        }
        const vid_t r = g.coo->row[static_cast<std::size_t>(e)];
        if (r != cur_row) {
          flush(cur_row);
          reset();
          cur_row = r;
        }
        // Merge-path bookkeeping: the workload-balanced design spends
        // integer work per element locating its (row, col) coordinate.
        w.alu(Op::kIntAlu, 3);
        const auto col = static_cast<std::int64_t>(
            g.coo->col[static_cast<std::size_t>(e)]);
        const float we =
            edge_w.empty() ? 1.0f : edge_w[static_cast<std::size_t>(e)];
        for (int fc = 0; fc < fchunks; ++fc) {
          const int lanes = std::min(32, feat - fc * 32);
          // Contiguous row slice: charges identically to the prefix gather
          // it replaces. kHasW always — the scalar loop multiplied by
          // we == 1.0 when edge_w is empty, and std::max(slot, term) is the
          // (slot < term ? term : slot) select f_accum's kIsMax implements.
          Lanes<float> xv{};
          w.template load_contiguous<float>(x, col * feat + fc * 32, lanes,
                                            xv);
          simd::ops().f_accum(acc.data() + fc * 32, xv.data(), we, lanes,
                              simd::kHasW | (is_max ? simd::kIsMax : 0u));
          w.alu(Op::kFloatAlu, 1, lanes);
        }
      }
      flush(cur_row);
    });
  });

  // Empty rows: max over nothing is defined as 0 (matches reference/DGL).
  if (is_max) {
    for (vid_t v = 0; v < g.n(); ++v) {
      if (g.csr->degree(v) == 0) {
        for (std::size_t j = 0; j < f; ++j) {
          y[static_cast<std::size_t>(v) * f + j] = 0.0f;
        }
      }
    }
  }

  if (reduce == Reduce::kMean) {
    ks += scale_rows_f32(stream, P, *g.csr, y, feat);
  }
  return ks;
}

// ---------------------------------------------------------------------------
// half path: the slow cuSPARSE half design — scalar loads, Fig. 3a
// arithmetic, and per-edge atomic-half accumulation straight into Y.
// ---------------------------------------------------------------------------
template <bool P>
KernelStats spmm_f16_impl(simt::Stream& stream, const GraphView& g,
                          std::span<const half_t> edge_w,
                          std::span<const half_t> x, std::span<half_t> y,
                          int feat, Reduce reduce) {
  const eid_t m = g.m();
  const auto f = static_cast<std::size_t>(feat);
  const bool is_max = reduce == Reduce::kMax;
  const auto k = is_max ? simt::WarpCombine::kMax : simt::WarpCombine::kAdd;
  std::fill(y.begin(), y.end(), simt::combine_identity<half_t>(k));

  const int fchunks = (feat + 31) / 32;
  const eid_t edges_per_cta =
      static_cast<eid_t>(kEdgesPerWarp) * kWarpsPerCta;
  // Every edge scatters atomically into Y: the whole launch is conflicting.
  const simt::StagedOutput<half_t> staged{
      y, is_max ? ConflictPolicy::kStagedMax : ConflictPolicy::kStagedSum,
      row_window<half_t>(g, edges_per_cta, feat)};

  auto ks = stream.launch<P>(
      LaunchDesc{"spmm_cusparse_f16", num_ctas_for_edges(m), kWarpsPerCta},
      staged, [&](Cta<P>& cta, std::span<half_t> out) {
    cta.for_each_warp([&](Warp<P>& w) {
      const eid_t gw = static_cast<eid_t>(cta.cta_id()) * kWarpsPerCta +
                       w.warp_in_cta();
      const eid_t e0 = gw * kEdgesPerWarp;
      const eid_t e1 = std::min<eid_t>(m, e0 + kEdgesPerWarp);
      if (e0 >= e1) return;

      for (eid_t e = e0; e < e1; ++e) {
        if ((e - e0) % 32 == 0) {
          const int cnt = static_cast<int>(std::min<eid_t>(32, e1 - e));
          Lanes<vid_t> tmp_ids{};
          w.template load_contiguous<vid_t>(g.coo->col, e, cnt, tmp_ids);
          w.template load_contiguous<vid_t>(g.coo->row, e, cnt, tmp_ids);
          if (!edge_w.empty()) {
            Lanes<half_t> tmp_w{};
            w.template load_contiguous<half_t>(edge_w, e, cnt, tmp_w);
          }
        }
        const auto col = static_cast<std::int64_t>(
            g.coo->col[static_cast<std::size_t>(e)]);
        const auto r = static_cast<std::int64_t>(
            g.coo->row[static_cast<std::size_t>(e)]);
        const half_t we =
            edge_w.empty() ? half_t(1.0f) : edge_w[static_cast<std::size_t>(e)];
        for (int fc = 0; fc < fchunks; ++fc) {
          const int lanes = std::min(32, feat - fc * 32);
          Lanes<std::int64_t> dst{};
          for (int l = 0; l < lanes; ++l) {
            dst[static_cast<std::size_t>(l)] = r * feat + fc * 32 + l;
          }
          // Contiguous row slice: charges identically to the prefix gather
          // it replaced.
          Lanes<half_t> xv{};
          w.template load_contiguous<half_t>(x, col * feat + fc * 32, lanes,
                                             xv);
          if (!edge_w.empty()) {
            // Broadcast scale with the weight as the LEFT operand (we * x),
            // matching the scalar expression's NaN-payload order.
            simd::ops().h_scale(xv.data(), we, lanes, /*v_first=*/false);
            // Fig. 3a: the product runs through implicit float conversion.
            w.alu(Op::kHalfNaive, 1, lanes);
          }
          // The conflict write: an atomic-half CAS per feature chunk,
          // contended by every other warp currently scattering into the
          // same row.
          // CAS retries bounded by the memory system's exponential
          // backoff (cap 8).
          const int contention = std::min<int>(
              8, 1 + static_cast<int>(g.csr->degree(static_cast<vid_t>(r))) /
                        kEdgesPerWarp);
          w.atomic(k, out, dst, prefix_mask(lanes), xv, contention);
          // The CAS loop's value round-trip drains the load pipeline.
          w.sync();
        }
      }
    });
  });

  if (is_max) {
    for (vid_t v = 0; v < g.n(); ++v) {
      if (g.csr->degree(v) == 0) {
        for (std::size_t j = 0; j < f; ++j) {
          y[static_cast<std::size_t>(v) * f + j] = half_t(0.0f);
        }
      }
    }
  }

  if (reduce == Reduce::kMean) {
    ks += scale_rows_f16(stream, P, *g.csr, y, feat);
  }
  return ks;
}

// ---------------------------------------------------------------------------
// post-pass degree norm
// ---------------------------------------------------------------------------
template <bool P, class T>
KernelStats scale_rows_impl(simt::Stream& stream, const Csr& csr,
                            std::span<T> y, int feat, const char* name) {
  const vid_t n = csr.num_vertices;
  const int fchunks = (feat + 31) / 32;
  const int rows_per_cta = kWarpsPerCta;  // one row per warp
  const LaunchDesc cfg{name,
                       static_cast<int>((n + rows_per_cta - 1) /
                                        rows_per_cta),
                       kWarpsPerCta};
  return stream.launch<P>(cfg, [&](Cta<P>& cta) {
    cta.for_each_warp([&](Warp<P>& w) {
      const vid_t r = static_cast<vid_t>(cta.cta_id()) * rows_per_cta +
                      w.warp_in_cta();
      if (r >= n) return;
      const float inv =
          1.0f / static_cast<float>(std::max<vid_t>(1, csr.degree(r)));
      for (int fc = 0; fc < fchunks; ++fc) {
        const int lanes = std::min(32, feat - fc * 32);
        Lanes<T> v{};
        const std::int64_t base =
            static_cast<std::int64_t>(r) * feat + fc * 32;
        w.template load_contiguous<T>(y, base, lanes, v);
        if constexpr (std::is_same_v<T, half_t>) {
          // v_first: the scalar expression was slot * half_t(inv).
          simd::ops().h_scale(v.data(), half_t(inv), lanes, /*v_first=*/true);
        } else {
          simd::ops().f_scale(v.data(), inv, lanes);
        }
        w.alu(std::is_same_v<T, half_t> ? Op::kHalfNaive : Op::kFloatAlu, 1,
              lanes);
        w.template store_contiguous<T>(y, base, lanes, v);
      }
    });
  });
}

}  // namespace

KernelStats spmm_cusparse_f32(simt::Stream& stream, bool profiled,
                              const GraphView& g, std::span<const float> edge_w,
                              std::span<const float> x, std::span<float> y,
                              int feat, Reduce reduce) {
  assert(y.size() == static_cast<std::size_t>(g.n()) *
                         static_cast<std::size_t>(feat));
  return profiled ? spmm_f32_impl<true>(stream, g, edge_w, x, y, feat, reduce)
                  : spmm_f32_impl<false>(stream, g, edge_w, x, y, feat,
                                         reduce);
}

KernelStats spmm_cusparse_f16(simt::Stream& stream, bool profiled,
                              const GraphView& g,
                              std::span<const half_t> edge_w,
                              std::span<const half_t> x, std::span<half_t> y,
                              int feat, Reduce reduce) {
  assert(y.size() == static_cast<std::size_t>(g.n()) *
                         static_cast<std::size_t>(feat));
  return profiled ? spmm_f16_impl<true>(stream, g, edge_w, x, y, feat, reduce)
                  : spmm_f16_impl<false>(stream, g, edge_w, x, y, feat,
                                         reduce);
}

KernelStats scale_rows_f32(simt::Stream& stream, bool profiled,
                           const Csr& csr, std::span<float> y, int feat) {
  return profiled
             ? scale_rows_impl<true, float>(stream, csr, y, feat, "scale_f32")
             : scale_rows_impl<false, float>(stream, csr, y, feat,
                                             "scale_f32");
}

KernelStats scale_rows_f16(simt::Stream& stream, bool profiled,
                           const Csr& csr, std::span<half_t> y, int feat) {
  return profiled
             ? scale_rows_impl<true, half_t>(stream, csr, y, feat,
                                             "scale_f16")
             : scale_rows_impl<false, half_t>(stream, csr, y, feat,
                                              "scale_f16");
}

}  // namespace hg::kernels
