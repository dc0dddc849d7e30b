#include "kernels/spmm_halfgnn.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>
#include <vector>

namespace hg::kernels {

namespace {

using simt::Cta;
using simt::KernelStats;
using simt::Lanes;
using simt::ConflictPolicy;
using simt::LaunchDesc;
using simt::Op;
using simt::Warp;
namespace simd = simt::simd;

struct Geometry {
  int feat;
  int half_f;           // feature pairs per row
  int lanes_per_edge;   // lanes a sub-warp devotes to one edge
  int sub_warps;        // sub-warps per warp (Sec. 4.1.2)
  int chunks;           // half2 chunks per edge when F/2 > 32
  int edges_per_warp;
  int seg;              // edges per sub-warp segment
};

Geometry make_geometry(int feat, int edges_per_warp) {
  Geometry geo;
  geo.feat = feat;
  geo.half_f = feat / 2;
  geo.lanes_per_edge = std::min(32, geo.half_f);
  geo.sub_warps = geo.half_f >= 32 ? 1 : 32 / geo.lanes_per_edge;
  geo.chunks = (geo.half_f + 31) / 32;
  geo.edges_per_warp = edges_per_warp;
  geo.seg = (edges_per_warp + geo.sub_warps - 1) / geo.sub_warps;
  return geo;
}

// The device kernel-scratch slots of the staging buffer (Sec. 5.2.3).
constexpr int kStagingRowsSlot = 0;
constexpr int kStagingValsSlot = 1;
static_assert(kStagingValsSlot < simt::Device::kKernelScratchSlots);

// Per-CTA shared-memory views (paper Fig. 4).
template <bool P>
struct Smem {
  simt::SmemSpan<vid_t> rows;  // cached NZE row ids
  simt::SmemSpan<vid_t> cols;  // cached NZE col ids
  simt::SmemSpan<half2> w2;    // mirrored edge features, one half2 per edge
  simt::SmemSpan<vid_t> brow;  // boundary-partial row ids (-1 = empty)
  simt::SmemSpan<half2> bval;  // boundary-partial feature vectors

  static Smem alloc(Cta<P>& cta, const Geometry& geo, int warps, bool has_w) {
    Smem s;
    const auto cap = static_cast<std::size_t>(warps) *
                     static_cast<std::size_t>(geo.edges_per_warp);
    s.rows = cta.template shared<vid_t>(cap);
    s.cols = cta.template shared<vid_t>(cap);
    if (has_w) s.w2 = cta.template shared<half2>(cap);
    const auto slots = static_cast<std::size_t>(warps) *
                       static_cast<std::size_t>(geo.sub_warps) * 2;
    s.brow = cta.template shared<vid_t>(slots);
    s.bval = cta.template shared<half2>(
        slots * static_cast<std::size_t>(geo.half_f));
    return s;
  }
};

template <bool P>
KernelStats spmm_impl(simt::Stream& stream, const GraphView& g,
                      std::span<const half_t> edge_w,
                      std::span<const half_t> x, std::span<half_t> y,
                      int feat, const HalfgnnSpmmOpts& opts) {
  if (feat % 2 != 0) {
    throw std::invalid_argument(
        "spmm_halfgnn: feat must be even (apply feature padding)");
  }
  if (opts.edges_per_warp < 64 || opts.edges_per_warp % 32 != 0) {
    throw std::invalid_argument(
        "spmm_halfgnn: edges_per_warp must be >= 64 and a multiple of 32");
  }
  const eid_t m = g.m();
  const Geometry geo = make_geometry(feat, opts.edges_per_warp);
  const bool has_w = !edge_w.empty();
  const bool is_max = opts.reduce == Reduce::kMax;
  const bool is_mean = opts.reduce == Reduce::kMean;
  const auto k = is_max ? simt::WarpCombine::kMax : simt::WarpCombine::kAdd;
  const half2 init = simt::combine_identity<half2>(k);

  auto y2 = simt::as_vec_mut<half2>(y);
  auto x2 = simt::as_vec<half2>(x);

  const int num_ctas =
      num_ctas_for_edges(m, opts.edges_per_warp, kWarpsPerCta);
  const eid_t edges_per_cta =
      static_cast<eid_t>(opts.edges_per_warp) * kWarpsPerCta;

  // Y starts as the combine identity wherever a row is read before it is
  // written. The atomic ablation read-modify-writes boundary rows in Y, so
  // it fills all of Y. The staging design writes every row whole (interior
  // rows directly, merged boundary rows into their own identity fill)
  // except two kinds: isolated vertices, which no CTA writes (kMax then
  // sets them to 0), and each CTA's last row, which the follow-up launch
  // reads, combines with the staged partials and writes back.
  const half_t identity = simt::combine_identity<half_t>(k);
  if (opts.atomic_writes) {
    std::fill(y.begin(), y.end(), identity);
  } else {
    const auto f = static_cast<std::size_t>(feat);
    const auto fill_row = [&](vid_t r) {
      std::fill_n(y.begin() + static_cast<std::ptrdiff_t>(
                                  static_cast<std::size_t>(r) * f),
                  f, identity);
    };
    for (vid_t v = 0; v < g.n(); ++v) {
      if (g.csr->degree(v) == 0) fill_row(v);
    }
    for (int c = 0; c < num_ctas; ++c) {
      const eid_t e0 = static_cast<eid_t>(c) * edges_per_cta;
      const eid_t e1 = std::min<eid_t>(m, e0 + edges_per_cta);
      if (e0 < e1) fill_row(g.coo->row[static_cast<std::size_t>(e1 - 1)]);
    }
  }

  // Staging buffer: one conflicting row per CTA (Sec. 5.2.3), in the
  // device's reused kernel scratch. Only the row ids are reset: a CTA's
  // value row is read only where its id is set, and is written first.
  simt::Device& dev = stream.device();
  const auto staging_rows = dev.kernel_scratch<vid_t>(
      kStagingRowsSlot, static_cast<std::size_t>(num_ctas));
  std::fill(staging_rows.begin(), staging_rows.end(), -1);
  const auto staging_vals = dev.kernel_scratch<half_t>(
      kStagingValsSlot,
      static_cast<std::size_t>(num_ctas) * static_cast<std::size_t>(feat));
  auto staging2 = simt::as_vec_mut<half2>(staging_vals);

  const auto inv_deg = [&](vid_t r) {
    return 1.0f / static_cast<float>(std::max<vid_t>(1, g.csr->degree(r)));
  };

  // CTA c streams edges [c*edges_per_cta, (c+1)*edges_per_cta); the rows it
  // writes form the contiguous window [row(e0), row(e1-1)] because the COO
  // list is in CSR row order. Used to bound the executor's staging merge.
  const auto window = [&](int c0,
                          int c1) -> std::pair<std::size_t, std::size_t> {
    const eid_t we0 = std::min<eid_t>(m, static_cast<eid_t>(c0) * edges_per_cta);
    const eid_t we1 = std::min<eid_t>(m, static_cast<eid_t>(c1) * edges_per_cta);
    if (we0 >= we1) return {0, 0};
    const auto r0 =
        static_cast<std::size_t>(g.coo->row[static_cast<std::size_t>(we0)]);
    const auto r1 =
        static_cast<std::size_t>(g.coo->row[static_cast<std::size_t>(we1 - 1)]);
    const auto hf = static_cast<std::size_t>(geo.half_f);
    return {r0 * hf, (r1 + 1) * hf};
  };

  const bool pre_scaled = is_mean && opts.scale == ScaleMode::kPre;
  const bool disc = is_mean && opts.scale == ScaleMode::kDiscretized;
  // Per-edge term flags, and a whole row run from the combine identity.
  unsigned term_flags = 0;
  if (has_w) term_flags |= simd::kHasW;
  if (pre_scaled) term_flags |= simd::kHasPre;
  if (is_max) term_flags |= simd::kIsMax;
  const unsigned run_flags =
      term_flags | simd::kFromIdentity | (disc ? simd::kHasScale : 0u);

  const auto body =
      [&](Cta<P>& cta, std::span<half2> out) {
        const eid_t cta_e0 = static_cast<eid_t>(cta.cta_id()) * edges_per_cta;
        const eid_t cta_e1 = std::min<eid_t>(m, cta_e0 + edges_per_cta);

        if (geo.sub_warps == 1 && simd::vector_enabled() &&
            cta.warp(0).fused_fast_path()) {
          // Flat CTA (train mode, every hook disarmed): the three phases
          // below with nothing observing their staging, index builds or
          // charges. Each warp walks its segment's rows by CSR offsets and
          // runs every row with one h2_spmm_run straight from the graph —
          // interior rows into Y, the segment's first and last rows into
          // their merge slots. h2_spmm_run from the identity with the
          // discretized scale is the unfused accumulate-then-flush sequence
          // bit for bit, and weights broadcast from edge_w are phase 1's
          // mirrored pairs.
          if (cta_e0 >= cta_e1) return;
          const auto hf = static_cast<std::size_t>(geo.half_f);
          const auto slots = static_cast<std::size_t>(2 * kWarpsPerCta);
          const auto brow = cta.template scratch<vid_t>(slots);
          std::fill(brow.begin(), brow.end(), -1);
          const auto bval = cta.template scratch<half2>(slots * hf);
          const vid_t* rows = g.coo->row.data();
          const eid_t* offsets = g.csr->offsets.data();
          for (int wi = 0; wi < kWarpsPerCta; ++wi) {
            const eid_t e0 =
                cta_e0 + static_cast<eid_t>(wi) * geo.edges_per_warp;
            const eid_t e1 = std::min<eid_t>(cta_e1, e0 + geo.edges_per_warp);
            if (e0 >= e1) break;
            const vid_t r0 = rows[e0];
            const vid_t r1 = rows[e1 - 1];
            for (vid_t r = r0; r <= r1; ++r) {
              const eid_t b = std::max(e0, offsets[r]);
              const eid_t e = std::min(e1, offsets[r + 1]);
              if (b >= e) continue;  // isolated vertex
              half2* dst = out.data() + static_cast<std::size_t>(r) * hf;
              if (r == r0 || r == r1) {
                const std::size_t slot =
                    2 * static_cast<std::size_t>(wi) + (r == r0 ? 0 : 1);
                brow[slot] = r;
                dst = bval.data() + slot * hf;
              }
              // The prescale or the discretized scale, whichever is set.
              const half2 iv = pre_scaled || disc
                                   ? half2::broadcast(half_t(inv_deg(r)))
                                   : half2(1.0f, 1.0f);
              simd::ops().h2_spmm_run(dst, x2.data(), g.coo->col.data() + b,
                                      has_w ? edge_w.data() + b : nullptr, iv,
                                      iv, geo.half_f, static_cast<int>(e - b),
                                      run_flags);
            }
          }
          if (opts.atomic_writes) {
            // The per-access flush's atomics, in its order: each warp's
            // first row, then its last.
            for (std::size_t s = 0; s < slots; ++s) {
              if (brow[s] < 0) continue;
              simt::combine_n(
                  k, out.data() + static_cast<std::size_t>(brow[s]) * hf,
                  bval.data() + s * hf, geo.half_f);
            }
            return;
          }
          // Phase 3's merge: a run of equal rows folds, in slot order, into
          // an identity-filled row of Y or, for the CTA's last row, of the
          // staging buffer. The identity turns a -0 partial into +0.
          const vid_t cta_last_row = rows[cta_e1 - 1];
          half2* dst = nullptr;
          vid_t cur = -1;
          for (std::size_t s = 0; s < slots; ++s) {
            const vid_t r = brow[s];
            if (r < 0) continue;
            if (r != cur) {
              cur = r;
              if (r == cta_last_row) {
                staging_rows[static_cast<std::size_t>(cta.cta_id())] = r;
                dst = staging2.data() +
                      static_cast<std::size_t>(cta.cta_id()) * hf;
              } else {
                dst = out.data() + static_cast<std::size_t>(r) * hf;
              }
              std::fill(dst, dst + hf, init);
            }
            simt::combine_n(k, dst, bval.data() + s * hf, geo.half_f);
          }
          return;
        }

        Smem<P> sm = Smem<P>::alloc(cta, geo, kWarpsPerCta, has_w);
        sm.brow.fill(-1);

        // ---- Phase 1: explicit NZE + edge-feature load (Sec. 4.1.1) ----
        cta.for_each_warp([&](Warp<P>& w) {
          w.set_load_ilp(4.0);  // pure streaming loads
          const eid_t e0 =
              cta_e0 + static_cast<eid_t>(w.warp_in_cta()) *
                           geo.edges_per_warp;
          const eid_t e1 =
              std::min<eid_t>(cta_e1, e0 + geo.edges_per_warp);
          if (e0 >= e1) return;
          const auto lbase = static_cast<std::size_t>(
              w.warp_in_cta() * geo.edges_per_warp);

          for (eid_t b = e0; b < e1; b += 32) {
            const int cnt = static_cast<int>(std::min<eid_t>(32, e1 - b));
            Lanes<vid_t> ids{};
            w.template load_contiguous<vid_t>(g.coo->row, b, cnt, ids);
            sm.rows.copy_in(lbase + static_cast<std::size_t>(b - e0),
                            ids.data(), static_cast<std::size_t>(cnt));
            w.smem_access(1);
            w.template load_contiguous<vid_t>(g.coo->col, b, cnt, ids);
            sm.cols.copy_in(lbase + static_cast<std::size_t>(b - e0),
                            ids.data(), static_cast<std::size_t>(cnt));
            w.smem_access(1);
          }

          if (has_w) {
            // Coalesced half2 edge-feature load: 32 lanes x half2 = 128 B
            // (Sec. 4.1.1), then mirroring (Sec. 4.2) before caching.
            const eid_t pairs = (e1 - e0) / 2;
            auto w2v = simt::as_vec<half2>(
                edge_w.subspan(0, (edge_w.size() / 2) * 2));
            for (eid_t b = 0; b < pairs; b += 32) {
              const int cnt = static_cast<int>(std::min<eid_t>(32, pairs - b));
              Lanes<half2> packed{};
              w.template load_contiguous<half2>(w2v, e0 / 2 + b, cnt, packed);
              std::array<half2, 64> mir;
              for (int l = 0; l < cnt; ++l) {
                const half2 p = packed[static_cast<std::size_t>(l)];
                mir[static_cast<std::size_t>(2 * l)] = mirror_lo(p);
                mir[static_cast<std::size_t>(2 * l + 1)] = mirror_hi(p);
              }
              sm.w2.copy_in(lbase + 2 * static_cast<std::size_t>(b),
                            mir.data(), 2 * static_cast<std::size_t>(cnt));
              w.alu(Op::kHalf2, 2);  // extract + mirror movs
              w.smem_access(2);
            }
            if ((e1 - e0) % 2 != 0) {  // odd tail edge: scalar half load
              Lanes<half_t> tail{};
              w.template load_contiguous<half_t>(edge_w, e1 - 1, 1, tail);
              sm.w2[lbase + static_cast<std::size_t>(e1 - 1 - e0)] =
                  half2::broadcast(tail[0]);
              w.smem_access(1);
            }
          }
        });
        cta.barrier();

        // ---- Phase 2: implicit vertex-feature load + discretized
        //      reduction (Sec. 4.1.2, 5.2) ----
        cta.for_each_warp([&](Warp<P>& w) {
          // Two-phase design: the vertex-feature gathers are independent
          // streams with the NZE metadata already cached (Sec. 4.1).
          w.set_load_ilp(4.0);
          const eid_t e0 =
              cta_e0 + static_cast<eid_t>(w.warp_in_cta()) *
                           geo.edges_per_warp;
          const eid_t e1 =
              std::min<eid_t>(cta_e1, e0 + geo.edges_per_warp);
          if (e0 >= e1) return;
          const auto lbase = static_cast<std::size_t>(
              w.warp_in_cta() * geo.edges_per_warp);

          // Per sub-warp accumulator registers: chunks x 32 lanes. CTA
          // scratch, not heap — this runs once per warp per CTA.
          const auto acc =
              cta.template scratch<Lanes<half2>>(static_cast<std::size_t>(geo.chunks));
          for (auto& a : acc) a.fill(init);

          const auto cur_row =
              cta.template scratch<vid_t>(static_cast<std::size_t>(geo.sub_warps));
          const auto first_row =
              cta.template scratch<vid_t>(static_cast<std::size_t>(geo.sub_warps));
          const auto last_row =
              cta.template scratch<vid_t>(static_cast<std::size_t>(geo.sub_warps));
          for (int s = 0; s < geo.sub_warps; ++s) {
            const auto su = static_cast<std::size_t>(s);
            cur_row[su] = first_row[su] = last_row[su] = -1;
          }
          for (int s = 0; s < geo.sub_warps; ++s) {
            const eid_t s0 = e0 + static_cast<eid_t>(s) * geo.seg;
            const eid_t s1 = std::min<eid_t>(e1, s0 + geo.seg);
            if (s0 >= s1) continue;
            const auto su = static_cast<std::size_t>(s);
            first_row[su] = sm.rows[lbase + static_cast<std::size_t>(s0 - e0)];
            last_row[su] =
                sm.rows[lbase + static_cast<std::size_t>(s1 - 1 - e0)];
            cur_row[su] = first_row[su];
          }

          // Flush sub-warp s's accumulated partial for row r.
          const auto flush = [&](int s, vid_t r) {
            const auto su = static_cast<std::size_t>(s);
            const bool interior = r != first_row[su] && r != last_row[su];
            // Discretized scaling: degree-norm each batch partial at flush
            // (Sec. 5.2.2) so the running value stays in half range.
            if (disc) {
              const half2 iv = half2::broadcast(half_t(inv_deg(r)));
              for (int c = 0; c < geo.chunks; ++c) {
                auto& a = acc[static_cast<std::size_t>(c)];
                simd::ops().h2_scale(
                    a.data() + s * geo.lanes_per_edge, iv,
                    geo.lanes_per_edge);
              }
              w.alu(Op::kHalf2, geo.chunks);
            }
            for (int c = 0; c < geo.chunks; ++c) {
              auto& a = acc[static_cast<std::size_t>(c)];
              if (interior && geo.sub_warps == 1) {
                // Single sub-warp: lanes 0..cnt-1 hold the contiguous
                // feature slice [r*half_f + c*32, +cnt). A contiguous store
                // charges identically to the equivalent prefix scatter
                // (same sectors and unique elements, same fault/prof/race
                // provenance), and skips the per-lane index build.
                const int cnt = std::min(32, geo.half_f - c * 32);
                if (cnt > 0) {
                  w.template store_contiguous<half2>(
                      out,
                      static_cast<std::int64_t>(r) * geo.half_f + c * 32,
                      cnt, a);
                }
                for (int j = 0; j < geo.lanes_per_edge; ++j) {
                  a[static_cast<std::size_t>(j)] = init;
                }
                continue;
              }
              Lanes<std::int64_t> idx{};
              Lanes<half2> vals{};
              simt::LaneMask mask = 0;
              for (int j = 0; j < geo.lanes_per_edge; ++j) {
                const int fp = c * 32 + j;  // feature-pair index
                if (fp >= geo.half_f) break;
                const int lane = s * geo.lanes_per_edge + j;
                idx[static_cast<std::size_t>(lane)] =
                    static_cast<std::int64_t>(r) * geo.half_f + fp;
                vals[static_cast<std::size_t>(lane)] =
                    a[static_cast<std::size_t>(lane)];
                mask |= simt::LaneMask{1} << lane;
              }
              if (interior) {
                w.template scatter<half2>(out, idx, mask, vals);
              } else if (opts.atomic_writes) {
                // Fig. 13 ablation: resolve boundary conflicts with
                // half2 atomics (CAS loops) instead of the staging design.
                // A split row is concurrently CAS'd by every warp that
                // holds a piece of it — that cross-agent contention is what
                // makes atomic-half writes the bottleneck (Sec. 6.3.2).
                // CAS retry rounds: even a two-writer race costs several
                // retries in expectation; split rows add a writer per warp
                // that shares them.
                const int contention = std::min<int>(
                    32, 4 + static_cast<int>(g.csr->degree(r)) /
                               opts.edges_per_warp);
                w.atomic(k, out, idx, mask, vals, contention);
                // The CAS value round-trip drains the load pipeline.
                w.sync();
              } else {
                const auto slot =
                    (static_cast<std::size_t>(w.warp_in_cta()) *
                         static_cast<std::size_t>(geo.sub_warps) +
                     su) *
                        2 +
                    (r == first_row[su] ? 0u : 1u);
                sm.brow[slot] = r;
                for (int j = 0; j < geo.lanes_per_edge; ++j) {
                  const int fp = c * 32 + j;
                  if (fp >= geo.half_f) break;
                  const int lane = s * geo.lanes_per_edge + j;
                  sm.bval[slot * static_cast<std::size_t>(geo.half_f) +
                          static_cast<std::size_t>(fp)] =
                      a[static_cast<std::size_t>(lane)];
                }
                w.smem_access(1);
              }
              // Reset this sub-warp's lanes.
              for (int j = 0; j < geo.lanes_per_edge; ++j) {
                const int lane = s * geo.lanes_per_edge + j;
                a[static_cast<std::size_t>(lane)] = init;
              }
            }
          };

          for (eid_t k = 0; k < geo.seg; ++k) {
            // Row-transition check for every sub-warp (one int op per step).
            for (int s = 0; s < geo.sub_warps; ++s) {
              const auto su = static_cast<std::size_t>(s);
              const eid_t e = e0 + static_cast<eid_t>(s) * geo.seg + k;
              if (e >= std::min<eid_t>(e1, e0 + static_cast<eid_t>(s + 1) *
                                                   geo.seg)) {
                continue;
              }
              const vid_t r =
                  sm.rows[lbase + static_cast<std::size_t>(e - e0)];
              if (r != cur_row[su]) {
                flush(s, cur_row[su]);
                cur_row[su] = r;
              }
            }
            w.alu(Op::kIntAlu, 1);
            w.smem_access(has_w ? 2 : 1);

            // One load/gather instruction per chunk covers all sub-warps.
            for (int c = 0; c < geo.chunks; ++c) {
              Lanes<half2> xv{};
              bool any = false;
              if (geo.sub_warps == 1) {
                // Single sub-warp: the chunk's lane block reads the
                // contiguous feature slice [col*half_f + c*32, +cnt). A
                // contiguous load charges identically to the equivalent
                // prefix gather (same sectors and unique elements, same
                // fault/prof ordinals) and skips the per-lane index build —
                // this is the hot load of the whole kernel.
                const eid_t e = e0 + k;
                const int cnt = std::min(32, geo.half_f - c * 32);
                if (e < e1 && cnt > 0) {
                  const auto col = static_cast<std::int64_t>(
                      sm.cols[lbase + static_cast<std::size_t>(e - e0)]);
                  w.template load_contiguous<half2>(
                      x2, col * geo.half_f + c * 32, cnt, xv);
                  any = true;
                }
              } else {
                Lanes<std::int64_t> idx{};
                simt::LaneMask mask = 0;
                for (int s = 0; s < geo.sub_warps; ++s) {
                  const eid_t e = e0 + static_cast<eid_t>(s) * geo.seg + k;
                  if (e >= std::min<eid_t>(e1, e0 + static_cast<eid_t>(s + 1) *
                                                       geo.seg)) {
                    continue;
                  }
                  const auto col = static_cast<std::int64_t>(
                      sm.cols[lbase + static_cast<std::size_t>(e - e0)]);
                  for (int j = 0; j < geo.lanes_per_edge; ++j) {
                    const int fp = c * 32 + j;
                    if (fp >= geo.half_f) break;
                    const int lane = s * geo.lanes_per_edge + j;
                    idx[static_cast<std::size_t>(lane)] =
                        col * geo.half_f + fp;
                    mask |= simt::LaneMask{1} << lane;
                  }
                }
                if (mask != 0) {
                  w.template gather<half2>(x2, idx, mask, xv);
                  any = true;
                }
              }
              if (!any) continue;

              for (int s = 0; s < geo.sub_warps; ++s) {
                const auto su = static_cast<std::size_t>(s);
                const eid_t e = e0 + static_cast<eid_t>(s) * geo.seg + k;
                if (e >= std::min<eid_t>(e1, e0 + static_cast<eid_t>(s + 1) *
                                                     geo.seg)) {
                  continue;
                }
                const half2 w2m =
                    has_w ? sm.w2[lbase + static_cast<std::size_t>(e - e0)]
                          : half2(1.0f, 1.0f);
                const half2 pre =
                    pre_scaled ? half2::broadcast(half_t(inv_deg(cur_row[su])))
                               : half2(1.0f, 1.0f);
                auto& a = acc[static_cast<std::size_t>(c)];
                // Lane-batched accumulate over the sub-warp's contiguous
                // lane block; the scalar dispatch entry is the exact loop
                // this replaced.
                const int cnt =
                    std::min(geo.lanes_per_edge, geo.half_f - c * 32);
                if (cnt <= 0) continue;
                simd::ops().h2_term_accum(a.data() + s * geo.lanes_per_edge,
                                          xv.data() + s * geo.lanes_per_edge,
                                          w2m, pre, cnt, term_flags);
              }
              int instrs = 1 + (has_w ? 1 : 0);
              if (pre_scaled) instrs += 1;
              w.alu(Op::kHalf2, instrs);
            }
          }
          for (int s = 0; s < geo.sub_warps; ++s) {
            if (cur_row[static_cast<std::size_t>(s)] >= 0) {
              flush(s, cur_row[static_cast<std::size_t>(s)]);
            }
          }
        });

        if (opts.atomic_writes) return;  // no merge phases in the ablation

        cta.barrier();

        // ---- Phase 3: intra-CTA merge of boundary partials; the CTA's
        //      final row goes to the staging buffer (Sec. 5.2.3). Work is
        //      spread across the CTA's warps: the warp owning the *head*
        //      slot of a run of equal rows merges that run (the proposed
        //      intra-CTA communication library of Sec. 5.2.3). ----
        if (cta_e0 >= cta_e1) return;
        const vid_t cta_last_row =
            g.coo->row[static_cast<std::size_t>(cta_e1 - 1)];
        const std::size_t slots_per_warp =
            static_cast<std::size_t>(geo.sub_warps) * 2;
        cta.for_each_warp([&](Warp<P>& w) {
          const std::size_t total_slots = sm.brow.size();
          const std::size_t s0 =
              static_cast<std::size_t>(w.warp_in_cta()) * slots_per_warp;
          const auto macc =
              cta.template scratch<half2>(static_cast<std::size_t>(geo.half_f));
          const auto part =
              cta.template scratch<half2>(static_cast<std::size_t>(geo.half_f));

          const auto emit = [&](vid_t r) {
            for (int c = 0; c < geo.chunks; ++c) {
              const int lanes = std::min(32, geo.half_f - c * 32);
              Lanes<half2> vals{};
              for (int l = 0; l < lanes; ++l) {
                vals[static_cast<std::size_t>(l)] =
                    macc[static_cast<std::size_t>(c * 32 + l)];
              }
              if (r == cta_last_row) {
                w.template store_contiguous<half2>(
                    staging2,
                    static_cast<std::int64_t>(cta.cta_id()) * geo.half_f +
                        c * 32,
                    lanes, vals);
              } else {
                w.template store_contiguous<half2>(
                    out, static_cast<std::int64_t>(r) * geo.half_f + c * 32,
                    lanes, vals);
              }
            }
            if (r == cta_last_row) {
              staging_rows[static_cast<std::size_t>(cta.cta_id())] = r;
            }
          };

          for (std::size_t slot = s0;
               slot < std::min(total_slots, s0 + slots_per_warp); ++slot) {
            const vid_t r = sm.brow[slot];
            if (r < 0) continue;
            // Head of a run? (previous non-empty slot holds another row)
            bool head = true;
            for (std::size_t p = slot; p-- > 0;) {
              if (sm.brow[p] < 0) continue;
              head = sm.brow[p] != r;
              break;
            }
            w.alu(Op::kIntAlu, 1);
            if (!head) continue;
            // Merge the whole run of this row.
            std::fill(macc.begin(), macc.end(), init);
            for (std::size_t q = slot; q < total_slots; ++q) {
              if (sm.brow[q] < 0) continue;
              if (sm.brow[q] != r) break;
              w.smem_access(geo.chunks);
              sm.bval.copy_out(q * static_cast<std::size_t>(geo.half_f),
                               part.data(), part.size());
              simt::combine_n(k, macc.data(), part.data(), geo.half_f);
              w.alu(Op::kHalf2, geo.chunks);
            }
            emit(r);
          }
        });
      };

  // Fig. 13 ablation (atomic half2 boundary writes): every CTA range RMWs
  // shared rows, so route the launch through the executor's deterministic
  // staging+merge. The non-atomic design is conflict-free by construction
  // (interior rows have one writer; boundary rows go via smem/staging).
  // Its launch declares no window: building the std::function allocates on
  // every call, and peak RSS is sensitive to small blocks placed between
  // the training tensors.
  const simt::StagedOutput<half2> out =
      !opts.atomic_writes
          ? simt::StagedOutput<half2>{y2, ConflictPolicy::kNone, {}}
          : simt::StagedOutput<half2>{y2,
                                      is_max ? ConflictPolicy::kStagedMax
                                             : ConflictPolicy::kStagedSum,
                                      window};
  KernelStats ks = stream.launch<P>(
      LaunchDesc{"spmm_halfgnn", num_ctas, kWarpsPerCta}, out, body);

  // ---- Follow-up kernel: fold the staging buffer into Y (Sec. 5.2.3).
  // One warp per staging entry; the warp owning the *head* of a run of
  // equal rows merges the whole run, all other warps retire immediately —
  // so the common case (distinct rows) is fully parallel and a row
  // spanning k CTAs costs one warp k merge steps. ----
  if (!opts.atomic_writes) {
    const auto staged2 =
        simt::as_vec<half2>(std::span<const half_t>(staging_vals));
    KernelStats fks = stream.launch<P>(
        LaunchDesc{"spmm_halfgnn_followup",
                   (num_ctas + kWarpsPerCta - 1) / kWarpsPerCta, kWarpsPerCta},
        [&](Cta<P>& cta) {
          cta.for_each_warp([&](Warp<P>& w) {
            const int i = cta.cta_id() * kWarpsPerCta + w.warp_in_cta();
            if (i >= num_ctas) return;
            // Load my entry's row plus the predecessor's (one instr).
            {
              Lanes<vid_t> tmp{};
              const int b = std::max(0, i - 1);
              w.template load_contiguous<vid_t>(
                  std::span<const vid_t>(staging_rows), b,
                  std::min(2, num_ctas - b), tmp);
            }
            const vid_t r = staging_rows[static_cast<std::size_t>(i)];
            if (r < 0) return;
            if (i > 0 && staging_rows[static_cast<std::size_t>(i - 1)] == r) {
              return;  // not the head of this run
            }
            const auto macc =
                cta.template scratch<half2>(static_cast<std::size_t>(geo.half_f));
            std::fill(macc.begin(), macc.end(), init);
            for (int c = i; c < num_ctas &&
                            staging_rows[static_cast<std::size_t>(c)] == r;
                 ++c) {
              for (int ch = 0; ch < geo.chunks; ++ch) {
                const int lanes = std::min(32, geo.half_f - ch * 32);
                Lanes<half2> vals{};
                w.template load_contiguous<half2>(
                    staged2,
                    static_cast<std::int64_t>(c) * geo.half_f + ch * 32,
                    lanes, vals);
                simt::combine_n(k, macc.data() + ch * 32, vals.data(), lanes);
              }
              w.alu(Op::kHalf2, geo.chunks);
              if (c > i) {  // run-scan read of the next entry's row id
                w.alu(Op::kIntAlu, 1);
              }
            }
            // Y[r] += merged staged partial (ordered after the main kernel,
            // so a plain read-modify-write is conflict-free).
            for (int ch = 0; ch < geo.chunks; ++ch) {
              const int lanes = std::min(32, geo.half_f - ch * 32);
              Lanes<half2> cur{};
              const std::int64_t base =
                  static_cast<std::int64_t>(r) * geo.half_f + ch * 32;
              w.template load_contiguous<half2>(y2, base, lanes, cur);
              simt::combine_n(k, cur.data(), macc.data() + ch * 32, lanes);
              w.alu(Op::kHalf2, 1);
              w.template store_contiguous<half2>(y2, base, lanes, cur);
            }
          });
        });
    ks += fks;
  }

  // kMax: empty rows hold -inf; define them as 0 like the reference.
  if (is_max) {
    const auto f = static_cast<std::size_t>(feat);
    for (vid_t v = 0; v < g.n(); ++v) {
      if (g.csr->degree(v) == 0) {
        for (std::size_t j = 0; j < f; ++j) {
          y[static_cast<std::size_t>(v) * f + j] = half_t(0.0f);
        }
      }
    }
  }

  // Post-reduction scaling (the DGL-style mode, for the overflow ablation).
  if (is_mean && opts.scale == ScaleMode::kPost) {
    KernelStats sks = stream.launch<P>(
        LaunchDesc{"spmm_halfgnn_postscale", (g.n() + 3) / 4, 4},
        [&](Cta<P>& cta) {
          cta.for_each_warp([&](Warp<P>& w) {
            const vid_t r = static_cast<vid_t>(cta.cta_id()) * 4 +
                            w.warp_in_cta();
            if (r >= g.n()) return;
            const half2 iv = half2::broadcast(half_t(inv_deg(r)));
            for (int c = 0; c < geo.chunks; ++c) {
              const int lanes = std::min(32, geo.half_f - c * 32);
              Lanes<half2> v{};
              const std::int64_t base =
                  static_cast<std::int64_t>(r) * geo.half_f + c * 32;
              w.template load_contiguous<half2>(y2, base, lanes, v);
              simd::ops().h2_scale(v.data(), iv, lanes);
              w.alu(Op::kHalf2, 1);
              w.template store_contiguous<half2>(y2, base, lanes, v);
            }
          });
        });
    ks += sks;
  }
  return ks;
}

}  // namespace

KernelStats spmm_halfgnn(simt::Stream& stream, bool profiled,
                         const GraphView& g, std::span<const half_t> edge_w,
                         std::span<const half_t> x, std::span<half_t> y,
                         int feat, const HalfgnnSpmmOpts& opts) {
  assert(y.size() == static_cast<std::size_t>(g.n()) *
                         static_cast<std::size_t>(feat));
  return profiled ? spmm_impl<true>(stream, g, edge_w, x, y, feat, opts)
                  : spmm_impl<false>(stream, g, edge_w, x, y, feat, opts);
}

int halfgnn_segment_edges(int feat, int edges_per_warp) {
  return make_geometry(feat, edges_per_warp).seg;
}

}  // namespace hg::kernels
