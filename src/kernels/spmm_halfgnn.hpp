// HalfGNN edge-parallel SpMM (paper Sec. 4 + 5.2, Fig. 4).
//
// Design elements implemented here, each mapped to the paper:
//  * Two-phase data load (Sec. 4.1): phase 1 explicitly loads NZE row/col
//    ids and edge features with coalesced half2 loads, mirrors the edge
//    features (Sec. 4.2), and caches everything in CTA shared memory;
//    phase 2 loads vertex features implicitly as half2 (feature-parallel).
//  * Sub-warps (Sec. 4.1.2): when F/2 < 32 lanes, the warp splits into
//    32/(F/2) sub-warps that each process a different edge in the same
//    instruction, restoring full thread utilization.
//  * Discretized reduction scaling (Sec. 5.2.2): with Reduce::kMean, every
//    per-batch partial sum is degree-scaled at flush time, so the running
//    value never leaves the half range. ScaleMode::kPre/kPost give the two
//    ends of the spectrum the paper contrasts (pre = safe but extra
//    arithmetic; post = DGL-style, overflows).
//  * Non-atomic conflict writes (Sec. 5.2.3): warp/sub-warp interior rows
//    are stored directly; boundary partials go through an intra-CTA
//    shared-memory merge, the CTA's final row goes to a |CTA| x |F| staging
//    buffer, and a follow-up kernel folds the staging buffer into Y.
//    `atomic_writes = true` switches boundary handling to half2 atomics
//    instead (the Fig. 13 ablation).
#pragma once

#include "kernels/api.hpp"

namespace hg::kernels {

struct HalfgnnSpmmOpts {
  Reduce reduce = Reduce::kSum;
  ScaleMode scale = ScaleMode::kDiscretized;  // only used for kMean
  bool atomic_writes = false;                 // Fig. 13 ablation variant
  int edges_per_warp = kEdgesPerWarp;         // >= 64, multiple of 32
};

// Y (size n*feat) is fully overwritten. `edge_w` empty => SpMMv.
// feat must be even (feature padding, Sec. 4.1.2 — callers pad odd class
// counts up; see nn/).
simt::KernelStats spmm_halfgnn(simt::Stream& stream, bool profiled,
                               const GraphView& g,
                               std::span<const half_t> edge_w,
                               std::span<const half_t> x,
                               std::span<half_t> y, int feat,
                               const HalfgnnSpmmOpts& opts = {});

// Edges one (sub-)warp reduces before it flushes a partial, for an even
// feature width: under ScaleMode::kDiscretized no running value ever holds
// more than this many unnormalized terms (Sec. 5.2.2). hgcheck bounds the
// discretized mean with it.
int halfgnn_segment_edges(int feat, int edges_per_warp = kEdgesPerWarp);

}  // namespace hg::kernels
