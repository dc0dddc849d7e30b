#include "nn/kernel_table.hpp"

#include <initializer_list>
#include <iterator>
#include <numeric>
#include <stdexcept>

namespace hg::nn {

namespace {

using K = Kernel;
constexpr Dtype kF32 = Dtype::kF32;
constexpr Dtype kF16 = Dtype::kF16;
constexpr Dtype kBf16 = Dtype::kBf16;

// A GAT edge-op row: accumulates in its storage format, no mean scaling,
// one launch (named like the row unless given).
constexpr KernelRow edge(std::string_view label, Dtype dt,
                         bool reducing = false, std::string_view launch = {}) {
  const Accum acc =
      dt == kF32 ? Accum::kF32 : (dt == kF16 ? Accum::kF16 : Accum::kBf16);
  return {label, dt, acc, MeanScale::kNone, reducing,
          {launch.empty() ? label : launch}};
}

// Rows in Kernel order.
constexpr KernelRow kRows[] = {
    // DGL-style: sum first, then a separate scale_rows launch normalizes
    // the mean. In f16 the running sum itself is stored in binary16 — the
    // Fig. 1c overflow site.
    {"spmm_cusparse_f32", kF32, Accum::kF32, MeanScale::kPostNorm, true,
     {"spmm_cusparse_f32", "scale_f32"}},
    {"spmm_cusparse_f16", kF16, Accum::kF16, MeanScale::kPostNorm, true,
     {"spmm_cusparse_f16", "scale_f16"}},
    // The paper's kernel: each segment partial is scaled by inv_deg at flush
    // (kernels::halfgnn_segment_edges bounds the unnormalized terms).
    // half2 loads: an even width.
    {"spmm_halfgnn", kF16, Accum::kF16, MeanScale::kDiscretized, true,
     {"spmm_halfgnn", "spmm_halfgnn_followup", "spmm_halfgnn_postscale"}, 2},
    // bf16 has the f32 exponent: the pre-norm running sum cannot overflow.
    {"spmm_bf16", kBf16, Accum::kBf16, MeanScale::kPostNorm, true,
     {"spmm_bf16"}},
    // int8 dot in int32, dequantized and mean-scaled in the f32 epilogue.
    {"spmm_int8", kF32, Accum::kInt32, MeanScale::kPostNorm, true,
     {"spmm_int8", "quantize_i8"}},
    // The f32 epilogue restores alpha * (2c - deg) from sign-domain
    // popcounts and ignores edge weights.
    {"spmm_binary", kF32, Accum::kPopcount, MeanScale::kPostNorm, true,
     {"spmm_binary", "binarize_pack_b1"}},
    {"spmm_reference", kF32, Accum::kF64Host, MeanScale::kPostNorm, true},
    // sddmm: per-edge K-dots.
    {"sddmm_dgl_f32", kF32, Accum::kF32, MeanScale::kNone, true,
     {"sddmm_dgl_f32"}},
    {"sddmm_dgl_f16", kF16, Accum::kF16, MeanScale::kNone, true,
     {"sddmm_dgl_f16"}},
    // The dispatcher runs the half8 flavour: a multiple of 8.
    {"sddmm_halfgnn", kF16, Accum::kF16, MeanScale::kNone, true,
     {"sddmm_halfgnn_h2", "sddmm_halfgnn_h4", "sddmm_halfgnn_h8"}, 8},
    {"sddmm_bf16", kBf16, Accum::kBf16, MeanScale::kNone, true,
     {"sddmm_bf16"}},
    {"sddmm_reference", kF32, Accum::kF64Host, MeanScale::kNone, true},
    // seg_reduce and exp count under another name than the kernel they
    // launch.
    edge("edge_segment_reduce_f32", kF32, true, "edge_segreduce_f32"),
    edge("edge_segment_reduce_f16", kF16, true, "edge_segreduce_f16"),
    edge("edge_segment_reduce_bf16", kBf16, true, "edge_segreduce_bf16"),
    edge("edge_exp_sub_row_f32", kF32, false, "edge_expsub_f32"),
    edge("edge_exp_sub_row_f16", kF16, false, "edge_expsub_f16"),
    edge("edge_exp_sub_row_bf16", kBf16, false, "edge_expsub_bf16"),
    edge("edge_addscalar_f32", kF32),
    edge("edge_addscalar_f16", kF16),
    edge("edge_addscalar_bf16", kBf16),
    edge("edge_divrow_f32", kF32),
    edge("edge_divrow_f16", kF16),
    edge("edge_divrow_bf16", kBf16),
    edge("edge_mul_f32", kF32),
    edge("edge_mul_f16", kF16),
    edge("edge_mul_bf16", kBf16),
    edge("edge_softmax_bwd_f32", kF32),
    edge("edge_softmax_bwd_f16", kF16),
    edge("edge_softmax_bwd_bf16", kBf16),
    edge("edge_leaky_bwd_f32", kF32),
    edge("edge_leaky_bwd_f16", kF16),
    edge("edge_leaky_bwd_bf16", kBf16),
    edge("edge_permute_f32", kF32),
    edge("edge_permute_f16", kF16),
    edge("edge_permute_bf16", kBf16),
};

constexpr std::string_view kOpNames[] = {
    "spmm",         "sddmm",    "seg_reduce",
    "seg_reduce",   "edge_exp", "edge_add_scalars",
    "edge_div_row", "edge_mul", "edge_softmax_backward",
    "edge_leaky_backward",      "edge_permute"};

// Match masks: one bit per Op / SystemMode / Dtype. A dtype outside the
// lattice sets only the top bit, which only kAny matches.
template <class E>
constexpr unsigned bit(E e) {
  const auto i = static_cast<unsigned>(e);
  return i < 31 ? 1u << i : 1u << 31;
}
constexpr unsigned kAny = ~0u;
constexpr unsigned kSeg = bit(Op::kSegSum) | bit(Op::kSegMax);
constexpr unsigned kDglFloat = bit(SystemMode::kDglFloat);
constexpr unsigned kDglHalf = bit(SystemMode::kDglHalf);
constexpr unsigned kHalfGnn = bit(SystemMode::kHalfGnn);
constexpr unsigned kOnF16 = bit(kF16);
constexpr unsigned kOnBf16 = bit(kBf16);
// The PTQ dtypes quantize only the SpMM operands: sddmm and the edge ops
// keep their work in f32.
constexpr unsigned kOnF32 = bit(kF32) | bit(Dtype::kI8) | bit(Dtype::kB1);

constexpr Chain chain(std::initializer_list<ChainEntry> entries) {
  Chain c;
  for (const ChainEntry& e : entries) {
    c.entries[static_cast<std::size_t>(c.len++)] = e;
  }
  return c;
}

struct Rule {
  unsigned ops, modes, dtypes;
  Chain chain;
};

constexpr std::string_view kRefWhy =
    "guard fallback: host fp64 reference (outside the fault domain)";
constexpr ChainEntry kSpmmRef{K::kSpmmReference, kRefWhy};
constexpr ChainEntry kSddmmRef{K::kSddmmReference, kRefWhy};

// First match wins.
constexpr Rule kRules[] = {
    // --- spmm -----------------------------------------------------------
    {bit(Op::kSpmm), kDglFloat, bit(kF32),
     chain({{K::kSpmmCusparseF32,
             "mode=DGL-float: row-parallel f32 cuSPARSE-like path"},
            kSpmmRef})},
    {bit(Op::kSpmm), kAny, bit(kF32),
     chain({{K::kSpmmCusparseF32,
             "dtype=f32: lattice override runs the float path"},
            kSpmmRef})},
    // DGL-half escalates a persistently overflowing half SpMM to the full
    // AMP promotion: f32 inputs, f32 kernel, demoted result.
    {bit(Op::kSpmm), kDglHalf, kOnF16,
     chain({{K::kSpmmCusparseF16,
             "mode=DGL-half: scalar-load half path with atomic-half "
             "accumulation (Fig. 3a arithmetic)"},
            {K::kSpmmCusparseF32,
             "guard fallback: f32 promotion of the overflowing half SpMM",
             true},
            kSpmmRef})},
    {bit(Op::kSpmm), kAny, kOnF16,
     chain({{K::kSpmmHalfgnn,
             "mode=HalfGNN: edge-parallel half2 with discretized scaling "
             "(overflow-protected reduction)"},
            {K::kSpmmCusparseF16,
             "guard fallback: row-parallel half path replacing the faulted "
             "halfgnn kernel"},
            kSpmmRef})},
    // bf16/i8/b1 kernels cannot overflow (f32-range exponent, integer
    // accumulators): their only escape hatch is the reference.
    {bit(Op::kSpmm), kAny, kOnBf16,
     chain({{K::kSpmmBf16,
             "dtype=bf16: warp-per-row register accumulation (f32-range "
             "exponent, no overflow protection needed)"},
            kSpmmRef})},
    {bit(Op::kSpmm), kAny, bit(Dtype::kI8),
     chain({{K::kSpmmInt8,
             "dtype=i8: symmetric per-tensor PTQ (ExpHist-calibrated "
             "scale), int32 accumulation"},
            kSpmmRef})},
    {bit(Op::kSpmm), kAny, bit(Dtype::kB1),
     chain({{K::kSpmmBinary,
             "dtype=b1: sign-binarized features, 32x32 bit-transpose + "
             "popcount aggregation (XNOR-Net scale)"},
            kSpmmRef})},
    {bit(Op::kSpmm), kAny, kAny, chain({kSpmmRef})},
    // --- sddmm ----------------------------------------------------------
    {bit(Op::kSddmm), kDglFloat, kOnF32,
     chain({{K::kSddmmDglF32, "mode=DGL-float: scalar f32 dot per edge"},
            kSddmmRef})},
    {bit(Op::kSddmm), kAny, kOnF32,
     chain({{K::kSddmmDglF32, "dtype=f32/PTQ: attention scores stay float"},
            kSddmmRef})},
    {bit(Op::kSddmm), kDglHalf, kOnF16,
     chain({{K::kSddmmDglF16,
             "mode=DGL-half: scalar half loads (no vectorization)"},
            kSddmmRef})},
    {bit(Op::kSddmm), kAny, kOnF16,
     chain({{K::kSddmmHalfgnn,
             "mode=HalfGNN: half8 vectorized loads (4x fewer sectors)"},
            kSddmmRef})},
    {bit(Op::kSddmm), kAny, kOnBf16,
     chain({{K::kSddmmBf16,
             "dtype=bf16: scalar loads, per-op bf16 rounding at intrinsic "
             "cost"},
            kSddmmRef})},
    {bit(Op::kSddmm), kAny, kAny, chain({kSddmmRef})},
    // --- seg_reduce: AMP promotes `sum`; `max` stays half -----------------
    {kSeg, kDglFloat, kOnF32, chain({{K::kSegReduceF32, "mode=DGL-float"}})},
    {kSeg, kAny, kOnF32,
     chain({{K::kSegReduceF32,
             "dtype=f32: lattice override reduces in float"}})},
    {kSeg, kAny, kOnBf16,
     chain({{K::kSegReduceBf16,
             "dtype=bf16: f32-range exponent, the reduction needs no "
             "promotion"}})},
    {bit(Op::kSegSum), kDglHalf, kOnF16,
     chain({{K::kSegReduceF32,
             "mode=DGL-half: AMP promotes 'sum' to float (half->f32->half "
             "round trip)",
             true}})},
    {kSeg, kHalfGnn, kOnF16,
     chain({{K::kSegReduceF16,
             "mode=HalfGNN: shadow half reduction (range-safe)"}})},
    {kSeg, kAny, kOnF16,
     chain({{K::kSegReduceF16, "mode=DGL-half: max/min stay half under AMP"}})},
    // --- exp: AMP promotes it; HalfGNN's shadow exp stays half because
    // e - max <= 0 (Sec. 5.3) ----------------------------------------------
    {bit(Op::kEdgeExp), kDglFloat, kOnF32,
     chain({{K::kExpF32, "mode=DGL-float"}})},
    {bit(Op::kEdgeExp), kAny, kOnF32,
     chain({{K::kExpF32, "dtype=f32: lattice override"}})},
    {bit(Op::kEdgeExp), kAny, kOnBf16,
     chain({{K::kExpBf16,
             "dtype=bf16: exp in range by construction (e - max <= 0)"}})},
    {bit(Op::kEdgeExp), kDglHalf, kOnF16,
     chain({{K::kExpF32,
             "mode=DGL-half: autocast promotes exp to f32 (conversion churn "
             "both ways)",
             true}})},
    {bit(Op::kEdgeExp), kAny, kOnF16,
     chain({{K::kExpF16,
             "mode=HalfGNN: shadow half exp (e - max <= 0, in range)"}})},
    // --- the other edge ops announce no decision --------------------------
    {bit(Op::kEdgeAddScalars), kAny, kOnF32, chain({{K::kAddScalarsF32}})},
    {bit(Op::kEdgeAddScalars), kAny, kOnF16, chain({{K::kAddScalarsF16}})},
    {bit(Op::kEdgeAddScalars), kAny, kOnBf16, chain({{K::kAddScalarsBf16}})},
    {bit(Op::kEdgeDivRow), kAny, kOnF32, chain({{K::kDivRowF32}})},
    {bit(Op::kEdgeDivRow), kAny, kOnF16, chain({{K::kDivRowF16}})},
    {bit(Op::kEdgeDivRow), kAny, kOnBf16, chain({{K::kDivRowBf16}})},
    {bit(Op::kEdgeMul), kAny, kOnF32, chain({{K::kMulF32}})},
    {bit(Op::kEdgeMul), kAny, kOnF16, chain({{K::kMulF16}})},
    {bit(Op::kEdgeMul), kAny, kOnBf16, chain({{K::kMulBf16}})},
    {bit(Op::kEdgeSoftmaxBackward), kAny, kOnF32, chain({{K::kSoftmaxBwdF32}})},
    {bit(Op::kEdgeSoftmaxBackward), kAny, kOnF16, chain({{K::kSoftmaxBwdF16}})},
    {bit(Op::kEdgeSoftmaxBackward), kAny, kOnBf16,
     chain({{K::kSoftmaxBwdBf16}})},
    {bit(Op::kEdgeLeakyBackward), kAny, kOnF32, chain({{K::kLeakyBwdF32}})},
    {bit(Op::kEdgeLeakyBackward), kAny, kOnF16, chain({{K::kLeakyBwdF16}})},
    {bit(Op::kEdgeLeakyBackward), kAny, kOnBf16, chain({{K::kLeakyBwdBf16}})},
    {bit(Op::kEdgePermute), kAny, kOnF32, chain({{K::kPermuteF32}})},
    {bit(Op::kEdgePermute), kAny, kOnF16, chain({{K::kPermuteF16}})},
    {bit(Op::kEdgePermute), kAny, kOnBf16, chain({{K::kPermuteBf16}})},
};

constexpr const KernelRow& row_of(Kernel k) {
  return kRows[static_cast<std::size_t>(k)];
}

constexpr const Chain& find_chain(Op op, SystemMode mode, Dtype dt) {
  for (const Rule& r : kRules) {
    if ((r.ops & bit(op)) != 0 && (r.modes & bit(mode)) != 0 &&
        (r.dtypes & bit(dt)) != 0) {
      return r.chain;
    }
  }
  // Unreachable for lattice dtypes (static_assert below); an edge op fed a
  // dtype outside the lattice has no kernel to run.
  throw std::logic_error("kernel table: no chain for this dtype");
}

// Rows: labels name counters and guard audits, so they are unique; a host
// reference row accumulates in f64 and launches nothing, every other row
// names its launches; only reducing rows scale a mean; a width multiple is
// positive.
constexpr bool rows_ok() {
  for (std::size_t i = 0; i < std::size(kRows); ++i) {
    const KernelRow& r = kRows[i];
    if (r.label.empty() || r.launches() == (r.accum == Accum::kF64Host) ||
        (r.mean_scale != MeanScale::kNone && !r.reducing) ||
        r.feat_multiple < 1) {
      return false;
    }
    for (std::size_t j = i + 1; j < std::size(kRows); ++j) {
      if (kRows[j].label == r.label) return false;
    }
  }
  return true;
}

// Chains: every (op, mode, lattice dtype) resolves and starts on a device
// kernel. spmm/sddmm chains launch at every level but the last, the host
// reference (the guard's safe floor). An edge op's chain is one row that
// launches one kernel, which names its hgcheck site. A promoted entry runs
// an f32 row.
constexpr bool chains_ok() {
  for (int o = 0; o < kNumOps; ++o) {
    const auto op = static_cast<Op>(o);
    for (const SystemMode mode : {SystemMode::kDglFloat, SystemMode::kDglHalf,
                                  SystemMode::kHalfGnn}) {
      for (const Dtype dt : all_dtypes()) {
        const Chain& c = find_chain(op, mode, dt);
        if (!escalates(op) &&
            (c.len != 1 || row_of(c.at(0).kernel).launched().size() != 1)) {
          return false;
        }
        for (int i = 0; i < c.len; ++i) {
          const KernelRow& r = row_of(c.at(i).kernel);
          if (r.launches() == (escalates(op) && i == c.len - 1) ||
              (c.at(i).promoted && r.storage != kF32)) {
            return false;
          }
        }
      }
    }
  }
  return true;
}

static_assert(std::size(kRows) == kNumKernels, "one row per Kernel value");
static_assert(std::size(kOpNames) == kNumOps, "one name per Op value");
static_assert(rows_ok(), "kernel table row invariant broken");
static_assert(chains_ok(), "kernel table chain invariant broken");

}  // namespace

const KernelRow& kernel_row(Kernel k) { return row_of(k); }

int common_feat_multiple() {
  int m = 1;
  for (const KernelRow& r : kRows) m = std::lcm(m, r.feat_multiple);
  return m;
}

const Chain& dispatch_chain(Op op, SystemMode mode, Dtype dt) {
  return find_chain(op, mode, dt);
}

std::string_view op_name(Op op) {
  return kOpNames[static_cast<std::size_t>(op)];
}

}  // namespace hg::nn
