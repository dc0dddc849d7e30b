// The kernel table: which kernel each sparse op runs, and how that kernel
// keeps half precision in range.
//
// The paper's three systems differ only in this decision: discretized mean
// scaling (HalfGNN's SpMM), shadow exp and shadow reductions (HalfGNN's edge
// softmax), or AMP's promotion to f32 (DGL-half's `sum` and `exp`). The
// table holds one row per kernel the dispatcher can run, and one chain per
// (op, mode, dtype): an ordered list of rows the TrainGuard escalates along.
// Level 0 is the native kernel; every spmm/sddmm chain ends in the host fp64
// reference, which runs outside the simulated fault domain. The edge ops
// have one-entry chains (the guard retries them but never escalates).
//
// nn::sparse_dispatch runs the chain entry at the guard's level, and hgcheck
// (src/check) models each site from the same entry, so the static verifier
// and the runtime cannot disagree about what runs. The table's invariants
// are static_asserts in kernel_table.cpp.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "nn/common.hpp"

namespace hg::nn {

// How a reducing kernel keeps a mean inside the storage range.
enum class MeanScale {
  kNone,         // no mean reduction
  kPostNorm,     // sum first, divide after (DGL: the running sum is unguarded)
  kDiscretized,  // each segment partial scaled by inv_deg at flush (Sec. 5.2.2)
};

// Format of the running value mid-reduction.
enum class Accum {
  kF16,       // half: saturates at 65504 mid-reduction
  kBf16,      // bf16: f32-range exponent
  kF32,
  kInt32,     // int8 products in an int32 accumulator
  kPopcount,  // sign-domain popcounts, bounded by the degree
  kF64Host,   // host reference, outside the simulated substrate
};

// One value per table row, in row order.
enum class Kernel : std::uint8_t {
  kSpmmCusparseF32, kSpmmCusparseF16, kSpmmHalfgnn, kSpmmBf16, kSpmmInt8,
  kSpmmBinary, kSpmmReference,
  kSddmmDglF32, kSddmmDglF16, kSddmmHalfgnn, kSddmmBf16, kSddmmReference,
  kSegReduceF32, kSegReduceF16, kSegReduceBf16,
  kExpF32, kExpF16, kExpBf16,
  kAddScalarsF32, kAddScalarsF16, kAddScalarsBf16,
  kDivRowF32, kDivRowF16, kDivRowBf16,
  kMulF32, kMulF16, kMulBf16,
  kSoftmaxBwdF32, kSoftmaxBwdF16, kSoftmaxBwdBf16,
  kLeakyBwdF32, kLeakyBwdF16, kLeakyBwdBf16,
  kPermuteF32, kPermuteF16, kPermuteBf16,
};
inline constexpr int kNumKernels = static_cast<int>(Kernel::kPermuteBf16) + 1;

struct KernelRow {
  std::string_view label;  // dispatch.<op>.<label> counter, guard-audit name
  Dtype storage;           // dtype of the values the kernel stores
  Accum accum;
  MeanScale mean_scale;
  bool reducing;           // fan-in reduction, not one store per element
  // LaunchDesc names a dispatch to this row can produce; unused slots are
  // empty, and a host reference row has none.
  std::array<std::string_view, 3> launch{};
  // The feature widths the kernel takes are the multiples of this (the
  // paper's feature padding, Sec. 4.1.2 / 5.1.3); 1 = any width.
  int feat_multiple = 1;

  constexpr std::span<const std::string_view> launched() const {
    std::size_t n = 0;
    while (n < launch.size() && !launch[n].empty()) ++n;
    return {launch.data(), n};
  }
  constexpr bool launches() const { return !launch[0].empty(); }
};

// The sparse ops of nn/sparse_dispatch.hpp. seg_reduce is two ops because
// AMP promotes `sum` but not `max`.
enum class Op : std::uint8_t {
  kSpmm, kSddmm, kSegSum, kSegMax, kEdgeExp, kEdgeAddScalars, kEdgeDivRow,
  kEdgeMul, kEdgeSoftmaxBackward, kEdgeLeakyBackward, kEdgePermute,
};
inline constexpr int kNumOps = static_cast<int>(Op::kEdgePermute) + 1;

struct ChainEntry {
  Kernel kernel{};
  // Reason announced with the dispatch.<op>.<label> counter and trace
  // instant; empty for the ops that announce nothing.
  std::string_view why{};
  // AMP promotion: the f16 operands ride to f32 for this f32 row and the
  // result rides back, both conversions charged.
  bool promoted = false;
};

struct Chain {
  std::array<ChainEntry, 3> entries{};
  int len = 0;

  // Clamped: a guard level past the end stays on the last entry.
  constexpr const ChainEntry& at(int level) const {
    return entries[static_cast<std::size_t>(
        level < 0 ? 0 : (level < len ? level : len - 1))];
  }
};

const KernelRow& kernel_row(Kernel k);

// The least common multiple of every row's feat_multiple: a width that is
// a multiple of it is taken by every kernel.
int common_feat_multiple();

// The chain for `op` at (mode, dtype). spmm/sddmm fall back to the
// reference-only chain for a dtype the table does not know.
const Chain& dispatch_chain(Op op, SystemMode mode, Dtype dt);

// Guard site, trace and counter name of `op` ("spmm", "seg_reduce", ...).
std::string_view op_name(Op op);

// spmm and sddmm: the guard moves these sites down their chains.
constexpr bool escalates(Op op) { return op == Op::kSpmm || op == Op::kSddmm; }

}  // namespace hg::nn
