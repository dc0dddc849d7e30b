// Graph storage: COO and CSR (paper Sec. 2.1.1), plus the conversions and
// degree/statistics queries the kernels and benches need.
//
// Edge order convention: all kernels in this repository assume edges sorted
// by (row, col) — i.e. COO arrays laid out in CSR traversal order. This is
// exactly the "spatial ordering" the paper's edge-parallel SpMM relies on
// (Sec. 5.2.1, observation rule 2: consecutive edges have equal or
// monotonically increasing row IDs).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace hg {

using vid_t = std::int32_t;  // vertex id / row id
using eid_t = std::int64_t;  // edge id / NZE index

// Coordinate (rowID, colID) pairs; one pair per non-zero element.
struct Coo {
  vid_t num_vertices = 0;
  std::vector<vid_t> row;
  std::vector<vid_t> col;

  eid_t num_edges() const noexcept {
    return static_cast<eid_t>(row.size());
  }
};

// Compressed sparse row: offsets[v]..offsets[v+1] spans v's neighborhood.
struct Csr {
  vid_t num_vertices = 0;
  std::vector<eid_t> offsets;  // size num_vertices + 1
  std::vector<vid_t> cols;     // size num_edges

  eid_t num_edges() const noexcept {
    return static_cast<eid_t>(cols.size());
  }
  vid_t degree(vid_t v) const noexcept {
    return static_cast<vid_t>(offsets[v + 1] - offsets[v]);
  }
  std::span<const vid_t> neighbors(vid_t v) const noexcept {
    return {cols.data() + offsets[v],
            static_cast<std::size_t>(offsets[v + 1] - offsets[v])};
  }
};

// Sorts edges into CSR order and deduplicates parallel edges.
Csr coo_to_csr(const Coo& coo);

// Produces COO arrays in CSR traversal order (the kernel-facing layout).
Coo csr_to_coo(const Csr& csr);

// Reverse graph; for symmetric graphs transpose(g) == g structurally.
Csr transpose(const Csr& csr);

// Adds the reverse of every edge (then dedups). GNN benchmarks treat all
// datasets as undirected, as DGL does for these workloads.
Csr symmetrize(const Csr& csr);

// Adds v->v for every vertex lacking one (GCN-style self loops; also
// guarantees degree >= 1 so degree-norm never divides by zero).
Csr add_self_loops(const Csr& csr);

struct GraphStats {
  vid_t num_vertices = 0;
  eid_t num_edges = 0;
  vid_t max_degree = 0;
  double avg_degree = 0;
  vid_t p99_degree = 0;
  // Workload-balance signals the paper's design discussion keys on:
  // how many rows span multiple 64-edge warp batches (row splits), and the
  // fraction of edges living in the top-1% heaviest rows (hub mass).
  vid_t rows_spanning_warps = 0;  // rows with degree > 64
  double hub_edge_fraction = 0;
};

GraphStats compute_stats(const Csr& csr);

// Log2-bucketed degree summary: bucket i counts rows whose degree d
// satisfies floor(log2(max(1, d))) == i. This is the fan-in model the
// static precision checker (src/check) feeds its reduction transfer
// functions — an exponent-interval analysis only needs degree *exponents*,
// not the full degree array.
struct DegreeSummary {
  static constexpr int kBuckets = 32;

  vid_t num_rows = 0;
  vid_t max_degree = 0;
  vid_t min_degree = 0;
  double avg_degree = 0;
  std::array<vid_t, kBuckets> log2_buckets{};

  // Exact count of rows at max_degree (the hub multiplicity the
  // NEEDS-SCALING factor reports against).
  vid_t rows_at_max = 0;
};

DegreeSummary summarize_degrees(const Csr& csr);

// Degrees as a dense array (float, for degree-norm tensors).
std::vector<float> degrees_f32(const Csr& csr);

// For a symmetric graph: perm[e] = index (in CSR edge order) of the
// reverse of edge e. Needed to run SpMM/segment ops on the transpose while
// reusing the same topology: transposed edge weights are w[perm[e]].
// Throws if some edge has no reverse.
std::vector<eid_t> reverse_edge_permutation(const Csr& csr);

}  // namespace hg
