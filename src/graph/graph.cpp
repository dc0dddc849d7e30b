#include "graph/graph.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

namespace hg {

Csr coo_to_csr(const Coo& coo) {
  if (coo.row.size() != coo.col.size()) {
    throw std::invalid_argument("coo_to_csr: row/col size mismatch");
  }
  const vid_t n = coo.num_vertices;
  const eid_t m = coo.num_edges();

  // Counting sort by row, then sort each row's columns and dedup.
  std::vector<eid_t> counts(static_cast<std::size_t>(n) + 1, 0);
  for (eid_t e = 0; e < m; ++e) {
    const vid_t r = coo.row[static_cast<std::size_t>(e)];
    assert(r >= 0 && r < n);
    ++counts[static_cast<std::size_t>(r) + 1];
  }
  std::partial_sum(counts.begin(), counts.end(), counts.begin());

  std::vector<vid_t> cols(static_cast<std::size_t>(m));
  {
    std::vector<eid_t> cursor(counts.begin(), counts.end() - 1);
    for (eid_t e = 0; e < m; ++e) {
      const vid_t r = coo.row[static_cast<std::size_t>(e)];
      cols[static_cast<std::size_t>(cursor[static_cast<std::size_t>(r)]++)] =
          coo.col[static_cast<std::size_t>(e)];
    }
  }

  Csr csr;
  csr.num_vertices = n;
  csr.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  csr.cols.reserve(cols.size());
  for (vid_t v = 0; v < n; ++v) {
    auto first = cols.begin() + counts[static_cast<std::size_t>(v)];
    auto last = cols.begin() + counts[static_cast<std::size_t>(v) + 1];
    std::sort(first, last);
    auto end = std::unique(first, last);
    for (auto it = first; it != end; ++it) {
      assert(*it >= 0 && *it < n);
      csr.cols.push_back(*it);
    }
    csr.offsets[static_cast<std::size_t>(v) + 1] =
        static_cast<eid_t>(csr.cols.size());
  }
  return csr;
}

Coo csr_to_coo(const Csr& csr) {
  Coo coo;
  coo.num_vertices = csr.num_vertices;
  coo.row.resize(static_cast<std::size_t>(csr.num_edges()));
  coo.col = csr.cols;
  for (vid_t v = 0; v < csr.num_vertices; ++v) {
    for (eid_t e = csr.offsets[v]; e < csr.offsets[v + 1]; ++e) {
      coo.row[static_cast<std::size_t>(e)] = v;
    }
  }
  return coo;
}

Csr symmetrize(const Csr& csr) {
  Coo both;
  both.num_vertices = csr.num_vertices;
  both.row.reserve(2 * static_cast<std::size_t>(csr.num_edges()));
  both.col.reserve(2 * static_cast<std::size_t>(csr.num_edges()));
  for (vid_t v = 0; v < csr.num_vertices; ++v) {
    for (vid_t u : csr.neighbors(v)) {
      both.row.push_back(v);
      both.col.push_back(u);
      both.row.push_back(u);
      both.col.push_back(v);
    }
  }
  return coo_to_csr(both);
}

GraphStats compute_stats(const Csr& csr) {
  GraphStats s;
  s.num_vertices = csr.num_vertices;
  s.num_edges = csr.num_edges();
  if (csr.num_vertices == 0) return s;

  std::vector<vid_t> deg(static_cast<std::size_t>(csr.num_vertices));
  for (vid_t v = 0; v < csr.num_vertices; ++v) deg[v] = csr.degree(v);

  s.max_degree = *std::max_element(deg.begin(), deg.end());
  s.avg_degree = static_cast<double>(s.num_edges) /
                 static_cast<double>(s.num_vertices);
  for (vid_t d : deg) {
    if (d > 64) ++s.rows_spanning_warps;
  }

  std::vector<vid_t> sorted = deg;
  std::sort(sorted.begin(), sorted.end());
  s.p99_degree = sorted[static_cast<std::size_t>(
      0.99 * static_cast<double>(sorted.size() - 1))];

  const std::size_t top = std::max<std::size_t>(1, sorted.size() / 100);
  eid_t hub_edges = 0;
  for (std::size_t i = sorted.size() - top; i < sorted.size(); ++i) {
    hub_edges += sorted[i];
  }
  s.hub_edge_fraction = s.num_edges
                            ? static_cast<double>(hub_edges) /
                                  static_cast<double>(s.num_edges)
                            : 0.0;
  return s;
}

DegreeSummary summarize_degrees(const Csr& csr) {
  DegreeSummary s;
  s.num_rows = csr.num_vertices;
  if (csr.num_vertices == 0) return s;
  s.min_degree = csr.degree(0);
  eid_t total = 0;
  for (vid_t v = 0; v < csr.num_vertices; ++v) {
    const vid_t d = csr.degree(v);
    total += d;
    s.min_degree = std::min(s.min_degree, d);
    if (d > s.max_degree) {
      s.max_degree = d;
      s.rows_at_max = 1;
    } else if (d == s.max_degree) {
      ++s.rows_at_max;
    }
    int b = 0;
    for (vid_t x = std::max<vid_t>(1, d); x > 1; x >>= 1) ++b;
    s.log2_buckets[static_cast<std::size_t>(
        std::min(b, DegreeSummary::kBuckets - 1))]++;
  }
  s.avg_degree = static_cast<double>(total) /
                 static_cast<double>(csr.num_vertices);
  return s;
}

std::vector<eid_t> reverse_edge_permutation(const Csr& csr) {
  std::vector<eid_t> perm(static_cast<std::size_t>(csr.num_edges()));
  for (vid_t v = 0; v < csr.num_vertices; ++v) {
    for (eid_t e = csr.offsets[v]; e < csr.offsets[v + 1]; ++e) {
      const vid_t u = csr.cols[static_cast<std::size_t>(e)];
      // Binary search for v inside u's (sorted) neighbor list.
      const auto nb = csr.neighbors(u);
      const auto it = std::lower_bound(nb.begin(), nb.end(), v);
      if (it == nb.end() || *it != v) {
        throw std::invalid_argument(
            "reverse_edge_permutation: graph is not symmetric");
      }
      perm[static_cast<std::size_t>(e)] =
          csr.offsets[u] + (it - nb.begin());
    }
  }
  return perm;
}

}  // namespace hg
