// Unit tests for graph storage and conversions.
#include "graph/graph.hpp"

#include <gtest/gtest.h>

namespace hg {
namespace {

Coo sample_coo() {
  // The Fig. 2 sample-style graph: 5 vertices, mixed degrees.
  Coo c;
  c.num_vertices = 5;
  c.row = {0, 0, 1, 2, 2, 2, 3, 4, 4};
  c.col = {1, 2, 0, 1, 3, 4, 2, 0, 2};
  return c;
}

TEST(Graph, CooToCsrSortsAndIndexes) {
  const Csr g = coo_to_csr(sample_coo());
  ASSERT_EQ(g.num_vertices, 5);
  EXPECT_EQ(g.num_edges(), 9);
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.degree(2), 3);
  const auto n2 = g.neighbors(2);
  ASSERT_EQ(n2.size(), 3u);
  EXPECT_EQ(n2[0], 1);
  EXPECT_EQ(n2[1], 3);
  EXPECT_EQ(n2[2], 4);
}

TEST(Graph, CooToCsrDeduplicatesParallelEdges) {
  Coo c;
  c.num_vertices = 3;
  c.row = {0, 0, 0, 1};
  c.col = {1, 1, 2, 2};
  const Csr g = coo_to_csr(c);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.degree(0), 2);
}

TEST(Graph, CsrToCooIsInCsrTraversalOrder) {
  const Csr g = coo_to_csr(sample_coo());
  const Coo c = csr_to_coo(g);
  ASSERT_EQ(c.num_edges(), g.num_edges());
  // Row ids must be monotonically non-decreasing: the spatial-ordering
  // property the edge-parallel SpMM depends on (Sec. 5.2.1 rule 2).
  for (std::size_t e = 1; e < c.row.size(); ++e) {
    EXPECT_LE(c.row[e - 1], c.row[e]);
  }
}

TEST(Graph, SymmetrizeMakesEveryEdgeBidirectional) {
  const Csr g = symmetrize(coo_to_csr(sample_coo()));
  for (vid_t v = 0; v < g.num_vertices; ++v) {
    for (vid_t u : g.neighbors(v)) {
      bool back = false;
      for (vid_t w : g.neighbors(u)) back |= (w == v);
      EXPECT_TRUE(back) << "missing reverse of " << v << "->" << u;
    }
  }
}

TEST(Graph, StatsReportDegreesAndHubMass) {
  Coo c;
  c.num_vertices = 200;
  // Star: vertex 0 connected to everyone (hub), a few leaf-leaf edges.
  for (vid_t v = 1; v < 200; ++v) {
    c.row.push_back(0);
    c.col.push_back(v);
  }
  const Csr g = symmetrize(coo_to_csr(c));
  const GraphStats s = compute_stats(g);
  EXPECT_EQ(s.max_degree, 199);
  EXPECT_EQ(s.rows_spanning_warps, 1);  // only the hub exceeds 64
  EXPECT_GT(s.hub_edge_fraction, 0.4);  // hub holds half the edge endpoints
  EXPECT_NEAR(s.avg_degree, 2.0 * 199 / 200, 1e-9);
}

}  // namespace
}  // namespace hg
