// The G1-G16 dataset registry: synthetic analogues of the paper's Table 1.
//
// The originals are real graphs (Cora ... Orkut) that we cannot ship; each
// entry here is generated with the structural family of the original
// (community structure, power-law tails, lattice, hubs), scaled down by the
// factor recorded in `scale_denominator` so the CPU-based SIMT simulation
// completes in minutes. Labeled entries (G1-G3, G13, G15) come with
// class-dependent Gaussian features constructed so that
//  (a) a float-precision GNN separates the classes to high accuracy, and
//  (b) at least one hub vertex's *unprotected* half-precision SpMM
//      reduction provably overflows (the Fig. 1c failure mode) — hub
//      neighborhoods are class-correlated so the reduction grows linearly
//      with degree, exactly like Reddit's community hubs.
#pragma once

#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace hg {

enum class DatasetId {
  kCora = 1,        // G1*
  kCiteseer,        // G2*
  kPubmed,          // G3*
  kAmazon,          // G4
  kWikiTalk,        // G5
  kRoadNetCA,       // G6
  kWebBerkStan,     // G7
  kAsSkitter,       // G8
  kCitPatent,       // G9
  kStackOverflow,   // G10
  kKron,            // G11
  kHollywood,       // G12
  kOgbProduct,      // G13*
  kLiveJournal,     // G14
  kReddit,          // G15*
  kOrkut,           // G16
};

inline constexpr int kNumDatasets = 16;

struct Dataset {
  DatasetId id{};
  std::string name;        // e.g. "reddit-sim"
  std::string paper_name;  // e.g. "Reddit (G15)*"
  bool labeled = false;
  int scale_denominator = 1;  // |E|_paper / |E|_here, approximate

  Csr csr;    // symmetrized graph, CSR order
  Csr csr_t;  // transpose (== csr structurally for symmetric graphs)
  Coo coo;    // same edges in CSR traversal order (kernel-facing layout)

  int feat_dim = 0;     // |F| input feature length
  int num_classes = 0;  // |C| prediction categories

  // Labeled datasets only: row-major V x feat_dim features, labels, and a
  // train/test split (60/40 by vertex id hash).
  std::vector<float> features;
  std::vector<int> labels;
  std::vector<std::uint8_t> train_mask;

  vid_t num_vertices() const noexcept { return csr.num_vertices; }
  eid_t num_edges() const noexcept { return csr.num_edges(); }
};

// Builds dataset G<n>. Deterministic for a given id (fixed seeds).
Dataset make_dataset(DatasetId id);

// Gives an unlabeled dataset generated features, labels and a 60/40
// train/test split for performance runs (GNNBench-style inputs, Sec. 6):
// uniform [-1, 1) features, then uniform labels, drawn from
// Rng(1234 ^ id); vertex v trains iff v % 10 < 6. A dataset that already
// has features is left as it is.
void ensure_features(Dataset& d);

// All 16 ids in table order.
std::vector<DatasetId> all_dataset_ids();
// The 5 labeled ids (G1, G2, G3, G13, G15).
std::vector<DatasetId> labeled_dataset_ids();

std::string dataset_name(DatasetId id);

}  // namespace hg
