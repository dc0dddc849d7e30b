#include "graph/datasets.hpp"

#include <stdexcept>

#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace hg {

namespace {

// Class-dependent Gaussian features with a shared global offset:
//   x_v = base + mean[label_v] + noise.
// `base_scale` is the overflow knob for the hub datasets: a nonzero shared
// offset gives every feature dimension a nonzero population mean, so a sum
// over a degree-d hub neighborhood grows ~ d * base_dim instead of
// ~ sqrt(d) — exactly how real post-activation features behave (they have
// nonzero per-dimension means), and exactly what drives the Fig. 1c
// half-precision overflow on Reddit/Ogb-product. Float training is
// unaffected (the offset is a constant bias; classes stay separable via
// the class means).
void synth_features(Dataset& d, float base_scale, float mean_scale,
                    float noise_scale, std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t f = static_cast<std::size_t>(d.feat_dim);
  std::vector<float> base(f);
  for (auto& b : base) {
    b = static_cast<float>(rng.next_normal()) * base_scale;
  }
  std::vector<float> means(static_cast<std::size_t>(d.num_classes) * f);
  for (auto& m : means) {
    m = static_cast<float>(rng.next_normal()) * mean_scale;
  }
  const std::size_t n = static_cast<std::size_t>(d.num_vertices());
  d.features.resize(n * f);
  for (std::size_t v = 0; v < n; ++v) {
    const auto c = static_cast<std::size_t>(d.labels[v]);
    for (std::size_t j = 0; j < f; ++j) {
      d.features[v * f + j] =
          base[j] + means[c * f + j] +
          static_cast<float>(rng.next_normal()) * noise_scale;
    }
  }
  d.train_mask.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    // Cheap deterministic 60/40 split.
    const std::uint64_t h = (v * 0x9E3779B97F4A7C15ull) >> 32;
    d.train_mask[v] = (h % 10) < 6 ? 1 : 0;
  }
}

void finalize_topology(Dataset& d, const Coo& raw) {
  d.csr = symmetrize(coo_to_csr(raw));
  d.csr_t = d.csr;  // symmetric by construction
  d.coo = csr_to_coo(d.csr);
}

Dataset make_sbm_labeled(DatasetId id, std::string name,
                         std::string paper_name, vid_t n, int k, eid_t m,
                         double frac_in, int feat_dim, int scale_den,
                         float base_scale, float mean_scale,
                         float noise_scale, int num_hubs, vid_t hub_degree,
                         std::uint64_t seed) {
  Dataset d;
  d.id = id;
  d.name = std::move(name);
  d.paper_name = std::move(paper_name);
  d.labeled = true;
  d.scale_denominator = scale_den;
  d.feat_dim = feat_dim;
  d.num_classes = k;

  Rng rng(seed);
  Coo raw = sbm(n, k, m, frac_in, rng, d.labels);
  if (num_hubs > 0) {
    // Hub neighborhoods are uniform; the linear-in-degree reduction growth
    // comes from the shared feature offset (see synth_features).
    plant_hubs(raw, num_hubs, hub_degree, rng);
  }
  finalize_topology(d, raw);
  synth_features(d, base_scale, mean_scale, noise_scale,
                 seed ^ 0xFEEDFACEull);
  return d;
}

Dataset make_unlabeled(DatasetId id, std::string name, std::string paper_name,
                       Coo raw, int feat_dim, int num_classes, int scale_den) {
  Dataset d;
  d.id = id;
  d.name = std::move(name);
  d.paper_name = std::move(paper_name);
  d.labeled = false;
  d.scale_denominator = scale_den;
  d.feat_dim = feat_dim;
  d.num_classes = num_classes;
  finalize_topology(d, raw);
  return d;
}

}  // namespace

Dataset make_dataset(DatasetId id) {
  Rng rng(0xC0FFEEull + static_cast<std::uint64_t>(id));
  switch (id) {
    case DatasetId::kCora:
      return make_sbm_labeled(id, "cora-sim", "Cora (G1)*", 2708, 7, 5429,
                              0.90, 256, 1, 0.0f, 2.0f, 1.0f, 0, 0, 11);
    case DatasetId::kCiteseer:
      return make_sbm_labeled(id, "citeseer-sim", "Citeseer (G2)*", 3327, 6,
                              4552, 0.90, 256, 1, 0.0f, 2.0f, 1.0f, 0, 0,
                              12);
    case DatasetId::kPubmed:
      return make_sbm_labeled(id, "pubmed-sim", "PubMed (G3)*", 19717, 3,
                              44324, 0.88, 128, 1, 0.0f, 2.0f, 1.0f, 0, 0,
                              13);
    case DatasetId::kAmazon:
      return make_unlabeled(id, "amazon-sim", "Amazon (G4)",
                            barabasi_albert(25000, 4, rng), 150, 7, 32);
    case DatasetId::kWikiTalk:
      return make_unlabeled(id, "wikitalk-sim", "Wiki-Talk (G5)",
                            rmat(17, 160000, 0.57, 0.19, 0.19, rng), 150, 7,
                            32);
    case DatasetId::kRoadNetCA:
      return make_unlabeled(id, "roadnet-sim", "RoadNet-CA (G6)",
                            lattice2d(250, 250), 150, 7, 44);
    case DatasetId::kWebBerkStan:
      return make_unlabeled(id, "webberkstan-sim", "Web-BerkStand (G7)",
                            rmat(15, 230000, 0.65, 0.15, 0.15, rng), 150, 7,
                            34);
    case DatasetId::kAsSkitter:
      return make_unlabeled(id, "asskitter-sim", "As-Skitter (G8)",
                            barabasi_albert(42000, 3, rng), 150, 7, 88);
    case DatasetId::kCitPatent:
      return make_unlabeled(id, "citpatent-sim", "Cit-Patent (G9)",
                            erdos_renyi(60000, 130000, rng), 150, 7, 127);
    case DatasetId::kStackOverflow:
      return make_unlabeled(id, "stackoverflow-sim", "Sx-stackoverflow (G10)",
                            rmat(16, 240000, 0.6, 0.18, 0.18, rng), 150, 7,
                            200);
    case DatasetId::kKron:
      return make_unlabeled(id, "kron-sim", "Kron-21 (G11)",
                            rmat(14, 262144, 0.57, 0.19, 0.19, rng), 150, 7,
                            128);
    case DatasetId::kHollywood:
      return make_unlabeled(id, "hollywood-sim", "Hollywood09 (G12)",
                            barabasi_albert(16000, 9, rng), 150, 7, 391);
    case DatasetId::kOgbProduct:
      return make_sbm_labeled(id, "ogbproduct-sim", "Ogb-product (G13)*",
                              20000, 47, 60000, 0.85, 100, 824, 10.0f, 8.0f,
                              3.0f, 3, 5000, 14);
    case DatasetId::kLiveJournal:
      return make_unlabeled(id, "livejournal-sim", "LiveJournal (G14)",
                            barabasi_albert(75000, 2, rng), 150, 7, 460);
    case DatasetId::kReddit:
      return make_sbm_labeled(id, "reddit-sim", "Reddit (G15)*", 6000, 41,
                              55000, 0.85, 128, 808, 10.0f, 8.0f, 3.0f, 4,
                              4000, 15);
    case DatasetId::kOrkut:
      return make_unlabeled(id, "orkut-sim", "Orkut (G16)",
                            barabasi_albert(48000, 3, rng), 150, 7, 814);
  }
  throw std::invalid_argument("make_dataset: unknown id");
}

void ensure_features(Dataset& d) {
  if (!d.features.empty()) return;
  d.labeled = true;
  Rng rng(1234 ^ static_cast<std::uint64_t>(d.id));
  const auto n = static_cast<std::size_t>(d.num_vertices());
  const auto f = static_cast<std::size_t>(d.feat_dim);
  d.features.resize(n * f);
  for (auto& v : d.features) v = rng.next_float() * 2 - 1;
  d.labels.resize(n);
  for (auto& l : d.labels) {
    l = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(d.num_classes)));
  }
  d.train_mask.resize(n);
  for (std::size_t v = 0; v < n; ++v) d.train_mask[v] = (v % 10) < 6;
}

std::vector<DatasetId> all_dataset_ids() {
  std::vector<DatasetId> ids;
  ids.reserve(kNumDatasets);
  for (int i = 1; i <= kNumDatasets; ++i) {
    ids.push_back(static_cast<DatasetId>(i));
  }
  return ids;
}

std::vector<DatasetId> labeled_dataset_ids() {
  return {DatasetId::kCora, DatasetId::kCiteseer, DatasetId::kPubmed,
          DatasetId::kOgbProduct, DatasetId::kReddit};
}

std::string dataset_name(DatasetId id) {
  // Cheap: name construction does not require building the graph.
  switch (id) {
    case DatasetId::kCora: return "cora-sim";
    case DatasetId::kCiteseer: return "citeseer-sim";
    case DatasetId::kPubmed: return "pubmed-sim";
    case DatasetId::kAmazon: return "amazon-sim";
    case DatasetId::kWikiTalk: return "wikitalk-sim";
    case DatasetId::kRoadNetCA: return "roadnet-sim";
    case DatasetId::kWebBerkStan: return "webberkstan-sim";
    case DatasetId::kAsSkitter: return "asskitter-sim";
    case DatasetId::kCitPatent: return "citpatent-sim";
    case DatasetId::kStackOverflow: return "stackoverflow-sim";
    case DatasetId::kKron: return "kron-sim";
    case DatasetId::kHollywood: return "hollywood-sim";
    case DatasetId::kOgbProduct: return "ogbproduct-sim";
    case DatasetId::kLiveJournal: return "livejournal-sim";
    case DatasetId::kReddit: return "reddit-sim";
    case DatasetId::kOrkut: return "orkut-sim";
  }
  return "unknown";
}

}  // namespace hg
