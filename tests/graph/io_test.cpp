// Tests for dataset serialization (.hgds).
#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace hg {
namespace {

std::string tmp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(GraphIo, RoundTripPreservesEverything) {
  const Dataset a = make_dataset(DatasetId::kCora);
  const std::string path = tmp_path("hgds_roundtrip.hgds");
  save_dataset(a, path);
  const Dataset b = load_dataset(path);

  EXPECT_EQ(b.id, a.id);
  EXPECT_EQ(b.name, a.name);
  EXPECT_EQ(b.paper_name, a.paper_name);
  EXPECT_EQ(b.labeled, a.labeled);
  EXPECT_EQ(b.scale_denominator, a.scale_denominator);
  EXPECT_EQ(b.feat_dim, a.feat_dim);
  EXPECT_EQ(b.num_classes, a.num_classes);
  EXPECT_EQ(b.csr.offsets, a.csr.offsets);
  EXPECT_EQ(b.csr.cols, a.csr.cols);
  EXPECT_EQ(b.features, a.features);
  EXPECT_EQ(b.labels, a.labels);
  EXPECT_EQ(b.train_mask, a.train_mask);
  // Derived views rebuilt.
  EXPECT_EQ(b.coo.row, a.coo.row);
  EXPECT_EQ(b.coo.col, a.coo.col);
  std::remove(path.c_str());
}

TEST(GraphIo, RejectsGarbageAndTruncation) {
  const std::string path = tmp_path("hgds_garbage.hgds");
  {
    std::ofstream os(path, std::ios::binary);
    os << "this is not a dataset";
  }
  EXPECT_THROW(load_dataset(path), std::runtime_error);

  // Truncated valid file.
  const Dataset a = make_dataset(DatasetId::kCiteseer);
  save_dataset(a, path);
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full / 2);
  EXPECT_THROW(load_dataset(path), std::runtime_error);
  std::remove(path.c_str());
}

// Saves a corrupted Cora (save_dataset writes whatever it is given) and
// expects load_dataset to reject it.
template <class Corrupt>
void expect_rejected(const char* name, Corrupt corrupt) {
  Dataset d = make_dataset(DatasetId::kCora);
  corrupt(d);
  const std::string path = tmp_path(name);
  save_dataset(d, path);
  EXPECT_THROW(load_dataset(path), std::runtime_error) << name;
  std::remove(path.c_str());
}

TEST(GraphIo, RejectsDecreasingOffsets) {
  // Vertex 1 gets a negative degree; the totals still add up.
  expect_rejected("hgds_offsets.hgds",
                  [](Dataset& d) { d.csr.offsets[1] = d.csr.offsets[3]; });
}

TEST(GraphIo, RejectsShortFeatures) {
  expect_rejected("hgds_features.hgds", [](Dataset& d) {
    d.features.resize(d.features.size() / 2);
  });
}

TEST(GraphIo, RejectsOutOfRangeLabel) {
  expect_rejected("hgds_label.hgds", [](Dataset& d) { d.labels[5] = 1000; });
}

TEST(GraphIo, RejectsShortTrainMask) {
  expect_rejected("hgds_mask.hgds",
                  [](Dataset& d) { d.train_mask.resize(10); });
}

TEST(GraphIo, RejectsLabeledDatasetWithoutClasses) {
  expect_rejected("hgds_classes.hgds",
                  [](Dataset& d) { d.num_classes = 0; });
}

TEST(GraphIo, MissingFileThrows) {
  EXPECT_THROW(load_dataset(tmp_path("hgds_does_not_exist.hgds")),
               std::runtime_error);
}

TEST(GraphIo, CachedBuilderWritesThenReuses) {
  const std::string path = tmp_path("hgds_cache.hgds");
  std::remove(path.c_str());
  const Dataset first = make_dataset_cached(DatasetId::kCora, path);
  EXPECT_TRUE(std::filesystem::exists(path));
  const Dataset second = make_dataset_cached(DatasetId::kCora, path);
  EXPECT_EQ(first.csr.cols, second.csr.cols);
  EXPECT_EQ(first.features, second.features);
  // A cache holding the wrong dataset id is regenerated.
  const Dataset other = make_dataset_cached(DatasetId::kCiteseer, path);
  EXPECT_EQ(other.name, "citeseer-sim");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hg
