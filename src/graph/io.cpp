#include "graph/io.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace hg {

namespace {

constexpr std::uint32_t kMagic = 0x48474453;  // "HGDS"
constexpr std::uint32_t kVersion = 1;

template <class T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <class T>
void read_pod(std::istream& is, T& v) {
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!is) throw std::runtime_error("hgds: truncated file");
}

template <class T>
void write_vec(std::ostream& os, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  write_pod(os, static_cast<std::uint64_t>(v.size()));
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <class T>
void read_vec(std::istream& is, std::vector<T>& v) {
  std::uint64_t n = 0;
  read_pod(is, n);
  if (n > (1ull << 32)) throw std::runtime_error("hgds: absurd array size");
  v.resize(static_cast<std::size_t>(n));
  is.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(v.size() * sizeof(T)));
  if (!is) throw std::runtime_error("hgds: truncated array");
}

void write_string(std::ostream& os, const std::string& s) {
  write_pod(os, static_cast<std::uint64_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

void read_string(std::istream& is, std::string& s) {
  std::uint64_t n = 0;
  read_pod(is, n);
  if (n > (1u << 20)) throw std::runtime_error("hgds: absurd string size");
  s.resize(static_cast<std::size_t>(n));
  is.read(s.data(), static_cast<std::streamsize>(n));
  if (!is) throw std::runtime_error("hgds: truncated string");
}

// Everything the kernels' indexing trusts: a corrupted cache fails here
// instead of turning into an out-of-bounds read later.
void validate(const Dataset& d) {
  const Csr& g = d.csr;
  if (g.num_vertices < 0 ||
      g.offsets.size() != static_cast<std::size_t>(g.num_vertices) + 1 ||
      g.offsets.front() != 0 ||
      g.offsets.back() != static_cast<eid_t>(g.cols.size())) {
    throw std::runtime_error("hgds: inconsistent CSR");
  }
  for (std::size_t v = 1; v < g.offsets.size(); ++v) {
    if (g.offsets[v] < g.offsets[v - 1]) {
      throw std::runtime_error("hgds: CSR offsets decrease");
    }
  }
  for (const vid_t c : g.cols) {
    if (c < 0 || c >= g.num_vertices) {
      throw std::runtime_error("hgds: column id out of range");
    }
  }
  if (!d.labeled) return;
  if (d.feat_dim <= 0 || d.num_classes <= 0) {
    throw std::runtime_error("hgds: labeled dataset without features or "
                             "classes");
  }
  const auto n = static_cast<std::size_t>(g.num_vertices);
  if (d.features.size() != n * static_cast<std::size_t>(d.feat_dim) ||
      d.labels.size() != n || d.train_mask.size() != n) {
    throw std::runtime_error("hgds: array sizes do not match the vertex "
                             "count");
  }
  for (const int label : d.labels) {
    if (label < 0 || label >= d.num_classes) {
      throw std::runtime_error("hgds: label out of range");
    }
  }
}

}  // namespace

void save_dataset(const Dataset& d, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("hgds: cannot open for write: " + path);

  write_pod(os, kMagic);
  write_pod(os, kVersion);
  write_pod(os, static_cast<std::int32_t>(d.id));
  write_string(os, d.name);
  write_string(os, d.paper_name);
  write_pod(os, static_cast<std::uint8_t>(d.labeled ? 1 : 0));
  write_pod(os, static_cast<std::int32_t>(d.scale_denominator));
  write_pod(os, static_cast<std::int32_t>(d.feat_dim));
  write_pod(os, static_cast<std::int32_t>(d.num_classes));

  write_pod(os, d.csr.num_vertices);
  write_vec(os, d.csr.offsets);
  write_vec(os, d.csr.cols);
  write_vec(os, d.features);
  write_vec(os, d.labels);
  write_vec(os, d.train_mask);
  if (!os) throw std::runtime_error("hgds: write failed: " + path);
}

Dataset load_dataset(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("hgds: cannot open: " + path);

  std::uint32_t magic = 0, version = 0;
  read_pod(is, magic);
  read_pod(is, version);
  if (magic != kMagic) throw std::runtime_error("hgds: bad magic");
  if (version != kVersion) throw std::runtime_error("hgds: bad version");

  Dataset d;
  std::int32_t id = 0, scale = 0, feat = 0, classes = 0;
  std::uint8_t labeled = 0;
  read_pod(is, id);
  read_string(is, d.name);
  read_string(is, d.paper_name);
  read_pod(is, labeled);
  read_pod(is, scale);
  read_pod(is, feat);
  read_pod(is, classes);
  d.id = static_cast<DatasetId>(id);
  d.labeled = labeled != 0;
  d.scale_denominator = scale;
  d.feat_dim = feat;
  d.num_classes = classes;

  read_pod(is, d.csr.num_vertices);
  read_vec(is, d.csr.offsets);
  read_vec(is, d.csr.cols);
  read_vec(is, d.features);
  read_vec(is, d.labels);
  read_vec(is, d.train_mask);

  validate(d);

  // Rebuild derived views.
  d.csr_t = d.csr;  // datasets are symmetric by construction
  d.coo = csr_to_coo(d.csr);
  return d;
}

Dataset make_dataset_cached(DatasetId id, const std::string& cache_path) {
  {
    std::ifstream probe(cache_path, std::ios::binary);
    if (probe.good()) {
      try {
        Dataset d = load_dataset(cache_path);
        if (d.id == id) return d;
      } catch (const std::runtime_error&) {
        // fall through and regenerate
      }
    }
  }
  Dataset d = make_dataset(id);
  save_dataset(d, cache_path);
  return d;
}

}  // namespace hg
