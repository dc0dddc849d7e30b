#include "kernels/reference.hpp"

#include <algorithm>
#include <limits>

namespace hg::kernels {

namespace {

template <class T>
std::vector<double> spmm_ref(const Csr& csr, std::span<const T> w,
                             std::span<const T> x, int feat, Reduce reduce) {
  const auto n = static_cast<std::size_t>(csr.num_vertices);
  const auto f = static_cast<std::size_t>(feat);
  std::vector<double> y(n * f,
                        reduce == Reduce::kMax
                            ? -std::numeric_limits<double>::infinity()
                            : 0.0);
  for (vid_t v = 0; v < csr.num_vertices; ++v) {
    for (eid_t e = csr.offsets[v]; e < csr.offsets[v + 1]; ++e) {
      const auto u = static_cast<std::size_t>(
          csr.cols[static_cast<std::size_t>(e)]);
      const double we =
          w.empty() ? 1.0 : static_cast<double>(w[static_cast<std::size_t>(e)]);
      for (std::size_t j = 0; j < f; ++j) {
        double& slot = y[static_cast<std::size_t>(v) * f + j];
        const double term = we * static_cast<double>(x[u * f + j]);
        if (reduce == Reduce::kMax) {
          slot = std::max(slot, term);
        } else {
          slot += term;
        }
      }
    }
    if (reduce == Reduce::kMean) {
      const double d = std::max<vid_t>(1, csr.degree(v));
      for (std::size_t j = 0; j < f; ++j) {
        y[static_cast<std::size_t>(v) * f + j] /= d;
      }
    }
    if (reduce == Reduce::kMax && csr.degree(v) == 0) {
      for (std::size_t j = 0; j < f; ++j) {
        y[static_cast<std::size_t>(v) * f + j] = 0.0;  // empty max -> 0
      }
    }
  }
  return y;
}

template <class T>
std::vector<double> sddmm_ref(const Coo& coo, std::span<const T> a,
                              std::span<const T> b, int feat) {
  const auto f = static_cast<std::size_t>(feat);
  std::vector<double> out(static_cast<std::size_t>(coo.num_edges()), 0.0);
  for (eid_t e = 0; e < coo.num_edges(); ++e) {
    const auto r = static_cast<std::size_t>(coo.row[static_cast<std::size_t>(e)]);
    const auto c = static_cast<std::size_t>(coo.col[static_cast<std::size_t>(e)]);
    double dot = 0;
    for (std::size_t j = 0; j < f; ++j) {
      dot += static_cast<double>(a[r * f + j]) *
             static_cast<double>(b[c * f + j]);
    }
    out[static_cast<std::size_t>(e)] = dot;
  }
  return out;
}

}  // namespace

std::vector<double> reference_spmm(const Csr& csr, std::span<const float> w,
                                   std::span<const float> x, int feat,
                                   Reduce reduce) {
  return spmm_ref(csr, w, x, feat, reduce);
}
std::vector<double> reference_spmm(const Csr& csr, std::span<const double> w,
                                   std::span<const double> x, int feat,
                                   Reduce reduce) {
  return spmm_ref(csr, w, x, feat, reduce);
}

std::vector<double> reference_sddmm(const Coo& coo, std::span<const float> a,
                                    std::span<const float> b, int feat) {
  return sddmm_ref(coo, a, b, feat);
}
std::vector<double> reference_sddmm(const Coo& coo, std::span<const double> a,
                                    std::span<const double> b, int feat) {
  return sddmm_ref(coo, a, b, feat);
}

}  // namespace hg::kernels
