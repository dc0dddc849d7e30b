// Serial reference implementations (double accumulation) used as ground
// truth in kernel tests, as the guard's last fallback, and as hgcheck's
// exact f64 track. Inputs are float (tensor storage) or double (hgcheck's
// epoch-0 values); each product and sum is taken in double either way.
#pragma once

#include <span>
#include <vector>

#include "kernels/api.hpp"

namespace hg::kernels {

// Y[v,:] = reduce_{e=(v,u)} w[e] * X[u,:]   (SpMMve; pass empty w for SpMMv)
// with optional mean scaling (divide by degree, the "right" norm).
std::vector<double> reference_spmm(const Csr& csr, std::span<const float> w,
                                   std::span<const float> x, int feat,
                                   Reduce reduce);
std::vector<double> reference_spmm(const Csr& csr, std::span<const double> w,
                                   std::span<const double> x, int feat,
                                   Reduce reduce);

// out[e] = dot(A[row(e),:], B[col(e),:]) for each edge.
std::vector<double> reference_sddmm(const Coo& coo, std::span<const float> a,
                                    std::span<const float> b, int feat);
std::vector<double> reference_sddmm(const Coo& coo, std::span<const double> a,
                                    std::span<const double> b, int feat);

}  // namespace hg::kernels
