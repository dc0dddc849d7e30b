// Runtime path selection for the lane-batched warp interpreter.
//
// HALFGNN_SIMD=scalar forces the reference per-lane loops; =avx2 demands
// the vector path (falling back with a note if this build/CPU lacks it);
// =auto (or unset) picks the widest tier available: avx512, avx2 or scalar.
// Resolved once before main() so a launch never observes a path change
// mid-flight.
#include "simt/simd.hpp"

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <stdexcept>
#include <string>

namespace hg::simt::simd {

namespace {

constexpr SimdOps kScalarOps = {
    Path::kScalar,
    &scalar::cvt_h2f,
    &scalar::cvt_f2h,
    &scalar::h2_term_accum,
    &scalar::h2_spmm_run,
    &scalar::h2_scale,
    &scalar::h2_combine,
    &scalar::h2_fma_splat,
    &scalar::h_accum,
    &scalar::h_scale,
    &scalar::f_accum,
    &scalar::f_scale,
    &scalar::h_fma_mask,
    &scalar::f_fma_mask,
    &scalar::h2_dot_mask,
    &scalar::group_reduce_h2,
    &scalar::group_reduce_h,
    &scalar::group_reduce_f,
    &scalar::h2_sddmm_run,
    &scalar::seg_reduce_h,
    &scalar::seg_reduce_f,
    &accounting::access_counts,
    &scalar::gemm_panel,
    &scalar::h_add_bias_rows,
    &scalar::h_scale_rows,
    &scalar::h_colsum,
    &scalar::h_axpby,
    &scalar::h_relu_forward,
    &scalar::h_relu_backward,
};

}  // namespace

#ifdef HALFGNN_SIMD_AVX2
// Defined in simd_avx2.cpp (compiled -mavx2 -mf16c); returns nullptr when
// the executing CPU lacks AVX2/F16C despite the build-time probe.
const SimdOps* avx2_ops_or_null() noexcept;
#else
static const SimdOps* avx2_ops_or_null() noexcept { return nullptr; }
#endif

#ifdef HALFGNN_SIMD_AVX512
// Defined in simd_avx512.cpp; returns nullptr when the executing CPU lacks
// AVX-512 F/BW/VL/FP16 or the avx2 tier the table is built on.
const SimdOps* avx512_ops_or_null() noexcept;
#else
static const SimdOps* avx512_ops_or_null() noexcept { return nullptr; }
#endif

namespace {

const SimdOps* ops_or_null(Path p) noexcept {
  switch (p) {
    case Path::kScalar: return &kScalarOps;
    case Path::kAvx2: return avx2_ops_or_null();
    case Path::kAvx512: return avx512_ops_or_null();
  }
  return nullptr;
}

// The widest available tier; scalar always is.
const SimdOps* widest() noexcept {
  for (auto it = std::rbegin(kPaths); it != std::rend(kPaths); ++it) {
    if (const SimdOps* o = ops_or_null(*it)) return o;
  }
  return &kScalarOps;
}

// Runs before main(), so it cannot throw.
const SimdOps* resolve_from_env() noexcept {
  std::optional<Path> want;
  try {
    want = requested_path();
  } catch (const std::invalid_argument&) {
    want = std::nullopt;  // auto; a Device rejects the value
  }
  if (!want) return widest();
  if (const SimdOps* o = ops_or_null(*want)) return o;
  std::fprintf(stderr,
               "halfgnn: HALFGNN_SIMD=%s requested but that path is "
               "unavailable in this build/CPU; using scalar\n",
               path_name(*want));
  return &kScalarOps;
}

}  // namespace

bool available(Path p) noexcept { return ops_or_null(p) != nullptr; }

std::optional<Path> requested_path() {
  const char* env = std::getenv(kEnv);
  const std::string_view v = util::trim(env != nullptr ? env : "");
  if (v.empty()) return std::nullopt;
  const auto* row = util::find(kPathTokens, v);
  if (row == nullptr) {
    throw std::invalid_argument(std::string(kEnv) + ": unknown path '" +
                                std::string(v) + "' (expected " +
                                util::alternatives(kPathTokens) + ")");
  }
  return row->value;
}

namespace detail {
// Constant-initialized to the reference path so code running during static
// initialization can never observe a null table; the env override below is
// applied as a dynamic initializer in this TU.
constinit std::atomic<const SimdOps*> g_ops{&kScalarOps};
}  // namespace detail

namespace {
[[maybe_unused]] const bool g_env_resolved = [] {
  detail::g_ops.store(resolve_from_env(), std::memory_order_relaxed);
  return true;
}();
}  // namespace

bool set_path(Path p) noexcept {
  const SimdOps* o = ops_or_null(p);
  if (o == nullptr) return false;
  detail::g_ops.store(o, std::memory_order_relaxed);
  return true;
}

}  // namespace hg::simt::simd
