// Minimal 2-D row-major tensor with multi-precision storage.
//
// The accuracy story of the paper depends on *state tensors genuinely
// living in reduced precision* between kernels (Sec. 3), so a tensor here
// is f32, f16, or bf16 — not a float tensor quantized on the fly. (i8/b1
// from the precision lattice never materialize as MTensors: they are
// inference-time kernel-level quantizations of f32 state.) All buffers are
// 64-byte aligned so they can be handed to the SIMT kernels (and re-typed
// to half2/half4/half8) directly. Storage comes from the thread's
// TensorPool while nn::train runs (tensor/pool.hpp), from the heap otherwise.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "half/bf16.hpp"
#include "half/dtype.hpp"
#include "half/half.hpp"
#include "tensor/pool.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace hg {

// MTensor's storage allocator: 64-byte aligned blocks through the thread's
// TensorPool. Default insertion constructs nothing, so a resize leaves the
// new elements' bytes as the block held them (MTensor::uninit).
template <class T>
struct TensorAlloc {
  using value_type = T;

  TensorAlloc() noexcept = default;
  template <class U>
  TensorAlloc(const TensorAlloc<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        detail::tensor_storage_take(TensorPool::rounded(n * sizeof(T))));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    detail::tensor_storage_give(p, TensorPool::rounded(n * sizeof(T)));
  }

  template <class U>
  void construct(U* /*p*/) noexcept {
    static_assert(std::is_trivially_copyable_v<U> &&
                  std::is_trivially_destructible_v<U>);
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  template <class U>
  bool operator==(const TensorAlloc<U>&) const noexcept {
    return true;
  }
};

template <class T>
using TensorVec = std::vector<T, TensorAlloc<T>>;

class MTensor {
 public:
  MTensor() = default;

  static MTensor f32(std::int64_t rows, std::int64_t cols) {
    MTensor t;
    t.dtype_ = Dtype::kF32;
    t.rows_ = rows;
    t.cols_ = cols;
    t.f_.assign(static_cast<std::size_t>(rows * cols), 0.0f);
    return t;
  }
  static MTensor f16(std::int64_t rows, std::int64_t cols) {
    MTensor t;
    t.dtype_ = Dtype::kF16;
    t.rows_ = rows;
    t.cols_ = cols;
    t.h_.assign(static_cast<std::size_t>(rows * cols), half_t(0.0f));
    return t;
  }
  static MTensor bf16(std::int64_t rows, std::int64_t cols) {
    MTensor t;
    t.dtype_ = Dtype::kBf16;
    t.rows_ = rows;
    t.cols_ = cols;
    t.b_.assign(static_cast<std::size_t>(rows * cols), bf16_t(0.0f));
    return t;
  }
  static MTensor zeros(Dtype d, std::int64_t rows, std::int64_t cols) {
    switch (d) {
      case Dtype::kF32: return f32(rows, cols);
      case Dtype::kF16: return f16(rows, cols);
      case Dtype::kBf16: return bf16(rows, cols);
      default: throw no_storage(d);
    }
  }
  // A rows x cols tensor whose elements are unspecified: for an op that
  // writes every element before anything reads one.
  static MTensor uninit(Dtype d, std::int64_t rows, std::int64_t cols) {
    MTensor t;
    t.dtype_ = d;
    t.rows_ = rows;
    t.cols_ = cols;
    const auto n = static_cast<std::size_t>(rows * cols);
    switch (d) {
      case Dtype::kF32: t.f_.resize(n); break;
      case Dtype::kF16: t.h_.resize(n); break;
      case Dtype::kBf16: t.b_.resize(n); break;
      default: throw no_storage(d);
    }
    return t;
  }

  Dtype dtype() const noexcept { return dtype_; }
  std::int64_t rows() const noexcept { return rows_; }
  std::int64_t cols() const noexcept { return cols_; }
  std::size_t numel() const noexcept {
    return static_cast<std::size_t>(rows_ * cols_);
  }
  std::size_t bytes() const noexcept { return numel() * dtype_bytes(dtype_); }

  std::span<float> f() {
    assert(dtype_ == Dtype::kF32);
    return f_;
  }
  std::span<const float> f() const {
    assert(dtype_ == Dtype::kF32);
    return f_;
  }
  std::span<half_t> h() {
    assert(dtype_ == Dtype::kF16);
    return h_;
  }
  std::span<const half_t> h() const {
    assert(dtype_ == Dtype::kF16);
    return h_;
  }
  std::span<bf16_t> b() {
    assert(dtype_ == Dtype::kBf16);
    return b_;
  }
  std::span<const bf16_t> b() const {
    assert(dtype_ == Dtype::kBf16);
    return b_;
  }

  // Value access regardless of dtype (reads convert, writes round).
  float get(std::int64_t r, std::int64_t c) const {
    const auto i = static_cast<std::size_t>(r * cols_ + c);
    switch (dtype_) {
      case Dtype::kF16: return h_[i].to_float();
      case Dtype::kBf16: return b_[i].to_float();
      default: return f_[i];
    }
  }
  void set(std::int64_t r, std::int64_t c, float v) {
    const auto i = static_cast<std::size_t>(r * cols_ + c);
    switch (dtype_) {
      case Dtype::kF16: h_[i] = half_t(v); break;
      case Dtype::kBf16: b_[i] = bf16_t(v); break;
      default: f_[i] = v; break;
    }
  }

  void fill(float v) {
    switch (dtype_) {
      case Dtype::kF16: std::fill(h_.begin(), h_.end(), half_t(v)); break;
      case Dtype::kBf16: std::fill(b_.begin(), b_.end(), bf16_t(v)); break;
      default: std::fill(f_.begin(), f_.end(), v); break;
    }
  }

  // Any non-finite value anywhere? (The AMP GradScaler's inf-check.)
  bool has_nonfinite() const {
    switch (dtype_) {
      case Dtype::kF16:
        for (half_t v : h_) {
          if (!v.is_finite()) return true;
        }
        return false;
      case Dtype::kBf16:
        for (bf16_t v : b_) {
          if (!v.is_finite()) return true;
        }
        return false;
      default:
        for (float v : f_) {
          if (!std::isfinite(v)) return true;
        }
        return false;
    }
  }

 private:
  static std::invalid_argument no_storage(Dtype d) {
    return std::invalid_argument("MTensor: no storage for dtype " +
                                 std::string(dtype_name(d)));
  }

  Dtype dtype_ = Dtype::kF32;
  std::int64_t rows_ = 0, cols_ = 0;
  TensorVec<float> f_;
  TensorVec<half_t> h_;
  TensorVec<bf16_t> b_;
};

// Xavier/Glorot-uniform initialization into a float tensor.
inline void xavier_init(MTensor& w, Rng& rng) {
  const double bound =
      std::sqrt(6.0 / static_cast<double>(w.rows() + w.cols()));
  for (std::int64_t r = 0; r < w.rows(); ++r) {
    for (std::int64_t c = 0; c < w.cols(); ++c) {
      w.set(r, c, static_cast<float>((rng.next_double() * 2 - 1) * bound));
    }
  }
}

}  // namespace hg
