// Cta<Profiled>: a cooperative thread array (thread block) of warps plus a
// shared-memory arena.
//
// Kernels are phase-structured: each CTA-barrier-separated region is
// expressed as one `for_each_warp` call, with `barrier()` between regions —
// the simulator equivalent of __syncthreads(). Per-warp state that must
// survive across phases lives in kernel-owned arrays indexed by warp id, or
// in the shared arena, exactly as it would on the GPU.
//
// Host-performance note: the executor runs one CTA at a time per pool
// thread, so each thread keeps a CtaArena that backs the shared-memory
// buffer, the warp objects, and the kernel scratch allocations across CTAs
// — steady-state CTA construction performs no heap allocation and no 164 KB
// zero-fill. `shared<T>` and `scratch<T>` value-initialize every element
// they hand out, so reused backing memory is invisible to kernels and the
// arena cannot break determinism. Only the executor constructs a Cta, and
// always on the running thread's arena.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "simt/warp.hpp"

namespace hg::simt {

// Per-host-thread backing store for Cta. Blocks never move once handed
// out, so spans stay valid for the whole CTA even as more scratch is
// carved; reset() recycles the space for the next CTA without freeing.
class CtaArena {
 public:
  // Persistent shared-memory backing (not zeroed here; Cta::shared
  // value-initializes per allocation).
  std::byte* smem(std::size_t bytes) {
    if (smem_.size() < bytes) smem_.resize(bytes);
    return smem_.data();
  }

  // Bump-allocate `bytes` aligned to alignof(std::max_align_t).
  std::byte* scratch(std::size_t bytes) {
    constexpr std::size_t align = alignof(std::max_align_t);
    const std::size_t need = (bytes + align - 1) / align * align;
    while (cur_ < blocks_.size()) {
      Block& b = blocks_[cur_];
      if (b.used + need <= b.size) {
        std::byte* p = b.data.get() + b.used;
        b.used += need;
        return p;
      }
      ++cur_;
    }
    const std::size_t size = std::max(need, kBlockBytes);
    blocks_.push_back(
        Block{std::make_unique<std::byte[]>(size), size, need});
    cur_ = blocks_.size() - 1;
    return blocks_.back().data.get();
  }

  // Recycle all scratch blocks (capacity retained) for the next CTA.
  void reset() noexcept {
    for (auto& b : blocks_) b.used = 0;
    cur_ = 0;
  }

  // The calling thread's arena (pool workers and the launch thread each
  // get their own; memory persists for the thread's lifetime).
  static CtaArena& local() {
    static thread_local CtaArena arena;
    return arena;
  }

 private:
  static constexpr std::size_t kBlockBytes = 64 * 1024;
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };
  std::vector<std::byte> smem_;
  std::vector<Block> blocks_;
  std::size_t cur_ = 0;
};

template <bool Profiled>
class Cta {
  static_assert(std::is_trivially_destructible_v<Warp<Profiled>>,
                "inline warp storage skips destructor calls");

 public:
  // Shared-memory capacity is DeviceSpec::smem_bytes (A100: up to 164 KB
  // per SM); we give each CTA the full carveout and enforce the capacity
  // like the hardware would.
  Cta(const DeviceSpec& spec, KernelStats& ks, int cta_id, int num_warps,
      CtaArena& arena, const LaunchHooks* hooks)
      : spec_(spec), cta_id_(cta_id), arena_(arena), num_warps_(num_warps),
        smem_bytes_(spec.smem_bytes) {
    arena_.reset();
    smem_data_ = arena_.smem(smem_bytes_);
    if (hooks != nullptr && hooks->san != nullptr) {
      san_ = &detail::CtaSan::local();
      san_->begin(*hooks->san, cta_id);
    }
    using W = Warp<Profiled>;
    if (num_warps <= kInlineWarps) {
      warps_ = reinterpret_cast<W*>(warp_storage_);
    } else {
      owned_warps_ = std::make_unique<std::byte[]>(
          sizeof(W) * static_cast<std::size_t>(num_warps));
      warps_ = reinterpret_cast<W*>(owned_warps_.get());
    }
    for (int w = 0; w < num_warps; ++w) {
      new (warps_ + w) W(spec, ks, w, cta_id, hooks);
    }
    if constexpr (Profiled) ks_ = &ks;
  }

  Cta(const Cta&) = delete;
  Cta& operator=(const Cta&) = delete;

  int cta_id() const noexcept { return cta_id_; }
  int num_warps() const noexcept { return num_warps_; }
  Warp<Profiled>& warp(int i) { return warps_[i]; }

  // Bump-allocate a typed array from the shared-memory arena. Arena
  // contents persist for the CTA's lifetime (across phases), like real
  // __shared__ declarations.
  template <class T>
  SmemSpan<T> shared(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "shared memory holds PODs only");
    const std::size_t align = alignof(T) < 8 ? 8 : alignof(T);
    smem_used_ = (smem_used_ + align - 1) / align * align;
    const std::size_t bytes = n * sizeof(T);
    if (smem_used_ + bytes > smem_bytes_) {
      throw std::runtime_error(
          "Cta::shared: shared-memory capacity exceeded: requested " +
          std::to_string(bytes) + " B with " + std::to_string(smem_used_) +
          " B already allocated of " + std::to_string(smem_bytes_) +
          " B capacity");
    }
    const std::size_t off = smem_used_;
    T* p = reinterpret_cast<T*>(smem_data_ + off);
    smem_used_ += bytes;
    for (std::size_t i = 0; i < n; ++i) new (p + i) T{};
    if (san_ != nullptr) {
      san_->on_shared_alloc(static_cast<std::uint32_t>(off),
                            static_cast<std::uint32_t>(bytes));
      return SmemSpan<T>(p, n, san_, static_cast<std::uint32_t>(off));
    }
    return SmemSpan<T>(p, n, nullptr, 0);
  }

  // Kernel workspace with CTA lifetime but no shared-memory capacity
  // charge or cost-model meaning: the host-side accumulators and row
  // tables kernels previously heap-allocated per warp. Value-initialized,
  // like the vectors it replaces; allocation-free in steady state.
  template <class T>
  std::span<T> scratch(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "scratch holds PODs only");
    T* p = reinterpret_cast<T*>(arena_.scratch(n * sizeof(T)));
    for (std::size_t i = 0; i < n; ++i) new (p + i) T{};
    return {p, n};
  }

  // Run `f(Warp&)` for every warp of the CTA (one barrier-free phase).
  template <class F>
  void for_each_warp(F&& f) {
    if (san_ != nullptr) san_->begin_phase();
    for (int w = 0; w < num_warps_; ++w) {
      if (san_ != nullptr) san_->set_warp(w);
      f(warps_[w]);
    }
    if (san_ != nullptr) san_->end_phase();
  }

  // __syncthreads(): all warps advance to the slowest warp, plus the
  // barrier cost; pending load latency is exposed.
  void barrier() {
    if (san_ != nullptr) san_->on_barrier();
    for (int w = 0; w < num_warps_; ++w) warps_[w].sync();
    if constexpr (Profiled) {
      double mi = 0, mm = 0, ms = 0;
      for (int w = 0; w < num_warps_; ++w) {
        mi = std::max(mi, warps_[w].issue_cycles());
        mm = std::max(mm, warps_[w].mem_cycles());
        ms = std::max(ms, warps_[w].stall_cycles());
      }
      for (int w = 0; w < num_warps_; ++w) {
        warps_[w].align_to(mi + spec_.cta_barrier_cycles, mm, ms);
      }
      ks_->cta_barriers += 1;
    }
  }

  // Final sync; returns (work = issue+mem, stall) of the CTA critical path.
  std::pair<double, double> finish() {
    double max_work = 0, max_stall = 0;
    for (int w = 0; w < num_warps_; ++w) {
      warps_[w].finish();
      max_work = std::max(max_work, warps_[w].busy_cycles());
      max_stall = std::max(max_stall, warps_[w].stall_cycles());
    }
    return {max_work, max_stall};
  }

 private:
  static constexpr int kInlineWarps = 8;

  const DeviceSpec& spec_;
  int cta_id_;
  CtaArena& arena_;
  int num_warps_;
  // Warp is non-copyable/non-movable and trivially destructible, so warps
  // live placement-new'd either inline or in one heap block.
  alignas(Warp<Profiled>) std::byte
      warp_storage_[kInlineWarps * sizeof(Warp<Profiled>)];
  std::unique_ptr<std::byte[]> owned_warps_;
  Warp<Profiled>* warps_ = nullptr;
  std::byte* smem_data_ = nullptr;
  std::size_t smem_bytes_;
  std::size_t smem_used_ = 0;
  KernelStats* ks_ = nullptr;
  detail::CtaSan* san_ = nullptr;
};

}  // namespace hg::simt
