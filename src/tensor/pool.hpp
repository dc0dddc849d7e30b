// The buffer pool behind MTensor storage (DESIGN.md Sec. 8).
//
// A training epoch issues the same op stream as the one before it, so it
// asks for the same storage sizes in the same order. nn::train therefore
// binds a TensorPool to its thread for the run: every MTensor storage block
// freed on that thread goes back to the pool, and every request takes a free
// block of the same rounded byte size when the pool holds one. From epoch 1
// on, no tensor allocates, and no freshly mapped page faults in.
//
// The pool holds only free blocks; a block handed out is an ordinary
// std::aligned_alloc block, so a tensor may outlive the pool, or be freed
// on a thread with no pool bound, and is then returned to the heap. Under
// AddressSanitizer each free block is poisoned until it is handed out
// again, so a read of a tensor whose owner dropped it is still reported.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hg {

class TensorPool {
 public:
  // Blocks are 64-byte aligned, and sizes are rounded up to a multiple of
  // 64 bytes (util/aligned.hpp's contract for kernel-facing buffers).
  static constexpr std::size_t kAlign = 64;
  static constexpr std::size_t rounded(std::size_t bytes) {
    return (bytes + kAlign - 1) / kAlign * kAlign;
  }

  // Per rounded size: every request, the requests no free block served,
  // and the blocks free now.
  struct SizeStats {
    std::size_t bytes = 0;
    std::uint64_t takes = 0;
    std::uint64_t misses = 0;
    std::size_t free = 0;
  };

  TensorPool() = default;
  ~TensorPool();  // frees every free block
  TensorPool(const TensorPool&) = delete;
  TensorPool& operator=(const TensorPool&) = delete;

  // A block of `bytes` (a rounded size): the free block of that size that
  // was returned first, or a fresh one, which counts as a miss. Free blocks
  // are handed out in the order they came back, so a block the caller seeds
  // the pool with is taken before any block returned after it.
  void* take(std::size_t bytes);
  // Returns a block of `bytes` (the size it was taken with) to the pool.
  void give(void* p, std::size_t bytes) noexcept;

  std::uint64_t misses() const noexcept;
  // One entry per size ever requested or returned, smallest first.
  std::vector<SizeStats> stats() const;

 private:
  // The free blocks of one size, a FIFO ring that only grows.
  struct Bin {
    SizeStats st;
    std::vector<void*> ring;
    std::size_t head = 0;
  };
  Bin& bin(std::size_t bytes);

  std::vector<Bin> bins_;  // a run asks for a few dozen sizes at most
};

// Binds `pool` to the calling thread for the scope's lifetime: while it is
// open, MTensor storage requests and frees on this thread go through the
// pool. A scope opened while another is open leaves the outer pool bound,
// so a caller's pool serves the nn::train calls it wraps. Only the bound
// thread touches the pool: the dense ops' and kernels' worker threads never
// allocate or free a tensor.
class TensorPoolScope {
 public:
  explicit TensorPoolScope(TensorPool& pool) noexcept;
  ~TensorPoolScope();
  TensorPoolScope(const TensorPoolScope&) = delete;
  TensorPoolScope& operator=(const TensorPoolScope&) = delete;

 private:
  bool bound_;
};

namespace detail {

// MTensor's storage requests: the pool bound to this thread, if any, else
// std::aligned_alloc / std::free. `bytes` is already rounded.
void* tensor_storage_take(std::size_t bytes);
void tensor_storage_give(void* p, std::size_t bytes) noexcept;

}  // namespace detail

}  // namespace hg
