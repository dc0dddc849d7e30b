#include "tensor/pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define HG_POOL_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define HG_POOL_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define HG_POOL_POISON(p, n) ((void)(p), (void)(n))
#define HG_POOL_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace hg {

namespace {

// The pool of the outermost open TensorPoolScope on this thread.
thread_local TensorPool* t_tensor_pool = nullptr;

void* heap_block(std::size_t bytes) {
  void* p = std::aligned_alloc(TensorPool::kAlign, bytes);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

TensorPool::~TensorPool() {
  for (Bin& b : bins_) {
    for (std::size_t i = 0; i < b.st.free; ++i) {
      void* p = b.ring[(b.head + i) % b.ring.size()];
      HG_POOL_UNPOISON(p, b.st.bytes);
      std::free(p);
    }
  }
}

TensorPool::Bin& TensorPool::bin(std::size_t bytes) {
  const auto it =
      std::lower_bound(bins_.begin(), bins_.end(), bytes,
                       [](const Bin& b, std::size_t v) { return b.st.bytes < v; });
  if (it != bins_.end() && it->st.bytes == bytes) return *it;
  Bin fresh;
  fresh.st.bytes = bytes;
  return *bins_.insert(it, std::move(fresh));
}

void* TensorPool::take(std::size_t bytes) {
  Bin& b = bin(bytes);
  ++b.st.takes;
  if (b.st.free == 0) {
    ++b.st.misses;
    return heap_block(bytes);
  }
  void* p = b.ring[b.head];
  b.head = (b.head + 1) % b.ring.size();
  --b.st.free;
  HG_POOL_UNPOISON(p, bytes);
  return p;
}

void TensorPool::give(void* p, std::size_t bytes) noexcept {
  try {
    Bin& b = bin(bytes);
    if (b.st.free == b.ring.size()) {  // full: unroll into a larger ring
      std::vector<void*> grown(std::max<std::size_t>(8, 2 * b.ring.size()));
      for (std::size_t i = 0; i < b.st.free; ++i) {
        grown[i] = b.ring[(b.head + i) % b.ring.size()];
      }
      b.ring = std::move(grown);
      b.head = 0;
    }
    b.ring[(b.head + b.st.free) % b.ring.size()] = p;
    ++b.st.free;
    HG_POOL_POISON(p, bytes);
  } catch (const std::bad_alloc&) {
    std::free(p);  // no room to keep it: the heap takes it back
  }
}

std::uint64_t TensorPool::misses() const noexcept {
  std::uint64_t n = 0;
  for (const Bin& b : bins_) n += b.st.misses;
  return n;
}

std::vector<TensorPool::SizeStats> TensorPool::stats() const {
  std::vector<SizeStats> out;
  out.reserve(bins_.size());
  for (const Bin& b : bins_) out.push_back(b.st);
  return out;
}

TensorPoolScope::TensorPoolScope(TensorPool& pool) noexcept
    : bound_(t_tensor_pool == nullptr) {
  if (bound_) t_tensor_pool = &pool;
}

TensorPoolScope::~TensorPoolScope() {
  if (bound_) t_tensor_pool = nullptr;
}

namespace detail {

void* tensor_storage_take(std::size_t bytes) {
  if (TensorPool* pool = t_tensor_pool) return pool->take(bytes);
  return heap_block(bytes);
}

void tensor_storage_give(void* p, std::size_t bytes) noexcept {
  if (TensorPool* pool = t_tensor_pool) {
    pool->give(p, bytes);
  } else {
    std::free(p);
  }
}

}  // namespace detail

}  // namespace hg
