#ifndef REFLEX_SIM_POOL_H_
#define REFLEX_SIM_POOL_H_

#include <cstddef>
#include <new>

/**
 * Size-class free lists for the simulator's per-I/O objects: coroutine
 * frames (sim::Task), future states, I/O payloads, flash in-flight
 * records and client pending-op nodes. A freed block goes onto the
 * free list of its 16-byte size class and is handed out again to the
 * next request of that class, so once a run has reached its peak of
 * live objects the I/O path no longer calls malloc/free. Blocks are
 * never returned to the system allocator; the pool holds at most the
 * peak live footprint of each class. Requests above kMaxPooledBytes go
 * straight to ::operator new.
 *
 * Sanitizer visibility: under AddressSanitizer and under
 * REFLEX_CORO_DEBUG every request passes straight through to
 * ::operator new/delete. A recycled block would hide a use-after-free
 * from ASan, and would let CoroDebugIsLive() report a destroyed frame
 * as live once its address is reused by a new frame.
 *
 * The free lists are thread_local: the simulator is single-threaded,
 * and a block freed on another thread simply joins that thread's list.
 */

#if defined(__SANITIZE_ADDRESS__)
#define REFLEX_POOL_PASSTHROUGH 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define REFLEX_POOL_PASSTHROUGH 1
#endif
#endif
#if defined(REFLEX_CORO_DEBUG) && !defined(REFLEX_POOL_PASSTHROUGH)
#define REFLEX_POOL_PASSTHROUGH 1
#endif

namespace reflex::sim {

/** True when the pool forwards every request to ::operator new/delete
 * (ASan or REFLEX_CORO_DEBUG builds). */
inline constexpr bool kPoolPassThrough =
#ifdef REFLEX_POOL_PASSTHROUGH
    true;
#else
    false;
#endif

namespace internal {

inline constexpr size_t kPoolGranule = 16;
inline constexpr size_t kMaxPooledBytes = 1024;
inline constexpr size_t kPoolClasses = kMaxPooledBytes / kPoolGranule;

struct PoolBlock {
  PoolBlock* next;
};

inline thread_local PoolBlock* pool_heads[kPoolClasses] = {};

}  // namespace internal

/** Allocates `bytes` (aligned to __STDCPP_DEFAULT_NEW_ALIGNMENT__). */
inline void* PoolAllocate(size_t bytes) {
  if constexpr (!kPoolPassThrough) {
    if (bytes - 1 < internal::kMaxPooledBytes) {
      const size_t cls = (bytes - 1) / internal::kPoolGranule;
      internal::PoolBlock*& head = internal::pool_heads[cls];
      if (head != nullptr) {
        internal::PoolBlock* block = head;
        head = block->next;
        return block;
      }
      return ::operator new((cls + 1) * internal::kPoolGranule);
    }
  }
  return ::operator new(bytes);
}

/** Returns a block from PoolAllocate(`bytes`); `bytes` must match. */
inline void PoolDeallocate(void* p, size_t bytes) noexcept {
  if constexpr (!kPoolPassThrough) {
    if (bytes - 1 < internal::kMaxPooledBytes) {
      const size_t cls = (bytes - 1) / internal::kPoolGranule;
      auto* block = static_cast<internal::PoolBlock*>(p);
      block->next = internal::pool_heads[cls];
      internal::pool_heads[cls] = block;
      return;
    }
  }
  ::operator delete(p);
}

/**
 * Standard allocator over the pool, for std::allocate_shared and node
 * containers (one node per allocate() call).
 */
template <typename T>
struct PoolAllocator {
  using value_type = T;
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(size_t n) {
    return static_cast<T*>(PoolAllocate(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) noexcept {
    PoolDeallocate(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace reflex::sim

#endif  // REFLEX_SIM_POOL_H_
