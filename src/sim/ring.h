#ifndef REFLEX_SIM_RING_H_
#define REFLEX_SIM_RING_H_

#include <cstddef>
#include <memory>
#include <new>
#include <utility>

#include "sim/logging.h"

namespace reflex::sim {

/**
 * FIFO queue over one circular buffer that keeps its capacity. Unlike
 * std::deque, which allocates a fresh chunk every few pushes of a
 * large element as the queue walks through memory, a Ring allocates
 * only when it grows past its high-water mark (capacity doubles), so a
 * queue cycling at a steady depth never touches the allocator.
 *
 * pop_front() destroys the element, so anything it owns (shared
 * pointers included) is released at the pop, exactly as with a deque.
 */
template <typename T>
class Ring {
 public:
  Ring() = default;
  ~Ring() {
    while (size_ > 0) pop_front();
    Free(buf_, cap_);
  }
  Ring(Ring&& other) noexcept { swap(other); }
  Ring& operator=(Ring&&) = delete;
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  T& front() {
    REFLEX_CHECK(size_ > 0);
    return buf_[head_];
  }
  const T& front() const {
    REFLEX_CHECK(size_ > 0);
    return buf_[head_];
  }
  T& back() {
    REFLEX_CHECK(size_ > 0);
    return buf_[Wrap(head_ + size_ - 1)];
  }

  void push_back(T&& value) {
    if (size_ == cap_) Grow();
    ::new (static_cast<void*>(buf_ + Wrap(head_ + size_))) T(std::move(value));
    ++size_;
  }

  void pop_front() {
    REFLEX_CHECK(size_ > 0);
    buf_[head_].~T();
    head_ = Wrap(head_ + 1);
    --size_;
  }

  void swap(Ring& other) noexcept {
    std::swap(buf_, other.buf_);
    std::swap(cap_, other.cap_);
    std::swap(head_, other.head_);
    std::swap(size_, other.size_);
  }

 private:
  static constexpr size_t kMinCapacity = 4;

  size_t Wrap(size_t i) const { return i & (cap_ - 1); }

  static void Free(T* p, size_t n) {
    if (p != nullptr) std::allocator<T>().deallocate(p, n);
  }

  void Grow() {
    const size_t cap = cap_ == 0 ? kMinCapacity : cap_ * 2;
    T* buf = std::allocator<T>().allocate(cap);
    for (size_t i = 0; i < size_; ++i) {
      T& src = buf_[Wrap(head_ + i)];
      ::new (static_cast<void*>(buf + i)) T(std::move(src));
      src.~T();
    }
    Free(buf_, cap_);
    buf_ = buf;
    cap_ = cap;
    head_ = 0;
  }

  T* buf_ = nullptr;
  size_t cap_ = 0;  // zero or a power of two
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace reflex::sim

#endif  // REFLEX_SIM_RING_H_
