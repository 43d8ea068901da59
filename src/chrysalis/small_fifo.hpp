// A FIFO of trivially copyable values that keeps its first N elements
// inline and spills to a heap ring past them.
//
// Dual queues hold data or waiters, almost always zero or one of each: a
// serve or Bridge reply queue sees one token and one waiter in its life.
// A std::deque allocates a map and a chunk as soon as it is built; this
// allocates nothing until more than N elements are queued at once.  A
// spilled ring keeps its capacity for the queue's life (server and worker
// queues stay busy).
//
// The ring indexes modulo a power-of-two capacity.  Besides the deque
// operations a dual queue needs (push at either end, pop at the front) it
// erases by position (a schedule-exploration waiter pick) and by value (a
// killed or timed-out waiter), both keeping the order of the rest.  Not
// copyable or movable: the kernel builds each queue in place.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

namespace bfly::chrys {

template <typename T, std::uint32_t N>
class SmallFifo {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(N > 0 && (N & (N - 1)) == 0, "N must be a power of two");

 public:
  SmallFifo() = default;
  SmallFifo(const SmallFifo&) = delete;
  SmallFifo& operator=(const SmallFifo&) = delete;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// True once the queue outgrew its inline slots.
  bool spilled() const { return heap_ != nullptr; }

  /// The i-th element from the front.
  T& operator[](std::size_t i) {
    assert(i < size_);
    return buf()[(head_ + i) & (cap_ - 1)];
  }
  T& front() { return (*this)[0]; }

  void push_back(T v) {
    if (size_ == cap_) grow();
    buf()[(head_ + size_) & (cap_ - 1)] = v;
    ++size_;
  }
  void push_front(T v) {
    if (size_ == cap_) grow();
    head_ = (head_ - 1) & (cap_ - 1);
    buf()[head_] = v;
    ++size_;
  }
  void pop_front() {
    assert(size_ > 0);
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

  /// Remove the i-th element; the others keep their order.
  void erase_at(std::size_t i) {
    if (i == 0) {
      pop_front();
      return;
    }
    for (std::size_t j = i; j + 1 < size_; ++j) (*this)[j] = (*this)[j + 1];
    --size_;
  }

  /// Remove every element equal to `v`; the others keep their order.
  void remove(T v) {
    std::size_t kept = 0;
    for (std::size_t r = 0; r < size_; ++r)
      if (!((*this)[r] == v)) (*this)[kept++] = (*this)[r];
    size_ = static_cast<std::uint32_t>(kept);
  }

 private:
  T* buf() { return heap_ != nullptr ? heap_.get() : inline_; }

  // Double the capacity, unrolling the ring to start at slot 0.
  void grow() {
    auto bigger = std::make_unique_for_overwrite<T[]>(2 * cap_);
    for (std::uint32_t i = 0; i < size_; ++i) bigger[i] = (*this)[i];
    heap_ = std::move(bigger);
    cap_ *= 2;
    head_ = 0;
  }

  std::unique_ptr<T[]> heap_;
  std::uint32_t cap_ = N;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
  T inline_[N] = {};
};

}  // namespace bfly::chrys
