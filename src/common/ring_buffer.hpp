// Fixed-capacity power-of-two ring buffer.
//
// RingBuffer<T> is the exact shape of the io_uring SQ/CQ rings DeLiBA-K
// builds on, and of the QDMA descriptor rings: a head index advanced by the
// consumer, a tail index advanced by the producer, both cumulative, and an
// entries array addressed through a power-of-two mask. Producer and consumer
// run on the simulator's one thread, so the indices are plain integers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace dk {

constexpr std::size_t next_power_of_two(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Bounded FIFO over a power-of-two array.
template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity)
      : mask_(next_power_of_two(capacity) - 1),
        slots_(mask_ + 1) {}

  std::size_t capacity() const { return mask_ + 1; }
  std::size_t size() const { return static_cast<std::size_t>(tail_ - head_); }
  bool empty() const { return head_ == tail_; }
  bool full() const { return size() == capacity(); }

  bool push(const T& value) {
    if (full()) return false;
    slots_[tail_ & mask_] = value;
    ++tail_;
    return true;
  }

  std::optional<T> pop() {
    if (empty()) return std::nullopt;
    return slots_[head_++ & mask_];
  }

  /// Batched push: writes as many entries as fit, advances the tail once.
  /// Returns the number pushed. This is the mechanism behind io_uring's
  /// single-syscall batching of SQEs.
  std::size_t push_batch(const T* values, std::size_t n) {
    const std::size_t space = capacity() - size();
    const std::size_t m = n < space ? n : space;
    for (std::size_t i = 0; i < m; ++i) slots_[(tail_ + i) & mask_] = values[i];
    tail_ += m;
    return m;
  }

  /// Batched pop into `out`; returns the number popped.
  std::size_t pop_batch(T* out, std::size_t n) {
    const std::size_t avail = size();
    const std::size_t m = n < avail ? n : avail;
    for (std::size_t i = 0; i < m; ++i) out[i] = slots_[(head_ + i) & mask_];
    head_ += m;
    return m;
  }

 private:
  std::size_t mask_;
  std::vector<T> slots_;
  std::uint64_t head_ = 0;
  std::uint64_t tail_ = 0;
};

}  // namespace dk
