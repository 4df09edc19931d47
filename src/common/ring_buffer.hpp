// Fixed-capacity power-of-two ring buffers.
//
// Two flavours:
//   RingBuffer<T>     — single-threaded bounded queue (used inside the DES).
//   SpscRing<T>       — lock-free single-producer/single-consumer ring with
//                       acquire/release semantics; this is the exact shape of
//                       the io_uring SQ/CQ rings DeLiBA-K builds on (shared
//                       head/tail indices, entries array, power-of-two mask).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/check.hpp"

namespace dk {

constexpr bool is_power_of_two(std::size_t v) {
  return v != 0 && (v & (v - 1)) == 0;
}

constexpr std::size_t next_power_of_two(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Single-threaded bounded FIFO over a power-of-two array.
template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity)
      : mask_(next_power_of_two(capacity) - 1),
        slots_(mask_ + 1) {}

  std::size_t capacity() const { return mask_ + 1; }
  std::size_t size() const { return tail_ - head_; }
  bool empty() const { return head_ == tail_; }
  bool full() const { return size() == capacity(); }

  bool push(T value) {
    if (full()) return false;
    slots_[tail_ & mask_] = std::move(value);
    ++tail_;
    return true;
  }

  std::optional<T> pop() {
    if (empty()) return std::nullopt;
    T v = std::move(slots_[head_ & mask_]);
    ++head_;
    return v;
  }

  /// Peek without consuming; undefined when empty.
  const T& front() const {
    DK_DCHECK(!empty()) << "front() on empty ring";
    return slots_[head_ & mask_];
  }

 private:
  std::size_t mask_;
  std::vector<T> slots_;
  std::uint64_t head_ = 0;
  std::uint64_t tail_ = 0;
};

/// Lock-free SPSC ring. Producer calls try_push, consumer calls try_pop.
/// Mirrors the io_uring shared-ring layout: a head index owned by the
/// consumer, a tail index owned by the producer, and a power-of-two mask.
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity)
      : mask_(next_power_of_two(capacity) - 1),
        slots_(mask_ + 1) {}

  std::size_t capacity() const { return mask_ + 1; }

  /// Number of filled entries (approximate under concurrency).
  std::size_t size() const {
    return tail_.load(std::memory_order_acquire) -
           head_.load(std::memory_order_acquire);
  }

  bool try_push(const T& value) {
    return try_push(value, [] {});
  }

  /// try_push() that runs `before_publish` once the entry is written but
  /// before the tail is release-published: bookkeeping about the entry
  /// (e.g. validator accounting) is then ordered before any consumer can
  /// observe it. Not run when the ring is full.
  template <typename BeforePublish>
  bool try_push(const T& value, BeforePublish&& before_publish) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    if (tail - head > mask_) return false;  // full
    slots_[tail & mask_] = value;
    before_publish();
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  bool try_pop(T& out) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head == tail) return false;  // empty
    out = slots_[head & mask_];
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Batched push: writes as many entries as fit, advances tail once.
  /// Returns the number pushed. This is the mechanism behind io_uring's
  /// single-syscall batching of SQEs.
  std::size_t try_push_batch(const T* values, std::size_t n) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::size_t space = capacity() - static_cast<std::size_t>(tail - head);
    const std::size_t m = n < space ? n : space;
    for (std::size_t i = 0; i < m; ++i) slots_[(tail + i) & mask_] = values[i];
    tail_.store(tail + m, std::memory_order_release);
    return m;
  }

  /// Batched pop into `out`; returns the number popped.
  std::size_t try_pop_batch(T* out, std::size_t n) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t avail = static_cast<std::size_t>(tail - head);
    const std::size_t m = n < avail ? n : avail;
    for (std::size_t i = 0; i < m; ++i) out[i] = slots_[(head + i) & mask_];
    head_.store(head + m, std::memory_order_release);
    return m;
  }

 private:
  std::size_t mask_;
  std::vector<T> slots_;
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
};

}  // namespace dk
