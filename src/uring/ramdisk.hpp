// RAM-disk backend: a real in-memory block device behind the ring API.
//
// Used by the live-mode examples and host-side microbenchmarks, where the
// ring machinery runs on actual CPU time (google-benchmark) rather than in
// the discrete-event simulation. Supports synchronous completion (inline)
// or deferred completion via an explicit poll() step, which lets tests
// exercise the asynchronous CQ path deterministically without threads.
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <vector>

#include "uring/io_uring.hpp"

namespace dk::uring {

class RamDisk final : public Backend {
 public:
  explicit RamDisk(std::uint64_t capacity_bytes, bool deferred = false)
      : data_(capacity_bytes, 0), deferred_(deferred) {}

  std::uint64_t capacity() const { return data_.size(); }
  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes() const { return writes_; }

  void submit_io(const Sqe& sqe, CompleteFn complete) override {
    if (deferred_) {
      queue_.push_back({sqe, std::move(complete)});
      return;
    }
    complete(execute(sqe));
  }

  /// Complete up to `max` deferred I/Os (device "interrupt batch").
  unsigned poll(unsigned max = ~0u) {
    unsigned n = 0;
    while (n < max && !queue_.empty()) {
      auto [sqe, complete] = std::move(queue_.front());
      queue_.pop_front();
      complete(execute(sqe));
      ++n;
    }
    return n;
  }

  std::size_t pending() const { return queue_.size(); }

 private:
  std::int32_t execute(const Sqe& sqe) {
    if (sqe.opcode == Opcode::nop || sqe.opcode == Opcode::fsync) return 0;
    if (sqe.off + sqe.len > data_.size())
      return -static_cast<std::int32_t>(Errc::out_of_range);
    auto* buf = reinterpret_cast<std::uint8_t*>(sqe.addr);
    if (buf == nullptr) return -static_cast<std::int32_t>(Errc::invalid_argument);
    if (sqe.opcode == Opcode::read) {
      std::memcpy(buf, data_.data() + sqe.off, sqe.len);
      ++reads_;
    } else {
      std::memcpy(data_.data() + sqe.off, buf, sqe.len);
      ++writes_;
    }
    return static_cast<std::int32_t>(sqe.len);
  }

  struct Deferred {
    Sqe sqe;
    CompleteFn complete;
  };

  std::vector<std::uint8_t> data_;
  bool deferred_;
  std::deque<Deferred> queue_;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
};

}  // namespace dk::uring
