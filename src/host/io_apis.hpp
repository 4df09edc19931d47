// The four traditional Linux I/O access methods of §II (Fig 1), modeled over
// a client-side page cache so their costs and semantics can be compared
// against io_uring on the same backing device:
//
//   * buffered read()/write() — synchronous, one syscall + one user/kernel
//     copy per call; reads hit the page cache, writes dirty it (writeback);
//   * mmap — page-fault on first touch of each page, then memory-speed
//     access; no per-access syscall (the §II critique: no explicit control,
//     fault storms on cold ranges);
//   * POSIX/libaio-style AIO — asynchronous submission, but only effective
//     with O_DIRECT (libaio's documented limitation: buffered AIO degrades
//     to synchronous);
//   * O_DIRECT — bypasses the cache entirely: every access pays the device
//     round trip, but no copy and no cache pollution.
//
// Functional: the page cache really caches (reads after writes return the
// written bytes; eviction is LRU). Timed: every operation returns the cost
// it would add to the calling thread, built from the same Calibration
// constants the framework variants use.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "core/calibration.hpp"

namespace dk::host {

/// Backing device interface: synchronous block access with a fixed cost.
struct BackingDevice {
  virtual ~BackingDevice() = default;
  virtual Nanos read_block(std::uint64_t offset,
                           std::span<std::uint8_t> out) = 0;
  virtual Nanos write_block(std::uint64_t offset,
                            std::span<const std::uint8_t> data) = 0;
  virtual std::uint64_t capacity() const = 0;
};

/// Simple in-memory backing device with a constant access cost.
class MemoryBackingDevice final : public BackingDevice {
 public:
  MemoryBackingDevice(std::uint64_t capacity, Nanos access_cost)
      : data_(capacity, 0), access_cost_(access_cost) {}

  Nanos read_block(std::uint64_t offset, std::span<std::uint8_t> out) override;
  Nanos write_block(std::uint64_t offset,
                    std::span<const std::uint8_t> data) override;
  std::uint64_t capacity() const override { return data_.size(); }

 private:
  std::vector<std::uint8_t> data_;
  Nanos access_cost_;
};

struct PageCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t page_faults = 0;  // mmap first-touch faults
  std::uint64_t syscalls = 0;
};

/// Client-side page cache + the four access methods.
class IoApis {
 public:
  static constexpr std::uint64_t kPageBytes = 4096;

  IoApis(BackingDevice& device, std::size_t cache_pages,
         core::Calibration calib = {});

  const PageCacheStats& stats() const { return stats_; }
  std::size_t cached_pages() const { return pages_.size(); }
  std::size_t dirty_pages() const;

  /// Buffered read(): syscall + cache lookup (+ device fill on miss) + copy.
  Nanos read(std::uint64_t offset, std::span<std::uint8_t> out);

  /// Buffered write(): syscall + copy into the cache; dirty pages write
  /// back on eviction or fsync.
  Nanos write(std::uint64_t offset, std::span<const std::uint8_t> data);

  /// fsync(): write back every dirty page.
  Nanos fsync();

  /// mmap access: page fault + device fill on first touch, then pure
  /// memory speed. `write_access` dirties the page.
  Nanos mmap_access(std::uint64_t offset, std::span<std::uint8_t> out,
                    bool write_access, std::span<const std::uint8_t> in = {});

  /// O_DIRECT read: device round trip, no cache, offset/length must be
  /// page-aligned (the real constraint).
  Result<Nanos> direct_read(std::uint64_t offset, std::span<std::uint8_t> out);

  /// libaio-style submission: returns the SUBMITTER-VISIBLE cost. With
  /// O_DIRECT the device time overlaps other work (only syscall cost is
  /// charged to the caller); buffered AIO silently degrades to synchronous
  /// (the §II critique) and charges the full buffered cost.
  Nanos aio_submit(bool direct, bool is_write, std::uint64_t offset,
                   std::span<std::uint8_t> buffer);

 private:
  struct Page {
    std::vector<std::uint8_t> bytes;
    bool dirty = false;
    std::list<std::uint64_t>::iterator lru_pos;
  };

  Page& fault_in(std::uint64_t page_index, Nanos& cost);
  void touch_lru(std::uint64_t page_index, Page& page);
  Nanos evict_if_needed();

  BackingDevice& device_;
  std::size_t capacity_pages_;
  core::Calibration calib_;
  std::map<std::uint64_t, Page> pages_;
  std::list<std::uint64_t> lru_;  // front == most recent
  PageCacheStats stats_;
};

}  // namespace dk::host
