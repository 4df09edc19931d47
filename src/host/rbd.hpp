// RBD virtual-disk driver: presents a RADOS pool as a block device.
//
// Mirrors the Ceph RBD kernel driver DeLiBA-K integrates into UIFD: the
// image's linear byte range is striped over fixed-size RADOS objects
// (default 4 MiB); block requests are split at object boundaries and issued
// through the RadosClient with the framework-selected strategies. An I/O
// inside one object (every 4 kB I/O) is issued with no gather state.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "rados/client.hpp"

namespace dk::host {

struct RbdImageSpec {
  std::uint64_t size_bytes = 1 * GiB;
  std::uint64_t object_size = 4 * MiB;  // RBD default object size
  int pool = 0;
  std::uint32_t image_id = 0;  // namespaces oids of different images
};

struct RbdStats {
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t object_ops = 0;  // after striping
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
};

class RbdDevice {
 public:
  RbdDevice(rados::RadosClient& client, RbdImageSpec spec);

  const RbdImageSpec& spec() const { return spec_; }
  const RbdStats& stats() const { return stats_; }

  /// Asynchronous block write of `data`, copied before this returns;
  /// completion carries bytes written or error. An empty write fails with
  /// invalid_argument, one past the image end with out_of_range.
  void aio_write(std::uint64_t offset, std::span<const std::uint8_t> data,
                 rados::WriteStrategy strategy,
                 sim::UniqueFn<void(std::int32_t)> cb);

  /// Asynchronous block read of `length` bytes: `cb` gets the pages the
  /// cluster replied with, laid out for the image offset (a replicated
  /// read's are the store's own). An I/O that spans objects joins its
  /// extents in offset order. Range errors as for aio_write.
  void aio_read(std::uint64_t offset, std::uint64_t length,
                rados::ReadStrategy strategy, rados::ReadCallback cb);

  /// The same read, copied into a vector for `cb`.
  void aio_read(std::uint64_t offset, std::uint64_t length,
                rados::ReadStrategy strategy, rados::VectorReadCallback cb);

  /// Publish image activity under "<prefix>." (writes/reads/object_ops/
  /// bytes_written/bytes_read counters).
  void attach_metrics(MetricsRegistry& registry, const std::string& prefix);

  /// Object id for a byte offset (striping function).
  std::uint64_t oid_of(std::uint64_t offset) const {
    return (static_cast<std::uint64_t>(spec_.image_id) << 40) |
           (offset / spec_.object_size);
  }

 private:
  /// Range check, then stats, for an I/O of `length` bytes at `offset`:
  /// the number of object extents it spans, or the error it completes with.
  Result<unsigned> admit(std::uint64_t offset, std::uint64_t length,
                         bool is_write);
  /// The striping loop: `issue(oid, obj_off, pos, len)` for each object
  /// extent, where `pos` is the extent's position within the I/O.
  template <typename Issue>
  void stripe(std::uint64_t offset, std::uint64_t length, Issue issue) const;

  rados::RadosClient& client_;
  RbdImageSpec spec_;
  RbdStats stats_;

  struct MetricHandles {
    Counter* writes = nullptr;
    Counter* reads = nullptr;
    Counter* object_ops = nullptr;
    Counter* bytes_written = nullptr;
    Counter* bytes_read = nullptr;
  };
  MetricHandles metrics_;
};

}  // namespace dk::host
