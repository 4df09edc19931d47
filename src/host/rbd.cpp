#include "host/rbd.hpp"

#include <algorithm>
#include <memory>

#include "common/check.hpp"

namespace dk::host {

RbdDevice::RbdDevice(rados::RadosClient& client, RbdImageSpec spec)
    : client_(client), spec_(spec) {
  // Objects start on page boundaries, so an object offset and its image
  // offset share a page layout and a read's extents join page by page.
  DK_CHECK(spec_.object_size > 0 && spec_.object_size % kPageBytes == 0)
      << "object size " << spec_.object_size << " is not whole pages";
}

void RbdDevice::attach_metrics(MetricsRegistry& registry,
                               const std::string& prefix) {
  metrics_.writes = &registry.counter(prefix + ".writes");
  metrics_.reads = &registry.counter(prefix + ".reads");
  metrics_.object_ops = &registry.counter(prefix + ".object_ops");
  metrics_.bytes_written = &registry.counter(prefix + ".bytes_written");
  metrics_.bytes_read = &registry.counter(prefix + ".bytes_read");
}

Result<unsigned> RbdDevice::admit(std::uint64_t offset, std::uint64_t length,
                                 bool is_write) {
  if (length == 0) return Status::Error(Errc::invalid_argument, "empty I/O");
  if (offset > spec_.size_bytes || length > spec_.size_bytes - offset)
    return Status::Error(Errc::out_of_range, "I/O beyond image end");
  const auto extents = static_cast<unsigned>(
      (offset + length - 1) / spec_.object_size - offset / spec_.object_size +
      1);
  (is_write ? stats_.writes : stats_.reads) += 1;
  (is_write ? stats_.bytes_written : stats_.bytes_read) += length;
  stats_.object_ops += extents;
  if (metrics_.writes) {
    (is_write ? metrics_.writes : metrics_.reads)->inc();
    (is_write ? metrics_.bytes_written : metrics_.bytes_read)->inc(length);
    metrics_.object_ops->inc(extents);
  }
  return extents;
}

template <typename Issue>
void RbdDevice::stripe(std::uint64_t offset, std::uint64_t length,
                       Issue issue) const {
  std::uint64_t pos = 0;
  while (pos < length) {
    const std::uint64_t obj_off = (offset + pos) % spec_.object_size;
    const std::uint64_t in_obj =
        std::min<std::uint64_t>(length - pos, spec_.object_size - obj_off);
    issue(oid_of(offset + pos), obj_off, pos, in_obj);
    pos += in_obj;
  }
}

void RbdDevice::aio_write(std::uint64_t offset,
                          std::span<const std::uint8_t> data,
                          rados::WriteStrategy strategy,
                          sim::UniqueFn<void(std::int32_t)> cb) {
  const Result<unsigned> extents = admit(offset, data.size(), true);
  if (!extents.ok()) {
    cb(-static_cast<std::int32_t>(extents.status().code()));
    return;
  }
  // An I/O that spans objects completes once, after its last extent.
  struct Gather {
    unsigned remaining;
    std::int32_t total = 0;
    std::int32_t first_error = 0;
    sim::UniqueFn<void(std::int32_t)> cb;
  };
  std::shared_ptr<Gather> gather;
  if (*extents > 1)
    gather = std::make_shared<Gather>(Gather{*extents, 0, 0, std::move(cb)});
  stripe(offset, data.size(), [&](std::uint64_t oid, std::uint64_t obj_off,
                                  std::uint64_t pos, std::uint64_t len) {
    const auto part = data.subspan(pos, len);
    const auto n = static_cast<std::int32_t>(len);
    client_.write(spec_.pool, oid, obj_off, part, strategy,
                  [n, gather, cb = gather ? nullptr : std::move(cb)](Status s) {
                    const std::int32_t res =
                        s.ok() ? n : -static_cast<std::int32_t>(s.code());
                    if (!gather) {
                      cb(res);
                      return;
                    }
                    if (res < 0 && gather->first_error == 0)
                      gather->first_error = res;
                    if (res >= 0) gather->total += res;
                    if (--gather->remaining == 0)
                      gather->cb(gather->first_error ? gather->first_error
                                                     : gather->total);
                  });
  });
}

void RbdDevice::aio_read(std::uint64_t offset, std::uint64_t length,
                         rados::ReadStrategy strategy,
                         rados::ReadCallback cb) {
  const Result<unsigned> extents = admit(offset, length, false);
  if (!extents.ok()) {
    cb(extents.status());
    return;
  }
  if (*extents == 1) {
    // Inside one object (every 4 kB I/O): the reply's pages go straight to
    // the caller.
    client_.read(spec_.pool, oid_of(offset), offset % spec_.object_size,
                 length, strategy, std::move(cb));
    return;
  }
  // Extents may complete in any order; each keeps its pages in its slot
  // until the last one lands, and the slots then join in offset order.
  struct Gather {
    unsigned remaining;
    Status first_error;
    std::vector<Payload> parts;
    rados::ReadCallback cb;
  };
  auto gather = std::make_shared<Gather>(
      Gather{*extents, Status::Ok(), std::vector<Payload>(*extents),
             std::move(cb)});
  std::size_t index = 0;
  stripe(offset, length, [&](std::uint64_t oid, std::uint64_t obj_off,
                             std::uint64_t, std::uint64_t len) {
    client_.read(spec_.pool, oid, obj_off, len, strategy,
                 [gather, i = index++](Result<Payload> r) {
                   if (r.ok())
                     gather->parts[i] = std::move(*r);
                   else if (gather->first_error.ok())
                     gather->first_error = r.status();
                   if (--gather->remaining != 0) return;
                   if (!gather->first_error.ok()) {
                     gather->cb(gather->first_error);
                     return;
                   }
                   Payload joined = std::move(gather->parts[0]);
                   for (std::size_t p = 1; p < gather->parts.size(); ++p)
                     joined.append(gather->parts[p]);
                   gather->cb(std::move(joined));
                 });
  });
}

void RbdDevice::aio_read(std::uint64_t offset, std::uint64_t length,
                         rados::ReadStrategy strategy,
                         rados::VectorReadCallback cb) {
  aio_read(offset, length, strategy, rados::copy_to_vector(std::move(cb)));
}

}  // namespace dk::host
