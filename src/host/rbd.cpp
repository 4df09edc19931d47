#include "host/rbd.hpp"

#include <algorithm>
#include <memory>

#include "common/check.hpp"

namespace dk::host {

RbdDevice::RbdDevice(rados::RadosClient& client, RbdImageSpec spec)
    : client_(client), spec_(spec) {
  DK_CHECK(spec_.object_size > 0);
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

void RbdDevice::aio_read(std::uint64_t offset, std::span<std::uint8_t> dst,
                         rados::ReadStrategy strategy,
                         sim::UniqueFn<void(Status)> done) {
  const Result<unsigned> extents = admit(offset, dst.size(), false);
  if (!extents.ok()) {
    done(extents.status());
    return;
  }
  struct Gather {
    unsigned remaining;
    Status first_error;
    sim::UniqueFn<void(Status)> done;
  };
  std::shared_ptr<Gather> gather;
  if (*extents > 1)
    gather = std::make_shared<Gather>(
        Gather{*extents, Status::Ok(), std::move(done)});
  stripe(offset, dst.size(), [&](std::uint64_t oid, std::uint64_t obj_off,
                                 std::uint64_t pos, std::uint64_t len) {
    client_.read(spec_.pool, oid, obj_off, len, strategy,
                 [part = dst.subspan(pos, len), gather,
                  done = gather ? nullptr : std::move(done)](
                     Result<std::vector<std::uint8_t>> r) {
                   if (r.ok()) {
                     DK_CHECK(r->size() == part.size());
                     std::copy_n(r->begin(), std::min(r->size(), part.size()),
                                 part.begin());
                   }
                   if (!gather) {
                     done(r.status());
                     return;
                   }
                   if (!r.ok() && gather->first_error.ok())
                     gather->first_error = r.status();
                   if (--gather->remaining == 0)
                     gather->done(gather->first_error);
                 });
  });
}

void RbdDevice::aio_read(std::uint64_t offset, std::uint64_t length,
                         rados::ReadStrategy strategy,
                         rados::ReadCallback cb) {
  // The vector moves into the completion; its storage, which `dst` views,
  // stays where it is.
  std::vector<std::uint8_t> buf(length);
  const std::span<std::uint8_t> dst(buf);
  aio_read(offset, dst, strategy,
           [buf = std::move(buf), cb = std::move(cb)](Status s) mutable {
             if (s.ok())
               cb(std::move(buf));
             else
               cb(std::move(s));
           });
}

}  // namespace dk::host
