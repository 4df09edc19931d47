#include "host/rbd.hpp"

#include <algorithm>

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

std::vector<RbdDevice::Extent> RbdDevice::extents(std::uint64_t offset,
                                                  std::uint64_t length) const {
  std::vector<Extent> out;
  while (length > 0) {
    const std::uint64_t obj_off = offset % spec_.object_size;
    const std::uint64_t in_obj =
        std::min<std::uint64_t>(length, spec_.object_size - obj_off);
    out.push_back(Extent{oid_of(offset), obj_off, in_obj});
    offset += in_obj;
    length -= in_obj;
  }
  return out;
}

void RbdDevice::aio_write(std::uint64_t offset,
                          std::span<const std::uint8_t> data,
                          rados::WriteStrategy strategy,
                          std::function<void(std::int32_t)> cb) {
  if (offset + data.size() > spec_.size_bytes) {
    cb(-static_cast<std::int32_t>(Errc::out_of_range));
    return;
  }
  ++stats_.writes;
  stats_.bytes_written += data.size();
  auto exts = extents(offset, data.size());
  DK_CHECK(!exts.empty());
  stats_.object_ops += exts.size();
  if (metrics_.writes) {
    metrics_.writes->inc();
    metrics_.bytes_written->inc(data.size());
    metrics_.object_ops->inc(exts.size());
  }

  struct State {
    unsigned remaining;
    std::int32_t total = 0;
    std::int32_t first_error = 0;
    std::function<void(std::int32_t)> cb;
  };
  auto state = std::make_shared<State>();
  state->remaining = static_cast<unsigned>(exts.size());
  state->cb = std::move(cb);

  std::uint64_t consumed = 0;
  for (const Extent& e : exts) {
    const auto part = data.subspan(consumed, e.len);
    consumed += e.len;
    const auto len = static_cast<std::int32_t>(e.len);
    client_.write(spec_.pool, e.oid, e.obj_off, {part.begin(), part.end()},
                  strategy, [state, len](Status s) {
                    if (!s.ok()) {
                      if (state->first_error == 0)
                        state->first_error =
                            -static_cast<std::int32_t>(s.code());
                    } else {
                      state->total += len;
                    }
                    if (--state->remaining == 0)
                      state->cb(state->first_error ? state->first_error
                                                   : state->total);
                  });
  }
}

void RbdDevice::aio_read(std::uint64_t offset, std::span<std::uint8_t> dst,
                         rados::ReadStrategy strategy,
                         std::function<void(Status)> done) {
  if (offset + dst.size() > spec_.size_bytes) {
    done(Status::Error(Errc::out_of_range, "read beyond image end"));
    return;
  }
  ++stats_.reads;
  stats_.bytes_read += dst.size();
  auto exts = extents(offset, dst.size());
  DK_CHECK(!exts.empty());
  stats_.object_ops += exts.size();
  if (metrics_.reads) {
    metrics_.reads->inc();
    metrics_.bytes_read->inc(dst.size());
    metrics_.object_ops->inc(exts.size());
  }

  struct State {
    unsigned remaining;
    Status first_error;
    std::function<void(Status)> done;
  };
  auto state = std::make_shared<State>();
  state->remaining = static_cast<unsigned>(exts.size());
  state->done = std::move(done);

  std::uint64_t consumed = 0;
  for (const Extent& e : exts) {
    const auto part = dst.subspan(consumed, e.len);
    consumed += e.len;
    client_.read(spec_.pool, e.oid, e.obj_off, e.len, strategy,
                 [state, part](Result<std::vector<std::uint8_t>> r) {
                   if (r.ok()) {
                     DK_CHECK(r->size() == part.size());
                     std::copy_n(r->begin(), std::min(r->size(), part.size()),
                                 part.begin());
                   } else if (state->first_error.ok()) {
                     state->first_error = r.status();
                   }
                   if (--state->remaining == 0)
                     state->done(state->first_error);
                 });
  }
}

void RbdDevice::aio_read(
    std::uint64_t offset, std::uint64_t length, rados::ReadStrategy strategy,
    std::function<void(Result<std::vector<std::uint8_t>>)> cb) {
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
