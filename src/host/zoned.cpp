#include "host/zoned.hpp"

#include <algorithm>
#include <cstring>

namespace dk::host {

ZonedDevice::ZonedDevice(ZonedConfig config)
    : config_(config), data_(capacity(), 0) {
  zones_.resize(config_.zone_count);
  for (unsigned z = 0; z < config_.zone_count; ++z) {
    zones_[z].start = static_cast<std::uint64_t>(z) * config_.zone_bytes;
    zones_[z].capacity = config_.zone_bytes;
    zones_[z].write_pointer = zones_[z].start;
    zones_[z].state = ZoneState::empty;
  }
}

Status ZonedDevice::open_for_write(unsigned zone_index) {
  ZoneInfo& zone = zones_[zone_index];
  if (zone.state == ZoneState::full)
    return Status::Error(Errc::no_space, "zone is full");
  if (zone.state == ZoneState::empty) {
    if (open_count_ >= config_.max_open_zones)
      return Status::Error(Errc::busy, "max open zones reached");
    zone.state = ZoneState::open;
    ++open_count_;
  }
  return Status::Ok();
}

Status ZonedDevice::write(std::uint64_t offset,
                          std::span<const std::uint8_t> data) {
  if (offset + data.size() > capacity())
    return Status::Error(Errc::out_of_range, "write beyond device");
  const unsigned z = zone_of(offset);
  ZoneInfo& zone = zones_[z];
  if (offset + data.size() > zone.start + zone.capacity)
    return Status::Error(Errc::invalid_argument, "write crosses zone border");
  if (offset != zone.write_pointer) {
    ++stats_.unaligned_rejects;
    return Status::Error(Errc::invalid_argument,
                         "write not at zone write pointer");
  }
  Status s = open_for_write(z);
  if (!s.ok()) return s;
  std::copy(data.begin(), data.end(),
            data_.begin() + static_cast<std::ptrdiff_t>(offset));
  zone.write_pointer += data.size();
  ++stats_.writes;
  if (zone.write_pointer == zone.start + zone.capacity) {
    zone.state = ZoneState::full;
    --open_count_;
  }
  return Status::Ok();
}

Result<std::uint64_t> ZonedDevice::append(unsigned zone_index,
                                          std::span<const std::uint8_t> data) {
  if (zone_index >= zones_.size())
    return Status::Error(Errc::out_of_range, "no such zone");
  ZoneInfo& zone = zones_[zone_index];
  if (zone.write_pointer + data.size() > zone.start + zone.capacity)
    return Status::Error(Errc::no_space, "append exceeds zone capacity");
  const std::uint64_t landed = zone.write_pointer;
  Status s = write(landed, data);
  if (!s.ok()) return s;
  --stats_.writes;  // accounted as an append instead
  ++stats_.appends;
  return landed;
}

std::vector<std::uint8_t> ZonedDevice::read(std::uint64_t offset,
                                            std::uint64_t length) const {
  std::vector<std::uint8_t> out(length, 0);
  if (offset >= capacity()) return out;
  const std::uint64_t n = std::min(length, capacity() - offset);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t pos = offset + i;
    const ZoneInfo& zone = zones_[zone_of(pos)];
    // Bytes at/above the WP read back as zero.
    if (pos < zone.write_pointer) out[i] = data_[pos];
  }
  return out;
}

Status ZonedDevice::reset_zone(unsigned zone_index) {
  if (zone_index >= zones_.size())
    return Status::Error(Errc::out_of_range, "no such zone");
  ZoneInfo& zone = zones_[zone_index];
  if (zone.state == ZoneState::open) --open_count_;
  zone.write_pointer = zone.start;
  zone.state = ZoneState::empty;
  std::fill(data_.begin() + static_cast<std::ptrdiff_t>(zone.start),
            data_.begin() + static_cast<std::ptrdiff_t>(zone.start +
                                                        zone.capacity),
            0);
  ++stats_.resets;
  return Status::Ok();
}

Status ZonedDevice::finish_zone(unsigned zone_index) {
  if (zone_index >= zones_.size())
    return Status::Error(Errc::out_of_range, "no such zone");
  ZoneInfo& zone = zones_[zone_index];
  if (zone.state == ZoneState::open) --open_count_;
  zone.write_pointer = zone.start + zone.capacity;
  zone.state = ZoneState::full;
  return Status::Ok();
}

void ZonedBackend::submit_io(const uring::Sqe& sqe,
                             uring::CompleteFn complete) {
  using uring::Opcode;
  switch (sqe.opcode) {
    case Opcode::nop:
    case Opcode::fsync:
      complete(0);
      return;
    case Opcode::read: {
      auto* buf = reinterpret_cast<std::uint8_t*>(sqe.addr);
      if (!buf) {
        complete(-static_cast<std::int32_t>(Errc::invalid_argument));
        return;
      }
      auto data = device_.read(sqe.off, sqe.len);
      std::memcpy(buf, data.data(), data.size());
      complete(static_cast<std::int32_t>(sqe.len));
      return;
    }
    case Opcode::write: {
      const auto* buf = reinterpret_cast<const std::uint8_t*>(sqe.addr);
      if (!buf) {
        complete(-static_cast<std::int32_t>(Errc::invalid_argument));
        return;
      }
      const Status s = device_.write(sqe.off, {buf, sqe.len});
      complete(s.ok() ? static_cast<std::int32_t>(sqe.len)
                      : -static_cast<std::int32_t>(s.code()));
      return;
    }
    default:
      complete(-static_cast<std::int32_t>(Errc::unsupported));
  }
}

}  // namespace dk::host
