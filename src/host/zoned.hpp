// Zoned block device model: host-managed SMR and NVMe ZNS semantics.
//
// The paper's UIFD driver "provid[es] support for a range of storage
// devices, including emerging local storage such as ZNS and SMR disks"
// (§III-B; the authors ran tests on an SMR disk). This module implements
// the zoned-storage contract those devices impose:
//   * the LBA space is split into fixed-size zones;
//   * writes within a zone must land exactly at the zone's write pointer
//     (sequential-write-required), else the drive rejects them;
//   * zone append places data at the WP atomically and returns where it
//     landed (the ZNS "Zone Append" command);
//   * zones are reset (WP back to start) or finished (made read-only full);
//   * at most `max_open_zones` zones may be open simultaneously.
// Data is really stored; reads below the write pointer return it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "uring/io_uring.hpp"

namespace dk::host {

enum class ZoneState : std::uint8_t { empty, open, full };

struct ZoneInfo {
  std::uint64_t start = 0;          // first byte of the zone
  std::uint64_t capacity = 0;       // writable bytes
  std::uint64_t write_pointer = 0;  // absolute byte offset of the WP
  ZoneState state = ZoneState::empty;
};

struct ZonedConfig {
  std::uint64_t zone_bytes = 4 * MiB;
  unsigned zone_count = 64;
  unsigned max_open_zones = 8;
};

struct ZonedStats {
  std::uint64_t writes = 0;
  std::uint64_t appends = 0;
  std::uint64_t resets = 0;
  std::uint64_t unaligned_rejects = 0;  // writes not at the WP
};

class ZonedDevice {
 public:
  explicit ZonedDevice(ZonedConfig config = {});

  const ZonedConfig& config() const { return config_; }
  const ZonedStats& stats() const { return stats_; }
  std::uint64_t capacity() const {
    return config_.zone_bytes * config_.zone_count;
  }
  unsigned open_zones() const { return open_count_; }

  const ZoneInfo& zone(unsigned index) const { return zones_[index]; }
  std::vector<ZoneInfo> report_zones() const { return zones_; }
  unsigned zone_of(std::uint64_t offset) const {
    return static_cast<unsigned>(offset / config_.zone_bytes);
  }

  /// Sequential write: `offset` must equal the zone's write pointer.
  Status write(std::uint64_t offset, std::span<const std::uint8_t> data);

  /// Zone append: data lands at the WP; returns the byte offset it got.
  Result<std::uint64_t> append(unsigned zone_index,
                               std::span<const std::uint8_t> data);

  /// Reads may cover any range; bytes above a write pointer read as zero
  /// (conventional zoned-device behaviour is an error — we zero-fill and
  /// count, which suits the block-cache use case).
  std::vector<std::uint8_t> read(std::uint64_t offset,
                                 std::uint64_t length) const;

  Status reset_zone(unsigned zone_index);
  Status finish_zone(unsigned zone_index);

 private:
  Status open_for_write(unsigned zone_index);

  ZonedConfig config_;
  std::vector<ZoneInfo> zones_;
  std::vector<std::uint8_t> data_;
  unsigned open_count_ = 0;
  ZonedStats stats_;
};

/// uring backend over a zoned device: writes that violate the WP contract
/// surface as negative CQE results, exactly how a zoned UIFD queue would
/// report them to the DMQ layer.
class ZonedBackend final : public uring::Backend {
 public:
  explicit ZonedBackend(ZonedDevice& device) : device_(device) {}

  void submit_io(const uring::Sqe& sqe, uring::CompleteFn complete) override;

 private:
  ZonedDevice& device_;
};

}  // namespace dk::host
