// RTL TCP/IP offload stack + CMAC model (§IV.D).
//
// DeLiBA-K replaces the HLS-based open-source TCP/IP block of DeLiBA-2 with
// Verilog TX/RX pipelines; the CMAC (100G-capable MAC used at 10G) runs at
// 260 MHz. This model is functional + timed:
//   * functional: TCP-style segmentation of a payload into MTU-bounded
//     segments with sequence numbers and a CRC32C payload digest, and
//     in-order reassembly with checksum verification on RX;
//   * timed: pipeline latency per packet = fixed header-processing cycles
//     plus one cycle per 64-byte datapath beat, at the CMAC clock.
// Frame-size limits follow the paper: 64-byte minimum packet, maximum
// configurable from 1518 (standard Ethernet) to 9018 (jumbo).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"

namespace dk::fpga {

constexpr double kCmacClockHz = 260e6;  // §IV.D
constexpr unsigned kDatapathBytes = 64;  // 512-bit AXI-stream beats
constexpr unsigned kHeaderCycles = 42;   // parse/build Ethernet+IP+TCP headers

struct TcpIpConfig {
  unsigned max_frame_bytes = 9018;  // jumbo (1518 for standard Ethernet)
};

constexpr unsigned kMinPacketBytes = 64;
constexpr unsigned kTcpIpHeaderBytes = 54;  // Eth(14) + IP(20) + TCP(20)

/// One TCP segment produced by the TX pipeline. `checksum` is a CRC32C over
/// the payload — the same digest the storage stack uses end-to-end (iSCSI
/// chose CRC32C over the Internet checksum for exactly this detection
/// strength). The per-header RFC 1071 sums live inside the 54-byte header
/// budget, which this model sizes but does not materialize byte-wise.
struct Segment {
  std::uint32_t seq = 0;
  std::uint32_t checksum = 0;
  std::vector<std::uint8_t> payload;
};

class TcpIpOffload {
 public:
  explicit TcpIpOffload(TcpIpConfig config = {});

  /// Max payload per segment under the configured frame limit.
  unsigned mss() const { return config_.max_frame_bytes - kTcpIpHeaderBytes; }

  /// TX path: segment a payload starting at sequence number `seq`.
  std::vector<Segment> segment(std::span<const std::uint8_t> payload,
                               std::uint32_t seq) const;

  /// RX path: verify checksums and reassemble contiguous payload starting
  /// at `expected_seq`. Fails on a checksum mismatch or a sequence gap.
  Result<std::vector<std::uint8_t>> reassemble(std::vector<Segment> segments,
                                               std::uint32_t expected_seq) const;

  /// Pipeline latency for one packet of `frame_bytes` through TX or RX.
  Nanos packet_latency(std::uint64_t frame_bytes) const;

  /// Total pipeline latency to emit/absorb a `payload_bytes` message
  /// (sum over its segments — the engine is store-and-forward per packet).
  Nanos message_latency(std::uint64_t payload_bytes) const;

  std::uint64_t segments_emitted() const { return tx_segments_; }

 private:
  TcpIpConfig config_;
  mutable std::uint64_t tx_segments_ = 0;
};

}  // namespace dk::fpga
