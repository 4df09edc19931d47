#include "fpga/tcpip.hpp"

#include <algorithm>

#include "common/crc32c.hpp"

namespace dk::fpga {

TcpIpOffload::TcpIpOffload(TcpIpConfig config) : config_(config) {}

std::vector<Segment> TcpIpOffload::segment(
    std::span<const std::uint8_t> payload, std::uint32_t seq) const {
  std::vector<Segment> out;
  const unsigned payload_per_seg = mss();
  std::size_t off = 0;
  do {
    const std::size_t n =
        std::min<std::size_t>(payload_per_seg, payload.size() - off);
    Segment s;
    s.seq = seq + static_cast<std::uint32_t>(off);
    s.payload.assign(payload.begin() + static_cast<std::ptrdiff_t>(off),
                     payload.begin() + static_cast<std::ptrdiff_t>(off + n));
    s.checksum = crc32c(s.payload);
    out.push_back(std::move(s));
    off += n;
    ++tx_segments_;
  } while (off < payload.size());
  return out;
}

Result<std::vector<std::uint8_t>> TcpIpOffload::reassemble(
    std::vector<Segment> segments, std::uint32_t expected_seq) const {
  std::sort(segments.begin(), segments.end(),
            [](const Segment& a, const Segment& b) { return a.seq < b.seq; });
  std::vector<std::uint8_t> out;
  std::uint32_t next = expected_seq;
  for (auto& s : segments) {
    if (s.seq != next)
      return Status::Error(Errc::corrupted, "sequence gap in RX stream");
    if (crc32c(s.payload) != s.checksum)
      return Status::Error(Errc::corrupted, "segment CRC32C mismatch");
    out.insert(out.end(), s.payload.begin(), s.payload.end());
    next += static_cast<std::uint32_t>(s.payload.size());
  }
  return out;
}

Nanos TcpIpOffload::packet_latency(std::uint64_t frame_bytes) const {
  if (frame_bytes < kMinPacketBytes) frame_bytes = kMinPacketBytes;
  const std::uint64_t beats =
      (frame_bytes + kDatapathBytes - 1) / kDatapathBytes;
  const double cycles = static_cast<double>(kHeaderCycles + beats);
  return static_cast<Nanos>(cycles / kCmacClockHz * kSecond);
}

Nanos TcpIpOffload::message_latency(std::uint64_t payload_bytes) const {
  const unsigned payload_per_seg = mss();
  const std::uint64_t segs =
      payload_bytes == 0 ? 1
                         : (payload_bytes + payload_per_seg - 1) / payload_per_seg;
  const std::uint64_t full_frames = payload_bytes / payload_per_seg;
  const std::uint64_t tail_payload = payload_bytes % payload_per_seg;
  Nanos total = static_cast<Nanos>(full_frames) *
                packet_latency(payload_per_seg + kTcpIpHeaderBytes);
  if (tail_payload || segs == 1)
    total += packet_latency(tail_payload + kTcpIpHeaderBytes);
  return total;
}

}  // namespace dk::fpga
