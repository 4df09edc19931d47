#pragma once
// The two kernels behind dk::crc32c(), for tests that check one against the
// other. Other code calls dk::crc32c(), which picks a kernel once per
// process and counts the pass.

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/crc32c.hpp"

namespace dk::detail {

/// Bytes in each of the three streams of the SSE4.2 kernel's superblock:
/// the most whole words that three streams fit into one checksum block
/// (3 × 1,360 B, leaving a 16 B tail of a 4 kB block).
inline constexpr std::size_t kCrc32cStreamBytes =
    kChecksumBlockBytes / 3 / 8 * 8;

/// Portable table kernel, one byte per step: the reference, and the path on
/// CPUs without SSE4.2 and on non-x86 builds.
std::uint32_t crc32c_table(std::span<const std::uint8_t> data,
                           std::uint32_t crc);

/// True when this build has the SSE4.2 kernel and the CPU supports it.
bool crc32c_hw_available();

/// SSE4.2 `crc32` kernel. It runs three independent eight-byte chains over
/// the thirds of each 3 × kCrc32cStreamBytes superblock and joins them with
/// table-driven shifts by x^(8·kCrc32cStreamBytes) mod P, the method of
/// Gopal et al., "Fast CRC Computation for iSCSI Polynomial Using CRC32
/// Instruction" (Intel, 2011); one chain of words, then bytes, finishes
/// the tail. Call only when crc32c_hw_available().
std::uint32_t crc32c_hw(std::span<const std::uint8_t> data,
                        std::uint32_t crc);

/// dk::crc32c() without counting a pass in crc32c_passes(): for audits of a
/// remembered CRC that only debug builds make, so the count is the same in
/// every build type.
std::uint32_t crc32c_uncounted(std::span<const std::uint8_t> data,
                               std::uint32_t crc = 0);

}  // namespace dk::detail
