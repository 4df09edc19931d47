#pragma once
// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected) — the checksum iSCSI
// (RFC 3720), Ceph BlueStore, and btrfs use for data blocks. On x86-64 CPUs
// with SSE4.2 it runs on the `crc32` instruction as three interleaved
// eight-byte chains joined by a table shift; elsewhere a byte-at-a-time
// table kernel computes the same values. The kernel is picked once per
// process from CPUID (crc32c_detail.hpp); the choice changes the
// simulator's wall-clock cost, never a checksum value.
//
// The integrity subsystem checksums payloads in fixed-size blocks so a
// corrupted object localises to a block instead of poisoning the whole read.

#include <cstdint>
#include <span>
#include <vector>

namespace dk {

// Block granularity for all per-object checksum metadata (Ceph's default
// csum block size).
inline constexpr std::uint64_t kChecksumBlockBytes = 4096;

// CRC-32C over `data`. `crc` chains a previous return value so a buffer can
// be checksummed in pieces: crc32c(b, crc32c(a)) == crc32c(ab). Init/xorout
// (0xffffffff) are handled internally; pass the previous *result*, not raw
// register state.
std::uint32_t crc32c(std::span<const std::uint8_t> data,
                     std::uint32_t crc = 0);

// crc32c() calls this thread has made: the checksum passes over payload
// bytes, which tests pin per I/O.
std::uint64_t crc32c_passes();

// One CRC per kChecksumBlockBytes chunk of `data` (the last chunk may be
// short), written to `out`, which holds one entry per chunk.
void block_checksums(std::span<const std::uint8_t> data,
                     std::span<std::uint32_t> out);

// The same checksums in a new vector.
std::vector<std::uint32_t> block_checksums(std::span<const std::uint8_t> data);

// True when `sums` equals block_checksums(data), checked chunk by chunk
// without building the list.
bool block_checksums_match(std::span<const std::uint8_t> data,
                           std::span<const std::uint32_t> sums);

}  // namespace dk
