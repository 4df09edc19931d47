#pragma once
// The two kernels behind FioEngine's verify pattern, for tests that check one
// against the other. FioEngine picks one once per process.

#include <cstdint>
#include <span>

namespace dk::workload::detail {

/// Portable kernel, one lane step per 8-byte word: the reference, and the
/// path on CPUs without AVX2 and on non-x86 builds. Fills `out` with the
/// pattern of the block at `offset` (the definition is in fio.cpp).
void block_pattern_portable(std::uint64_t offset, std::uint64_t seed,
                            std::span<std::uint8_t> out);

/// True when this build has the AVX2 kernel and the CPU supports it.
bool block_pattern_avx2_available();

/// AVX2 kernel: the four lanes side by side in one register, 32 bytes per
/// step. Call only when block_pattern_avx2_available().
void block_pattern_avx2(std::uint64_t offset, std::uint64_t seed,
                        std::span<std::uint8_t> out);

}  // namespace dk::workload::detail
