#pragma once
// The two kernels behind gf::mul_add_region(), for tests that check one
// against the other. Other code calls gf::mul_add_region(), which handles
// c == 0 and c == 1 itself and picks a kernel once per process.

#include <cstdint>
#include <span>

namespace dk::gf::detail {

/// Portable table kernel, one byte per step: the reference, and the path on
/// CPUs without SSSE3 and on non-x86 builds.
void mul_add_region_table(std::uint8_t c, std::span<const std::uint8_t> src,
                          std::span<std::uint8_t> dst);

/// True when this build has the SSSE3 kernel and the CPU supports it.
bool mul_add_region_simd_available();

/// SSSE3 split-nibble kernel, 16 bytes per step. Call only when
/// mul_add_region_simd_available().
void mul_add_region_simd(std::uint8_t c, std::span<const std::uint8_t> src,
                         std::span<std::uint8_t> dst);

}  // namespace dk::gf::detail
