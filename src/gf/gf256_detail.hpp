#pragma once
// The two kernels behind gf::mul_regions(), for tests that check one against
// the other. Other code calls gf::mul_regions(), which checks the shapes and
// picks a kernel once per process. Both kernels take shapes it has checked.

#include <cstdint>
#include <span>

namespace dk::gf::detail {

/// Portable table kernel, one byte per step: the reference, and the path on
/// CPUs without AVX2 and on non-x86 builds.
void mul_regions_table(std::span<const std::uint8_t> coef,
                       std::span<const std::span<const std::uint8_t>> src,
                       std::span<const std::span<std::uint8_t>> dst);

/// True when this build has the AVX2 kernel and the CPU supports it.
bool mul_regions_avx2_available();

/// AVX2 split-nibble kernel, 32 bytes per step for up to four outputs at
/// once. Call only when mul_regions_avx2_available().
void mul_regions_avx2(std::span<const std::uint8_t> coef,
                      std::span<const std::span<const std::uint8_t>> src,
                      std::span<const std::span<std::uint8_t>> dst);

}  // namespace dk::gf::detail
