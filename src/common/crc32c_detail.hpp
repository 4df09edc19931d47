#pragma once
// The two kernels behind dk::crc32c(), for tests that check one against the
// other. Other code calls dk::crc32c(), which picks a kernel once per
// process.

#include <cstdint>
#include <span>

namespace dk::detail {

/// Portable table kernel, one byte per step: the reference, and the path on
/// CPUs without SSE4.2 and on non-x86 builds.
std::uint32_t crc32c_table(std::span<const std::uint8_t> data,
                           std::uint32_t crc);

/// True when this build has the SSE4.2 kernel and the CPU supports it.
bool crc32c_hw_available();

/// SSE4.2 `crc32` kernel, eight bytes per step. Call only when
/// crc32c_hw_available().
std::uint32_t crc32c_hw(std::span<const std::uint8_t> data,
                        std::uint32_t crc);

}  // namespace dk::detail
