#include "common/crc32c.hpp"

#include <array>
#include <cstring>

#include "common/crc32c_detail.hpp"

#ifdef __x86_64__
#include <nmmintrin.h>
#endif

namespace dk {
namespace {

// Reflected table for the Castagnoli polynomial. Built once at static-init
// time; constexpr so the compiler may fold it into .rodata.
constexpr std::array<std::uint32_t, 256> make_table() {
  // Reflected form of 0x1EDC6F41.
  constexpr std::uint32_t kPolyReflected = 0x82f63b78u;
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPolyReflected : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kTable = make_table();

}  // namespace

namespace detail {

std::uint32_t crc32c_table(std::span<const std::uint8_t> data,
                           std::uint32_t crc) {
  std::uint32_t state = crc ^ 0xffffffffu;
  for (const std::uint8_t byte : data) {
    state = kTable[(state ^ byte) & 0xffu] ^ (state >> 8);
  }
  return state ^ 0xffffffffu;
}

#ifdef __x86_64__

bool crc32c_hw_available() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

// The SSE4.2 crc32 instruction implements exactly this reflected
// Castagnoli CRC, so the register state is interchangeable with the table
// kernel's. Target-attributed rather than built with -msse4.2 so the rest
// of the binary still runs on any x86-64.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw(
    std::span<const std::uint8_t> data, std::uint32_t crc) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t state = crc ^ 0xffffffffu;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof word);
    state = _mm_crc32_u64(state, word);
  }
  auto state32 = static_cast<std::uint32_t>(state);
  for (; n > 0; ++p, --n) state32 = _mm_crc32_u8(state32, *p);
  return state32 ^ 0xffffffffu;
}

#else

bool crc32c_hw_available() { return false; }
std::uint32_t crc32c_hw(std::span<const std::uint8_t> data,
                        std::uint32_t crc) {
  return crc32c_table(data, crc);
}

#endif

}  // namespace detail

std::uint32_t crc32c(std::span<const std::uint8_t> data, std::uint32_t crc) {
  static const bool hw = detail::crc32c_hw_available();
  return hw ? detail::crc32c_hw(data, crc) : detail::crc32c_table(data, crc);
}

std::vector<std::uint32_t> block_checksums(std::span<const std::uint8_t> data,
                                           std::uint64_t base) {
  std::vector<std::uint32_t> out;
  std::uint64_t pos = 0;
  while (pos < data.size()) {
    const std::uint64_t block_end =
        (base + pos) / kChecksumBlockBytes * kChecksumBlockBytes +
        kChecksumBlockBytes;
    const std::uint64_t take =
        std::min<std::uint64_t>(data.size() - pos, block_end - (base + pos));
    out.push_back(crc32c(data.subspan(pos, take)));
    pos += take;
  }
  return out;
}

}  // namespace dk
