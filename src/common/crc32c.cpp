#include "common/crc32c.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/check.hpp"
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

namespace {

// Register state after `bytes` zero bytes follow `state`: multiplication by
// x^(8·bytes) mod P. The register is linear in its start state and its
// input, so crc(s, AB) == shift(crc(s, A)) ^ crc(0, B) with |B| = bytes.
// The four tables hold the shift of each byte lane. An entry is the XOR of
// the shifts of its set bits, so the constexpr build shifts only the 32
// single-bit states: about 32 × `bytes` table steps.
struct ShiftTables {
  std::array<std::array<std::uint32_t, 256>, 4> lane{};

  std::uint32_t operator()(std::uint32_t state) const {
    return lane[0][state & 0xffu] ^ lane[1][(state >> 8) & 0xffu] ^
           lane[2][(state >> 16) & 0xffu] ^ lane[3][state >> 24];
  }
};

constexpr ShiftTables make_shift(std::size_t bytes) {
  std::array<std::uint32_t, 32> bit_shift{};
  for (std::size_t bit = 0; bit < 32; ++bit) {
    std::uint32_t state = 1u << bit;
    for (std::size_t i = 0; i < bytes; ++i)
      state = kTable[state & 0xffu] ^ (state >> 8);
    bit_shift[bit] = state;
  }
  ShiftTables tables;
  for (std::size_t lane = 0; lane < 4; ++lane) {
    for (std::size_t byte = 0; byte < 256; ++byte) {
      std::uint32_t shifted = 0;
      for (std::size_t bit = 0; bit < 8; ++bit)
        if ((byte >> bit) & 1u) shifted ^= bit_shift[8 * lane + bit];
      tables.lane[lane][byte] = shifted;
    }
  }
  return tables;
}

constexpr ShiftTables kShift = make_shift(kCrc32cStreamBytes);

inline std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t word = 0;
  std::memcpy(&word, p, sizeof word);
  return word;
}

// One superblock of three consecutive kCrc32cStreamBytes streams, each its
// own `crc32` chain, so the three run in parallel instead of each step
// waiting for the last; then joined as shift(shift(a) ^ b) ^ c.
__attribute__((target("sse4.2"))) inline std::uint32_t superblock(
    const std::uint8_t* p, std::uint32_t state) {
  constexpr std::size_t kStream = kCrc32cStreamBytes;
  static_assert(kStream % 8 == 0, "streams are whole words");
  std::uint64_t a = state;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  for (std::size_t i = 0; i < kStream; i += 8) {
    a = _mm_crc32_u64(a, load64(p + i));
    b = _mm_crc32_u64(b, load64(p + kStream + i));
    c = _mm_crc32_u64(c, load64(p + 2 * kStream + i));
  }
  return kShift(kShift(static_cast<std::uint32_t>(a)) ^
                static_cast<std::uint32_t>(b)) ^
         static_cast<std::uint32_t>(c);
}

}  // namespace

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
  std::uint32_t state = crc ^ 0xffffffffu;
  for (; n >= 3 * kCrc32cStreamBytes;
       p += 3 * kCrc32cStreamBytes, n -= 3 * kCrc32cStreamBytes)
    state = superblock(p, state);
  std::uint64_t wide = state;
  for (; n >= 8; p += 8, n -= 8) wide = _mm_crc32_u64(wide, load64(p));
  state = static_cast<std::uint32_t>(wide);
  for (; n > 0; ++p, --n) state = _mm_crc32_u8(state, *p);
  return state ^ 0xffffffffu;
}

#else

bool crc32c_hw_available() { return false; }
std::uint32_t crc32c_hw(std::span<const std::uint8_t> data,
                        std::uint32_t crc) {
  return crc32c_table(data, crc);
}

#endif

std::uint32_t crc32c_uncounted(std::span<const std::uint8_t> data,
                               std::uint32_t crc) {
  static const bool hw = crc32c_hw_available();
  return hw ? crc32c_hw(data, crc) : crc32c_table(data, crc);
}

}  // namespace detail

namespace {
thread_local std::uint64_t t_passes = 0;
}  // namespace

std::uint32_t crc32c(std::span<const std::uint8_t> data, std::uint32_t crc) {
  ++t_passes;
  return detail::crc32c_uncounted(data, crc);
}

std::uint64_t crc32c_passes() { return t_passes; }

namespace {

std::size_t block_count(std::size_t bytes) {
  return (bytes + kChecksumBlockBytes - 1) / kChecksumBlockBytes;
}

std::uint32_t block_checksum(std::span<const std::uint8_t> data,
                             std::size_t block) {
  const std::size_t pos = block * kChecksumBlockBytes;
  return crc32c(data.subspan(
      pos, std::min<std::size_t>(kChecksumBlockBytes, data.size() - pos)));
}

}  // namespace

void block_checksums(std::span<const std::uint8_t> data,
                     std::span<std::uint32_t> out) {
  const std::size_t blocks = block_count(data.size());
  DK_CHECK(out.size() == blocks)
      << out.size() << " checksum slots for " << blocks << " blocks";
  for (std::size_t i = 0; i < std::min(blocks, out.size()); ++i)
    out[i] = block_checksum(data, i);
}

std::vector<std::uint32_t> block_checksums(std::span<const std::uint8_t> data) {
  std::vector<std::uint32_t> out(block_count(data.size()));
  block_checksums(data, out);
  return out;
}

bool block_checksums_match(std::span<const std::uint8_t> data,
                           std::span<const std::uint32_t> sums) {
  if (sums.size() != block_count(data.size())) return false;
  for (std::size_t i = 0; i < sums.size(); ++i)
    if (block_checksum(data, i) != sums[i]) return false;
  return true;
}

}  // namespace dk
