#include "gf/gf256.hpp"

#include "common/check.hpp"
#include "gf/gf256_detail.hpp"

#ifdef __x86_64__
#include <tmmintrin.h>
#endif


namespace dk::gf {

namespace {

// Per-coefficient 256-entry product table, built lazily per call site would
// be wasteful; instead we precompute all 256 rows once (64 KiB), which is
// how high-throughput software RS implementations (ISA-L, jerasure with
// GF_MULT_TABLE) structure the hot loop.
struct MulTable {
  std::array<std::array<std::uint8_t, 256>, 256> row{};
  MulTable() {
    for (unsigned a = 0; a < 256; ++a)
      for (unsigned b = 0; b < 256; ++b)
        row[a][b] =
            mul(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b));
  }
};

const MulTable& mul_table() {
  static const MulTable t;
  return t;
}

}  // namespace

namespace detail {

void mul_add_region_table(std::uint8_t c, std::span<const std::uint8_t> src,
                          std::span<std::uint8_t> dst) {
  const auto& row = mul_table().row[c];
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] ^= row[src[i]];
}

#ifdef __x86_64__

bool mul_add_region_simd_available() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("ssse3");
}

// Split-nibble multiply (Plank, Greenan and Miller, FAST'13; the ISA-L
// technique): c*x == c*(x & 0x0f) ^ c*(x & 0xf0), and each half is a
// 16-entry table that pshufb looks up for 16 bytes at once from a register.
// Target-attributed rather than built with -mssse3 so the rest of the
// binary still runs on any x86-64.
__attribute__((target("ssse3"))) void mul_add_region_simd(
    std::uint8_t c, std::span<const std::uint8_t> src,
    std::span<std::uint8_t> dst) {
  const auto& row = mul_table().row[c];
  std::array<std::uint8_t, 16> lo{}, hi{};
  for (unsigned x = 0; x < 16; ++x) {
    lo[x] = row[x];
    hi[x] = row[x << 4];
  }
  const __m128i lo_tbl =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(lo.data()));
  const __m128i hi_tbl =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(hi.data()));
  const __m128i nibble = _mm_set1_epi8(0x0f);
  const std::uint8_t* in = src.data();
  std::uint8_t* out = dst.data();
  const std::size_t n = src.size();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i));
    const __m128i d =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(out + i));
    const __m128i low = _mm_and_si128(s, nibble);
    const __m128i high = _mm_and_si128(_mm_srli_epi64(s, 4), nibble);
    const __m128i p = _mm_xor_si128(_mm_shuffle_epi8(lo_tbl, low),
                                    _mm_shuffle_epi8(hi_tbl, high));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_xor_si128(d, p));
  }
  for (; i < n; ++i) out[i] ^= row[in[i]];
}

#else

bool mul_add_region_simd_available() { return false; }
void mul_add_region_simd(std::uint8_t c, std::span<const std::uint8_t> src,
                         std::span<std::uint8_t> dst) {
  mul_add_region_table(c, src, dst);
}

#endif

}  // namespace detail

void mul_add_region(std::uint8_t c, std::span<const std::uint8_t> src,
                    std::span<std::uint8_t> dst) {
  DK_CHECK(src.size() == dst.size());
  if (c == 0) return;
  if (c == 1) {
    xor_region(src, dst);
    return;
  }
  static const bool simd = detail::mul_add_region_simd_available();
  if (simd) {
    detail::mul_add_region_simd(c, src, dst);
  } else {
    detail::mul_add_region_table(c, src, dst);
  }
}

void mul_region(std::uint8_t c, std::span<const std::uint8_t> src,
                std::span<std::uint8_t> dst) {
  DK_CHECK(src.size() == dst.size());
  if (c == 0) {
    for (auto& b : dst) b = 0;
    return;
  }
  if (c == 1) {
    for (std::size_t i = 0; i < src.size(); ++i) dst[i] = src[i];
    return;
  }
  const auto& row = mul_table().row[c];
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] = row[src[i]];
}

void xor_region(std::span<const std::uint8_t> src,
                std::span<std::uint8_t> dst) {
  DK_CHECK(src.size() == dst.size());
  std::size_t i = 0;
  // Word-at-a-time XOR for the bulk of the region.
  for (; i + 8 <= src.size(); i += 8) {
    std::uint64_t a, b;
    __builtin_memcpy(&a, src.data() + i, 8);
    __builtin_memcpy(&b, dst.data() + i, 8);
    b ^= a;
    __builtin_memcpy(dst.data() + i, &b, 8);
  }
  for (; i < src.size(); ++i) dst[i] ^= src[i];
}

}  // namespace dk::gf
