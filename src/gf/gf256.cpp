#include "gf/gf256.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "gf/gf256_detail.hpp"

#ifdef __x86_64__
#include <immintrin.h>
#endif


namespace dk::gf {

namespace {

using Sources = std::span<const std::span<const std::uint8_t>>;
using Outputs = std::span<const std::span<std::uint8_t>>;

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

void mul_regions_table(std::span<const std::uint8_t> coef, Sources src,
                       Outputs dst) {
  const std::size_t k = src.size();
  for (std::size_t r = 0; r < dst.size(); ++r) {
    const std::span<std::uint8_t> out = dst[r];
    std::fill(out.begin(), out.end(), std::uint8_t{0});
    for (std::size_t j = 0; j < k; ++j) {
      const auto& row = mul_table().row[coef[r * k + j]];
      const std::span<const std::uint8_t> in = src[j];
      for (std::size_t i = 0; i < out.size(); ++i) out[i] ^= row[in[i]];
    }
  }
}

#ifdef __x86_64__

bool mul_regions_avx2_available() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}

namespace {

// Split-nibble multiply (Plank, Greenan and Miller, FAST'13; the ISA-L
// technique): c*x == c*(x & 0x0f) ^ c*(x & 0xf0), and each half is a
// 16-entry table that vpshufb looks up for 32 bytes at once (the table is
// broadcast to both 128-bit lanes).
struct NibbleTables {
  std::uint8_t lo[16];
  std::uint8_t hi[16];
};

// Outputs per pass. A pass keeps one accumulator per output in a register
// while it walks the sources, so each source vector is loaded and split once
// per pass and each output stored once; four accumulators plus the source,
// its two nibble vectors and the tables being applied fit the 16 ymm
// registers. Parity counts (m) above four take more than one pass.
constexpr std::size_t kRowsPerPass = 4;

// One pass over `Rows` outputs. tables[j * Rows + g] multiplies source j
// into output g. Target-attributed rather than built with -mavx2 so the
// rest of the binary still runs on any x86-64.
template <std::size_t Rows>
__attribute__((target("avx2"))) void mul_pass_avx2(
    const NibbleTables* tables, Sources src, std::uint8_t* const* out,
    std::size_t n) {
  const std::size_t k = src.size();
  const __m256i nibble = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i acc[Rows];
#pragma GCC unroll 4
    for (std::size_t g = 0; g < Rows; ++g) acc[g] = _mm256_setzero_si256();
    for (std::size_t j = 0; j < k; ++j) {
      const __m256i s = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(src[j].data() + i));
      const __m256i low = _mm256_and_si256(s, nibble);
      const __m256i high = _mm256_and_si256(_mm256_srli_epi64(s, 4), nibble);
      const NibbleTables* t = tables + j * Rows;
#pragma GCC unroll 4
      for (std::size_t g = 0; g < Rows; ++g) {
        const __m256i lo_tbl = _mm256_broadcastsi128_si256(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(t[g].lo)));
        const __m256i hi_tbl = _mm256_broadcastsi128_si256(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(t[g].hi)));
        acc[g] = _mm256_xor_si256(
            acc[g], _mm256_xor_si256(_mm256_shuffle_epi8(lo_tbl, low),
                                     _mm256_shuffle_epi8(hi_tbl, high)));
      }
    }
#pragma GCC unroll 4
    for (std::size_t g = 0; g < Rows; ++g)
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out[g] + i), acc[g]);
  }
  // A tail shorter than one vector: the same tables, a byte at a time.
  for (; i < n; ++i) {
    for (std::size_t g = 0; g < Rows; ++g) {
      std::uint8_t acc = 0;
      for (std::size_t j = 0; j < k; ++j) {
        const std::uint8_t x = src[j][i];
        const NibbleTables& t = tables[j * Rows + g];
        acc ^= t.lo[x & 0x0f] ^ t.hi[x >> 4];
      }
      out[g][i] = acc;
    }
  }
}

}  // namespace

void mul_regions_avx2(std::span<const std::uint8_t> coef, Sources src,
                      Outputs dst) {
  const std::size_t k = src.size();
  const std::size_t n = dst.empty() ? 0 : dst.front().size();
  // A pass fills the first k * rows entries before it reads any.
  std::array<NibbleTables, kFieldSize * kRowsPerPass> tables;
  for (std::size_t first = 0; first < dst.size(); first += kRowsPerPass) {
    const std::size_t rows = std::min(kRowsPerPass, dst.size() - first);
    std::array<std::uint8_t*, kRowsPerPass> out{};
    for (std::size_t g = 0; g < rows; ++g) {
      out[g] = dst[first + g].data();
      for (std::size_t j = 0; j < k; ++j) {
        const auto& row = mul_table().row[coef[(first + g) * k + j]];
        NibbleTables& t = tables[j * rows + g];
        for (unsigned x = 0; x < 16; ++x) {
          t.lo[x] = row[x];
          t.hi[x] = row[x << 4];
        }
      }
    }
    switch (rows) {
      case 1: mul_pass_avx2<1>(tables.data(), src, out.data(), n); break;
      case 2: mul_pass_avx2<2>(tables.data(), src, out.data(), n); break;
      case 3: mul_pass_avx2<3>(tables.data(), src, out.data(), n); break;
      default: mul_pass_avx2<4>(tables.data(), src, out.data(), n); break;
    }
  }
}

#else

bool mul_regions_avx2_available() { return false; }
void mul_regions_avx2(std::span<const std::uint8_t> coef, Sources src,
                      Outputs dst) {
  mul_regions_table(coef, src, dst);
}

#endif

}  // namespace detail

void mul_regions(std::span<const std::uint8_t> coef, Sources src,
                 Outputs dst) {
  const std::size_t n = dst.empty() ? 0 : dst.front().size();
  bool ok = src.size() <= kFieldSize && coef.size() == dst.size() * src.size();
  for (const auto& s : src) ok = ok && (dst.empty() || s.size() == n);
  for (const auto& d : dst) ok = ok && d.size() == n;
  // A release build counts a failed check and goes on, so never run a
  // kernel past the end of a region.
  DK_CHECK(ok) << "coefficient and region shapes disagree";
  if (!ok || dst.empty()) return;
  static const bool avx2 = detail::mul_regions_avx2_available();
  if (avx2) {
    detail::mul_regions_avx2(coef, src, dst);
  } else {
    detail::mul_regions_table(coef, src, dst);
  }
}

}  // namespace dk::gf
