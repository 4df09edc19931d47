// GF(2^8) arithmetic over the AES-friendly primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the field used by Ceph's jerasure
// Reed-Solomon backend. Tables are built once at namespace-scope constant
// initialization, so scalar operations are branch-light table lookups.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace dk::gf {

constexpr unsigned kFieldSize = 256;
constexpr unsigned kPrimitivePoly = 0x11d;

namespace detail {

struct Tables {
  // exp_ is doubled so exp[logA + logB] needs no modular reduction.
  std::array<std::uint8_t, 2 * kFieldSize> exp{};
  std::array<std::uint8_t, kFieldSize> log{};

  constexpr Tables() {
    unsigned x = 1;
    for (unsigned i = 0; i < kFieldSize - 1; ++i) {
      exp[i] = static_cast<std::uint8_t>(x);
      log[x] = static_cast<std::uint8_t>(i);
      x <<= 1;
      if (x & 0x100) x ^= kPrimitivePoly;
    }
    for (unsigned i = kFieldSize - 1; i < 2 * kFieldSize; ++i)
      exp[i] = exp[i - (kFieldSize - 1)];
    log[0] = 0;  // log(0) is undefined; callers must special-case zero.
  }
};

inline constexpr Tables kTables{};

}  // namespace detail

constexpr std::uint8_t add(std::uint8_t a, std::uint8_t b) {
  return a ^ b;
}
constexpr std::uint8_t sub(std::uint8_t a, std::uint8_t b) {
  return a ^ b;  // characteristic 2: subtraction == addition
}

constexpr std::uint8_t mul(std::uint8_t a, std::uint8_t b) {
  if (a == 0 || b == 0) return 0;
  return detail::kTables.exp[detail::kTables.log[a] + detail::kTables.log[b]];
}

constexpr std::uint8_t inv(std::uint8_t a) {
  // a^(254) == a^{-1}; via logs: exp[255 - log a].
  return a == 0 ? 0
                : detail::kTables.exp[(kFieldSize - 1) - detail::kTables.log[a]];
}

constexpr std::uint8_t div(std::uint8_t a, std::uint8_t b) {
  if (a == 0) return 0;
  return mul(a, inv(b));
}

constexpr std::uint8_t pow(std::uint8_t a, unsigned e) {
  std::uint8_t r = 1;
  while (e) {
    if (e & 1) r = mul(r, a);
    a = mul(a, a);
    e >>= 1;
  }
  return r;
}

/// dst[r][i] = sum over j of coef[r * src.size() + j] * src[j][i]: a
/// coefficient matrix times a column of regions, the product behind
/// Reed-Solomon encode (parity rows times the data chunks) and decode (the
/// inverted survivor rows times the survivors). `coef` is row-major,
/// dst.size() rows by src.size() columns, with at most kFieldSize columns.
/// Every region has the same length; each output is overwritten and must not
/// overlap a source. On x86-64 CPUs with AVX2 a split-nibble kernel computes
/// up to four outputs per pass, 32 bytes per step; elsewhere a table loop
/// computes the same bytes. The kernel is picked once per process from CPUID
/// (gf256_detail.hpp).
void mul_regions(std::span<const std::uint8_t> coef,
                 std::span<const std::span<const std::uint8_t>> src,
                 std::span<const std::span<std::uint8_t>> dst);

}  // namespace dk::gf
