// Tests for GF(2^8) arithmetic, matrix algebra, and Reed-Solomon coding.
#include <gtest/gtest.h>

#include <array>
#include <numeric>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "ec/reed_solomon.hpp"
#include "gf/gf256.hpp"
#include "gf/gf256_detail.hpp"
#include "gf/matrix.hpp"

namespace dk {
namespace {

TEST(Gf256, AdditionIsXor) {
  EXPECT_EQ(gf::add(0x53, 0xCA), 0x53 ^ 0xCA);
  EXPECT_EQ(gf::add(7, 7), 0);
}

TEST(Gf256, MultiplicativeIdentityAndZero) {
  for (unsigned a = 0; a < 256; ++a) {
    EXPECT_EQ(gf::mul(static_cast<std::uint8_t>(a), 1), a);
    EXPECT_EQ(gf::mul(static_cast<std::uint8_t>(a), 0), 0);
  }
}

TEST(Gf256, KnownProduct) {
  // In GF(2^8)/0x11d: 0x80 * 2 = 0x100, reduced by the primitive polynomial
  // to 0x100 ^ 0x11d == 0x1d. And 2 is a generator: 2^255 == 1.
  EXPECT_EQ(gf::mul(0x80, 0x02), 0x1d);
  EXPECT_EQ(gf::pow(2, 255), 1);
  EXPECT_EQ(gf::mul(0x53, gf::inv(0x53)), 0x01);
}

TEST(Gf256, EveryNonzeroHasInverse) {
  for (unsigned a = 1; a < 256; ++a) {
    const auto ai = gf::inv(static_cast<std::uint8_t>(a));
    EXPECT_EQ(gf::mul(static_cast<std::uint8_t>(a), ai), 1) << "a=" << a;
  }
}

TEST(Gf256, MultiplicationCommutesAndAssociates) {
  Rng rng(123);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.below(256));
    const auto b = static_cast<std::uint8_t>(rng.below(256));
    const auto c = static_cast<std::uint8_t>(rng.below(256));
    EXPECT_EQ(gf::mul(a, b), gf::mul(b, a));
    EXPECT_EQ(gf::mul(gf::mul(a, b), c), gf::mul(a, gf::mul(b, c)));
    // Distributivity.
    EXPECT_EQ(gf::mul(a, gf::add(b, c)),
              gf::add(gf::mul(a, b), gf::mul(a, c)));
  }
}

TEST(Gf256, PowMatchesRepeatedMul) {
  for (unsigned a = 1; a < 256; a += 17) {
    std::uint8_t acc = 1;
    for (unsigned e = 0; e < 10; ++e) {
      EXPECT_EQ(gf::pow(static_cast<std::uint8_t>(a), e), acc);
      acc = gf::mul(acc, static_cast<std::uint8_t>(a));
    }
  }
}

using Regions = std::vector<std::vector<std::uint8_t>>;

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.below(256));
  return v;
}

/// The product every kernel must match, from scalar gf::mul: `want` holds
/// the outputs' buffers, and [dst_off, dst_off + len) of each is replaced
/// by its row of `coef` times the sources' [src_off, src_off + len).
void scalar_product(std::span<const std::uint8_t> coef, const Regions& src,
                    std::size_t src_off, std::size_t len, Regions& want,
                    std::size_t dst_off) {
  for (std::size_t r = 0; r < want.size(); ++r)
    for (std::size_t i = 0; i < len; ++i) {
      std::uint8_t acc = 0;
      for (std::size_t j = 0; j < src.size(); ++j)
        acc ^= gf::mul(coef[r * src.size() + j], src[j][src_off + i]);
      want[r][dst_off + i] = acc;
    }
}

using RegionKernel = void (*)(std::span<const std::uint8_t>,
                              std::span<const std::span<const std::uint8_t>>,
                              std::span<const std::span<std::uint8_t>>);

// Every region kernel this host can run: the dispatching entry point, the
// portable table kernel, and the AVX2 kernel when the CPU has it.
std::vector<std::pair<const char*, RegionKernel>> region_kernels() {
  std::vector<std::pair<const char*, RegionKernel>> out = {
      {"dispatch", &gf::mul_regions},
      {"table", &gf::detail::mul_regions_table}};
  if (gf::detail::mul_regions_avx2_available())
    out.emplace_back("avx2", &gf::detail::mul_regions_avx2);
  return out;
}

/// Runs `kernel` on `src` into stale copies of `dst` and compares every
/// byte of every output buffer, the bytes around each region included.
void expect_kernel_matches_scalar(RegionKernel kernel,
                                  std::span<const std::uint8_t> coef,
                                  const Regions& src, std::size_t src_off,
                                  std::size_t len, const Regions& dst,
                                  std::size_t dst_off) {
  Regions want = dst;
  scalar_product(coef, src, src_off, len, want, dst_off);
  Regions got = dst;
  std::vector<std::span<const std::uint8_t>> in;
  for (const auto& b : src) in.push_back(std::span(b).subspan(src_off, len));
  std::vector<std::span<std::uint8_t>> out;
  for (auto& b : got) out.push_back(std::span(b).subspan(dst_off, len));
  kernel(coef, in, out);
  EXPECT_EQ(got, want) << dst.size() << "x" << src.size() << " len=" << len
                       << " src_off=" << src_off << " dst_off=" << dst_off;
}

TEST(Gf256, RegionOpsMatchScalar) {
  // The public entry point on the 4+2 parity shape, stale outputs included.
  Rng rng(9);
  Regions src, dst;
  for (int j = 0; j < 4; ++j) src.push_back(random_bytes(rng, 257));
  for (int r = 0; r < 2; ++r) dst.push_back(random_bytes(rng, 257));
  const std::vector<std::uint8_t> coef = {0x37, 1, 0, 0xff, 2, 0x8e, 0x1d, 1};
  expect_kernel_matches_scalar(&gf::mul_regions, coef, src, 0, 257, dst, 0);
}

TEST(Gf256, RegionKernelsMatchScalarAtEveryLengthAndOffset) {
  // Every coefficient at every length up to three 32-byte vectors plus a
  // tail, then every start offset inside a vector at every such length,
  // with sources and outputs misaligned differently, must match the scalar
  // product byte for byte. A coefficient only picks the kernel's tables,
  // and the offsets only move its loads and stores, so the two sweeps need
  // not be crossed.
  constexpr std::size_t kVector = 32;
  constexpr std::size_t kMaxLen = 3 * kVector + kVector - 1;
  Rng rng(41);
  const Regions src = {random_bytes(rng, kMaxLen + kVector)};
  const Regions dst = {random_bytes(rng, kMaxLen + kVector)};
  Regions got = dst, want = dst;
  std::array<std::span<const std::uint8_t>, 1> in;
  std::array<std::span<std::uint8_t>, 1> out;
  const auto check = [&](RegionKernel kernel, std::uint8_t coef,
                         std::size_t off, std::size_t dst_off,
                         std::size_t len) {
    got[0] = dst[0];
    want[0] = dst[0];
    scalar_product({&coef, 1}, src, off, len, want, dst_off);
    in[0] = std::span(src[0]).subspan(off, len);
    out[0] = std::span(got[0]).subspan(dst_off, len);
    kernel({&coef, 1}, in, out);
    return got == want;
  };
  for (const auto& [name, kernel] : region_kernels()) {
    SCOPED_TRACE(name);
    for (unsigned c = 0; c < 256; ++c)
      for (std::size_t len = 0; len <= kMaxLen; ++len)
        ASSERT_TRUE(check(kernel, static_cast<std::uint8_t>(c), 1, 30, len))
            << "c=" << c << " len=" << len;
    for (std::size_t off = 0; off < kVector; ++off)
      for (std::size_t len = 0; len <= kMaxLen; ++len)
        ASSERT_TRUE(check(kernel, 0x8e, off, kVector - 1 - off, len))
            << "off=" << off << " len=" << len;
  }
}

TEST(Gf256, RegionKernelsMatchScalarAcrossRowGroups) {
  // rows x sources shapes around the AVX2 kernel's four-output passes: one
  // output, a full pass, two passes over eight sources, and passes of
  // four plus one and four plus two over odd source counts.
  constexpr std::pair<std::size_t, std::size_t> kShapes[] = {
      {1, 1}, {2, 4}, {4, 8}, {5, 9}, {6, 12}};
  constexpr std::size_t kLengths[] = {0, 1, 31, 32, 33, 100, 4096 + 13};
  Rng rng(43);
  for (const auto& [name, kernel] : region_kernels()) {
    SCOPED_TRACE(name);
    for (const auto& [rows, sources] : kShapes) {
      const std::vector<std::uint8_t> coef = random_bytes(rng, rows * sources);
      for (const std::size_t len : kLengths) {
        Regions src, dst;
        for (std::size_t j = 0; j < sources; ++j)
          src.push_back(random_bytes(rng, len + 3));
        for (std::size_t r = 0; r < rows; ++r)
          dst.push_back(random_bytes(rng, len + 9));
        expect_kernel_matches_scalar(kernel, coef, src, 3, len, dst, 5);
      }
    }
  }
}

TEST(GfMatrix, IdentityMultiplication) {
  auto i4 = gf::Matrix::identity(4);
  auto v = gf::Matrix::systematic_vandermonde(4, 2);
  auto top = v.select_rows({0, 1, 2, 3});
  EXPECT_EQ(top, i4) << "systematic generator top block must be identity";
}

TEST(GfMatrix, CauchyTopBlockIsIdentity) {
  auto g = gf::Matrix::cauchy(5, 3);
  EXPECT_EQ(g.select_rows({0, 1, 2, 3, 4}), gf::Matrix::identity(5));
}

TEST(GfMatrix, InversionRoundTrip) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    gf::Matrix m(5, 5);
    for (std::size_t r = 0; r < 5; ++r)
      for (std::size_t c = 0; c < 5; ++c)
        m.at(r, c) = static_cast<std::uint8_t>(rng.below(256));
    auto inv = m.inverted();
    if (!inv.ok()) continue;  // singular draw; skip
    EXPECT_EQ(m.multiply(*inv), gf::Matrix::identity(5));
  }
}

TEST(GfMatrix, SingularMatrixDetected) {
  gf::Matrix m(3, 3);  // all zeros
  EXPECT_FALSE(m.inverted().ok());
}

TEST(GfMatrix, VandermondeAnyKRowsInvertible) {
  // The MDS property: every k-subset of generator rows is invertible.
  constexpr std::size_t k = 4, m = 2;
  auto g = gf::Matrix::systematic_vandermonde(k, m);
  std::vector<std::size_t> idx(k + m);
  std::iota(idx.begin(), idx.end(), 0);
  // Enumerate all C(6,4) = 15 subsets.
  for (std::size_t a = 0; a < k + m; ++a)
    for (std::size_t b = a + 1; b < k + m; ++b) {
      std::vector<std::size_t> rows;
      for (std::size_t i = 0; i < k + m; ++i)
        if (i != a && i != b) rows.push_back(i);
      EXPECT_TRUE(g.select_rows(rows).inverted().ok())
          << "dropped rows " << a << "," << b;
    }
}

class RsRoundTrip
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned, ec::GeneratorKind>> {};

TEST_P(RsRoundTrip, EncodeDecodeAllErasurePatterns) {
  const auto [k, m, kind] = GetParam();
  ec::ReedSolomon rs({k, m, kind});
  Rng rng(1000 + k * 10 + m);
  std::vector<std::uint8_t> object(4096 + 13);  // non-multiple of k
  for (auto& b : object) b = static_cast<std::uint8_t>(rng.below(256));

  auto data = rs.split(object);
  auto coding = rs.encode(data);
  ASSERT_TRUE(coding.ok());

  std::vector<std::optional<ec::Chunk>> all;
  for (const auto& c : data) all.emplace_back(c);
  for (const auto& c : *coding) all.emplace_back(c);

  // Erase every possible pair (m == 2) or single (m == 1), then decode.
  const unsigned total = k + m;
  for (unsigned e1 = 0; e1 < total; ++e1) {
    for (unsigned e2 = e1 + (m >= 2 ? 1 : 0); e2 < (m >= 2 ? total : e1 + 1);
         ++e2) {
      auto damaged = all;
      damaged[e1].reset();
      if (m >= 2) damaged[e2].reset();
      auto decoded = rs.decode(damaged);
      ASSERT_TRUE(decoded.ok()) << "erased " << e1 << "," << e2;
      EXPECT_EQ(rs.assemble(*decoded, 0, object.size()), object);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, RsRoundTrip,
    ::testing::Values(
        std::make_tuple(2u, 1u, ec::GeneratorKind::vandermonde),
        std::make_tuple(4u, 2u, ec::GeneratorKind::vandermonde),
        std::make_tuple(4u, 2u, ec::GeneratorKind::cauchy),
        std::make_tuple(6u, 3u, ec::GeneratorKind::vandermonde),
        std::make_tuple(8u, 4u, ec::GeneratorKind::cauchy),
        std::make_tuple(10u, 6u, ec::GeneratorKind::cauchy)));

TEST(ReedSolomon, TooManyErasuresFails) {
  ec::ReedSolomon rs({4, 2, ec::GeneratorKind::vandermonde});
  std::vector<std::uint8_t> object(1024, 0xAB);
  auto data = rs.split(object);
  auto coding = rs.encode(data);
  ASSERT_TRUE(coding.ok());
  std::vector<std::optional<ec::Chunk>> all;
  for (const auto& c : data) all.emplace_back(c);
  for (const auto& c : *coding) all.emplace_back(c);
  all[0].reset();
  all[1].reset();
  all[2].reset();  // 3 erasures > m=2
  EXPECT_FALSE(rs.decode(all).ok());
}

TEST(ReedSolomon, SplitPadsAndAssembleTruncates) {
  ec::ReedSolomon rs({4, 2, ec::GeneratorKind::vandermonde});
  std::vector<std::uint8_t> object(10, 0x42);
  auto data = rs.split(object);
  ASSERT_EQ(data.size(), 4u);
  EXPECT_EQ(data[0].size(), 3u);  // ceil(10/4)
  EXPECT_EQ(rs.assemble(data, 0, object.size()), object);
}

TEST(ReedSolomon, EncodeRejectsWrongChunkCount) {
  ec::ReedSolomon rs({4, 2, ec::GeneratorKind::vandermonde});
  std::vector<ec::Chunk> three(3, ec::Chunk(16, 0));
  EXPECT_FALSE(rs.encode(three).ok());
}

TEST(ReedSolomon, EncodeOpsScalesWithKM) {
  ec::ReedSolomon a({4, 2, ec::GeneratorKind::vandermonde});
  ec::ReedSolomon b({8, 4, ec::GeneratorKind::vandermonde});
  EXPECT_GT(b.encode_ops(4096), a.encode_ops(4096));
  EXPECT_EQ(a.encode_ops(4096), 2ull * 4 * 1024);
}

}  // namespace
}  // namespace dk
