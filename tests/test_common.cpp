// Unit tests for src/common: units, RNG, histogram, ring buffers, status.
#include <gtest/gtest.h>

#include <set>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/crc32c.hpp"
#include "common/crc32c_detail.hpp"
#include "common/histogram.hpp"
#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/units.hpp"

namespace dk {
namespace {

TEST(Units, Conversions) {
  EXPECT_EQ(us(1.0), 1000);
  EXPECT_EQ(ms(1.0), 1'000'000);
  EXPECT_EQ(sec(1.0), 1'000'000'000);
  EXPECT_DOUBLE_EQ(to_us(1500), 1.5);
  EXPECT_DOUBLE_EQ(to_ms(2'500'000), 2.5);
}

TEST(Units, ThroughputHelpers) {
  // 1 MB in 1 second == 1 MB/s.
  EXPECT_DOUBLE_EQ(mb_per_sec(1'000'000, kSecond), 1.0);
  EXPECT_DOUBLE_EQ(iops(1000, kSecond), 1000.0);
  EXPECT_EQ(mb_per_sec(123, 0), 0.0);
}

TEST(Units, TransferTime) {
  // 1 GiB at 1 GiB/s == 1 s.
  EXPECT_EQ(transfer_time(GiB, static_cast<double>(GiB)), kSecond);
  EXPECT_EQ(transfer_time(0, 1e9), 0);
  // Nonzero work always takes at least 1 ns.
  EXPECT_GE(transfer_time(1, 1e30), 1);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, BelowIsInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformMeanApproximatesHalf) {
  Rng rng(3);
  double sum = 0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(5);
  double sum = 0;
  constexpr int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.3);
}

TEST(Histogram, BasicStats) {
  LatencyHistogram h;
  h.record(us(10));
  h.record(us(20));
  h.record(us(30));
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), us(10));
  EXPECT_EQ(h.max(), us(30));
  EXPECT_NEAR(h.mean(), us(20), us(0.5));
}

TEST(Histogram, PercentileAccuracy) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record(us(i));
  // 3% relative error budget from bucketing.
  EXPECT_NEAR(to_us(h.p50()), 500.0, 20.0);
  EXPECT_NEAR(to_us(h.p99()), 990.0, 40.0);
  EXPECT_LE(h.percentile(100.0), h.max());
}

TEST(Histogram, MergeCombinesCounts) {
  LatencyHistogram a, b;
  for (int i = 0; i < 100; ++i) a.record(us(10));
  for (int i = 0; i < 100; ++i) b.record(us(1000));
  a.merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_EQ(a.min(), us(10));
  EXPECT_EQ(a.max(), us(1000));
}

TEST(Histogram, ResetClearsEverything) {
  LatencyHistogram h;
  h.record(us(5));
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.percentile(99), 0);
}

TEST(Histogram, NegativeValuesClampToZero) {
  LatencyHistogram h;
  h.record(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_LE(h.p50(), 1);
}

TEST(RingBuffer, PushPopFifoOrder) {
  RingBuffer<int> rb(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(rb.push(i));
  EXPECT_TRUE(rb.full());
  EXPECT_FALSE(rb.push(99));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(rb.pop().value(), i);
  EXPECT_FALSE(rb.pop().has_value());
}

TEST(RingBuffer, CapacityRoundsToPowerOfTwo) {
  RingBuffer<int> rb(5);
  EXPECT_EQ(rb.capacity(), 8u);
}

TEST(RingBuffer, WrapAroundManyTimes) {
  RingBuffer<int> rb(4);
  for (int round = 0; round < 100; ++round) {
    EXPECT_TRUE(rb.push(round));
    EXPECT_EQ(rb.pop().value(), round);
  }
  EXPECT_TRUE(rb.empty());
}

TEST(SpscRing, SingleThreadedBatch) {
  SpscRing<int> ring(8);
  int in[5] = {1, 2, 3, 4, 5};
  EXPECT_EQ(ring.try_push_batch(in, 5), 5u);
  int out[8] = {};
  EXPECT_EQ(ring.try_pop_batch(out, 8), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(out[i], in[i]);
}

TEST(SpscRing, BatchPushRespectsCapacity) {
  SpscRing<int> ring(4);
  int in[10] = {};
  EXPECT_EQ(ring.try_push_batch(in, 10), 4u);
  EXPECT_EQ(ring.try_push_batch(in, 10), 0u);
}

TEST(SpscRing, CrossThreadStress) {
  SpscRing<std::uint64_t> ring(64);
  constexpr std::uint64_t kN = 200000;
  std::uint64_t sum = 0;
  std::thread consumer([&] {
    std::uint64_t got = 0;
    std::uint64_t v;
    while (got < kN) {
      if (ring.try_pop(v)) {
        sum += v;
        ++got;
      }
    }
  });
  for (std::uint64_t i = 1; i <= kN;) {
    if (ring.try_push(i)) ++i;
  }
  consumer.join();
  EXPECT_EQ(sum, kN * (kN + 1) / 2);
}

TEST(Status, OkAndErrorRoundTrip) {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  Status err = Status::Error(Errc::no_space, "disk full");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), Errc::no_space);
  EXPECT_EQ(err.to_string(), "no_space: disk full");
}

TEST(Result, HoldsValueOrStatus) {
  Result<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  Result<int> e(Errc::not_found, "nope");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), Errc::not_found);
}

using CrcKernel = std::uint32_t (*)(std::span<const std::uint8_t>,
                                    std::uint32_t);

// Every CRC-32C kernel this host can run: the dispatching entry point, the
// portable table kernel, and the three-stream SSE4.2 kernel when the CPU
// has it.
std::vector<std::pair<const char*, CrcKernel>> crc_kernels() {
  std::vector<std::pair<const char*, CrcKernel>> out = {
      {"dispatch", &crc32c}, {"table", &detail::crc32c_table}};
  if (detail::crc32c_hw_available())
    out.emplace_back("sse4.2 three-stream", &detail::crc32c_hw);
  return out;
}

// RFC 3720 appendix B.4 test vectors for CRC-32C — the contract the whole
// integrity subsystem (and the TCP offload's segment digest) rests on.
TEST(Crc32c, Rfc3720KnownVectors) {
  const std::vector<std::uint8_t> zeros(32, 0x00);
  const std::vector<std::uint8_t> ones(32, 0xff);
  std::vector<std::uint8_t> ascending(32), descending(32);
  for (unsigned i = 0; i < 32; ++i) {
    ascending[i] = static_cast<std::uint8_t>(i);
    descending[i] = static_cast<std::uint8_t>(31 - i);
  }
  for (const auto& [name, crc] : crc_kernels()) {
    SCOPED_TRACE(name);
    EXPECT_EQ(crc(zeros, 0), 0x8a9136aau);
    EXPECT_EQ(crc(ones, 0), 0x62a8ab43u);
    EXPECT_EQ(crc(ascending, 0), 0x46dd794eu);
    EXPECT_EQ(crc(descending, 0), 0x113fdb5cu);
  }
}

TEST(Crc32c, Rfc3720IscsiReadCommandVector) {
  const std::vector<std::uint8_t> pdu = {
      0x01, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
      0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x18, 0x28, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
  };
  for (const auto& [name, crc] : crc_kernels()) {
    SCOPED_TRACE(name);
    EXPECT_EQ(crc(pdu, 0), 0xd9963a56u);
  }
}

TEST(Crc32c, HardwareKernelMatchesTableAtEveryLengthAndOffset) {
  // Every length from 0 to 8200 bytes (two 4 kB blocks plus a tail that is
  // not a whole word), and every length within 16 bytes of 3, 4 and 32
  // three-stream superblocks and of 128 KiB, at all eight start offsets of
  // a word, each from a non-zero seed chained from the previous sweep's
  // result. The table reference is computed once at the start of each range
  // and then grows one byte per length, using crc(ab) == crc(b, crc(a)).
  if (!detail::crc32c_hw_available())
    GTEST_SKIP() << "this host has no SSE4.2 CRC-32C kernel";
  constexpr std::size_t kSuperblock = 3 * detail::kCrc32cStreamBytes;
  constexpr std::size_t kReach = 16;
  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, 8200},
      {3 * kSuperblock - kReach, 3 * kSuperblock + kReach},
      {4 * kSuperblock - kReach, 4 * kSuperblock + kReach},
      {32 * kSuperblock - kReach, 32 * kSuperblock + kReach},
      {128 * KiB - kReach, 128 * KiB + kReach}};
  std::vector<std::uint8_t> buf(128 * KiB + kReach + 8);
  Rng rng(3720);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());

  std::uint32_t seed = 0x9e3779b9u;
  for (const auto& [lo, hi] : ranges) {
    for (std::size_t start = 0; start < 8; ++start) {
      std::uint32_t want = detail::crc32c_table({&buf[start], lo}, seed);
      for (std::size_t len = lo; len <= hi; ++len) {
        const std::span<const std::uint8_t> data(buf.data() + start, len);
        ASSERT_EQ(detail::crc32c_hw(data, seed), want)
            << "start " << start << ", length " << len << ", seed " << seed;
        if (len < hi)
          want = detail::crc32c_table({&buf[start + len], 1}, want);
      }
      seed = want;
    }
  }
}

TEST(Crc32c, ChainingMatchesOneShot) {
  std::vector<std::uint8_t> buf(1000);
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<std::uint8_t>(i * 7 + 3);
  const std::span<const std::uint8_t> whole(buf);
  EXPECT_EQ(crc32c(whole.subspan(300), crc32c(whole.first(300))),
            crc32c(whole));
  EXPECT_EQ(crc32c({}), 0u) << "empty input is the identity";
}

TEST(Crc32c, BlockChecksumsSplitAtBlockBoundaries) {
  std::vector<std::uint8_t> buf(2 * kChecksumBlockBytes + 100);
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<std::uint8_t>(i);
  const std::span<const std::uint8_t> whole(buf);

  const auto sums = block_checksums(whole);
  ASSERT_EQ(sums.size(), 3u);
  EXPECT_EQ(sums[0], crc32c(whole.first(kChecksumBlockBytes)));
  EXPECT_EQ(sums[1],
            crc32c(whole.subspan(kChecksumBlockBytes, kChecksumBlockBytes)));
  EXPECT_EQ(sums[2], crc32c(whole.subspan(2 * kChecksumBlockBytes)))
      << "short tail block gets its own checksum";

  std::vector<std::uint32_t> into(3);
  block_checksums(whole, into);
  EXPECT_EQ(into, sums) << "the span form writes the same checksums";
  EXPECT_TRUE(block_checksums_match(whole, sums));
  into[2] ^= 1;
  EXPECT_FALSE(block_checksums_match(whole, into)) << "one wrong block";
  EXPECT_FALSE(block_checksums_match(whole, std::span(sums).first(2)))
      << "a cover missing a block";
}

}  // namespace
}  // namespace dk
