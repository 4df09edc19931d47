// Host-side microbenchmark (real CPU time): CRC-32C latency and bandwidth
// through the dispatching entry point at a 4 kB checksum block, the length
// every integrity pass of a 4 kB workload checksums, and at 512 B (shorter
// than one three-stream superblock, so one chain) and 128 kB (32
// superblocks and a 512 B tail); plus the portable table kernel at 4 kB as
// the reference.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <span>
#include <vector>

#include "common/crc32c.hpp"
#include "common/crc32c_detail.hpp"
#include "common/rng.hpp"

namespace {

using namespace dk;

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next());
  return v;
}

// Each iteration chains the previous result, so no call starts before the
// last one ends: the loop reports one call's latency, as a caller that
// checksums one block at a time sees it.
void BM_Crc32c(benchmark::State& state) {
  const auto data = random_bytes(static_cast<std::size_t>(state.range(0)), 1);
  std::uint32_t crc = 0;
  for (auto _ : state) {
    crc = crc32c(data, crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(512)->Arg(4096)->Arg(128 * 1024);

void BM_Crc32cTable(benchmark::State& state) {
  const auto data = random_bytes(static_cast<std::size_t>(state.range(0)), 2);
  std::uint32_t crc = 0;
  for (auto _ : state) {
    crc = detail::crc32c_table(data, crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32cTable)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
