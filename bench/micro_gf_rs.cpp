// Host-side microbenchmark (real CPU time): the GF(2^8) region kernel and
// Reed-Solomon split/encode/decode bandwidth — the software EC cost the
// RS-Encoder RTL kernel offloads.
#include <benchmark/benchmark.h>

#include <optional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "ec/reed_solomon.hpp"
#include "gf/gf256.hpp"

namespace {

using namespace dk;

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.below(256));
  return v;
}

// The region kernel in the 4+2 encode shape: the two parity rows of the
// generator times four data regions, written into two outputs. Bytes
// processed count the source bytes, as for BM_RsEncode.
void BM_MulRegions(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ec::ReedSolomon rs({4, 2, ec::GeneratorKind::vandermonde});
  std::vector<std::vector<std::uint8_t>> src;
  std::vector<std::vector<std::uint8_t>> dst(2, std::vector<std::uint8_t>(n));
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    src.push_back(random_bytes(n, seed));
  const std::span<const std::uint8_t> in[] = {src[0], src[1], src[2], src[3]};
  const std::span<std::uint8_t> out[] = {dst[0], dst[1]};
  const std::span<const std::uint8_t> coef(rs.generator().row(4), 2 * 4);
  for (auto _ : state) {
    gf::mul_regions(coef, in, out);
    benchmark::DoNotOptimize(dst[0].data());
    benchmark::DoNotOptimize(dst[1].data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * 4 * state.range(0));
}
BENCHMARK(BM_MulRegions)->Arg(1024)->Arg(32 * 1024);

void BM_RsEncode(benchmark::State& state) {
  ec::ReedSolomon rs({4, 2, ec::GeneratorKind::vandermonde});
  auto object = random_bytes(static_cast<std::size_t>(state.range(0)), 3);
  auto data = rs.split(object);
  for (auto _ : state) {
    auto coding = rs.encode(data);
    benchmark::DoNotOptimize(coding);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RsEncode)->Arg(4096)->Arg(128 * 1024)->Arg(1024 * 1024);

// The client's EC write path for one 128 kB payload: split into four data
// chunks, then encode the two parity chunks.
void BM_RsSplitEncode(benchmark::State& state) {
  const ec::ReedSolomon rs({4, 2, ec::GeneratorKind::vandermonde});
  const auto object = random_bytes(128 * 1024, 5);
  for (auto _ : state) {
    auto chunks = rs.split(object);
    auto coding = rs.encode(chunks);
    benchmark::DoNotOptimize(chunks);
    benchmark::DoNotOptimize(coding);
  }
  state.SetBytesProcessed(state.iterations() * 128 * 1024);
}
BENCHMARK(BM_RsSplitEncode);

void BM_RsDecodeTwoErasures(benchmark::State& state) {
  ec::ReedSolomon rs({4, 2, ec::GeneratorKind::vandermonde});
  auto object = random_bytes(static_cast<std::size_t>(state.range(0)), 4);
  auto data = rs.split(object);
  auto coding = rs.encode(data);
  std::vector<std::optional<ec::Chunk>> all;
  for (auto& c : data) all.emplace_back(c);
  for (auto& c : *coding) all.emplace_back(c);
  all[0].reset();
  all[2].reset();
  for (auto _ : state) {
    auto decoded = rs.decode(all);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RsDecodeTwoErasures)->Arg(4096)->Arg(128 * 1024);

}  // namespace

BENCHMARK_MAIN();
