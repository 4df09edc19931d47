#include "workload/fio.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <vector>

#include "workload/fio_detail.hpp"

#ifdef __x86_64__
#include <immintrin.h>
#endif

namespace dk::workload {

std::string_view rw_name(RwMode mode) {
  switch (mode) {
    case RwMode::seq_read: return "seq-read";
    case RwMode::seq_write: return "seq-write";
    case RwMode::rand_read: return "rand-read";
    case RwMode::rand_write: return "rand-write";
    case RwMode::rand_rw: return "rand-rw";
  }
  return "?";
}

bool is_write(RwMode mode) {
  return mode == RwMode::seq_write || mode == RwMode::rand_write;
}

bool is_random(RwMode mode) {
  return mode == RwMode::rand_read || mode == RwMode::rand_write ||
         mode == RwMode::rand_rw;
}

namespace detail {

namespace {

constexpr unsigned kLanes = 4;
constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;  // SplitMix64's step

}  // namespace

void block_pattern_portable(std::uint64_t offset, std::uint64_t seed,
                            std::span<std::uint8_t> out) {
  // Rng(x) takes its state from the four SplitMix64 draws after x, and each
  // draw adds kGolden, so lane l's Rng starts 4l draws into the stream.
  const std::uint64_t base = seed ^ (offset * kGolden);
  std::array<Rng, kLanes> lanes = {Rng(base), Rng(base + 4 * kGolden),
                                   Rng(base + 8 * kGolden),
                                   Rng(base + 12 * kGolden)};
  // One word from each lane per round; the fixed inner trip count lets the
  // compiler keep the four states in registers.
  const std::size_t n = out.size();
  std::size_t i = 0;
  for (; i + 8 * kLanes <= n; i += 8 * kLanes) {
    for (unsigned l = 0; l < kLanes; ++l) {
      const std::uint64_t word = lanes[l].next();
      std::memcpy(out.data() + i + 8 * l, &word, 8);
    }
  }
  for (unsigned l = 0; i < n; ++l, i += 8) {
    const std::uint64_t word = lanes[l].next();
    std::memcpy(out.data() + i, &word, std::min<std::size_t>(8, n - i));
  }
}

#ifdef __x86_64__

bool block_pattern_avx2_available() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}

namespace {

// Word i of every lane's xoshiro256** state: lane l in 64-bit element l.
struct LaneState {
  __m256i s0, s1, s2, s3;
};

template <int K>
__attribute__((target("avx2"))) inline __m256i rotl_avx2(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi64(x, K),
                         _mm256_srli_epi64(x, 64 - K));
}

// Rng::next() on four lanes at once. AVX2 has no 64-bit multiply, so x * 5
// and x * 9 are a shift and an add.
__attribute__((target("avx2"))) inline __m256i next_avx2(LaneState& s) {
  const __m256i times5 = _mm256_add_epi64(_mm256_slli_epi64(s.s1, 2), s.s1);
  const __m256i rot = rotl_avx2<7>(times5);
  const __m256i result = _mm256_add_epi64(_mm256_slli_epi64(rot, 3), rot);
  const __m256i t = _mm256_slli_epi64(s.s1, 17);
  s.s2 = _mm256_xor_si256(s.s2, s.s0);
  s.s3 = _mm256_xor_si256(s.s3, s.s1);
  s.s1 = _mm256_xor_si256(s.s1, s.s2);
  s.s0 = _mm256_xor_si256(s.s0, s.s3);
  s.s2 = _mm256_xor_si256(s.s2, t);
  s.s3 = rotl_avx2<45>(s.s3);
  return result;
}

}  // namespace

// Cache-line aligned: this kernel fills every write payload and every
// verified read's expectation, and where its loop falls against 64-byte
// boundaries moved all three perfbench workloads by 2-5 % when unrelated
// code before it shrank.
__attribute__((target("avx2"), aligned(64))) void block_pattern_avx2(
    std::uint64_t offset, std::uint64_t seed, std::span<std::uint8_t> out) {
  // words[4i + l] is word i of lane l's state; lane l takes SplitMix64
  // draws 4l to 4l + 3, as Rng's seeding does.
  std::array<std::uint64_t, 4 * kLanes> words{};
  SplitMix64 seeder(seed ^ (offset * kGolden));
  for (unsigned l = 0; l < kLanes; ++l)
    for (unsigned i = 0; i < 4; ++i) words[4 * i + l] = seeder.next();
  const auto* state = reinterpret_cast<const __m256i*>(words.data());
  LaneState s{_mm256_loadu_si256(state), _mm256_loadu_si256(state + 1),
              _mm256_loadu_si256(state + 2), _mm256_loadu_si256(state + 3)};
  std::uint8_t* p = out.data();
  const std::size_t n = out.size();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32)
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + i), next_avx2(s));
  if (i < n) {
    std::array<std::uint8_t, 32> last{};
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(last.data()), next_avx2(s));
    std::memcpy(p + i, last.data(), n - i);
  }
}

#else

bool block_pattern_avx2_available() { return false; }
void block_pattern_avx2(std::uint64_t offset, std::uint64_t seed,
                        std::span<std::uint8_t> out) {
  block_pattern_portable(offset, seed, out);
}

#endif

}  // namespace detail

namespace {

/// Fills `out` with the deterministic payload of the block at `offset`, so
/// verify mode can check reads without storing a shadow copy. The block is a
/// run of 8-byte words in host byte order (the pattern only has to agree
/// with itself inside one process), drawn from four interleaved xoshiro256**
/// lanes: word w is the next output of lane w mod 4. A SplitMix64 stream
/// started at seed ^ (offset * 0x9e3779b97f4a7c15) seeds the lanes in turn,
/// lane l taking draws 4l to 4l + 3 as its state. A tail shorter than eight
/// bytes takes the first bytes of one more word. The lanes are independent,
/// so the AVX2 kernel steps all four in one register.
void fill_block_pattern(std::uint64_t offset, std::uint64_t seed,
                        std::span<std::uint8_t> out) {
  static const bool avx2 = detail::block_pattern_avx2_available();
  if (avx2) {
    detail::block_pattern_avx2(offset, seed, out);
  } else {
    detail::block_pattern_portable(offset, seed, out);
  }
}

/// The pattern of the `bs`-byte block at `offset`, in a new vector.
std::vector<std::uint8_t> block_pattern(std::uint64_t offset, std::uint64_t bs,
                                        std::uint64_t seed) {
  std::vector<std::uint8_t> v(bs);
  fill_block_pattern(offset, seed, v);
  return v;
}

struct JobState {
  std::uint64_t next_seq_block = 0;
  Rng rng{1};
};

/// One run's closed loop: each completion immediately issues the next I/O
/// for its job slot until the deadline passes.
struct FioLoop {
  core::Framework& fw;
  const FioJobSpec& spec;
  const std::uint64_t blocks;
  const Nanos measure_from, deadline;
  FioResult& result;
  std::vector<JobState> jobs;
  std::vector<std::uint8_t> expected;  // verified reads' pattern, reused

  void issue(unsigned j) {
    const Nanos issued_at = fw.simulator().now();
    if (issued_at >= deadline) return;
    JobState& job = jobs[j];
    std::uint64_t block;
    if (is_random(spec.rw)) {
      block = job.rng.below(blocks);
    } else {
      block = job.next_seq_block;
      job.next_seq_block = (job.next_seq_block + 1) % blocks;
    }
    const std::uint64_t offset = block * spec.bs;
    const bool write_op =
        spec.rw == RwMode::rand_rw
            ? !job.rng.chance(spec.rwmix_read / 100.0)
            : is_write(spec.rw);
    if (write_op) {
      fw.write(j, offset, block_pattern(offset, spec.bs, spec.seed),
               [this, j, issued_at](std::int32_t res) {
                 if (res > 0) account(issued_at, res);
                 issue(j);
               });
    } else {
      fw.read(j, offset, spec.bs,
              [this, j, offset, issued_at](Result<Payload> r) {
                if (r.ok()) {
                  account(issued_at, r->size());
                  if (spec.verify) {
                    fill_block_pattern(offset, spec.seed, expected);
                    if (!(*r == std::span<const std::uint8_t>(expected)))
                      ++result.verify_errors;
                  }
                }
                issue(j);
              });
    }
  }

  void account(Nanos issued_at, std::uint64_t bytes_done) {
    const Nanos now = fw.simulator().now();
    if (issued_at >= measure_from && now <= deadline) {
      ++result.ops;
      result.bytes += bytes_done;
      result.latency.record(now - issued_at);
    }
  }
};

}  // namespace

FioResult FioEngine::run(const FioJobSpec& spec) {
  sim::Simulator& sim = fw_.simulator();
  const std::uint64_t image_bytes = fw_.image().spec().size_bytes;
  const std::uint64_t blocks = spec.bs == 0 ? 0 : image_bytes / spec.bs;
  FioResult result;
  if (blocks == 0) return result;  // no whole block fits: nothing to address

  if (spec.prefill) {
    // Sequential prefill, one block at a time on the workload's block grid,
    // so every block a read can address holds its verify pattern.
    for (std::uint64_t b = 0; b < blocks; ++b) {
      const std::uint64_t off = b * spec.bs;
      fw_.write(0, off, block_pattern(off, spec.bs, spec.seed),
                [](std::int32_t) {});
      sim.run();
    }
  }

  FioLoop loop{fw_, spec, blocks, sim.now() + spec.ramp,
               sim.now() + spec.runtime, result,
               std::vector<JobState>(spec.numjobs),
               std::vector<std::uint8_t>(spec.verify ? spec.bs : 0)};
  for (unsigned j = 0; j < spec.numjobs; ++j) {
    // Stagger sequential streams so jobs do not overlap block ranges.
    loop.jobs[j].next_seq_block = blocks / spec.numjobs * j;
    loop.jobs[j].rng.reseed(spec.seed * 1315423911ULL + j);
    for (unsigned d = 0; d < spec.iodepth; ++d) loop.issue(j);
  }

  sim.run();  // drains: no new issues after the deadline
  result.measured_window = loop.deadline - loop.measure_from;
  return result;
}

Nanos probe_latency(core::Framework& framework, RwMode mode, std::uint64_t bs,
                    unsigned samples, std::uint64_t seed) {
  sim::Simulator& sim = framework.simulator();
  Rng rng(seed);
  const std::uint64_t blocks = framework.image().spec().size_bytes / bs;
  Nanos total = 0;
  std::uint64_t seq_block = 0;
  for (unsigned i = 0; i < samples; ++i) {
    const std::uint64_t block =
        is_random(mode) ? rng.below(blocks) : (seq_block++ % blocks);
    const std::uint64_t offset = block * bs;
    const Nanos t0 = sim.now();
    Nanos completed_at = t0;
    if (is_write(mode)) {
      framework.write(0, offset, std::vector<std::uint8_t>(bs, 0x5a),
                      [&](std::int32_t) { completed_at = sim.now(); });
    } else {
      framework.read(0, offset, bs,
                     [&](Result<Payload>) { completed_at = sim.now(); });
    }
    // Drain fully (including deferred host bookkeeping) so back-to-back
    // probes do not queue behind each other, but time only the completion.
    sim.run();
    total += completed_at - t0;
  }
  return total / samples;
}

}  // namespace dk::workload
