#include "workload/fio.hpp"

#include <cstring>
#include <memory>
#include <vector>

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

namespace {

/// Deterministic per-block payload so verify mode can check reads without
/// storing a shadow copy: byte i of block at `offset` = f(offset, i). Each
/// generator step fills eight bytes, in host byte order (the pattern only
/// has to agree with itself inside one process); a tail shorter than eight
/// bytes takes the first bytes of one more step.
std::vector<std::uint8_t> block_pattern(std::uint64_t offset, std::uint64_t bs,
                                        std::uint64_t seed) {
  Rng rng(seed ^ (offset * 0x9e3779b97f4a7c15ULL));
  std::vector<std::uint8_t> v(bs + 7);  // room for a whole last word
  for (std::uint64_t i = 0; i < bs; i += 8) {
    const std::uint64_t word = rng.next();
    std::memcpy(v.data() + i, &word, sizeof word);
  }
  v.resize(bs);
  return v;
}

struct JobState {
  unsigned id = 0;
  std::uint64_t next_seq_block = 0;
  Rng rng{1};
};

}  // namespace

FioResult FioEngine::run(const FioJobSpec& spec) {
  sim::Simulator& sim = fw_.simulator();
  const std::uint64_t image_bytes = fw_.image().spec().size_bytes;
  const std::uint64_t blocks = image_bytes / spec.bs;

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

  FioResult result;
  const Nanos start = sim.now();
  const Nanos measure_from = start + spec.ramp;
  const Nanos deadline = start + spec.runtime;

  std::vector<JobState> jobs(spec.numjobs);
  for (unsigned j = 0; j < spec.numjobs; ++j) {
    jobs[j].id = j;
    // Stagger sequential streams so jobs do not overlap block ranges.
    jobs[j].next_seq_block = blocks / spec.numjobs * j;
    jobs[j].rng.reseed(spec.seed * 1315423911ULL + j);
  }

  // Closed-loop issue function: each completion immediately issues the
  // next I/O for its job slot until the deadline passes.
  std::function<void(unsigned)> issue = [&](unsigned j) {
    if (sim.now() >= deadline) return;
    JobState& job = jobs[j];
    std::uint64_t block;
    if (is_random(spec.rw)) {
      block = job.rng.below(blocks);
    } else {
      block = job.next_seq_block;
      job.next_seq_block = (job.next_seq_block + 1) % blocks;
    }
    const std::uint64_t offset = block * spec.bs;
    const Nanos issued_at = sim.now();
    const bool write_op =
        spec.rw == RwMode::rand_rw
            ? !job.rng.chance(spec.rwmix_read / 100.0)
            : is_write(spec.rw);

    auto account = [&result, &sim, &spec, measure_from, deadline, issued_at](
                       std::uint64_t bytes_done) {
      const Nanos now = sim.now();
      if (issued_at >= measure_from && now <= deadline) {
        ++result.ops;
        result.bytes += bytes_done;
        result.latency.record(now - issued_at);
      }
    };

    if (write_op) {
      fw_.write(j, offset, block_pattern(offset, spec.bs, spec.seed),
                [&, j, account](std::int32_t res) {
                  if (res > 0) account(static_cast<std::uint64_t>(res));
                  issue(j);
                });
    } else {
      fw_.read(j, offset, spec.bs,
               [&, j, offset, account](Result<std::vector<std::uint8_t>> r) {
                 if (r.ok()) {
                   account(r->size());
                   if (spec.verify &&
                       *r != block_pattern(offset, spec.bs, spec.seed))
                     ++result.verify_errors;
                 }
                 issue(j);
               });
    }
  };

  for (unsigned j = 0; j < spec.numjobs; ++j)
    for (unsigned d = 0; d < spec.iodepth; ++d) issue(j);

  sim.run();  // drains: no new issues after the deadline
  result.measured_window = deadline - measure_from;
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
                     [&](Result<std::vector<std::uint8_t>>) {
                       completed_at = sim.now();
                     });
    }
    // Drain fully (including deferred host bookkeeping) so back-to-back
    // probes do not queue behind each other, but time only the completion.
    sim.run();
    total += completed_at - t0;
  }
  return total / samples;
}

}  // namespace dk::workload
