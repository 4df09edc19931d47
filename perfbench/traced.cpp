// The traced run (--trace 1): per-layer numbers for one workload, taken
// from outside the program.
//
// Peeling. The same kind of op stream enters the stack at four successively
// lower public entry points, each on a freshly set-up framework:
//   1. workload::FioEngine::run;
//   2. core::Framework::read/write, from a closed loop here with payloads
//      built outside the timed region;
//   3. host::RbdDevice::aio_read/aio_write on fw.image(), with the
//      framework's read/write strategies;
//   4. rados::RadosClient::read/write per object extent.
// A layer's self time is the wall time per I/O at its entry point minus the
// time at the next one down. Leaf layers (CRUSH, Reed-Solomon, the object
// store, CRC-32C) are timed by calling them directly on the workload's
// inputs. Allocations come from the replacement operator new in this
// binary, events from Simulator::executed_events(), and the other counts
// from public accessors and Framework::metrics().
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/crc32c.hpp"
#include "common/rng.hpp"
#include "ec/reed_solomon.hpp"
#include "harness.hpp"
#include "rados/object_store.hpp"

namespace perfbench {
namespace {

using Payload = std::vector<std::uint8_t>;
using dk::workload::RwMode;

// Passes per entry point and per leaf, at least; entry points keep going
// while their share of --seconds lasts.
constexpr int kMinPasses = 3;
constexpr int kLeafPasses = 5;

struct Op {
  std::uint64_t offset = 0;
  bool write = false;
};

// The op stream of entries 2-4 and of the leaves: fio's random block
// offsets and read/write mix, drawn from the workload seed.
std::vector<Op> make_ops(const Workload& w, std::uint64_t seed) {
  dk::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x7f4a7c15ULL);
  const std::uint64_t blocks = w.image_bytes / w.bs;
  std::vector<Op> ops(w.peel_ops);
  for (Op& op : ops) {
    op.offset = rng.below(blocks) * w.bs;
    op.write = w.rw == RwMode::rand_write ||
               (w.rw == RwMode::rand_rw && !rng.chance(kRwmixRead / 100.0));
  }
  return ops;
}

// Write payloads (empty for reads).
std::vector<Payload> make_payloads(const Workload& w,
                                   const std::vector<Op>& ops,
                                   std::uint64_t seed) {
  dk::Rng rng(seed ^ 0x5bd1e9955bd1e995ULL);
  std::vector<Payload> out(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i].write) continue;
    out[i].resize(w.bs);
    for (std::size_t j = 0; j + 8 <= w.bs; j += 8) {
      const std::uint64_t v = rng.next();
      std::memcpy(out[i].data() + j, &v, sizeof v);
    }
  }
  return out;
}

// Keeps kIodepth ops in flight; each completion issues the next op.
template <class Submit>
class ClosedLoop {
 public:
  ClosedLoop(const std::vector<Op>& ops, std::vector<Payload>& payloads,
             Submit& submit)
      : ops_(ops), payloads_(payloads), submit_(submit) {}

  void start() {
    for (unsigned d = 0; d < kIodepth; ++d) issue();
  }
  std::size_t completed() const { return completed_; }
  std::size_t failed() const { return failed_; }

 private:
  void issue() {
    if (next_ == ops_.size()) return;
    const std::size_t i = next_++;
    submit_(ops_[i], std::move(payloads_[i]), [this](bool ok) {
      ++completed_;
      if (!ok) ++failed_;
      issue();
    });
  }

  const std::vector<Op>& ops_;
  std::vector<Payload>& payloads_;
  Submit& submit_;
  std::size_t next_ = 0;
  std::size_t completed_ = 0;
  std::size_t failed_ = 0;
};

struct EntryTiming {
  double ns_per_io = 0;      // median over passes
  double allocs_per_io = 0;  // first pass; repeats exactly
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

// Drives `ops` into one entry point (`submit`) pass after pass.
template <class Submit>
EntryTiming time_entry(Stack& s, const Workload& w, const std::vector<Op>& ops,
                       std::uint64_t seed, double budget_s, Submit submit) {
  EntryTiming out;
  std::vector<double> ns;
  const double begin = wall_seconds();
  for (int pass = 0; pass < kMinPasses || wall_seconds() - begin < budget_s;
       ++pass) {
    std::vector<Payload> payloads = make_payloads(w, ops, seed);
    ClosedLoop<Submit> loop(ops, payloads, submit);
    count_allocations(true);
    const std::uint64_t a0 = allocations();
    const double t0 = wall_seconds();
    loop.start();
    s.sim.run();
    const double t1 = wall_seconds();
    const std::uint64_t allocs = allocations() - a0;
    count_allocations(false);
    const auto n = static_cast<double>(ops.size());
    ns.push_back((t1 - t0) * 1e9 / n);
    if (pass == 0) out.allocs_per_io = static_cast<double>(allocs) / n;
    out.attempted += ops.size();
    out.failed += loop.failed() + (ops.size() - loop.completed());
  }
  out.ns_per_io = median(ns);
  return out;
}

// Entry 1, FioEngine::run. Runs alternate traced (allocation counting on)
// and untraced, so the tracing overhead is measured in one process.
struct TopEntry {
  double traced_ns = 0;
  double untraced_ns = 0;
  double allocs_per_io = 0;
  Snapshot a, b;  // around the first (traced) run
  ModelResult model;
  std::uint64_t inline_mismatches = 0;
};

TopEntry time_fio_entry(Stack& s, const Workload& w, std::uint64_t seed,
                        double budget_s) {
  TopEntry out;
  dk::workload::FioEngine engine(*s.fw);
  const dk::workload::FioJobSpec spec = job_spec(w, seed);
  std::vector<double> traced, untraced;
  const double begin = wall_seconds();
  for (int run = 0;
       run < 2 * kMinPasses || run % 2 != 0 || wall_seconds() - begin < budget_s;
       ++run) {
    const bool counting = run % 2 == 0;
    const Snapshot a = snapshot(*s.fw);
    count_allocations(counting);
    const std::uint64_t a0 = allocations();
    const double t0 = wall_seconds();
    const dk::workload::FioResult r = engine.run(spec);
    const double t1 = wall_seconds();
    const std::uint64_t allocs = allocations() - a0;
    count_allocations(false);
    const Snapshot b = snapshot(*s.fw);
    const auto ios =
        static_cast<double>(std::max<std::uint64_t>(
            counter_delta(a, b, "io.completions"), 1));
    (counting ? traced : untraced).push_back((t1 - t0) * 1e9 / ios);
    out.inline_mismatches += r.verify_errors;
    if (run == 0) {
      out.a = a;
      out.b = b;
      out.model = model_of(r, a, b);
      out.allocs_per_io = static_cast<double>(allocs) / ios;
    }
  }
  out.traced_ns = median(traced);
  out.untraced_ns = median(untraced);
  return out;
}

// Median wall time of kLeafPasses runs of `fn`, in ns per op of the stream.
template <class Fn>
double time_leaf(std::size_t ops, Fn fn) {
  std::vector<double> ns;
  for (int pass = 0; pass < kLeafPasses; ++pass) {
    const double t0 = wall_seconds();
    fn();
    ns.push_back((wall_seconds() - t0) * 1e9 / static_cast<double>(ops));
  }
  return median(ns);
}

// One object-store access of the object-level stream, after fan-out.
struct Piece {
  int osd = 0;
  dk::rados::ObjectKey key;
  std::uint64_t offset = 0;
  std::span<const std::uint8_t> data;        // writes
  std::uint64_t length = 0;                  // reads
  std::span<const std::uint32_t> checksums;  // client CRCs, integrity only
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

int run_traced(const Workload& w, std::uint64_t seed, double seconds,
               Plant plant) {
  const double budget = seconds / 5.0;  // per entry point, plus the leaves
  const std::vector<Op> ops = make_ops(w, seed);
  const std::uint64_t bs = w.bs;
  std::vector<std::string> problems;
  std::uint64_t attempted = 0, failed = 0;

  // 1. FioEngine::run, with the post-run verify pass.
  TopEntry top;
  {
    auto s = set_up(w, seed);
    const Snapshot before = snapshot(*s->fw);
    top = time_fio_entry(*s, w, seed, budget);
    plant_failure(*s, plant);
    const std::uint64_t bad_blocks = verify_image(*s, w, seed);
    const IoTally io = tally(before, snapshot(*s->fw));
    attempted += io.attempted;
    failed += io.failed() + bad_blocks + top.inline_mismatches;
    check_drained(*s->fw, problems);
  }
  std::fprintf(stderr, "perfbench: traced entry 1 (FioEngine) done\n");

  // 2. Framework::read/write.
  EntryTiming core_entry;
  {
    auto s = set_up(w, seed);
    dk::core::Framework& fw = *s->fw;
    core_entry = time_entry(
        *s, w, ops, seed, budget, [&fw, bs](const Op& op, Payload data, auto done) {
          if (op.write) {
            fw.write(0, op.offset, std::move(data), [done, bs](std::int32_t res) {
              done(res == static_cast<std::int32_t>(bs));
            });
          } else {
            fw.read(0, op.offset, bs,
                    [done, bs](dk::Result<std::vector<std::uint8_t>> r) {
                      done(r.ok() && r->size() == bs);
                    });
          }
        });
    attempted += core_entry.attempted;
    failed += core_entry.failed;
    check_drained(fw, problems);
  }

  // 3. RbdDevice::aio_read/aio_write.
  EntryTiming rbd_entry;
  {
    auto s = set_up(w, seed);
    dk::core::Framework& fw = *s->fw;
    dk::host::RbdDevice& image = fw.image();
    const dk::rados::WriteStrategy ws = fw.write_strategy();
    const dk::rados::ReadStrategy rs = fw.read_strategy();
    rbd_entry = time_entry(
        *s, w, ops, seed, budget,
        [&image, ws, rs, bs](const Op& op, Payload data, auto done) {
          if (op.write) {
            image.aio_write(op.offset, std::move(data), ws,
                            [done, bs](std::int32_t res) {
                              done(res == static_cast<std::int32_t>(bs));
                            });
          } else {
            image.aio_read(op.offset, bs, rs,
                           [done, bs](dk::Result<std::vector<std::uint8_t>> r) {
                             done(r.ok() && r->size() == bs);
                           });
          }
        });
    attempted += rbd_entry.attempted;
    failed += rbd_entry.failed;
    check_drained(fw, problems);
  }

  // 4. RadosClient::read/write per object extent, then the CRUSH leaf on
  //    this stack's cluster.
  EntryTiming rados_entry;
  double crush_ns_per_call = 0.0, leaf_descents_per_call = 0.0;
  std::vector<std::vector<int>> acting(ops.size());
  int pool = 0;
  std::size_t osd_count = 0;
  const std::uint64_t object_size = 4 * dk::MiB;
  bool client_encode = false;
  {
    auto s = set_up(w, seed);
    dk::core::Framework& fw = *s->fw;
    dk::host::RbdDevice& image = fw.image();
    dk::rados::RadosClient& client = fw.rados_client();
    pool = image.spec().pool;
    osd_count = fw.cluster().osd_count();
    client_encode = w.pool == dk::core::PoolMode::erasure &&
                    fw.write_strategy() == dk::rados::WriteStrategy::client_fanout;
    const dk::rados::WriteStrategy ws = fw.write_strategy();
    const dk::rados::ReadStrategy rs = fw.read_strategy();
    rados_entry = time_entry(
        *s, w, ops, seed, budget,
        [&client, &image, pool, ws, rs, bs, object_size](const Op& op,
                                                         Payload data, auto done) {
          const std::uint64_t oid = image.oid_of(op.offset);
          const std::uint64_t off = op.offset % object_size;
          if (op.write) {
            client.write(pool, oid, off, std::move(data), ws,
                         [done](dk::Status st) { done(st.ok()); });
          } else {
            client.read(pool, oid, off, bs, rs,
                        [done, bs](dk::Result<std::vector<std::uint8_t>> r) {
                          done(r.ok() && r->size() == bs);
                        });
          }
        });
    attempted += rados_entry.attempted;
    failed += rados_entry.failed;
    check_drained(fw, problems);

    const dk::rados::Cluster& cluster = fw.cluster();
    std::uint64_t sink = 0;
    dk::crush::PlacementWork work;
    crush_ns_per_call = time_leaf(ops.size(), [&] {
      for (const Op& op : ops)
        sink += cluster.acting_set(pool, image.oid_of(op.offset), &work).size();
    });
    leaf_descents_per_call = static_cast<double>(work.bucket_descents) /
                             static_cast<double>(kLeafPasses * ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i)
      acting[i] = cluster.acting_set(pool, image.oid_of(ops[i].offset));
    if (sink == 0) problems.push_back("CRUSH returned empty acting sets");
  }
  std::fprintf(stderr, "perfbench: traced entries 2-4 done\n");

  // Leaves, on the workload's inputs.
  const std::vector<Payload> payloads = make_payloads(w, ops, seed);
  const dk::ec::ReedSolomon codec(
      dk::ec::Profile{4, 2, dk::ec::GeneratorKind::vandermonde});
  const unsigned k = codec.profile().k;
  const bool erasure = w.pool == dk::core::PoolMode::erasure;

  double ec_ns = 0.0;
  if (client_encode) {
    std::uint64_t sink = 0;
    ec_ns = time_leaf(ops.size(), [&] {
      for (std::size_t i = 0; i < ops.size(); ++i) {
        if (!ops[i].write) continue;
        auto coding = codec.encode(codec.split(payloads[i]));
        sink += coding.ok() ? coding->size() : 0;
      }
    });
    if (sink == 0) problems.push_back("Reed-Solomon encode failed");
  }

  // The object-level stream after fan-out: a write lands on every replica
  // (or every shard) of its acting set; a read hits the primary (or the k
  // data shards, which is what both EC read strategies fetch when healthy).
  std::vector<dk::ec::Chunk> shards;  // k + m per EC write, in op order
  if (erasure) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (!ops[i].write) continue;
      std::vector<dk::ec::Chunk> chunks = codec.split(payloads[i]);
      auto coding = codec.encode(chunks);
      if (!coding.ok()) return 1;
      for (auto& c : chunks) shards.push_back(std::move(c));
      for (auto& c : *coding) shards.push_back(std::move(c));
    }
  }
  // With integrity armed the client ships per-block CRCs with each
  // replicated write and the store keeps them instead of recomputing.
  std::vector<std::vector<std::uint32_t>> client_sums(ops.size());
  if (w.durable && !erasure)
    for (std::size_t i = 0; i < ops.size(); ++i)
      if (ops[i].write) client_sums[i] = dk::block_checksums(payloads[i]);
  std::vector<Piece> writes, reads;
  std::size_t next_shard = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const auto p32 = static_cast<std::uint32_t>(pool);
    const std::uint64_t oid = ops[i].offset / object_size;
    const std::uint64_t off = ops[i].offset % object_size;
    if (!erasure) {
      const dk::rados::ObjectKey key{p32, oid, -1};
      if (!ops[i].write) {
        reads.push_back({acting[i].front(), key, off, {}, bs, {}});
        continue;
      }
      for (int osd : acting[i])
        writes.push_back({osd, key, off, payloads[i], 0, client_sums[i]});
      continue;
    }
    const unsigned fanout = ops[i].write ? codec.profile().total() : k;
    for (unsigned sh = 0; sh < fanout; ++sh) {
      const dk::rados::ObjectKey key{p32, oid, static_cast<std::int32_t>(sh)};
      if (ops[i].write)
        writes.push_back({acting[i][sh], key, off / k, shards[next_shard++], 0, {}});
      else
        reads.push_back({acting[i][sh], key, off / k, {}, bs / k, {}});
    }
  }

  // Fresh stores, one per OSD, integrity as in the stack. Every object the
  // stream touches is first grown to full size outside the timed region,
  // as the prefill grows it in the stack during set-up; the timed passes
  // then see what the measured phase sees.
  std::vector<dk::rados::ObjectStore> stores(osd_count);
  for (auto& st : stores) st.set_integrity(w.durable);
  const std::uint64_t stored_object = erasure ? object_size / k : object_size;
  const std::uint8_t zero = 0;
  for (const std::vector<Piece>* pieces : {&writes, &reads})
    for (const Piece& p : *pieces)
      if (stores[p.osd].object_size(p.key) < stored_object)
        stores[p.osd].write(p.key, stored_object - 1, {&zero, 1});
  double store_write_ns = 0.0, store_read_ns = 0.0;
  if (!writes.empty()) {
    store_write_ns = time_leaf(ops.size(), [&] {
      for (const Piece& p : writes)
        stores[p.osd].write(p.key, p.offset, p.data, p.checksums);
    });
  }
  if (!reads.empty()) {
    std::uint64_t sink = 0;
    store_read_ns = time_leaf(ops.size(), [&] {
      for (const Piece& p : reads)
        sink += stores[p.osd].read(p.key, p.offset, p.length).size();
    });
    if (sink == 0) problems.push_back("object-store reads returned nothing");
  }

  // CRC-32C: one checksum pass over each I/O's payload, where integrity is
  // armed (the stack makes several such passes per I/O).
  double crc_ns = 0.0;
  if (w.durable) {
    const Payload read_payload(bs, 0);
    std::uint64_t sink = 0;
    crc_ns = time_leaf(ops.size(), [&] {
      for (std::size_t i = 0; i < ops.size(); ++i)
        sink += dk::block_checksums(ops[i].write ? payloads[i] : read_payload)
                    .size();
    });
    if (sink == 0) problems.push_back("block_checksums returned nothing");
  }

  // Counts per I/O over the first traced FioEngine run.
  const Snapshot& a = top.a;
  const Snapshot& b = top.b;
  const auto ios = static_cast<double>(
      std::max<std::uint64_t>(counter_delta(a, b, "io.completions"), 1));
  auto per_io = [&](const char* counter) {
    return static_cast<double>(counter_delta(a, b, counter)) / ios;
  };
  const double stack_descents =
      static_cast<double>(b.bucket_descents - a.bucket_descents) / ios;
  // The leaf times one acting_set call; the stack makes
  // stack_descents / leaf_descents_per_call of them per I/O.
  const double crush_ns =
      crush_ns_per_call * ratio(stack_descents, leaf_descents_per_call);

  // Budget: peeled self times plus leaves plus a residual (RADOS client,
  // OSD, network and scheduler work the leaves do not cover) add up to the
  // traced top-entry time per I/O.
  const double w1 = top.traced_ns;
  const double w2 = core_entry.ns_per_io;
  const double w3 = rbd_entry.ns_per_io;
  const double w4 = rados_entry.ns_per_io;
  const double residual = w4 - crush_ns - ec_ns - store_write_ns - store_read_ns;

  std::printf("workload %s seed %llu, traced; wall ns per I/O:\n",
              std::string(w.name).c_str(),
              static_cast<unsigned long long>(seed));
  std::printf("  %-34s %12.1f\n", "workload (FioEngine - Framework)", w1 - w2);
  std::printf("  %-34s %12.1f\n", "core (Framework - RbdDevice)", w2 - w3);
  std::printf("  %-34s %12.1f\n", "host.rbd (RbdDevice - RadosClient)", w3 - w4);
  std::printf("  %-34s %12.1f\n", "crush (leaf)", crush_ns);
  std::printf("  %-34s %12.1f\n", "ec encode (leaf)", ec_ns);
  std::printf("  %-34s %12.1f\n", "object store write (leaf)", store_write_ns);
  std::printf("  %-34s %12.1f\n", "object store read (leaf)", store_read_ns);
  std::printf("  %-34s %12.1f\n", "residual below RadosClient", residual);
  std::printf("  %-34s %12.1f (sum of the rows above)\n", "top entry, traced",
              (w1 - w2) + (w2 - w3) + (w3 - w4) + crush_ns + ec_ns +
                  store_write_ns + store_read_ns + residual);
  std::printf("  %-34s %12.1f (tracing overhead %+.2f%%)\n",
              "top entry, untraced", top.untraced_ns,
              100.0 * (ratio(w1, top.untraced_ns) - 1.0));
  std::printf("  %-34s %12.1f (one pass per I/O, outside the budget)\n",
              "crc32c (leaf)", crc_ns);
  if (dk::check_failures_total() != 0)
    problems.push_back(std::to_string(dk::check_failures_total()) +
                       " DK_CHECK failure(s)");
  for (const std::string& p : problems) std::printf("GATE: %s\n", p.c_str());

  std::vector<Metric> m = {
      {"workload.self_ns_per_io", w1 - w2, "ns"},
      {"workload.allocs_per_io", top.allocs_per_io - core_entry.allocs_per_io, "count"},
      {"core.self_ns_per_io", w2 - w3, "ns"},
      {"core.allocs_per_io", core_entry.allocs_per_io - rbd_entry.allocs_per_io, "count"},
      {"host.rbd.self_ns_per_io", w3 - w4, "ns"},
      {"host.rbd.allocs_per_io", rbd_entry.allocs_per_io - rados_entry.allocs_per_io, "count"},
      {"rados.below_ns_per_io", w4, "ns"},
      {"rados.allocs_per_io", rados_entry.allocs_per_io, "count"},
      {"sim.events_per_io", static_cast<double>(b.events - a.events) / ios, "count"},
      {"crush.ns_per_io", crush_ns, "ns"},
      {"crush.bucket_descents_per_io", stack_descents, "count"},
      {"crush.item_comparisons_per_io",
       static_cast<double>(b.item_comparisons - a.item_comparisons) / ios, "count"},
      {"ec.encode_ns_per_io", ec_ns, "ns"},
      {"rados.ec_bytes_encoded_per_io", per_io("rados.ec_bytes_encoded"), "B"},
      {"rados.object_store.write_ns_per_io", store_write_ns, "ns"},
      {"rados.object_store.read_ns_per_io", store_read_ns, "ns"},
      {"common.crc32c_ns_per_io", crc_ns, "ns"},
      {"blockstore.write_amp",
       ratio(static_cast<double>(counter_delta(a, b, "blockstore.physical_bytes")),
             static_cast<double>(counter_delta(a, b, "blockstore.logical_bytes"))),
       "x"},
      {"blockstore.coalesced_per_write",
       ratio(static_cast<double>(
                 counter_delta(a, b, "blockstore.journal.coalesced_writes")),
             static_cast<double>(counter_delta(a, b, "io.writes"))),
       "count"},
      {"rados.messages_per_io", per_io("rados.messages_sent"), "count"},
      {"osd.ops_per_io", per_io("osd.ops"), "count"},
      {"rbd.object_ops_per_io", per_io("rbd.object_ops"), "count"},
  };
  for (const char* hop :
       {"submit_to_sq_dispatch", "sq_dispatch_to_blk_enter",
        "blk_enter_to_driver_dispatch", "driver_dispatch_to_rados_issue",
        "rados_issue_to_remote_complete", "remote_complete_to_complete",
        "end_to_end"})
    m.push_back({std::string("model.stage.") + hop + "_us",
                 hist_mean_us(a, b, std::string("stage.") + hop), "us"});
  m.push_back({"model.osd.read_service_us", hist_mean_us(a, b, "osd.read_service"), "us"});
  m.push_back({"model.osd.write_service_us", hist_mean_us(a, b, "osd.write_service"), "us"});
  m.push_back({"model.qdma.h2c_us", hist_mean_us(a, b, "qdma.h2c_latency"), "us"});
  m.push_back({"model.qdma.c2h_us", hist_mean_us(a, b, "qdma.c2h_latency"), "us"});
  m.push_back({"model.kiops", top.model.kiops, "kIOPS"});
  m.push_back({"model.lat_p50_us", top.model.p50_us, "us"});
  m.push_back({"model.lat_p99_us", top.model.p99_us, "us"});
  m.push_back({"model.lat_samples", static_cast<double>(top.model.samples), "count"});
  m.push_back({"budget.top_ns_per_io", w1, "ns"});
  m.push_back({"budget.residual_ns_per_io", residual, "ns"});
  m.push_back({"trace.overhead_frac", ratio(w1, top.untraced_ns) - 1.0, "frac"});

  print_result(problems.empty() && failed == 0, std::max<std::uint64_t>(attempted, 1),
               failed, m);
  return 0;
}

}  // namespace perfbench
