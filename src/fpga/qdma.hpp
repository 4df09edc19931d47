// QDMA (Queue DMA) subsystem model — the PCIe data mover of the DeLiBA-K
// FPGA stack (§IV.A).
//
// Five modules, as in the paper: Requester Request (RQ), Descriptor Engine
// (DE), Host-to-Card (H2C), Card-to-Host (C2H), and Completion Engine (CE).
// Up to 2048 queue sets, each a triple of rings: H2C descriptor ring, C2H
// descriptor ring, C2H completion ring. Descriptors are 128 bytes and
// describe {source, destination, length, control, next-descriptor pointer};
// per-queue configuration lives in UltraRAM with a 64 kB total budget.
// Queues are classed as replication or erasure-coding and can be assigned
// to PCIe Physical/Virtual Functions (SR-IOV passthrough, thin-hypervisor
// model) for multi-tenancy.
//
// Timing: a DMA op pays doorbell + descriptor fetch (RQ/DE), serialization
// on the shared PCIe Gen3 x16 channel, and CE completion writeback. H2C
// supports up to 256 concurrent I/Os with a 32 kB reorder buffer.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/metrics.hpp"
#include "common/page.hpp"
#include "common/ring_buffer.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "sim/faults.hpp"
#include "sim/resources.hpp"
#include "sim/simulator.hpp"

namespace dk {
class PipelineValidator;
}  // namespace dk

namespace dk::fpga {

enum class QueueClass : std::uint8_t { replication, erasure_coding };

/// DMA completion callback: Ok() on a clean CE writeback, io_error when the
/// Descriptor Engine aborted the fetch or the Completion Engine wrote back
/// an error status (fault-injected paths).
using DmaCallback = sim::UniqueFn<void(Status)>;

/// 128-byte DMA descriptor (§IV.A): the five fields the Descriptor Engine
/// consumes. The descriptor does not carry payload.
struct Descriptor {
  std::uint64_t src_addr = 0;
  std::uint64_t dst_addr = 0;
  std::uint32_t length = 0;
  std::uint32_t control = 0;
  std::uint64_t next = 0;  // NDP: next descriptor pointer
};

constexpr std::uint64_t kDescriptorBytes = 128;
/// UltraRAM budget for descriptor/queue state: "total length of all
/// descriptors is less than 64 kB".
constexpr std::uint64_t kDescriptorRamBytes = 64 * 1024;
constexpr std::uint64_t kMaxOutstandingDescriptors =
    kDescriptorRamBytes / kDescriptorBytes;  // 512

constexpr unsigned kH2cMaxConcurrent = 256;  // concurrent in-flight I/Os
constexpr double kPcieBytesPerSec = 12.0e9;  // PCIe Gen3 x16 effective payload
constexpr Nanos kDoorbellLatency = us(0.8);  // MMIO doorbell + RQ/DE fetch
constexpr Nanos kCompletionLatency = us(0.6);  // CE writeback + status update

struct QdmaConfig {
  unsigned max_queue_sets = 2048;
  unsigned ring_entries = 64;            // per descriptor ring
};

struct QdmaStats {
  std::uint64_t h2c_ops = 0;
  std::uint64_t c2h_ops = 0;
  std::uint64_t h2c_bytes = 0;
  std::uint64_t c2h_bytes = 0;
  std::uint64_t descriptors_fetched = 0;
  std::uint64_t ring_full_rejects = 0;
};

/// One queue set: H2C + C2H descriptor rings and the C2H completion ring.
class QueueSet {
 public:
  QueueSet(unsigned id, QueueClass cls, unsigned vf, unsigned ring_entries)
      : id_(id), cls_(cls), vf_(vf),
        h2c_ring_(ring_entries), c2h_ring_(ring_entries),
        c2h_completion_(ring_entries) {}

  unsigned id() const { return id_; }
  QueueClass queue_class() const { return cls_; }
  unsigned virtual_function() const { return vf_; }

  Status post_h2c(const Descriptor& d) {
    return h2c_ring_.push(d) ? Status::Ok()
                             : Status::Error(Errc::again, "H2C ring full");
  }
  Status post_c2h(const Descriptor& d) {
    return c2h_ring_.push(d) ? Status::Ok()
                             : Status::Error(Errc::again, "C2H ring full");
  }
  std::optional<Descriptor> fetch_h2c() { return h2c_ring_.pop(); }
  std::optional<Descriptor> fetch_c2h() { return c2h_ring_.pop(); }
  bool push_completion(const Descriptor& d) { return c2h_completion_.push(d); }
  std::optional<Descriptor> pop_completion() { return c2h_completion_.pop(); }

  std::size_t h2c_pending() const { return h2c_ring_.size(); }
  std::size_t c2h_pending() const { return c2h_ring_.size(); }
  std::size_t completions_pending() const { return c2h_completion_.size(); }

 private:
  unsigned id_;
  QueueClass cls_;
  unsigned vf_;
  RingBuffer<Descriptor> h2c_ring_;
  RingBuffer<Descriptor> c2h_ring_;
  RingBuffer<Descriptor> c2h_completion_;
};

class QdmaEngine {
 public:
  QdmaEngine(sim::Simulator& sim, QdmaConfig config = {});

  const QdmaStats& stats() const { return stats_; }
  std::size_t queue_set_count() const { return active_sets_; }

  /// Allocate a queue set for the given traffic class, optionally owned by
  /// an SR-IOV virtual function (vf 0 == the physical function).
  Result<unsigned> alloc_queue_set(QueueClass cls, unsigned vf = 0);
  Status free_queue_set(unsigned id);
  QueueSet* queue_set(unsigned id);

  /// Queue sets owned by a VF (multi-tenancy accounting).
  std::vector<unsigned> queue_sets_of_vf(unsigned vf) const;

  /// Host-to-card DMA of `bytes` on queue `id` (descriptor fetch + PCIe
  /// serialization + engine); `done` fires at completion-write time with
  /// the DMA status. `payload`, when non-empty, is the live data buffer the
  /// transfer moves: an armed DmaCorruptionWindow may flip bits in it on
  /// the way through while the CE still reports success (silent corruption
  /// — only end-to-end checksums can catch it). The span must stay valid
  /// until `done` fires.
  Status h2c(unsigned id, std::uint64_t bytes, DmaCallback done,
             std::span<std::uint8_t> payload = {});

  /// Card-to-host DMA. `pages`, when non-null, is the payload the transfer
  /// delivers to the host; an armed DmaCorruptionWindow flips its bits in a
  /// private copy of each page it hits (PageRef::writable), so the stores
  /// sharing the pages keep their bytes. It must stay valid until `done`
  /// fires.
  Status c2h(unsigned id, std::uint64_t bytes, DmaCallback done,
             Payload* pages = nullptr);

  /// Arm descriptor-fetch / completion error injection (nullptr detaches).
  /// Errored descriptors still complete their lifecycle (consumed + error
  /// writeback), so validator quiescence holds under faults.
  void set_fault_injector(sim::FaultInjector* faults) { faults_ = faults; }
  sim::FaultInjector* fault_injector() const { return faults_; }

  /// Pure timing query (no queue state): latency one DMA op of `bytes`
  /// would observe on an idle engine.
  Nanos idle_latency(std::uint64_t bytes) const;

  /// Publish DMA activity under "<prefix>." (h2c/c2h op and byte counters,
  /// ring_full_rejects, an outstanding-descriptors gauge, and h2c/c2h
  /// doorbell-to-completion latency histograms).
  void attach_metrics(MetricsRegistry& registry, const std::string& prefix);

  /// Report descriptor lifecycle (posted -> fetched -> completed, by engine
  /// sequence number) to `validator`. Same pattern as attach_metrics().
  void attach_validator(PipelineValidator& validator);

 private:
  Status dma(unsigned id, std::uint64_t bytes, bool h2c_dir,
             DmaCallback done, std::span<std::uint8_t> payload,
             Payload* pages);
  /// CE-side descriptor retirement shared by the success and error paths:
  /// consume the ring descriptor, post the completion entry, release the
  /// UltraRAM slot, and close the validator lifecycle.
  void complete_descriptor(unsigned id, bool h2c_dir, std::uint64_t seq);
  /// Free the op's slot, then run its completion (which may start a DMA
  /// that takes the slot).
  void finish(unsigned op, Status status);

  /// A DMA between doorbell and CE writeback.
  struct InFlight {
    unsigned id = 0;
    std::uint64_t bytes = 0;
    bool h2c_dir = false;
    Nanos start = 0;
    std::uint64_t seq = 0;
    std::span<std::uint8_t> payload;  // H2C
    Payload* pages = nullptr;         // C2H
    DmaCallback done;
  };

  sim::Simulator& sim_;
  QdmaConfig config_;
  QdmaStats stats_;
  std::vector<std::unique_ptr<QueueSet>> sets_;  // index == id; null if freed
  std::size_t active_sets_ = 0;
  sim::BandwidthChannel pcie_;
  sim::FifoServer h2c_engine_;
  sim::FifoServer c2h_engine_;
  std::deque<InFlight> ops_;  // by slot; a deque never moves a slot
  std::vector<unsigned> idle_ops_;
  unsigned outstanding_descriptors_ = 0;
  std::uint64_t descriptor_seq_ = 0;  // identity for lifetime validation
  PipelineValidator* validator_ = nullptr;
  sim::FaultInjector* faults_ = nullptr;

  struct MetricHandles {
    Counter* h2c_ops = nullptr;
    Counter* c2h_ops = nullptr;
    Counter* h2c_bytes = nullptr;
    Counter* c2h_bytes = nullptr;
    Counter* ring_full = nullptr;
    Gauge* outstanding = nullptr;
    HistogramMetric* h2c_latency = nullptr;
    HistogramMetric* c2h_latency = nullptr;
  };
  MetricHandles metrics_;
};

}  // namespace dk::fpga
