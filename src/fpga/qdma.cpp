#include "fpga/qdma.hpp"

#include "common/check.hpp"
#include "common/pipeline_validator.hpp"

namespace dk::fpga {

QdmaEngine::QdmaEngine(sim::Simulator& sim, QdmaConfig config)
    : sim_(sim),
      config_(config),
      pcie_(sim, kPcieBytesPerSec, /*latency=*/0, "pcie"),
      h2c_engine_(sim, kH2cMaxConcurrent, "h2c"),
      c2h_engine_(sim, kH2cMaxConcurrent, "c2h") {}

Result<unsigned> QdmaEngine::alloc_queue_set(QueueClass cls, unsigned vf) {
  if (active_sets_ >= config_.max_queue_sets)
    return Status::Error(Errc::no_space, "all 2048 queue sets in use");
  // Reuse a freed slot if any, else append.
  for (unsigned i = 0; i < sets_.size(); ++i) {
    if (!sets_[i]) {
      sets_[i] = std::make_unique<QueueSet>(i, cls, vf, config_.ring_entries);
      ++active_sets_;
      return i;
    }
  }
  const unsigned id = static_cast<unsigned>(sets_.size());
  sets_.push_back(std::make_unique<QueueSet>(id, cls, vf, config_.ring_entries));
  ++active_sets_;
  return id;
}

Status QdmaEngine::free_queue_set(unsigned id) {
  if (id >= sets_.size() || !sets_[id])
    return Status::Error(Errc::not_found, "no such queue set");
  sets_[id].reset();
  --active_sets_;
  return Status::Ok();
}

QueueSet* QdmaEngine::queue_set(unsigned id) {
  return id < sets_.size() ? sets_[id].get() : nullptr;
}

std::vector<unsigned> QdmaEngine::queue_sets_of_vf(unsigned vf) const {
  std::vector<unsigned> out;
  for (const auto& s : sets_)
    if (s && s->virtual_function() == vf) out.push_back(s->id());
  return out;
}

Nanos QdmaEngine::idle_latency(std::uint64_t bytes) const {
  return kDoorbellLatency +
         transfer_time(bytes + kDescriptorBytes, kPcieBytesPerSec) +
         kCompletionLatency;
}

void QdmaEngine::attach_metrics(MetricsRegistry& registry,
                                const std::string& prefix) {
  metrics_.h2c_ops = &registry.counter(prefix + ".h2c_ops");
  metrics_.c2h_ops = &registry.counter(prefix + ".c2h_ops");
  metrics_.h2c_bytes = &registry.counter(prefix + ".h2c_bytes");
  metrics_.c2h_bytes = &registry.counter(prefix + ".c2h_bytes");
  metrics_.ring_full = &registry.counter(prefix + ".ring_full_rejects");
  metrics_.outstanding = &registry.gauge(prefix + ".outstanding_descriptors");
  metrics_.h2c_latency = &registry.histogram(prefix + ".h2c_latency");
  metrics_.c2h_latency = &registry.histogram(prefix + ".c2h_latency");
}

void QdmaEngine::attach_validator(PipelineValidator& validator) {
  validator_ = &validator;
}

void QdmaEngine::complete_descriptor(unsigned id, bool h2c_dir,
                                     std::uint64_t seq) {
  QueueSet* qs = queue_set(id);
  if (qs) {
    // Consume the descriptor and post the completion entry.
    auto desc = h2c_dir ? qs->fetch_h2c() : qs->fetch_c2h();
    if (desc) qs->push_completion(*desc);
  }
  DK_CHECK(outstanding_descriptors_ > 0)
      << "CE writeback with no descriptors outstanding";
  if (outstanding_descriptors_ > 0) --outstanding_descriptors_;
  if (validator_) validator_->on_descriptor_completed(seq);
  if (metrics_.outstanding) metrics_.outstanding->sub();
}

Status QdmaEngine::dma(unsigned id, std::uint64_t bytes, bool h2c_dir,
                       DmaCallback done, std::span<std::uint8_t> payload) {
  QueueSet* qs = queue_set(id);
  if (!qs) return Status::Error(Errc::not_found, "no such queue set");
  if (outstanding_descriptors_ >= kMaxOutstandingDescriptors) {
    ++stats_.ring_full_rejects;
    if (metrics_.ring_full) metrics_.ring_full->inc();
    return Status::Error(Errc::again, "descriptor RAM exhausted");
  }

  // Post the descriptor on the matching ring (functional bookkeeping).
  Descriptor d;
  d.length = static_cast<std::uint32_t>(bytes);
  d.control = h2c_dir ? 0x1 : 0x2;
  const Status posted = h2c_dir ? qs->post_h2c(d) : qs->post_c2h(d);
  if (!posted.ok()) {
    ++stats_.ring_full_rejects;
    if (metrics_.ring_full) metrics_.ring_full->inc();
    return posted;
  }
  ++outstanding_descriptors_;
  DK_CHECK(outstanding_descriptors_ <= kMaxOutstandingDescriptors)
      << "descriptor UltraRAM overcommitted: " << outstanding_descriptors_;
  if (metrics_.outstanding) metrics_.outstanding->add();
  const std::uint64_t seq = ++descriptor_seq_;
  if (validator_) validator_->on_descriptor_posted(seq);

  if (h2c_dir) {
    ++stats_.h2c_ops;
    stats_.h2c_bytes += bytes;
    if (metrics_.h2c_ops) {
      metrics_.h2c_ops->inc();
      metrics_.h2c_bytes->inc(bytes);
    }
  } else {
    ++stats_.c2h_ops;
    stats_.c2h_bytes += bytes;
    if (metrics_.c2h_ops) {
      metrics_.c2h_ops->inc();
      metrics_.c2h_bytes->inc(bytes);
    }
  }
  // The op waits in a slot, so every event of its lifecycle captures only
  // the slot index.
  if (idle_ops_.empty()) {
    idle_ops_.push_back(static_cast<unsigned>(ops_.size()));
    ops_.emplace_back();
  }
  const unsigned op = idle_ops_.back();
  idle_ops_.pop_back();
  ops_[op] = InFlight{id, bytes, h2c_dir, sim_.now(), seq, payload,
                      std::move(done)};

  // Doorbell + descriptor fetch (RQ + DE), then PCIe serialization of the
  // descriptor + payload, then the H2C/C2H engine slot, then CE writeback.
  sim_.schedule_after(kDoorbellLatency, [this, op] {
    const InFlight& f = ops_[op];
    ++stats_.descriptors_fetched;
    if (validator_) validator_->on_descriptor_fetched(f.seq);
    if (faults_ && faults_->should_fail_descriptor_fetch()) {
      // DE abort: the payload never crosses PCIe; the CE writes back an
      // error status after its usual writeback latency. The descriptor
      // still retires cleanly so quiescence accounting holds.
      sim_.schedule_after(kCompletionLatency, [this, op] {
        const InFlight& f = ops_[op];
        complete_descriptor(f.id, f.h2c_dir, f.seq);
        finish(op, Status::Error(Errc::io_error,
                                 "QDMA descriptor fetch error"));
      });
      return;
    }
    pcie_.transfer(f.bytes + kDescriptorBytes, [this, op] {
      auto& engine = ops_[op].h2c_dir ? h2c_engine_ : c2h_engine_;
      engine.submit(kCompletionLatency, [this, op] {
        const InFlight& f = ops_[op];
        complete_descriptor(f.id, f.h2c_dir, f.seq);
        // Completion error: the DMA ran full-length but the CE flags it bad
        // (e.g. reorder-buffer parity); the host must treat it as failed.
        const bool ce_error = faults_ && faults_->should_fail_completion();
        if (!ce_error) {
          // A DMA the CE calls good may still have flipped payload bits in
          // the reorder buffer (DmaCorruptionWindow): silent corruption that
          // only end-to-end checksums can surface.
          if (faults_) faults_->maybe_corrupt_dma(f.payload);
          if (metrics_.h2c_latency) {
            (f.h2c_dir ? metrics_.h2c_latency : metrics_.c2h_latency)
                ->record(sim_.now() - f.start);
          }
        }
        finish(op, ce_error
                       ? Status::Error(Errc::io_error, "QDMA completion error")
                       : Status::Ok());
      });
    });
  });
  return Status::Ok();
}

void QdmaEngine::finish(unsigned op, Status status) {
  const DmaCallback done = std::move(ops_[op].done);
  idle_ops_.push_back(op);
  if (done) done(std::move(status));
}

Status QdmaEngine::h2c(unsigned id, std::uint64_t bytes, DmaCallback done,
                       std::span<std::uint8_t> payload) {
  return dma(id, bytes, /*h2c_dir=*/true, std::move(done), payload);
}

Status QdmaEngine::c2h(unsigned id, std::uint64_t bytes, DmaCallback done,
                       std::span<std::uint8_t> payload) {
  return dma(id, bytes, /*h2c_dir=*/false, std::move(done), payload);
}

}  // namespace dk::fpga
