#include "host/uifd.hpp"

#include "common/annotations.hpp"
#include "common/check.hpp"

namespace dk::host {

UifdDriver::UifdDriver(fpga::FpgaDevice& device, UifdConfig config,
                       RemoteIoFn remote)
    : device_(device), config_(config), remote_(std::move(remote)) {
  DK_CHECK(config_.nr_hw_queues >= 1);
  for (unsigned q = 0; q < config_.nr_hw_queues; ++q) {
    auto id = device_.qdma().alloc_queue_set(config_.queue_class,
                                             config_.virtual_function);
    DK_CHECK(id.ok()) << "QDMA queue sets exhausted";
    queue_sets_.push_back(*id);
  }
  slots_.resize(config_.nr_hw_queues);
}

void UifdDriver::attach_metrics(MetricsRegistry& registry,
                                const std::string& prefix) {
  metrics_.writes = &registry.counter(prefix + ".writes");
  metrics_.reads = &registry.counter(prefix + ".reads");
  metrics_.h2c_bytes = &registry.counter(prefix + ".h2c_bytes");
  metrics_.c2h_bytes = &registry.counter(prefix + ".c2h_bytes");
  metrics_.errors = &registry.counter(prefix + ".errors");
  metrics_.inflight = &registry.gauge(prefix + ".inflight");
  // Fixed global name alongside the client's io.retries.{read,write}. Only
  // registered under an armed fault injector (the sole source of DMA
  // errors) so fault-free metric dumps stay byte-identical.
  if (device_.qdma().fault_injector() != nullptr)
    metrics_.dma_retries = &registry.counter("io.retries.qdma");
}

DK_HOT void UifdDriver::queue_rq(blk::Request request) {
  const unsigned hwq = request.hw_queue;
  const unsigned tag = request.tag;
  const bool tagged = tag != ~0u && hwq < slots_.size();
  DK_CHECK(tagged) << "UIFD request on hw queue " << hwq
                   << " without a block-layer tag";
  if (!tagged) {
    request.complete(-static_cast<std::int32_t>(Errc::invalid_argument));
    return;
  }
  if (tag >= slots_[hwq].size()) slots_[hwq].resize(tag + 1);
  if (metrics_.inflight) metrics_.inflight->add();
  const std::uint32_t len = request.len;
  const bool to_card =
      request.op == blk::ReqOp::write || request.op == blk::ReqOp::flush;
  slot(hwq, tag).request = std::move(request);

  if (to_card) {
    ++stats_.writes;
    stats_.h2c_bytes += len;
    if (metrics_.writes) {
      metrics_.writes->inc();
      metrics_.h2c_bytes->inc(len);
    }
    // Host-to-card payload DMA (re-driven on injected DMA errors), then the
    // storage-side pipeline.
    dma(hwq, tag, 0);
    return;
  }
  ++stats_.reads;
  if (metrics_.reads) metrics_.reads->inc();
  // Storage-side fetch first, then card-to-host payload DMA.
  run_remote(hwq, tag);
}

DK_HOT void UifdDriver::run_remote(unsigned hwq, unsigned tag) {
  remote_(slot(hwq, tag).request, [this, hwq, tag](std::int32_t res) {
    const blk::Request& req = slot(hwq, tag).request;
    if (res < 0 || req.op != blk::ReqOp::read) {
      finish(hwq, tag, res);
      return;
    }
    stats_.c2h_bytes += req.len;
    if (metrics_.c2h_bytes) metrics_.c2h_bytes->inc(req.len);
    slot(hwq, tag).res = res;
    dma(hwq, tag, 0);
  });
}

DK_HOT void UifdDriver::dma(unsigned hwq, unsigned tag, unsigned attempt) {
  const blk::Request& req = slot(hwq, tag).request;
  const unsigned qs = queue_sets_[hwq];
  auto on_done = [this, hwq, tag, attempt](Status s) {
    on_dma(hwq, tag, attempt, std::move(s));
  };
  const Status issued =
      req.op == blk::ReqOp::read
          ? device_.qdma().c2h(qs, req.len, std::move(on_done), req.pages)
          : device_.qdma().h2c(qs, req.len, std::move(on_done), req.data);
  if (!issued.ok())
    finish(hwq, tag, -static_cast<std::int32_t>(issued.code()));
}

DK_HOT void UifdDriver::on_dma(unsigned hwq, unsigned tag, unsigned attempt,
                               Status s) {
  constexpr unsigned kMaxDmaAttempts = 3;
  if (!s.ok() && attempt + 1 < kMaxDmaAttempts) {
    ++stats_.dma_retries;
    if (metrics_.dma_retries) metrics_.dma_retries->inc();
    dma(hwq, tag, attempt + 1);
    return;
  }
  if (!s.ok()) {
    finish(hwq, tag, -static_cast<std::int32_t>(s.code()));
    return;
  }
  // A write's payload is on the card: run it remotely. A read's C2H DMA
  // delivered it to the host: complete with the remote result.
  if (slot(hwq, tag).request.op == blk::ReqOp::read)
    finish(hwq, tag, slot(hwq, tag).res);
  else
    run_remote(hwq, tag);
}

DK_HOT void UifdDriver::finish(unsigned hwq, unsigned tag, std::int32_t res) {
  if (res < 0) {
    ++stats_.errors;
    if (metrics_.errors) metrics_.errors->inc();
  }
  if (metrics_.inflight) metrics_.inflight->sub();
  const blk::CompleteFn done = std::move(slot(hwq, tag).request.complete);
  done(res);
}

}  // namespace dk::host
