#include "host/uifd.hpp"

#include <memory>

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

void UifdDriver::dma_with_retry(unsigned qs, std::uint64_t bytes, bool h2c_dir,
                                std::span<std::uint8_t> payload,
                                unsigned attempt,
                                std::function<void(Status)> done) {
  constexpr unsigned kMaxDmaAttempts = 3;
  // Shared so the sync-reject path below can still reach the callback after
  // it was moved into the completion closure.
  auto done_sp = std::make_shared<std::function<void(Status)>>(std::move(done));
  auto on_dma = [this, qs, bytes, h2c_dir, payload, attempt,
                 done_sp](Status s) {
    if (s.ok() || attempt + 1 >= kMaxDmaAttempts) {
      (*done_sp)(std::move(s));
      return;
    }
    ++stats_.dma_retries;
    if (metrics_.dma_retries) metrics_.dma_retries->inc();
    dma_with_retry(qs, bytes, h2c_dir, payload, attempt + 1,
                   std::move(*done_sp));
  };
  const Status issued =
      h2c_dir ? device_.qdma().h2c(qs, bytes, std::move(on_dma), payload)
              : device_.qdma().c2h(qs, bytes, std::move(on_dma), payload);
  if (!issued.ok()) (*done_sp)(issued);
}

void UifdDriver::queue_rq(blk::Request request) {
  const unsigned qs = queue_set_for(request);
  if (metrics_.inflight) {
    metrics_.inflight->add();
    auto inner = std::move(request.complete);
    request.complete = [this, inner = std::move(inner)](std::int32_t res) {
      metrics_.inflight->sub();
      if (res < 0 && metrics_.errors) metrics_.errors->inc();
      inner(res);
    };
  }
  // Requests are move-captured through the async chain; share them so both
  // the DMA completion and the remote completion see the same object.
  auto req = std::make_shared<blk::Request>(std::move(request));

  if (req->op == blk::ReqOp::write || req->op == blk::ReqOp::flush) {
    ++stats_.writes;
    stats_.h2c_bytes += req->len;
    if (metrics_.writes) {
      metrics_.writes->inc();
      metrics_.h2c_bytes->inc(req->len);
    }
    // Host-to-card payload DMA (re-driven on injected DMA errors), then the
    // storage-side pipeline.
    dma_with_retry(qs, req->len, /*h2c_dir=*/true, req->data, 0,
                   [this, req](Status s) {
      if (!s.ok()) {
        ++stats_.errors;
        req->complete(-static_cast<std::int32_t>(s.code()));
        return;
      }
      remote_(*req, [this, req](std::int32_t res) {
        if (res < 0) ++stats_.errors;
        req->complete(res);
      });
    });
    return;
  }

  ++stats_.reads;
  if (metrics_.reads) metrics_.reads->inc();
  // Storage-side fetch first, then card-to-host payload DMA.
  remote_(*req, [this, qs, req](std::int32_t res) {
    if (res < 0) {
      ++stats_.errors;
      req->complete(res);
      return;
    }
    stats_.c2h_bytes += req->len;
    if (metrics_.c2h_bytes) metrics_.c2h_bytes->inc(req->len);
    dma_with_retry(qs, req->len, /*h2c_dir=*/false, req->data, 0,
                   [this, req, res](Status s) {
                     if (!s.ok()) {
                       ++stats_.errors;
                       req->complete(-static_cast<std::int32_t>(s.code()));
                       return;
                     }
                     req->complete(res);
                   });
  });
}

}  // namespace dk::host
