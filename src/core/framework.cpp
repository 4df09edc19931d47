#include "core/framework.hpp"

#include <utility>

#include "common/annotations.hpp"
#include "common/check.hpp"
#include "common/crc32c.hpp"

namespace dk::core {

// ---------------------------------------------------------------------------
// Adapters

/// uring backend: SQEs consumed from the rings re-enter the framework
/// pipeline; completions are posted back as CQEs.
class Framework::RingBackend final : public uring::Backend {
 public:
  explicit RingBackend(Framework& fw) : fw_(fw) {}

  void submit_io(const uring::Sqe& sqe, uring::CompleteFn complete) override {
    IoCtx& io = fw_.slot_of(sqe.user_data);
    io.ring_complete = std::move(complete);
    fw_.start_io(io);
  }

 private:
  Framework& fw_;
};

/// blk driver for variants whose payload does NOT ride QDMA (software
/// baselines and D1): continue straight into the remote pipeline.
class Framework::PipelineDriver final : public blk::Driver {
 public:
  explicit PipelineDriver(Framework& fw) : fw_(fw) {}

  void queue_rq(blk::Request request) override {
    blk::CompleteFn complete = std::move(request.complete);
    fw_.run_remote(request, std::move(complete));
  }

 private:
  Framework& fw_;
};

// ---------------------------------------------------------------------------

namespace {
// Seed of every Framework's cluster (the OSDs' service-time jitter).
constexpr std::uint64_t kClusterSeed = 42;
}  // namespace

Framework::Framework(sim::Simulator& sim, FrameworkConfig config)
    : sim_(sim), config_(config), traits_(variant_traits(config.variant)) {
  // The placement algorithm selects the host buckets (the OSD level is what
  // the bucket kernels accelerate and what ablations vary).
  cluster_ = std::make_unique<rados::Cluster>(
      sim_, rados::ClusterConfig{.crush = {.host_alg = config_.placement_alg},
                                 .seed = kClusterSeed,
                                 .integrity = config_.integrity,
                                 .blockstore = config_.blockstore});
  client_ = std::make_unique<rados::RadosClient>(*cluster_);
  if (config_.integrity) {
    client_->set_integrity(true);
    client_->set_validator(&validator_);
  }
  // WAL journal-intent accounting feeds the journal_leak rule.
  cluster_->set_validator(&validator_);

  pool_ = config_.pool_mode == PoolMode::replicated
              ? cluster_->create_replicated_pool(config_.replica_size)
              : cluster_->create_ec_pool(config_.ec_profile);

  image_ = std::make_unique<host::RbdDevice>(
      *client_, host::RbdImageSpec{.size_bytes = config_.image_size,
                                   .object_size = config_.object_size,
                                   .pool = pool_});

  const bool any_fpga =
      traits_.fpga_crush || traits_.fpga_ec || traits_.fpga_tcp;
  if (any_fpga) fpga_ = std::make_unique<fpga::FpgaDevice>(sim_);

  const unsigned stations = traits_.uses_uring ? config_.uring_instances : 1;
  for (unsigned i = 0; i < stations; ++i) {
    workers_.push_back(std::make_unique<sim::FifoServer>(sim_, 1, "host-cpu"));
    completion_workers_.push_back(
        std::make_unique<sim::FifoServer>(sim_, 1, "host-cpl"));
  }

  if (traits_.uses_uring) {
    ring_backend_ = std::make_unique<RingBackend>(*this);
    uring::RegistryParams rp;
    rp.instances = config_.uring_instances;
    rp.ring.mode = config_.ring_mode;
    rp.ring.sq_entries = 256;
    urings_ = std::make_unique<uring::UringRegistry>(rp, *ring_backend_);
  }

  blk::MqConfig mqc;
  mqc.nr_hw_queues = stations;
  mqc.bypass_scheduler =
      config_.dmq_bypass_override.value_or(traits_.dmq_bypass);
  mqc.max_io_bytes = 512 * 1024;

  if (traits_.payload_over_qdma) {
    DK_CHECK(fpga_) << "payload-over-QDMA variant without an FPGA device";
    host::UifdConfig uc;
    uc.nr_hw_queues = stations;
    uc.queue_class = config_.pool_mode == PoolMode::erasure
                         ? fpga::QueueClass::erasure_coding
                         : fpga::QueueClass::replication;
    uifd_ = std::make_unique<host::UifdDriver>(
        *fpga_, uc,
        [this](const blk::Request& r, blk::CompleteFn done) {
          run_remote(r, std::move(done));
        });
    mq_ = std::make_unique<blk::MqBlockLayer>(mqc, *uifd_);
  } else {
    driver_ = std::make_unique<PipelineDriver>(*this);
    mq_ = std::make_unique<blk::MqBlockLayer>(mqc, *driver_);
  }

  // Background scrub/recovery attaches before fault injection so a
  // fault-plan mark-out finds the scheduler already registered.
  if (config_.background.enabled) {
    background_ = std::make_unique<rados::BackgroundScheduler>(
        *cluster_, config_.background);
    cluster_->set_background(background_.get());
    background_->set_validator(&validator_);
    background_->start();
  }

  if (config_.fault_plan.enabled()) {
    faults_ = std::make_unique<sim::FaultInjector>(sim_, config_.fault_plan);
    faults_->set_validator(&validator_);
    cluster_->arm_faults(*faults_);
    if (fpga_) fpga_->qdma().set_fault_injector(faults_.get());
  }
  if (config_.fault_plan.enabled()) client_->arm_retries();

  wire_metrics();
  wire_validator();
}

void Framework::wire_metrics() {
  m_writes_ = &metrics_.counter("io.writes");
  m_reads_ = &metrics_.counter("io.reads");
  m_bytes_written_ = &metrics_.counter("io.bytes_written");
  m_bytes_read_ = &metrics_.counter("io.bytes_read");
  m_completions_ = &metrics_.counter("io.completions");
  m_errors_ = &metrics_.counter("io.errors");
  m_inflight_ = &metrics_.gauge("io.inflight");

  mq_->attach_metrics(metrics_, "blk");
  image_->attach_metrics(metrics_, "rbd");
  client_->attach_metrics(metrics_, "rados");
  if (urings_)
    for (std::size_t i = 0; i < urings_->size(); ++i)
      urings_->ring(i).attach_metrics(metrics_, "uring" + std::to_string(i));
  if (uifd_) uifd_->attach_metrics(metrics_, "uifd");
  if (fpga_) fpga_->qdma().attach_metrics(metrics_, "qdma");
  if (faults_) faults_->attach_metrics(metrics_, "fault.injected");
  // integrity.* counters exist only in integrity-armed stacks so faults-off
  // metric dumps stay byte-identical. checksum_failures is shared with the
  // RADOS client (find-or-create on the same name).
  if (config_.integrity) {
    m_checksum_failures_ = &metrics_.counter("integrity.checksum_failures");
    cluster_->attach_metrics(metrics_, "integrity");
  }
  // background.* metrics exist only in background-armed stacks, keeping
  // disarmed metric dumps byte-identical.
  if (background_) background_->attach_metrics(metrics_, "background");
  // blockstore.* metrics exist only in blockstore-armed stacks; all OSDs
  // share the prefix, so counters aggregate and the occupancy gauge (delta
  // updates) sums cluster-wide journal occupancy.
  for (std::size_t i = 0; i < cluster_->osd_count(); ++i) {
    rados::Osd& osd = cluster_->osd(static_cast<int>(i));
    osd.attach_metrics(metrics_, "osd");
    if (config_.blockstore.enabled)
      osd.blockstore()->attach_metrics(metrics_, "blockstore");
  }
}

void Framework::wire_validator() {
  mq_->attach_validator(validator_);
  if (urings_)
    for (std::size_t i = 0; i < urings_->size(); ++i)
      urings_->ring(i).attach_validator(validator_,
                                        static_cast<unsigned>(i));
  if (fpga_) fpga_->qdma().attach_validator(validator_);
}

Framework::~Framework() = default;

rados::WriteStrategy Framework::write_strategy() const {
  if (config_.write_strategy_override) return *config_.write_strategy_override;
  if (config_.pool_mode == PoolMode::erasure && traits_.fpga_ec)
    return rados::WriteStrategy::client_fanout;  // FPGA encodes + fans out
  if (config_.pool_mode == PoolMode::replicated &&
      config_.variant == VariantKind::delibak)
    // §IV.A: the customized QDMA replication queues put every copy on the
    // wire directly, removing the primary->replica store-and-forward hop.
    return rados::WriteStrategy::client_fanout;
  return rados::WriteStrategy::primary_copy;
}

rados::ReadStrategy Framework::read_strategy() const {
  if (config_.pool_mode == PoolMode::erasure && traits_.fpga_ec)
    return rados::ReadStrategy::direct_shards;
  return rados::ReadStrategy::primary;
}

Nanos Framework::sw_crush_time() const {
  const Nanos profiled =
      fpga::kernel_spec(kernel_for_alg(config_.placement_alg)).sw_exec_time;
  return static_cast<Nanos>(static_cast<double>(profiled) * kSwCrushScale);
}

Nanos Framework::host_submit_cost(bool is_write, std::uint64_t bytes) const {
  Nanos t = 0;
  switch (config_.variant) {
    case VariantKind::deliba1: t += kResidualD1; break;
    case VariantKind::deliba2: t += kResidualD2; break;
    case VariantKind::delibak: t += kResidualD3; break;
    default: t += kResidualSw; break;
  }

  if (traits_.uses_uring) {
    t += kUringSubmit;
    if (config_.ring_mode != uring::RingMode::kernel_polled) t += kSyscall;
  } else {
    // read()/write() through the NBD device + user-space librbd daemon.
    t += kSyscall + kNbdLoop + kLibrbd;
  }
  t += traits_.context_switches * kContextSwitch;
  t += traits_.memory_copies * transfer_time(bytes, kCopyBps);

  t += kBlkLayer;
  if (!config_.dmq_bypass_override.value_or(traits_.dmq_bypass))
    t += kMqScheduler;
  if (traits_.uses_uring) t += kUifd;

  if (!traits_.fpga_tcp) {
    t += kHostTcpPerMsg;
    if (is_write) t += transfer_time(bytes, kHostTcpBps);
  }
  if (!traits_.fpga_crush) t += sw_crush_time();
  return t;
}

Nanos Framework::host_complete_cost(bool is_write, std::uint64_t bytes) const {
  Nanos t = 0;
  if (traits_.uses_uring) {
    t += kUringComplete;
    if (config_.ring_mode == uring::RingMode::interrupt) t += kIrqCompletion;
  } else {
    t += us(1) + kIrqCompletion;  // socket wakeup into the NBD daemon
  }
  if (!traits_.fpga_tcp && !is_write) {
    t += kHostTcpPerMsg + transfer_time(bytes, kHostTcpBps);
  }
  return t;
}

Nanos Framework::host_occupancy_extra(std::uint64_t bytes) const {
  switch (config_.variant) {
    case VariantKind::deliba1: return kOccupancyExtraD1;
    case VariantKind::deliba2: return kOccupancyExtraD2;
    case VariantKind::delibak:
      return kOccupancyExtraD3 + transfer_time(bytes, kOccupancyBpsD3);
    case VariantKind::sw_delibak: return kOccupancyExtraD3;
    case VariantKind::sw_ceph_d2: return kOccupancyExtraSw;
  }
  return 0;
}

Nanos Framework::fpga_stage_latency(bool is_write, std::uint64_t bytes) {
  if (!fpga_) return 0;
  Nanos f = 0;
  if (traits_.fpga_crush) {
    const fpga::KernelKind kernel = kernel_for_alg(config_.placement_alg);
    const unsigned fanout = config_.pool_mode == PoolMode::erasure
                                ? config_.ec_profile.total()
                                : config_.replica_size;
    auto lat = fpga_->placement_latency(kernel, fanout);
    if (lat.ok()) {
      f += *lat;
      ++stats_.fpga_placements;
    } else {
      // RM is being reconfigured (or not loaded): fall back to host CRUSH.
      f += sw_crush_time();
      ++stats_.sw_placement_fallbacks;
    }
    if (!traits_.payload_over_qdma) {
      // DeLiBA-1: the placement query crosses PCIe per I/O (the payload
      // itself stays on the host network path).
      f += 2 * fpga_->qdma().idle_latency(64);
    }
  }
  if (traits_.fpga_ec && config_.pool_mode == PoolMode::erasure && is_write) {
    auto enc = fpga_->encode_latency(bytes);
    if (enc.ok()) f += *enc;
  }
  if (traits_.fpga_tcp) {
    // TX of the data-bearing direction plus RX of the other side's frames.
    const std::uint64_t tx = is_write ? bytes : rados::kMsgHeaderBytes;
    const std::uint64_t rx = is_write ? rados::kMsgHeaderBytes : bytes;
    f += fpga_->tcpip().message_latency(tx) +
         fpga_->tcpip().message_latency(rx);
  }
  return f;
}

void Framework::write(unsigned job, std::uint64_t offset,
                      std::vector<std::uint8_t> data, WriteDoneFn cb) {
  IoCtx& ctx = acquire();
  ctx.job = job;
  ctx.offset = offset;
  ctx.length = data.size();
  ctx.data = std::move(data);
  ctx.wcb = std::move(cb);
  submit(ctx);
}

void Framework::read(unsigned job, std::uint64_t offset, std::uint64_t length,
                     ReadDoneFn cb) {
  IoCtx& ctx = acquire();
  ctx.is_read = true;
  ctx.job = job;
  ctx.offset = offset;
  ctx.length = length;
  ctx.rcb = std::move(cb);
  submit(ctx);
}

void Framework::read(unsigned job, std::uint64_t offset, std::uint64_t length,
                     VectorReadDoneFn cb) {
  read(job, offset, length, rados::copy_to_vector(std::move(cb)));
}

DK_HOT Framework::IoCtx& Framework::acquire() {
  if (free_slots_.empty()) {
    const auto slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back().slot = slot;
    return slots_.back();
  }
  IoCtx& io = slots_[free_slots_.back()];
  free_slots_.pop_back();
  return io;
}

DK_HOT void Framework::submit(IoCtx& ctx) {
  if (config_.pool_mode == PoolMode::erasure && !traits_.supports_ec) {
    ctx.read_error =
        Status::Error(Errc::unsupported, "DeLiBA-1 has no EC accelerators");
    deliver(ctx, -static_cast<std::int32_t>(Errc::unsupported));
    return;
  }
  const std::uint64_t bytes = ctx.length;
  if (ctx.is_read) {
    ++stats_.reads;
    stats_.bytes_read += bytes;
    m_reads_->inc();
    m_bytes_read_->inc(bytes);
  } else {
    ++stats_.writes;
    stats_.bytes_written += bytes;
    m_writes_->inc();
    m_bytes_written_->inc(bytes);
  }
  if (config_.integrity) {
    ctx.dma_checksums.resize((bytes + kChecksumBlockBytes - 1) /
                             kChecksumBlockBytes);
    // Checksum a write's payload at the API boundary: everything between
    // here and the RADOS submit (including the H2C DMA) is covered.
    if (!ctx.is_read) block_checksums(ctx.data, ctx.dma_checksums);
  }

  IoCtx& c = ctx;
  const std::uint64_t token = next_token_++ << 32 | c.slot;
  c.token = token;
  c.trace.mark(Stage::submit, sim_.now());
  m_inflight_->add();
  validator_.on_io_started(token);
  if (!traits_.uses_uring) {
    start_io(c);
    return;
  }

  uring::IoUring& ring = urings_->ring(c.job % urings_->size());
  const auto len = static_cast<std::uint32_t>(bytes);
  const Status s = c.is_read ? ring.prep_read(0, token, len, c.offset, token)
                             : ring.prep_write(0, token, len, c.offset, token);
  if (!s.ok()) {
    retire(c);
    m_errors_->inc();
    c.read_error = Status::Error(s.code(), "submission queue full");
    deliver(c, -static_cast<std::int32_t>(s.code()));
    return;
  }
  if (config_.ring_mode == uring::RingMode::kernel_polled)
    ring.kernel_poll();
  else
    ring.enter();
}

Framework::IoCtx& Framework::slot_of(std::uint64_t token) {
  IoCtx& io = slots_[token & 0xffffffffu];
  DK_CHECK(io.token == token) << "no in-flight I/O holds token " << token;
  return io;
}

DK_HOT void Framework::start_io(IoCtx& ctx) {
  // The SQE has been consumed (by the SQ-poll kthread or io_uring_enter)
  // and the request is being handed to the host submission path.
  ctx.trace.mark(Stage::sq_dispatch, sim_.now());
  sim::FifoServer& worker = *workers_[ctx.job % workers_.size()];
  const Nanos submit = host_submit_cost(!ctx.is_read, ctx.length);
  worker.submit(submit, [this, io = &ctx] { enter_block_layer(*io); });
  const Nanos extra = host_occupancy_extra(ctx.length);
  if (extra > 0) worker.submit(extra, nullptr);
}

DK_HOT void Framework::enter_block_layer(IoCtx& ctx) {
  ctx.trace.mark(Stage::blk_enter, sim_.now());

  blk::Request req;
  req.op = ctx.is_read ? blk::ReqOp::read : blk::ReqOp::write;
  req.offset = ctx.offset;
  req.len = static_cast<std::uint32_t>(ctx.length);
  if (ctx.is_read) {
    // One payload for each fragment the block layer may cut the read into.
    const std::uint64_t max = mq_->config().max_io_bytes;
    ctx.pages.resize((ctx.length + max - 1) / max);
    req.pages = ctx.pages.data();
  } else {
    req.data = ctx.data;
  }
  req.user_data = ctx.token;
  req.complete = [this, io = &ctx](std::int32_t res) {
    // The remote side (OSDs / cluster) has answered; only host-side
    // completion processing remains. The block layer completes a split bio
    // once, after its last fragment.
    io->trace.mark(Stage::remote_complete, sim_.now());
    sim::FifoServer& worker =
        *completion_workers_[io->job % completion_workers_.size()];
    const Nanos complete_cost = host_complete_cost(!io->is_read, io->length);
    worker.submit(complete_cost, [this, io, res] { finish_io(*io, res); });
  };
  const Status s = mq_->submit(ctx.job % workers_.size(), std::move(req));
  if (!s.ok()) finish_io(ctx, -static_cast<std::int32_t>(s.code()));
}

void Framework::run_remote(const blk::Request& request, blk::CompleteFn done) {
  IoCtx& io = slot_of(request.user_data);
  io.trace.mark(Stage::driver_dispatch, sim_.now());
  const Nanos f = fpga_stage_latency(!io.is_read, request.len);

  // Serve exactly this fragment: its offset, its payload (a write's view, a
  // read's destination), and its slice of the checksum cover. Fragments
  // start on checksum-block boundaries (the split size is a multiple of
  // kChecksumBlockBytes).
  sim_.schedule_after(f, [this, io = &io, offset = request.offset,
                          len = request.len, data = request.data,
                          pages = request.pages,
                          done = std::move(done)]() mutable {
    IoCtx& ctx = *io;
    ctx.trace.mark(Stage::rados_issue, sim_.now());
    std::span<std::uint32_t> cover;
    if (config_.integrity)
      cover = std::span(ctx.dma_checksums)
                  .subspan((offset - ctx.offset) / kChecksumBlockBytes,
                           (len + kChecksumBlockBytes - 1) /
                               kChecksumBlockBytes);
    if (!ctx.is_read) {
      if (config_.integrity && !block_checksums_match(data, cover)) {
        // The H2C DMA corrupted the payload in flight: fail the write
        // before the bad bytes reach the cluster. Not retryable through the
        // RADOS layer — the buffer itself is wrong.
        note_corruption(ctx);
        done(-static_cast<std::int32_t>(Errc::corrupted));
        return;
      }
      image_->aio_write(offset, data, write_strategy(), std::move(done));
      return;
    }
    image_->aio_read(
        offset, len, read_strategy(),
        [this, io, cover, pages, done = std::move(done)](Result<Payload> r) {
          if (!r.ok()) {
            Status& first = io->read_error;
            if (first.ok()) first = r.status();
            done(-static_cast<std::int32_t>(r.status().code()));
            return;
          }
          // The fragment's pages, by reference. Cover them across the C2H
          // DMA hop; finish_io() re-verifies on the host side.
          *pages = std::move(*r);
          if (config_.integrity) block_checksums(*pages, cover);
          done(static_cast<std::int32_t>(pages->size()));
        });
  });
}

void Framework::note_corruption(IoCtx& ctx) {
  if (m_checksum_failures_) m_checksum_failures_->inc();
  if (ctx.corruption_detected) return;
  ctx.corruption_detected = true;
  validator_.on_corruption_detected();
}

DK_HOT void Framework::retire(IoCtx& io) {
  validator_.on_io_resolved(io.token);
  m_inflight_->sub();
}

DK_HOT void Framework::finish_io(IoCtx& ctx, std::int32_t res) {
  retire(ctx);
  if (ctx.is_read && res >= 0) {
    // Join the fragments' pages in offset order.
    for (std::size_t i = 1; i < ctx.pages.size(); ++i)
      ctx.pages[0].append(ctx.pages[i]);
    ctx.pages.resize(1);
  }
  if (config_.integrity && ctx.is_read && res >= 0 &&
      !block_checksums_match(ctx.pages[0], ctx.dma_checksums)) {
    // The C2H DMA corrupted the payload after the cluster verified it:
    // surface Errc::corrupted rather than hand wrong bytes to the caller.
    note_corruption(ctx);
    ctx.read_error =
        Status::Error(Errc::corrupted, "payload corrupted in C2H DMA");
    res = -static_cast<std::int32_t>(Errc::corrupted);
  }

  ctx.trace.mark(Stage::complete, sim_.now());
  validator_.on_trace_complete(ctx.trace);
  trace_collector_.collect(ctx.trace);
  last_trace_ = ctx.trace;
  m_completions_->inc();
  if (res < 0) m_errors_->inc();
  // However the op ended, a corruption this layer detected is now resolved:
  // the caller got an error, never the wrong bytes.
  if (ctx.corruption_detected) validator_.on_corruption_resolved();

  // Post + reap the CQE so ring statistics reflect reality.
  if (ctx.ring_complete) {
    ctx.ring_complete(res);
    uring::Cqe cqe;
    urings_->ring(ctx.job % urings_->size()).peek_cqes({&cqe, 1});
  }

  deliver(ctx, res);
}

DK_HOT void Framework::deliver(IoCtx& io, std::int32_t res) {
  const bool is_read = io.is_read;
  const WriteDoneFn wcb = std::move(io.wcb);
  const ReadDoneFn rcb = std::move(io.rcb);
  Payload data = is_read && res >= 0 ? std::move(io.pages[0]) : Payload();
  const Status error = std::move(io.read_error);
  const std::uint32_t slot = io.slot;
  // The checksum cover and the fragment list keep their capacity for the
  // slot's next I/O.
  std::vector<std::uint32_t> sums = std::move(io.dma_checksums);
  std::vector<Payload> pages = std::move(io.pages);
  io = IoCtx{};
  io.slot = slot;
  sums.clear();
  io.dma_checksums = std::move(sums);
  pages.clear();
  io.pages = std::move(pages);
  free_slots_.push_back(slot);
  if (!is_read) {
    wcb(res);
  } else if (res >= 0) {
    rcb(std::move(data));
  } else {
    rcb(error.ok() ? Status::Error(Errc::io_error, "read failed") : error);
  }
}

}  // namespace dk::core
