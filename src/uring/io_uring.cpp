#include "uring/io_uring.hpp"

#include <optional>

#include "common/pipeline_validator.hpp"

namespace dk::uring {

IoUring::IoUring(UringParams params, Backend& backend)
    : params_(params),
      backend_(backend),
      sq_(params.sq_entries),
      cq_(2 * params.sq_entries) {}

void IoUring::attach_metrics(MetricsRegistry& registry,
                             const std::string& prefix) {
  metrics_.sqes = &registry.counter(prefix + ".sqes_submitted");
  metrics_.cqes = &registry.counter(prefix + ".cqes_reaped");
  metrics_.enters = &registry.counter(prefix + ".enter_calls");
  metrics_.poll_wakeups = &registry.counter(prefix + ".sq_poll_wakeups");
  metrics_.sq_full = &registry.counter(prefix + ".sq_full_rejects");
  metrics_.outstanding = &registry.gauge(prefix + ".outstanding");
}

void IoUring::attach_validator(PipelineValidator& validator,
                               unsigned ring_id) {
  validator_ = &validator;
  ring_id_ = ring_id;
}

Status IoUring::prep(const Sqe& sqe) {
  if (!sq_.push(sqe)) {
    ++stats_.sq_full_rejects;
    if (metrics_.sq_full) metrics_.sq_full->inc();
    return Status::Error(Errc::again, "SQ full");
  }
  if (validator_) validator_->on_sqe_queued(ring_id_);
  return Status::Ok();
}

Status IoUring::prep_read(std::int32_t fd, std::uint64_t buf_addr,
                          std::uint32_t len, std::uint64_t off,
                          std::uint64_t user_data) {
  return prep(Sqe{Opcode::read, 0, fd, off, buf_addr, len, user_data});
}

Status IoUring::prep_write(std::int32_t fd, std::uint64_t buf_addr,
                           std::uint32_t len, std::uint64_t off,
                           std::uint64_t user_data) {
  return prep(Sqe{Opcode::write, 0, fd, off, buf_addr, len, user_data});
}

Status IoUring::register_buffers(
    std::vector<std::pair<std::uint64_t, std::uint32_t>> buffers) {
  if (inflight() != 0)
    return Status::Error(Errc::busy, "cannot re-register with I/O in flight");
  buffers_ = std::move(buffers);
  return Status::Ok();
}

Status IoUring::prep_read_fixed(std::int32_t fd, unsigned buf_index,
                                std::uint32_t len, std::uint64_t off,
                                std::uint64_t user_data) {
  // addr carries the buffer INDEX until resolution at submission time.
  return prep(Sqe{Opcode::read_fixed, 0, fd, off, buf_index, len, user_data});
}

Status IoUring::prep_write_fixed(std::int32_t fd, unsigned buf_index,
                                 std::uint32_t len, std::uint64_t off,
                                 std::uint64_t user_data) {
  return prep(Sqe{Opcode::write_fixed, 0, fd, off, buf_index, len, user_data});
}

Status IoUring::register_files(std::vector<std::int32_t> fds) {
  if (inflight() != 0)
    return Status::Error(Errc::busy, "cannot re-register with I/O in flight");
  files_ = std::move(fds);
  return Status::Ok();
}

bool IoUring::resolve(Sqe& sqe) {
  if (sqe.flags & kSqeFixedFile) {
    const auto idx = static_cast<std::size_t>(sqe.fd);
    if (sqe.fd < 0 || idx >= files_.size()) return false;
    sqe.fd = files_[idx];
    sqe.flags &= static_cast<std::uint8_t>(~kSqeFixedFile);
  }
  if (sqe.opcode == Opcode::read_fixed || sqe.opcode == Opcode::write_fixed) {
    const auto idx = static_cast<std::size_t>(sqe.addr);
    if (idx >= buffers_.size()) return false;
    const auto& [addr, cap] = buffers_[idx];
    if (sqe.len > cap) return false;
    sqe.addr = addr;
    sqe.opcode =
        sqe.opcode == Opcode::read_fixed ? Opcode::read : Opcode::write;
  }
  return true;
}

void IoUring::post_cqe(const Cqe& cqe) {
  // CQ overflow mirrors the kernel: the CQ is sized 2x SQ so an app that
  // bounds inflight <= sq_entries cannot overflow. A drop is therefore an
  // accounting bug, which the validator records.
  const bool posted = cq_.push(cqe);
  if (!validator_) return;
  if (posted)
    validator_->on_cqe_posted(ring_id_, cqe.user_data);
  else
    validator_->on_cqe_dropped(ring_id_, cqe.user_data);
}

void IoUring::issue(const Sqe& sqe) {
  Sqe resolved = sqe;
  if (!resolve(resolved)) {
    post_cqe(Cqe{sqe.user_data,
                 -static_cast<std::int32_t>(Errc::invalid_argument),
                 sqe.flags});
    return;
  }
  backend_.submit_io(resolved, [this, ud = sqe.user_data,
                                flags = sqe.flags](std::int32_t res) {
    post_cqe(Cqe{ud, res, flags});
  });
}

void IoUring::issue_chain(std::shared_ptr<std::vector<Sqe>> chain,
                          std::size_t at) {
  // Linked SQEs (IOSQE_IO_LINK): entry `at` runs only after its predecessor
  // succeeded; on failure the rest of the chain is posted as -ECANCELED.
  if (at >= chain->size()) return;
  Sqe resolved = (*chain)[at];
  const std::uint64_t ud = resolved.user_data;
  const std::uint8_t flags = resolved.flags;
  if (!resolve(resolved)) {
    post_cqe(
        Cqe{ud, -static_cast<std::int32_t>(Errc::invalid_argument), flags});
    for (std::size_t i = at + 1; i < chain->size(); ++i)
      post_cqe(Cqe{(*chain)[i].user_data, kResCanceled, (*chain)[i].flags});
    return;
  }
  backend_.submit_io(
      resolved, [this, chain = std::move(chain), at, ud, flags](std::int32_t res) {
        post_cqe(Cqe{ud, res, flags});
        if (res < 0) {
          for (std::size_t i = at + 1; i < chain->size(); ++i)
            post_cqe(
                Cqe{(*chain)[i].user_data, kResCanceled, (*chain)[i].flags});
          return;
        }
        issue_chain(chain, at + 1);
      });
}

unsigned IoUring::drain_sq() {
  unsigned n = 0;
  while (const std::optional<Sqe> popped = sq_.pop()) {
    const Sqe& sqe = *popped;
    ++n;
    ++stats_.sqes_submitted;
    if (validator_) validator_->on_sqe_issued(ring_id_, sqe.user_data);
    if (sqe.flags & kSqeLink) {
      // Collect the full chain: every linked SQE plus the terminator.
      auto chain = std::make_shared<std::vector<Sqe>>();
      chain->push_back(sqe);
      while (chain->back().flags & kSqeLink) {
        const std::optional<Sqe> next = sq_.pop();
        if (!next) {
          // Dangling link: treat the chain as complete (kernel behaviour is
          // to only link against SQEs submitted in the same batch).
          break;
        }
        ++n;
        ++stats_.sqes_submitted;
        if (validator_) validator_->on_sqe_issued(ring_id_, next->user_data);
        chain->push_back(*next);
      }
      issue_chain(std::move(chain), 0);
      continue;
    }
    issue(sqe);
  }
  if (n && metrics_.sqes) {
    metrics_.sqes->inc(n);
    metrics_.outstanding->add(n);
  }
  return n;
}

unsigned IoUring::enter() {
  if (params_.mode == RingMode::kernel_polled) return 0;
  ++stats_.enter_calls;
  if (metrics_.enters) metrics_.enters->inc();
  return drain_sq();
}

unsigned IoUring::kernel_poll() {
  if (params_.mode != RingMode::kernel_polled) return 0;
  const unsigned n = drain_sq();
  if (n) {
    ++stats_.sq_poll_wakeups;
    if (metrics_.poll_wakeups) metrics_.poll_wakeups->inc();
  }
  return n;
}

unsigned IoUring::peek_cqes(std::span<Cqe> out) {
  const unsigned n =
      static_cast<unsigned>(cq_.pop_batch(out.data(), out.size()));
  if (n) {
    stats_.cqes_reaped += n;
    if (metrics_.cqes) {
      metrics_.cqes->inc(n);
      metrics_.outstanding->sub(n);
    }
    if (validator_) validator_->on_cqes_reaped(ring_id_, n);
  }
  return n;
}

}  // namespace dk::uring
