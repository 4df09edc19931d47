// PipelineValidator: deliberate violations of every invariant class must be
// detected and classified, clean lifecycles must stay silent, and a real
// Framework run must finish with zero violations and a quiescent pipeline.
#include "common/pipeline_validator.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "core/framework.hpp"
#include "uring/io_uring.hpp"
#include "uring/ramdisk.hpp"

namespace dk {
namespace {

using Violation = PipelineValidator::Violation;

/// Swallows the deliberate failures so they never abort (debug builds) and
/// keeps a copy for assertions.
class ValidatorTest : public ::testing::Test {
 protected:
  ValidatorTest()
      : validator_(&registry_),
        scoped_([this](const CheckContext& ctx) {
          reports_.push_back(ctx.message);
        }) {}

  std::uint64_t registry_count(Violation kind) const {
    const Counter* c = registry_.find_counter(
        "check.violations." +
        std::string(PipelineValidator::violation_name(kind)));
    return c ? c->value() : 0;
  }

  MetricsRegistry registry_;
  PipelineValidator validator_;
  std::vector<std::string> reports_;
  ScopedCheckFailureHandler scoped_;
};

// --- SQ/CQ ring state machine ----------------------------------------------

TEST_F(ValidatorTest, CleanRingLifecycleIsSilent) {
  for (std::uint64_t ud = 1; ud <= 8; ++ud) {
    validator_.on_sqe_queued(0);
    validator_.on_sqe_issued(0, ud);
    validator_.on_cqe_posted(0, ud);
  }
  validator_.on_cqes_reaped(0, 8);
  EXPECT_EQ(validator_.violations(), 0u);
  EXPECT_EQ(validator_.ring_inflight(0), 0u);
  EXPECT_EQ(validator_.verify_quiescent(), 0u);
  EXPECT_TRUE(reports_.empty());
}

TEST_F(ValidatorTest, DoubleCompletionDetected) {
  validator_.on_sqe_queued(0);
  validator_.on_sqe_issued(0, 7);
  validator_.on_cqe_posted(0, 7);
  validator_.on_cqe_posted(0, 7);  // the bug
  EXPECT_EQ(validator_.violations(Violation::double_completion), 1u);
  EXPECT_EQ(registry_count(Violation::double_completion), 1u);
  ASSERT_EQ(reports_.size(), 1u);
  EXPECT_NE(reports_[0].find("double completion"), std::string::npos);
}

TEST_F(ValidatorTest, ReusedUserDataAcrossConcurrentSqesIsLegal) {
  validator_.on_sqe_queued(0);
  validator_.on_sqe_issued(0, 7);
  validator_.on_sqe_queued(0);
  validator_.on_sqe_issued(0, 7);
  EXPECT_EQ(validator_.ring_inflight(0), 2u);
  validator_.on_cqe_posted(0, 7);
  validator_.on_cqe_posted(0, 7);
  EXPECT_EQ(validator_.violations(), 0u);
}

TEST_F(ValidatorTest, SqHeadOverrunningTailDetected) {
  validator_.on_sqe_issued(0, 1);  // issued with nothing queued
  EXPECT_EQ(validator_.violations(Violation::ring_accounting), 1u);
}

TEST_F(ValidatorTest, CqHeadOverrunningTailDetected) {
  validator_.on_cqes_reaped(0, 1);  // reaped with nothing posted
  EXPECT_EQ(validator_.violations(Violation::ring_accounting), 1u);
}

TEST_F(ValidatorTest, DroppedCqeCounted) {
  validator_.on_cqe_dropped(2, 99);
  EXPECT_EQ(validator_.violations(Violation::cqe_dropped), 1u);
  EXPECT_EQ(registry_count(Violation::cqe_dropped), 1u);
}

TEST_F(ValidatorTest, RingsTrackedIndependently) {
  validator_.on_sqe_queued(0);
  validator_.on_sqe_issued(0, 1);
  validator_.on_sqe_queued(5);
  validator_.on_sqe_issued(5, 1);
  EXPECT_EQ(validator_.ring_inflight(0), 1u);
  EXPECT_EQ(validator_.ring_inflight(5), 1u);
  validator_.on_cqe_posted(0, 1);
  validator_.on_cqe_posted(5, 1);
  EXPECT_EQ(validator_.violations(), 0u);
}

// A DK_CHECK failure handler may query the validator that is reporting to
// it, and sees the violation being reported already counted and logged.
TEST_F(ValidatorTest, FailureHandlerMayQueryTheReportingValidator) {
  validator_.on_sqe_queued(0);
  validator_.on_sqe_issued(0, 7);
  std::uint64_t seen_total = 0;
  std::vector<std::string> seen_log;
  std::uint64_t seen_inflight = 0;
  {
    ScopedCheckFailureHandler inner([&](const CheckContext&) {
      seen_total = validator_.violations();
      seen_log = validator_.violation_log();
      seen_inflight = validator_.ring_inflight(0);
    });
    validator_.on_cqe_posted(0, 99);  // nothing in flight under 99
  }
  EXPECT_EQ(seen_total, 1u);
  ASSERT_EQ(seen_log.size(), 1u);
  EXPECT_EQ(seen_log[0].rfind("double_completion: ", 0), 0u) << seen_log[0];
  EXPECT_NE(seen_log[0].find("user_data 99"), std::string::npos);
  EXPECT_EQ(seen_inflight, 1u) << "user_data 7 is still in flight";
  EXPECT_TRUE(reports_.empty()) << "the inner handler took the report";
}

// --- blk-mq tag lifecycle ---------------------------------------------------

TEST_F(ValidatorTest, CleanTagLifecycleIsSilent) {
  validator_.set_tag_depth(0, 4);
  for (unsigned tag = 0; tag < 4; ++tag) validator_.on_tag_acquired(0, tag);
  EXPECT_EQ(validator_.tags_in_use(0), 4u);
  for (unsigned tag = 0; tag < 4; ++tag) validator_.on_tag_released(0, tag);
  EXPECT_EQ(validator_.tags_in_use(0), 0u);
  EXPECT_EQ(validator_.violations(), 0u);
  EXPECT_EQ(validator_.verify_quiescent(), 0u);
}

TEST_F(ValidatorTest, TagDoubleAcquireDetected) {
  validator_.set_tag_depth(0, 4);
  validator_.on_tag_acquired(0, 2);
  validator_.on_tag_acquired(0, 2);  // still held
  EXPECT_EQ(validator_.violations(Violation::tag_double_acquire), 1u);
  EXPECT_EQ(validator_.tags_in_use(0), 1u);
}

TEST_F(ValidatorTest, TagBadReleaseDetected) {
  validator_.set_tag_depth(0, 4);
  validator_.on_tag_released(0, 1);  // never acquired
  EXPECT_EQ(validator_.violations(Violation::tag_bad_release), 1u);
}

TEST_F(ValidatorTest, TagOutsideDepthDetected) {
  validator_.set_tag_depth(0, 4);
  validator_.on_tag_acquired(0, 4);  // valid tags are 0..3
  EXPECT_EQ(validator_.violations(Violation::tag_overflow), 1u);
}

TEST_F(ValidatorTest, LeakedTagDetectedAtQuiescence) {
  validator_.set_tag_depth(1, 8);
  validator_.on_tag_acquired(1, 3);
  validator_.on_tag_acquired(1, 5);
  validator_.on_tag_released(1, 3);
  EXPECT_EQ(validator_.verify_quiescent(), 1u);  // tag 5 leaked
  EXPECT_EQ(validator_.violations(Violation::tag_leak), 1u);
  EXPECT_EQ(registry_count(Violation::tag_leak), 1u);
}

// --- QDMA descriptor lifecycle ----------------------------------------------

TEST_F(ValidatorTest, CleanDescriptorLifecycleIsSilent) {
  for (std::uint64_t d = 1; d <= 3; ++d) validator_.on_descriptor_posted(d);
  EXPECT_EQ(validator_.descriptors_outstanding(), 3u);
  for (std::uint64_t d = 1; d <= 3; ++d) {
    validator_.on_descriptor_fetched(d);
    validator_.on_descriptor_completed(d);
  }
  EXPECT_EQ(validator_.descriptors_outstanding(), 0u);
  EXPECT_EQ(validator_.violations(), 0u);
  EXPECT_EQ(validator_.verify_quiescent(), 0u);
}

TEST_F(ValidatorTest, DescriptorReuseBeforeCompletionDetected) {
  validator_.on_descriptor_posted(10);
  validator_.on_descriptor_posted(10);  // reused while outstanding
  EXPECT_EQ(validator_.violations(Violation::descriptor_lifetime), 1u);
}

TEST_F(ValidatorTest, DescriptorDoubleFetchDetected) {
  validator_.on_descriptor_posted(10);
  validator_.on_descriptor_fetched(10);
  validator_.on_descriptor_fetched(10);
  EXPECT_EQ(validator_.violations(Violation::descriptor_lifetime), 1u);
}

TEST_F(ValidatorTest, DescriptorCompletedBeforeFetchDetected) {
  validator_.on_descriptor_posted(10);
  validator_.on_descriptor_completed(10);
  EXPECT_EQ(validator_.violations(Violation::descriptor_lifetime), 1u);
}

TEST_F(ValidatorTest, UnknownDescriptorEventsDetected) {
  validator_.on_descriptor_fetched(11);    // never posted
  validator_.on_descriptor_completed(12);  // never posted
  EXPECT_EQ(validator_.violations(Violation::descriptor_lifetime), 2u);
}

TEST_F(ValidatorTest, LeakedDescriptorDetectedAtQuiescence) {
  validator_.on_descriptor_posted(20);
  validator_.on_descriptor_fetched(20);  // never completed
  EXPECT_EQ(validator_.verify_quiescent(), 1u);
  EXPECT_EQ(validator_.violations(Violation::descriptor_leak), 1u);
}

// --- StageTrace hop-ordering audit ------------------------------------------

TEST_F(ValidatorTest, MonotonicTraceIsSilent) {
  StageTrace t;
  t.mark(Stage::submit, 100);
  t.mark(Stage::sq_dispatch, 150);
  t.mark(Stage::complete, 900);
  validator_.on_trace_complete(t);
  EXPECT_EQ(validator_.traces_audited(), 1u);
  EXPECT_EQ(validator_.violations(), 0u);
}

TEST_F(ValidatorTest, ReorderedTraceDetected) {
  StageTrace t;
  t.mark(Stage::submit, 500);
  t.mark(Stage::sq_dispatch, 100);  // before submit: impossible
  t.mark(Stage::complete, 900);
  validator_.on_trace_complete(t);
  EXPECT_EQ(validator_.violations(Violation::trace_order), 1u);
  EXPECT_EQ(registry_count(Violation::trace_order), 1u);
}

TEST_F(ValidatorTest, CompleteWithoutSubmitDetected) {
  StageTrace t;
  t.mark(Stage::complete, 900);
  validator_.on_trace_complete(t);
  EXPECT_EQ(validator_.violations(Violation::trace_order), 1u);
}

// --- teardown / bookkeeping -------------------------------------------------

TEST_F(ValidatorTest, UnbalancedRingDetectedAtQuiescence) {
  validator_.on_sqe_queued(0);
  validator_.on_sqe_issued(0, 1);  // issued but never completed
  EXPECT_GE(validator_.verify_quiescent(), 1u);
  EXPECT_GE(validator_.violations(Violation::quiescence), 1u);
}

TEST_F(ValidatorTest, ViolationLogIsBounded) {
  for (int i = 0; i < 200; ++i) validator_.on_cqe_dropped(0, i);
  EXPECT_EQ(validator_.violations(Violation::cqe_dropped), 200u);
  EXPECT_LE(validator_.violation_log().size(), 64u);
  // The log keeps the newest entries.
  EXPECT_NE(validator_.violation_log().back().find("199"), std::string::npos);
}

// --- against a real ring ----------------------------------------------------

TEST_F(ValidatorTest, RealRingCqOverflowReportsDrops) {
  uring::RamDisk disk(1 * MiB, /*deferred=*/true);
  uring::UringParams params;
  params.sq_entries = 4;  // CQ defaults to 8
  params.mode = uring::RingMode::interrupt;
  uring::IoUring ring(params, disk);
  ring.attach_validator(validator_, 0);

  std::vector<std::uint8_t> buf(512);
  // Push 12 writes through the SQ in batches; completions stay queued in
  // the device until poll(), so completing all 12 at once overflows the
  // 8-entry CQ and must drop 4.
  for (int batch = 0; batch < 3; ++batch) {
    for (std::uint64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(ring.prep_write(0, reinterpret_cast<std::uint64_t>(buf.data()),
                                  512, 0, batch * 4 + i)
                      .ok());
    }
    ASSERT_EQ(ring.enter(), 4u);
  }
  disk.poll();
  EXPECT_EQ(validator_.violations(Violation::cqe_dropped), 4u);

  std::vector<uring::Cqe> out(16);
  EXPECT_EQ(ring.peek_cqes(out), 8u);
}

TEST_F(ValidatorTest, RealRingCleanRunStaysQuiescent) {
  uring::RamDisk disk(1 * MiB);
  uring::UringParams params;
  params.mode = uring::RingMode::interrupt;
  uring::IoUring ring(params, disk);
  ring.attach_validator(validator_, 3);

  std::vector<std::uint8_t> buf(4096, 0xAB);
  for (std::uint64_t i = 0; i < 32; ++i) {
    ASSERT_TRUE(ring.prep_write(0, reinterpret_cast<std::uint64_t>(buf.data()),
                                4096, 0, i)
                    .ok());
    ring.enter();
    std::vector<uring::Cqe> out(4);
    ASSERT_EQ(ring.peek_cqes(out), 1u);
    EXPECT_EQ(out[0].res, 4096);
  }
  EXPECT_EQ(validator_.violations(), 0u);
  EXPECT_EQ(validator_.verify_quiescent(), 0u);
}

// --- full-stack integration -------------------------------------------------

TEST(ValidatorFramework, FullPipelineRunsWithZeroViolations) {
  sim::Simulator sim;
  core::FrameworkConfig cfg;
  cfg.variant = core::VariantKind::delibak;
  cfg.image_size = 64 * MiB;
  core::Framework fw(sim, cfg);

  std::vector<std::uint8_t> data(8192, 0x5A);
  unsigned done = 0;
  for (unsigned i = 0; i < 16; ++i) {
    fw.write(0, i * 8192, data, [&](std::int32_t r) {
      EXPECT_EQ(r, 8192);
      ++done;
    });
  }
  sim.run();
  ASSERT_EQ(done, 16u);
  for (unsigned i = 0; i < 16; ++i) {
    fw.read(0, i * 8192, 8192, [&](Result<std::vector<std::uint8_t>> r) {
      ASSERT_TRUE(r.ok());
      ++done;
    });
  }
  sim.run();
  ASSERT_EQ(done, 32u);

  PipelineValidator& v = fw.validator();
  EXPECT_EQ(v.violations(), 0u);
  EXPECT_EQ(v.traces_audited(), 32u);
  EXPECT_EQ(v.descriptors_outstanding(), 0u);
  EXPECT_EQ(v.verify_quiescent(), 0u);
  // No violation counters materialized in the metrics registry either.
  for (const auto& name : fw.metrics().counter_names())
    EXPECT_EQ(name.find("check.violations."), std::string::npos) << name;
}

TEST(ValidatorFramework, EveryVariantWindsDownQuiescent) {
  for (core::VariantKind variant :
       {core::VariantKind::sw_ceph_d2, core::VariantKind::sw_delibak,
        core::VariantKind::deliba1, core::VariantKind::deliba2,
        core::VariantKind::delibak}) {
    sim::Simulator sim;
    core::FrameworkConfig cfg;
    cfg.variant = variant;
    cfg.image_size = 64 * MiB;
    core::Framework fw(sim, cfg);
    std::vector<std::uint8_t> data(4096, 0x11);
    fw.write(0, 0, data, [](std::int32_t r) { EXPECT_EQ(r, 4096); });
    sim.run();
    EXPECT_EQ(fw.validator().violations(), 0u)
        << core::variant_short_name(variant);
    EXPECT_EQ(fw.validator().verify_quiescent(), 0u)
        << core::variant_short_name(variant);
  }
}

}  // namespace
}  // namespace dk
