// Tests for the MQ block layer (DMQ): dispatch, tags, merging, splitting,
// scheduler bypass, and CPU-to-hardware-queue mapping.
#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <span>
#include <vector>

#include "blk/mq.hpp"

namespace dk::blk {
namespace {

/// Test driver: records requests; completes on demand (or inline).
class FakeDriver final : public Driver {
 public:
  explicit FakeDriver(bool inline_complete = false)
      : inline_(inline_complete) {}

  void queue_rq(Request request) override {
    if (inline_) {
      request.complete(static_cast<std::int32_t>(request.len));
      return;
    }
    held_.push_back(std::move(request));
  }

  std::size_t held() const { return held_.size(); }
  const Request& at(std::size_t i) const { return held_[i]; }

  void complete_next(std::int32_t res_or_len = -2147483647) {
    ASSERT_FALSE(held_.empty());
    Request r = std::move(held_.front());
    held_.pop_front();
    r.complete(res_or_len == -2147483647 ? static_cast<std::int32_t>(r.len)
                                         : res_or_len);
  }

 private:
  bool inline_;
  std::deque<Request> held_;
};

Request make_req(ReqOp op, std::uint64_t off, std::uint32_t len,
                 std::vector<std::int32_t>* results,
                 std::span<std::uint8_t> data = {}) {
  Request r;
  r.op = op;
  r.offset = off;
  r.len = len;
  r.data = data;
  if (results) r.complete = [results](std::int32_t res) { results->push_back(res); };
  else r.complete = [](std::int32_t) {};
  return r;
}

TEST(MqBlockLayer, SubmitDispatchComplete) {
  FakeDriver drv(true);
  MqBlockLayer mq({}, drv);
  std::vector<std::int32_t> results;
  ASSERT_TRUE(mq.submit(0, make_req(ReqOp::write, 0, 4096, &results)).ok());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], 4096);
  EXPECT_EQ(mq.stats().dispatched, 1u);
  EXPECT_EQ(mq.stats().completed, 1u);
}

TEST(MqBlockLayer, CpuToHwQueueMapping) {
  FakeDriver drv;
  MqBlockLayer mq({.nr_hw_queues = 3}, drv);
  EXPECT_EQ(mq.hw_queue_of_cpu(0), 0u);
  EXPECT_EQ(mq.hw_queue_of_cpu(1), 1u);
  EXPECT_EQ(mq.hw_queue_of_cpu(2), 2u);
  EXPECT_EQ(mq.hw_queue_of_cpu(3), 0u);
}

TEST(MqBlockLayer, TagExhaustionQueuesAndResumesOnCompletion) {
  FakeDriver drv;
  MqBlockLayer mq({.nr_hw_queues = 1, .queue_depth = 2}, drv);
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(mq.submit(0, make_req(ReqOp::read, 4096ull * i, 4096, nullptr)).ok());
  EXPECT_EQ(drv.held(), 2u) << "only queue_depth requests reach the driver";
  EXPECT_EQ(mq.tags_in_use(0), 2u);
  EXPECT_EQ(mq.queued(0), 2u);
  EXPECT_GT(mq.stats().tag_waits, 0u);
  drv.complete_next();
  EXPECT_EQ(drv.held(), 2u) << "tag release re-pumps the queue";
  drv.complete_next();
  drv.complete_next();
  drv.complete_next();
  EXPECT_EQ(mq.stats().completed, 4u);
}

TEST(MqBlockLayer, OversizedRequestIsSplitAndCompletesOnce) {
  FakeDriver drv(true);
  MqBlockLayer mq({.max_io_bytes = 128 * 1024}, drv);
  std::vector<std::int32_t> results;
  ASSERT_TRUE(mq.submit(0, make_req(ReqOp::write, 0, 512 * 1024, &results)).ok());
  ASSERT_EQ(results.size(), 1u) << "split fragments must complete as one bio";
  EXPECT_EQ(results[0], 512 * 1024);
  EXPECT_EQ(mq.stats().splits, 3u);
  EXPECT_EQ(mq.stats().dispatched, 4u);
}

TEST(MqBlockLayer, SplitReadHandsEachFragmentItsOwnPayload) {
  FakeDriver drv;
  MqBlockLayer mq({.max_io_bytes = 4096}, drv);
  std::array<Payload, 3> pages;
  Request r = make_req(ReqOp::read, 0, 3 * 4096 - 100, nullptr);
  r.pages = pages.data();
  ASSERT_TRUE(mq.submit(0, std::move(r)).ok());
  ASSERT_EQ(drv.held(), 3u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(drv.at(i).pages, &pages[i]) << "fragment " << i;
}

TEST(MqBlockLayer, ReadsThatNameTheirOwnPagesNeverMerge) {
  // One tag: the first read holds it, the others wait in the elevator,
  // each starting where the one before it ends.
  std::array<Payload, 3> pages;
  for (const bool own_pages : {false, true}) {
    FakeDriver drv;
    MqBlockLayer mq({.nr_hw_queues = 1, .queue_depth = 1,
                     .bypass_scheduler = false},
                    drv);
    for (std::size_t i = 0; i < 3; ++i) {
      Request r = make_req(ReqOp::read, 4096 * i, 4096, nullptr);
      if (own_pages) r.pages = &pages[i];
      ASSERT_TRUE(mq.submit(0, std::move(r)).ok());
    }
    // Timing-only reads (no view, no pages) merge as before.
    EXPECT_EQ(mq.stats().merges, own_pages ? 0u : 1u) << own_pages;
    EXPECT_EQ(mq.queued(0), own_pages ? 2u : 1u) << own_pages;
  }
}

TEST(MqBlockLayer, SplitFragmentsCoverDistinctRanges) {
  FakeDriver drv;
  MqBlockLayer mq({.max_io_bytes = 4096}, drv);
  std::vector<std::uint8_t> buf(3 * 4096);
  ASSERT_TRUE(
      mq.submit(0, make_req(ReqOp::read, 0, 3 * 4096, nullptr, buf)).ok());
  ASSERT_EQ(drv.held(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(drv.at(i).offset, i * 4096);
    EXPECT_EQ(drv.at(i).len, 4096u);
    EXPECT_EQ(drv.at(i).data.data(), buf.data() + i * 4096)
        << "each fragment views its own slice of the payload";
    EXPECT_EQ(drv.at(i).data.size(), 4096u);
  }
}

TEST(MqBlockLayer, SchedulerMergesSequentialBios) {
  FakeDriver drv;
  // queue_depth 1 so the second/third bios wait in the elevator and merge.
  MqBlockLayer mq({.nr_hw_queues = 1, .queue_depth = 1,
                   .bypass_scheduler = false},
                  drv);
  std::vector<std::int32_t> results;
  ASSERT_TRUE(mq.submit(0, make_req(ReqOp::write, 0, 4096, &results)).ok());
  ASSERT_TRUE(mq.submit(0, make_req(ReqOp::write, 4096, 4096, &results)).ok());
  ASSERT_TRUE(mq.submit(0, make_req(ReqOp::write, 8192, 4096, &results)).ok());
  // bio 1 dispatched immediately (took the only tag); bio 3 merged into the
  // queued bio 2.
  EXPECT_EQ(mq.stats().merges, 1u);
  ASSERT_TRUE(mq.submit(0, make_req(ReqOp::write, 12288, 4096, &results)).ok());
  // bios 3 and 4 merged into bio 2 which waits for a tag.
  EXPECT_EQ(mq.stats().merges, 2u);
  drv.complete_next();  // completes bio 1, dispatches merged 2+3+4
  ASSERT_EQ(drv.held(), 1u);
  EXPECT_EQ(drv.at(0).len, 3u * 4096);
  drv.complete_next();
  ASSERT_EQ(results.size(), 4u) << "each merged bio gets its own completion";
  for (std::int32_t r : results) EXPECT_EQ(r, 4096);
}

TEST(MqBlockLayer, MergedBiosOverOneBufferReachTheDriverAsOneView) {
  FakeDriver drv;
  MqBlockLayer mq({.nr_hw_queues = 1, .queue_depth = 1,
                   .bypass_scheduler = false},
                  drv);
  std::vector<std::uint8_t> buf(2 * 4096);
  const std::span<std::uint8_t> view(buf);
  std::vector<std::int32_t> results;
  ASSERT_TRUE(mq.submit(0, make_req(ReqOp::write, 0, 4096, &results)).ok());
  ASSERT_TRUE(mq.submit(0, make_req(ReqOp::write, 4096, 4096, &results,
                                    view.first(4096)))
                  .ok());
  ASSERT_TRUE(mq.submit(0, make_req(ReqOp::write, 8192, 4096, &results,
                                    view.last(4096)))
                  .ok());
  EXPECT_EQ(mq.stats().merges, 1u);
  drv.complete_next();  // frees the tag for the merged request
  ASSERT_EQ(drv.held(), 1u);
  EXPECT_EQ(drv.at(0).len, 2u * 4096);
  EXPECT_EQ(drv.at(0).data.data(), buf.data());
  EXPECT_EQ(drv.at(0).data.size(), buf.size());
  drv.complete_next();
  EXPECT_EQ(results, (std::vector<std::int32_t>{4096, 4096, 4096}));
}

TEST(MqBlockLayer, AdjacentBiosOverDisjointBuffersStaySeparate) {
  FakeDriver drv;
  MqBlockLayer mq({.nr_hw_queues = 1, .queue_depth = 1,
                   .bypass_scheduler = false},
                  drv);
  // Adjacent on the device but not in memory: a gap separates the buffers.
  std::vector<std::uint8_t> buf(3 * 4096);
  const std::span<std::uint8_t> view(buf);
  std::vector<std::int32_t> results;
  ASSERT_TRUE(mq.submit(0, make_req(ReqOp::write, 0, 4096, nullptr)).ok());
  ASSERT_TRUE(mq.submit(0, make_req(ReqOp::write, 4096, 4096, &results,
                                    view.first(4096)))
                  .ok());
  ASSERT_TRUE(mq.submit(0, make_req(ReqOp::write, 8192, 2048, &results,
                                    view.subspan(2 * 4096, 2048)))
                  .ok());
  EXPECT_EQ(mq.stats().merges, 0u);
  EXPECT_EQ(mq.queued(0), 2u);
  drv.complete_next();
  ASSERT_EQ(drv.held(), 1u);
  EXPECT_EQ(drv.at(0).data.data(), buf.data());
  drv.complete_next();
  ASSERT_EQ(drv.held(), 1u);
  EXPECT_EQ(drv.at(0).data.data(), buf.data() + 2 * 4096);
  drv.complete_next();
  EXPECT_EQ(results, (std::vector<std::int32_t>{4096, 2048}))
      << "each bio completes with its own length";
}

TEST(MqBlockLayer, BypassModeNeverMerges) {
  FakeDriver drv;
  MqBlockLayer mq({.nr_hw_queues = 1, .queue_depth = 1,
                   .bypass_scheduler = true},
                  drv);
  ASSERT_TRUE(mq.submit(0, make_req(ReqOp::write, 0, 4096, nullptr)).ok());
  ASSERT_TRUE(mq.submit(0, make_req(ReqOp::write, 4096, 4096, nullptr)).ok());
  EXPECT_EQ(mq.stats().merges, 0u);
  EXPECT_EQ(mq.stats().sched_bypass, 2u);
}

TEST(MqBlockLayer, NonAdjacentBiosDoNotMerge) {
  FakeDriver drv;
  MqBlockLayer mq({.nr_hw_queues = 1, .queue_depth = 1,
                   .bypass_scheduler = false},
                  drv);
  ASSERT_TRUE(mq.submit(0, make_req(ReqOp::write, 0, 4096, nullptr)).ok());
  ASSERT_TRUE(mq.submit(0, make_req(ReqOp::write, 4096, 4096, nullptr)).ok());
  ASSERT_TRUE(mq.submit(0, make_req(ReqOp::write, 99 * 4096, 4096, nullptr)).ok());
  ASSERT_TRUE(mq.submit(0, make_req(ReqOp::read, 8192, 4096, nullptr)).ok());
  EXPECT_EQ(mq.stats().merges, 0u) << "gap or different op must not merge";
}

TEST(MqBlockLayer, ErrorPropagatesToAllMergedBios) {
  FakeDriver drv;
  MqBlockLayer mq({.nr_hw_queues = 1, .queue_depth = 1,
                   .bypass_scheduler = false},
                  drv);
  std::vector<std::int32_t> results;
  ASSERT_TRUE(mq.submit(0, make_req(ReqOp::write, 0, 4096, &results)).ok());
  ASSERT_TRUE(mq.submit(0, make_req(ReqOp::write, 4096, 4096, &results)).ok());
  ASSERT_TRUE(mq.submit(0, make_req(ReqOp::write, 8192, 4096, &results)).ok());
  drv.complete_next(-5);  // bio 1 fails
  drv.complete_next(-5);  // merged bio 2+3 fails
  ASSERT_EQ(results.size(), 3u);
  for (std::int32_t r : results) EXPECT_EQ(r, -5);
}

TEST(MqBlockLayer, ZeroLengthBioRejected) {
  FakeDriver drv;
  MqBlockLayer mq({}, drv);
  EXPECT_FALSE(mq.submit(0, make_req(ReqOp::read, 0, 0, nullptr)).ok());
}

TEST(MqBlockLayer, PayloadViewOfAnotherLengthRejected) {
  FakeDriver drv;
  MqBlockLayer mq({}, drv);
  std::vector<std::uint8_t> buf(4096);
  EXPECT_FALSE(
      mq.submit(0, make_req(ReqOp::write, 0, 8192, nullptr, buf)).ok());
  EXPECT_EQ(drv.held(), 0u);
}

TEST(MqBlockLayer, SeparateHwQueuesHaveIndependentTags) {
  FakeDriver drv;
  MqBlockLayer mq({.nr_hw_queues = 2, .queue_depth = 1}, drv);
  ASSERT_TRUE(mq.submit(0, make_req(ReqOp::read, 0, 512, nullptr)).ok());
  ASSERT_TRUE(mq.submit(1, make_req(ReqOp::read, 512, 512, nullptr)).ok());
  EXPECT_EQ(drv.held(), 2u) << "per-queue tags must not interfere";
  EXPECT_EQ(mq.tags_in_use(0), 1u);
  EXPECT_EQ(mq.tags_in_use(1), 1u);
}

}  // namespace
}  // namespace dk::blk
