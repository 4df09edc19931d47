// Tests for the host drivers: UIFD (QDMA-backed blk driver) and the RBD
// virtual-disk striping driver, including end-to-end integration with the
// simulated cluster.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "host/rbd.hpp"
#include "host/uifd.hpp"
#include "rados/client.hpp"
#include "rados/cluster.hpp"

namespace dk::host {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.below(256));
  return v;
}

TEST(Uifd, AllocatesOneQueueSetPerHwQueue) {
  sim::Simulator sim;
  fpga::FpgaDevice dev(sim);
  UifdDriver uifd(dev, {.nr_hw_queues = 3},
                  [](const blk::Request&, blk::CompleteFn done) {
                    done(0);
                  });
  EXPECT_EQ(uifd.queue_sets().size(), 3u);
  EXPECT_EQ(dev.qdma().queue_set_count(), 3u);
}

TEST(Uifd, WritePathDmasHostToCardThenRunsRemote) {
  sim::Simulator sim;
  fpga::FpgaDevice dev(sim);
  Nanos remote_at = -1;
  UifdDriver uifd(dev, {},
                  [&](const blk::Request& r, blk::CompleteFn done) {
                    remote_at = sim.now();
                    done(static_cast<std::int32_t>(r.len));
                  });
  std::int32_t result = 0;
  blk::Request req;
  req.tag = 0;  // the block layer tags every request it dispatches
  req.op = blk::ReqOp::write;
  req.len = 4096;
  req.complete = [&](std::int32_t res) { result = res; };
  uifd.queue_rq(std::move(req));
  sim.run();
  EXPECT_EQ(result, 4096);
  EXPECT_GE(remote_at, dev.qdma().idle_latency(4096))
      << "remote part must start only after the H2C DMA";
  EXPECT_EQ(uifd.stats().writes, 1u);
  EXPECT_EQ(uifd.stats().h2c_bytes, 4096u);
}

TEST(Uifd, ReadPathRunsRemoteThenDmasCardToHost) {
  sim::Simulator sim;
  fpga::FpgaDevice dev(sim);
  UifdDriver uifd(dev, {},
                  [&](const blk::Request& r, blk::CompleteFn done) {
                    sim.schedule_after(us(30), [done = std::move(done), &r] {
                      done(static_cast<std::int32_t>(r.len));
                    });
                  });
  Nanos done_at = -1;
  blk::Request req;
  req.tag = 0;  // the block layer tags every request it dispatches
  req.op = blk::ReqOp::read;
  req.len = 8192;
  req.complete = [&](std::int32_t) { done_at = sim.now(); };
  uifd.queue_rq(std::move(req));
  sim.run();
  EXPECT_GE(done_at, us(30) + dev.qdma().idle_latency(8192));
  EXPECT_EQ(uifd.stats().c2h_bytes, 8192u);
}

TEST(Uifd, RemoteErrorPropagatesWithoutC2hDma) {
  sim::Simulator sim;
  fpga::FpgaDevice dev(sim);
  UifdDriver uifd(dev, {},
                  [](const blk::Request&, blk::CompleteFn done) {
                    done(-5);
                  });
  std::int32_t result = 0;
  blk::Request req;
  req.tag = 0;  // the block layer tags every request it dispatches
  req.op = blk::ReqOp::read;
  req.len = 4096;
  req.complete = [&](std::int32_t res) { result = res; };
  uifd.queue_rq(std::move(req));
  sim.run();
  EXPECT_EQ(result, -5);
  EXPECT_EQ(uifd.stats().errors, 1u);
  EXPECT_EQ(dev.qdma().stats().c2h_ops, 0u);
}

TEST(Uifd, VirtualFunctionIsolatesQueueSets) {
  sim::Simulator sim;
  fpga::FpgaDevice dev(sim);
  auto noop = [](const blk::Request&, blk::CompleteFn done) {
    done(0);
  };
  UifdDriver tenant_a(dev, {.nr_hw_queues = 2, .virtual_function = 1}, noop);
  UifdDriver tenant_b(dev, {.nr_hw_queues = 2, .virtual_function = 2}, noop);
  EXPECT_EQ(dev.qdma().queue_sets_of_vf(1).size(), 2u);
  EXPECT_EQ(dev.qdma().queue_sets_of_vf(2).size(), 2u);
  EXPECT_EQ(dev.qdma().queue_set_count(), 4u);
}

class RbdFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<rados::Cluster>(sim_);
    client_ = std::make_unique<rados::RadosClient>(*cluster_);
    pool_ = cluster_->create_replicated_pool(2);
    image_ = std::make_unique<RbdDevice>(
        *client_, RbdImageSpec{.size_bytes = 64 * MiB,
                               .object_size = 4 * MiB, .pool = pool_});
  }

  std::int32_t write_sync(std::uint64_t off, std::vector<std::uint8_t> data) {
    std::int32_t out = 0;
    image_->aio_write(off, std::move(data), rados::WriteStrategy::primary_copy,
                      [&](std::int32_t r) { out = r; });
    sim_.run();
    return out;
  }

  Result<std::vector<std::uint8_t>> read_sync(std::uint64_t off,
                                              std::uint64_t len) {
    Result<std::vector<std::uint8_t>> out = Status::Error(Errc::timed_out);
    image_->aio_read(off, len, rados::ReadStrategy::primary,
                     [&](Result<std::vector<std::uint8_t>> r) { out = std::move(r); });
    sim_.run();
    return out;
  }

  sim::Simulator sim_;
  std::unique_ptr<rados::Cluster> cluster_;
  std::unique_ptr<rados::RadosClient> client_;
  std::unique_ptr<RbdDevice> image_;
  int pool_ = -1;
};

TEST_F(RbdFixture, BlockWriteReadRoundTrip) {
  auto data = pattern(4096, 1);
  ASSERT_EQ(write_sync(12345 * 4096ull, data), 4096);
  auto r = read_sync(12345 * 4096ull, 4096);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, data);
}

TEST_F(RbdFixture, CrossObjectWriteSplitsAndReassembles) {
  // Write 1 MiB straddling the 4 MiB object boundary.
  const std::uint64_t off = 4 * MiB - 512 * KiB;
  auto data = pattern(1 * MiB, 2);
  ASSERT_EQ(write_sync(off, data), static_cast<std::int32_t>(1 * MiB));
  EXPECT_EQ(image_->stats().object_ops, 2u);
  auto r = read_sync(off, 1 * MiB);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, data);
}

TEST_F(RbdFixture, DistinctOffsetsMapToDistinctObjects) {
  EXPECT_NE(image_->oid_of(0), image_->oid_of(4 * MiB));
  EXPECT_EQ(image_->oid_of(100), image_->oid_of(4 * MiB - 1));
}

TEST_F(RbdFixture, OutOfRangeRejected) {
  EXPECT_LT(write_sync(64 * MiB - 100, pattern(4096, 3)), 0);
  auto r = read_sync(64 * MiB - 100, 4096);
  EXPECT_FALSE(r.ok());
}

TEST_F(RbdFixture, EmptyIoCompletesWithInvalidArgument) {
  // Every I/O the device accepts completes or errors; an empty one used to
  // trip a check and never call back.
  EXPECT_EQ(write_sync(4096, {}),
            -static_cast<std::int32_t>(Errc::invalid_argument));
  auto r = read_sync(4096, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Errc::invalid_argument);
  EXPECT_EQ(image_->stats().object_ops, 0u);
}

TEST_F(RbdFixture, RangeCheckDoesNotWrapAroundTheAddressSpace) {
  // offset + len wraps to 4096 - 4096 = 0 here; the I/O must still be out
  // of range, not land in an oid outside this image's namespace.
  const std::uint64_t top = ~std::uint64_t{0} - 4095;
  EXPECT_EQ(write_sync(top, pattern(4096, 6)),
            -static_cast<std::int32_t>(Errc::out_of_range));
  auto r = read_sync(top, 4096);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Errc::out_of_range);
  EXPECT_EQ(image_->stats().object_ops, 0u);
  EXPECT_EQ(cluster_->total_ops_served(), 0u);
  // The last whole block of the image still fits.
  EXPECT_EQ(write_sync(64 * MiB - 4096, pattern(4096, 7)), 4096);
}

TEST_F(RbdFixture, TwoImagesDoNotCollide) {
  RbdDevice other(*client_, RbdImageSpec{.size_bytes = 64 * MiB,
                                         .object_size = 4 * MiB,
                                         .pool = pool_,
                                         .image_id = 1});
  EXPECT_NE(image_->oid_of(0), other.oid_of(0));
  auto a = pattern(4096, 4);
  auto b = pattern(4096, 5);
  ASSERT_EQ(write_sync(0, a), 4096);
  std::int32_t res = 0;
  other.aio_write(0, b, rados::WriteStrategy::primary_copy,
                  [&](std::int32_t r) { res = r; });
  sim_.run();
  ASSERT_EQ(res, 4096);
  auto ra = read_sync(0, 4096);
  ASSERT_TRUE(ra.ok());
  EXPECT_EQ(*ra, a) << "image 2's write must not clobber image 1";
}

}  // namespace
}  // namespace dk::host
