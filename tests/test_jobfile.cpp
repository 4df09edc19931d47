// Tests for the fio job-file parser.
#include <gtest/gtest.h>

#include "workload/jobfile.hpp"

namespace dk::workload {
namespace {

TEST(ParseSize, SuffixesAndPlainNumbers) {
  EXPECT_EQ(*parse_size("4096"), 4096u);
  EXPECT_EQ(*parse_size("4k"), 4096u);
  EXPECT_EQ(*parse_size("128K"), 128u * 1024);
  EXPECT_EQ(*parse_size("2m"), 2u * 1024 * 1024);
  EXPECT_EQ(*parse_size("1g"), 1024ull * 1024 * 1024);
  EXPECT_FALSE(parse_size("").ok());
  EXPECT_FALSE(parse_size("abc").ok());
  EXPECT_FALSE(parse_size("12q").ok());
}

TEST(Jobfile, GlobalDefaultsInherit) {
  auto jobs = parse_jobfile(R"(
[global]
bs=128k
iodepth=8
runtime=2

[job1]
rw=randwrite

[job2]
rw=read
bs=4k
)");
  ASSERT_TRUE(jobs.ok()) << jobs.status().to_string();
  ASSERT_EQ(jobs->size(), 2u);
  EXPECT_EQ((*jobs)[0].name, "job1");
  EXPECT_EQ((*jobs)[0].spec.bs, 128u * 1024);
  EXPECT_EQ((*jobs)[0].spec.iodepth, 8u);
  EXPECT_EQ((*jobs)[0].spec.rw, RwMode::rand_write);
  EXPECT_EQ((*jobs)[0].spec.runtime, sec(2));
  EXPECT_EQ((*jobs)[1].spec.bs, 4096u) << "per-job override wins";
  EXPECT_EQ((*jobs)[1].spec.rw, RwMode::seq_read);
}

TEST(Jobfile, VariantAndPoolExtensions) {
  auto jobs = parse_jobfile(R"(
[j]
rw=randread
variant=d2-sw
pool=ec
)");
  ASSERT_TRUE(jobs.ok());
  EXPECT_EQ((*jobs)[0].variant, core::VariantKind::sw_ceph_d2);
  EXPECT_EQ((*jobs)[0].pool, core::PoolMode::erasure);
}

TEST(Jobfile, CommentsAndBlankLinesIgnored) {
  auto jobs = parse_jobfile(R"(
# a comment
; another comment

[j]
rw=write
)");
  ASSERT_TRUE(jobs.ok());
  EXPECT_EQ((*jobs)[0].spec.rw, RwMode::seq_write);
}

TEST(Jobfile, FioCompatKeysAccepted) {
  auto jobs = parse_jobfile(R"(
[j]
rw=randread
direct=1
ioengine=io_uring
time_based
group_reporting
size=1g
)");
  ASSERT_TRUE(jobs.ok()) << jobs.status().to_string();
}

TEST(Jobfile, ErrorsCarryLineNumbers) {
  auto jobs = parse_jobfile("[j]\nrw=sideways\n");
  ASSERT_FALSE(jobs.ok());
  EXPECT_NE(jobs.status().message().find("line 2"), std::string::npos);
}

/// `text` must fail to parse with invalid_argument, naming `line`.
void expect_rejected(std::string_view text, std::string_view line) {
  auto jobs = parse_jobfile(text);
  ASSERT_FALSE(jobs.ok()) << text;
  EXPECT_EQ(jobs.status().code(), Errc::invalid_argument);
  EXPECT_NE(jobs.status().message().find(line), std::string::npos)
      << jobs.status().to_string();
}

TEST(Jobfile, ZeroBlockSizeRejected) {
  expect_rejected("[j]\nrw=read\nbs=0\n", "line 3");
}

TEST(Jobfile, IodepthBeyondUnsignedRejected) {
  // 2^32 + 1 used to narrow to 1 and run at queue depth 1.
  expect_rejected("[j]\niodepth=4294967297\n", "line 2");
  expect_rejected("[j]\nnumjobs=4294967296\n", "line 2");
  auto jobs = parse_jobfile("[j]\niodepth=4294967295\n");
  ASSERT_TRUE(jobs.ok()) << jobs.status().to_string();
  EXPECT_EQ((*jobs)[0].spec.iodepth, 4294967295u);
}

TEST(Jobfile, ZeroIodepthAndNumjobsRejected) {
  expect_rejected("[j]\niodepth=0\n", "line 2");
  expect_rejected("[global]\nnumjobs=0\n[j]\n", "line 2");
}

TEST(Jobfile, RwmixreadAboveHundredRejected) {
  expect_rejected("[j]\nrw=randrw\nrwmixread=250\n", "line 3");
  auto jobs = parse_jobfile("[j]\nrw=randrw\nrwmixread=100\n");
  ASSERT_TRUE(jobs.ok()) << jobs.status().to_string();
  EXPECT_EQ((*jobs)[0].spec.rwmix_read, 100u);
}

TEST(Jobfile, SizeSuffixOverflowRejected) {
  // 2^34 GiB is 2^64 bytes, which used to wrap to 0.
  EXPECT_FALSE(parse_size("17179869184g").ok());
  EXPECT_FALSE(parse_size("18014398509481984k").ok());
  EXPECT_EQ(*parse_size("17179869183g"), 17179869183ull << 30);
  expect_rejected("[j]\nbs=17179869184g\n", "line 2");
}

TEST(Jobfile, UnknownKeyRejected) {
  EXPECT_FALSE(parse_jobfile("[j]\nwarp_speed=9\n").ok());
}

TEST(Jobfile, NoJobsIsAnError) {
  EXPECT_FALSE(parse_jobfile("[global]\nbs=4k\n").ok());
}

TEST(Jobfile, VerifyAndSeedFlags) {
  auto jobs = parse_jobfile("[j]\nrw=randread\nverify=1\nseed=77\nprefill=1\n");
  ASSERT_TRUE(jobs.ok());
  EXPECT_TRUE((*jobs)[0].spec.verify);
  EXPECT_TRUE((*jobs)[0].spec.prefill);
  EXPECT_EQ((*jobs)[0].spec.seed, 77u);
}

}  // namespace
}  // namespace dk::workload
