#include "core/joblog.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace parcl::core {
namespace {

class JoblogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each case in its own process, several at once: the test
    // name and the pid keep their files apart.
    path_ = ::testing::TempDir() + "joblog_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "_" + std::to_string(::getpid()) + ".tsv";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  JobResult make_result(std::uint64_t seq, int exit_code) {
    JobResult result;
    result.seq = seq;
    result.status = exit_code == 0 ? JobStatus::kSuccess : JobStatus::kFailed;
    result.exit_code = exit_code;
    result.start_time = 10.0 + static_cast<double>(seq);
    result.end_time = result.start_time + 2.5;
    result.command = "echo " + std::to_string(seq);
    result.stdout_data = "out\n";
    return result;
  }

  std::string path_;
};

TEST_F(JoblogTest, WriteThenReadRoundTrip) {
  {
    JoblogWriter writer(path_);
    writer.record(make_result(1, 0), "node01");
    writer.record(make_result(2, 1), "node02");
  }
  auto entries = read_joblog(path_);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].seq, 1u);
  EXPECT_EQ(entries[0].host, "node01");
  EXPECT_EQ(entries[0].exit_value, 0);
  EXPECT_DOUBLE_EQ(entries[0].runtime, 2.5);
  EXPECT_EQ(entries[0].command, "echo 1");
  EXPECT_EQ(entries[1].exit_value, 1);
}

TEST_F(JoblogTest, AppendDoesNotDuplicateHeader) {
  {
    JoblogWriter writer(path_);
    writer.record(make_result(1, 0), ":");
  }
  {
    JoblogWriter writer(path_);
    writer.record(make_result(2, 0), ":");
  }
  std::ifstream in(path_);
  std::string line;
  int header_lines = 0, total_lines = 0;
  while (std::getline(in, line)) {
    ++total_lines;
    if (line.rfind("Seq\t", 0) == 0) ++header_lines;
  }
  EXPECT_EQ(header_lines, 1);
  EXPECT_EQ(total_lines, 3);
  EXPECT_EQ(read_joblog(path_).size(), 2u);
}

TEST_F(JoblogTest, MissingFileThrows) {
  EXPECT_THROW(read_joblog("/no/such/dir/joblog.tsv"), util::SystemError);
}

TEST_F(JoblogTest, TornFinalLineIsSkippedAndCounted) {
  {
    JoblogWriter writer(path_);
    writer.record(make_result(1, 0), ":");
    writer.record(make_result(2, 0), ":");
  }
  // Tear the last record the way a crash mid-write would: cut the trailing
  // newline and a few bytes off the final row.
  std::string data;
  {
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    data = buffer.str();
  }
  ASSERT_GT(data.size(), 6u);
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << data.substr(0, data.size() - 6);
  }
  JoblogReadStats stats;
  auto entries = read_joblog(path_, &stats);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].seq, 1u);
  EXPECT_EQ(stats.torn_lines, 1u);
  // --resume over the torn log conservatively re-runs the torn seq.
  auto skip = resume_skip_set(entries, /*rerun_failed=*/false);
  EXPECT_EQ(skip, (std::set<std::uint64_t>{1}));
  // The stats out-param is optional; existing callers stay lenient too.
  EXPECT_EQ(read_joblog(path_).size(), 1u);
}

TEST_F(JoblogTest, WriterTrimsTornTailBeforeAppending) {
  {
    JoblogWriter writer(path_);
    writer.record(make_result(1, 0), ":");
  }
  {
    // Crash-torn tail: a partial record with no newline.
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out << "3\t:\t1.0";
  }
  {
    // Re-opening for append must drop the fragment, or the next record
    // would glue onto it and corrupt the log for every later resume.
    JoblogWriter writer(path_);
    writer.record(make_result(2, 0), ":");
  }
  JoblogReadStats stats;
  auto entries = read_joblog(path_, &stats);
  EXPECT_EQ(stats.torn_lines, 0u);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].seq, 1u);
  EXPECT_EQ(entries[1].seq, 2u);
}

TEST_F(JoblogTest, FsyncEachRecordRoundTrips) {
  {
    JoblogWriter writer(path_, /*fsync_each=*/true);
    writer.record(make_result(1, 0), ":");
    writer.record(make_result(2, 1), ":");
  }
  EXPECT_EQ(read_joblog(path_).size(), 2u);
}

TEST(JoblogStream, MalformedLineThrowsWithLineNumber) {
  std::istringstream in("Seq\tHost\tbad header tail\nnot\tenough\tfields\n");
  try {
    read_joblog_stream(in);
    FAIL() << "expected ParseError";
  } catch (const util::ParseError& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos);
  }
}

TEST(JoblogStream, CommandWithTabsSurvives) {
  std::istringstream in("5\t:\t1.0\t2.0\t0\t3\t0\t0\tawk\t'{print}'\tfile\n");
  auto entries = read_joblog_stream(in);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].command, "awk\t'{print}'\tfile");
}

TEST(ResumeSkipSet, ResumeSkipsEverything) {
  std::vector<JoblogEntry> entries(3);
  entries[0].seq = 1;
  entries[0].exit_value = 0;
  entries[1].seq = 2;
  entries[1].exit_value = 1;  // failed
  entries[2].seq = 3;
  entries[2].signal = 9;  // killed
  auto skip = resume_skip_set(entries, /*rerun_failed=*/false);
  EXPECT_EQ(skip, (std::set<std::uint64_t>{1, 2, 3}));
}

TEST(ResumeSkipSet, ResumeFailedRerunsFailures) {
  std::vector<JoblogEntry> entries(3);
  entries[0].seq = 1;
  entries[0].exit_value = 0;
  entries[1].seq = 2;
  entries[1].exit_value = 1;
  entries[2].seq = 3;
  entries[2].signal = 15;
  auto skip = resume_skip_set(entries, /*rerun_failed=*/true);
  EXPECT_EQ(skip, (std::set<std::uint64_t>{1}));
}

TEST(ResumeSkipSet, LatestEntryWinsForRepeatedSeq) {
  std::vector<JoblogEntry> entries(2);
  entries[0].seq = 7;
  entries[0].exit_value = 1;  // first attempt failed
  entries[1].seq = 7;
  entries[1].exit_value = 0;  // retry succeeded
  auto skip = resume_skip_set(entries, /*rerun_failed=*/true);
  EXPECT_EQ(skip, (std::set<std::uint64_t>{7}));
}

}  // namespace
}  // namespace parcl::core
