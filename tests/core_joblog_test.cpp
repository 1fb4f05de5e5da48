#include "core/joblog.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

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

// The row as it was formatted through an ostringstream and "%.3f": the
// golden reference for JoblogWriter::row.
std::string printf_row(const JobResult& result, const std::string& host) {
  const double start = round_to_ms(result.start_time);
  std::ostringstream row;
  row << result.seq << '\t' << host << '\t' << util::format_double(start, 3) << '\t'
      << util::format_double(round_to_ms(result.end_time) - start, 3) << '\t' << 0 << '\t'
      << result.stdout_data.size() << '\t' << result.exit_code << '\t'
      << result.term_signal << '\t' << result.command << '\n';
  return row.str();
}

JobResult timed(double start, double end) {
  JobResult result;
  result.seq = 42;
  result.start_time = start;
  result.end_time = end;
  result.command = "echo x";
  result.stdout_data = "x\n";
  return result;
}

TEST(JoblogRow, MatchesPrintfByteForByte) {
  std::vector<JobResult> cases = {
      // Starts on the .0005 s rounding boundary, and next to it.
      timed(0.0005, 0.0015), timed(1.0005, 2.0015), timed(2.4995, 2.5005),
      timed(0.0004999, 0.0005001), timed(123.4565, 123.4575),
      // Zero and sub-millisecond runtimes.
      timed(5.0, 5.0), timed(5.0001, 5.0004), timed(7.1234, 7.1236),
      // Starts of 10^6 s and more, up to where printf takes over.
      timed(1e6, 1e6 + 0.25), timed(1e6 + 0.0005, 1e6 + 1.0005),
      timed(4.2e9 + 0.123, 4.2e9 + 3600.5), timed(8.7e9, 8.7e9 + 0.001),
      timed(1e10 + 0.5, 1e10 + 1.5), timed(1e13, 1e13 + 2.0),
      // Off the usual grid: negative, an end before the start.
      timed(-0.0002, 0.0), timed(-1.5, -0.25), timed(3.0, 2.9994),
  };
  JobResult skipped = timed(0.0, 0.0);
  skipped.exit_code = kDepSkippedExitval;
  skipped.stdout_data.clear();
  cases.push_back(skipped);
  JobResult signaled = timed(9.87654, 19.87654);
  signaled.exit_code = 128 + 9;
  signaled.term_signal = 9;
  signaled.seq = std::numeric_limits<std::uint64_t>::max() - 1;
  cases.push_back(signaled);
  JobResult tabs = timed(1.0, 2.0);
  tabs.command = "awk\t'{print $1}'\tfile\twith tabs";
  tabs.stdout_data.assign(100000, 'y');
  cases.push_back(tabs);
  for (const JobResult& result : cases) {
    EXPECT_EQ(JoblogWriter::row(result, "host-1"), printf_row(result, "host-1"))
        << "start " << result.start_time << " end " << result.end_time;
  }

  // Millions of ms-grid and off-grid times across the range a clock reads.
  std::mt19937_64 rng(20261020);
  std::uniform_real_distribution<double> seconds(0.0, 1e7);
  std::uniform_int_distribution<int> ms(0, 999);
  for (int i = 0; i < 200000; ++i) {
    double start = i % 2 == 0 ? seconds(rng) : std::floor(seconds(rng)) + ms(rng) / 1000.0 + 0.0005;
    double end = start + (i % 3 == 0 ? seconds(rng) / 1e4 : ms(rng) / 1000.0);
    JobResult result = timed(start, end);
    ASSERT_EQ(JoblogWriter::row(result, ":"), printf_row(result, ":"))
        << "start " << start << " end " << end;
  }
}

TEST_F(JoblogTest, SharedTailRowsMatchWholeRows) {
  JobResult result = make_result(7, 3);
  result.term_signal = 15;
  result.start_time = 1.0005;
  std::string tail;
  JoblogWriter::append_row_tail(tail, result);
  {
    JoblogWriter writer(path_);
    writer.record(result.seq, "tenant-a", tail);
    writer.record(99, ":", tail);
  }
  std::ifstream in(path_, std::ios::binary);
  std::string written((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  JobResult relabelled = result;
  relabelled.seq = 99;
  EXPECT_EQ(written,
            "Seq\tHost\tStarttime\tJobRuntime\tSend\tReceive\tExitval\tSignal\tCommand\n" +
                printf_row(result, "tenant-a") + printf_row(relabelled, ":"));
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
