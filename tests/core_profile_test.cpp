#include "core/profile.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace parcl::core {
namespace {

TEST(Profile, EmptyInput) {
  ParallelProfile profile = profile_intervals({});
  EXPECT_EQ(profile.jobs, 0u);
  EXPECT_DOUBLE_EQ(profile.span, 0.0);
  EXPECT_EQ(profile.render(), "(empty profile)\n");
}

TEST(Profile, SingleJob) {
  ParallelProfile profile = profile_intervals({{1.0, 5.0}});
  EXPECT_EQ(profile.jobs, 1u);
  EXPECT_DOUBLE_EQ(profile.span, 4.0);
  EXPECT_DOUBLE_EQ(profile.total_busy, 4.0);
  EXPECT_EQ(profile.peak_concurrency, 1u);
  EXPECT_DOUBLE_EQ(profile.average_concurrency, 1.0);
  EXPECT_DOUBLE_EQ(profile.serial_fraction, 1.0);
}

TEST(Profile, TwoOverlappingJobs) {
  // [0,4) and [2,6): overlap in [2,4).
  ParallelProfile profile = profile_intervals({{0.0, 4.0}, {2.0, 6.0}});
  EXPECT_DOUBLE_EQ(profile.span, 6.0);
  EXPECT_DOUBLE_EQ(profile.total_busy, 8.0);
  EXPECT_EQ(profile.peak_concurrency, 2u);
  EXPECT_NEAR(profile.average_concurrency, 8.0 / 6.0, 1e-12);
  // Serial in [0,2) and [4,6): 4 of 6 seconds.
  EXPECT_NEAR(profile.serial_fraction, 4.0 / 6.0, 1e-12);
}

TEST(Profile, PerfectlyParallelBlock) {
  std::vector<Interval> intervals;
  for (int i = 0; i < 8; ++i) intervals.push_back({10.0, 20.0});
  ParallelProfile profile = profile_intervals(intervals);
  EXPECT_EQ(profile.peak_concurrency, 8u);
  EXPECT_DOUBLE_EQ(profile.average_concurrency, 8.0);
  EXPECT_DOUBLE_EQ(profile.serial_fraction, 0.0);
  EXPECT_DOUBLE_EQ(profile.utilization(8), 1.0);
  EXPECT_DOUBLE_EQ(profile.utilization(16), 0.5);
}

TEST(Profile, BackToBackIntervalsNeverOverlap) {
  ParallelProfile profile = profile_intervals({{0.0, 1.0}, {1.0, 2.0}, {2.0, 3.0}});
  EXPECT_EQ(profile.peak_concurrency, 1u);
  EXPECT_DOUBLE_EQ(profile.serial_fraction, 1.0);
}

TEST(Profile, RejectsInvertedInterval) {
  EXPECT_THROW(profile_intervals({{5.0, 1.0}}), util::ConfigError);
}

TEST(Profile, FromRunSummarySkipsSkipped) {
  RunSummary summary;
  summary.results.resize(3);
  summary.results[0].seq = 1;
  summary.results[0].status = JobStatus::kSuccess;
  summary.results[0].start_time = 0.0;
  summary.results[0].end_time = 2.0;
  summary.results[1].seq = 2;
  summary.results[1].status = JobStatus::kSkipped;
  summary.results[2].seq = 3;
  summary.results[2].status = JobStatus::kFailed;
  summary.results[2].start_time = 1.0;
  summary.results[2].end_time = 3.0;
  ParallelProfile profile = profile_run(summary);
  EXPECT_EQ(profile.jobs, 2u);  // skipped job excluded
  EXPECT_EQ(profile.peak_concurrency, 2u);
}

TEST(Profile, FromJoblogEntries) {
  std::vector<JoblogEntry> entries(2);
  entries[0].start_time = 100.0;
  entries[0].runtime = 10.0;
  entries[1].start_time = 105.0;
  entries[1].runtime = 10.0;
  ParallelProfile profile = profile_joblog(entries);
  EXPECT_DOUBLE_EQ(profile.span, 15.0);
  EXPECT_EQ(profile.peak_concurrency, 2u);
}

TEST(Profile, RenderShowsBars) {
  ParallelProfile profile = profile_intervals({{0.0, 10.0}, {0.0, 5.0}});
  std::string rendered = profile.render(10, 20);
  EXPECT_NE(rendered.find('#'), std::string::npos);
  EXPECT_EQ(std::count(rendered.begin(), rendered.end(), '\n'), 10);
}

TEST(DispatchCounters, MergeSumsEveryField) {
  DispatchCounters a, b;
  a.spawns = 3;           b.spawns = 5;
  a.direct_execs = 1;     b.direct_execs = 2;
  a.clone3_spawns = 2;    b.clone3_spawns = 4;
  a.zygote_spawns = 1;    b.zygote_spawns = 1;
  a.spawn_seconds = 0.25; b.spawn_seconds = 0.75;
  a.reaps = 3;            b.reaps = 5;
  a.reap_sweeps = 1;      b.reap_sweeps = 0;
  a.polls = 10;           b.polls = 20;
  a.poll_events = 4;      b.poll_events = 6;
  a.exit_wakeups = 2;     b.exit_wakeups = 3;
  a.poll_wait_seconds = 1.5; b.poll_wait_seconds = 0.5;
  a.deferred = 1;         b.deferred = 2;
  a.drained = 0;          b.drained = 7;
  a.escalated = 2;        b.escalated = 1;
  a.host_failures = 1;    b.host_failures = 1;
  a.rescheduled = 1;      b.rescheduled = 0;
  a.hedges_launched = 2;  b.hedges_launched = 1;
  a.hedges_won = 1;       b.hedges_won = 0;
  a.hedges_lost = 1;      b.hedges_lost = 1;
  a.quarantines = 0;      b.quarantines = 1;
  a.joblog_flushes = 2;   b.joblog_flushes = 3;
  a.merge(b);
  EXPECT_EQ(a.spawns, 8u);
  EXPECT_EQ(a.direct_execs, 3u);
  EXPECT_EQ(a.clone3_spawns, 6u);
  EXPECT_EQ(a.zygote_spawns, 2u);
  EXPECT_DOUBLE_EQ(a.spawn_seconds, 1.0);
  EXPECT_EQ(a.reaps, 8u);
  EXPECT_EQ(a.reap_sweeps, 1u);
  EXPECT_EQ(a.polls, 30u);
  EXPECT_EQ(a.poll_events, 10u);
  EXPECT_EQ(a.exit_wakeups, 5u);
  EXPECT_DOUBLE_EQ(a.poll_wait_seconds, 2.0);
  EXPECT_EQ(a.deferred, 3u);
  EXPECT_EQ(a.drained, 7u);
  EXPECT_EQ(a.escalated, 3u);
  EXPECT_EQ(a.host_failures, 2u);
  EXPECT_EQ(a.rescheduled, 1u);
  EXPECT_EQ(a.hedges_launched, 3u);
  EXPECT_EQ(a.hedges_won, 1u);
  EXPECT_EQ(a.hedges_lost, 2u);
  EXPECT_EQ(a.quarantines, 1u);
  EXPECT_EQ(a.joblog_flushes, 5u);
}

TEST(DispatchCounters, RenderReportsJoblogFlushes) {
  DispatchCounters counters;
  EXPECT_EQ(counters.render().find("joblog flushes"), std::string::npos);
  counters.joblog_flushes = 3;
  EXPECT_NE(counters.render().find("joblog flushes   3\n"), std::string::npos);
}

// Property: average concurrency is bounded by peak, and utilization at peak
// slots is <= 1, for random interval sets.
class ProfileSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProfileSweep, Bounds) {
  util::Rng rng(GetParam());
  std::vector<Interval> intervals;
  for (int i = 0; i < 64; ++i) {
    double start = rng.uniform(0.0, 100.0);
    intervals.push_back({start, start + rng.uniform(0.1, 20.0)});
  }
  ParallelProfile profile = profile_intervals(intervals);
  EXPECT_LE(profile.average_concurrency,
            static_cast<double>(profile.peak_concurrency) + 1e-12);
  EXPECT_LE(profile.utilization(profile.peak_concurrency), 1.0 + 1e-12);
  EXPECT_GE(profile.serial_fraction, 0.0);
  EXPECT_LE(profile.serial_fraction, 1.0);
  EXPECT_EQ(profile.levels.back(), 0u);  // everything ends
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfileSweep,
                         ::testing::Values(1u, 7u, 42u, 1234u, 31337u));

}  // namespace
}  // namespace parcl::core
