#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "exec/sim_driver.hpp"
#include "storage/dataset.hpp"
#include "storage/filesystem.hpp"
#include "storage/pipeline.hpp"
#include "storage/staging.hpp"
#include "util/error.hpp"

namespace parcl::storage {
namespace {

TEST(Filesystem, ReadChargesMetadataThenData) {
  sim::Simulation sim;
  FilesystemSpec spec;
  spec.name = "t";
  spec.bandwidth = 100.0;
  spec.metadata_op_cost = 0.5;
  SimFilesystem fs(sim, spec);
  bool done = false;
  fs.read_file(200.0, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);  // 0.5 metadata + 2.0 data
  EXPECT_EQ(fs.metadata_ops(), 1u);
}

TEST(Filesystem, MetadataServersLimitConcurrency) {
  sim::Simulation sim;
  FilesystemSpec spec;
  spec.bandwidth = 1e12;  // data is free
  spec.metadata_op_cost = 1.0;
  spec.metadata_servers = 2;
  SimFilesystem fs(sim, spec);
  int done = 0;
  for (int i = 0; i < 6; ++i) fs.unlink_file([&] { ++done; });
  sim.run();
  EXPECT_EQ(done, 6);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);  // 6 ops / 2 servers at 1s each
}

TEST(Filesystem, NvmeMetadataIsNearlyFree) {
  sim::Simulation sim;
  SimFilesystem nvme(sim, FilesystemSpec::nvme());
  SimFilesystem lustre(sim, FilesystemSpec::lustre());
  EXPECT_LT(nvme.spec().metadata_op_cost, lustre.spec().metadata_op_cost / 10.0);
}

TEST(Dataset, GeneratorsProduceRequestedShape) {
  util::Rng rng(5);
  Dataset logs = Dataset::lognormal("logs", 100, 1e6, 0.5, rng);
  EXPECT_EQ(logs.file_count(), 100u);
  EXPECT_GT(logs.total_bytes(), 0.0);

  Dataset flat = Dataset::uniform("flat", 10, 1000.0);
  EXPECT_DOUBLE_EQ(flat.total_bytes(), 10000.0);

  Dataset archive = Dataset::project_archive("proj", 1000, 1e12, rng);
  EXPECT_EQ(archive.file_count(), 1000u);
  EXPECT_NEAR(archive.total_bytes(), 1e12, 2e11);
}

TEST(Dataset, StripingCoversEveryFileExactlyOnce) {
  util::Rng rng(7);
  Dataset dataset = Dataset::lognormal("d", 1003, 1e5, 1.0, rng);
  auto shards = stripe_files(dataset, 8);
  std::size_t total = 0;
  for (const auto& shard : shards) total += shard.size();
  EXPECT_EQ(total, 1003u);
  // Balanced to within one file.
  std::size_t lo = shards[0].size(), hi = shards[0].size();
  for (const auto& shard : shards) {
    lo = std::min(lo, shard.size());
    hi = std::max(hi, shard.size());
  }
  EXPECT_LE(hi - lo, 1u);
}

core::Options jobs_option(std::size_t jobs) {
  core::Options options;
  options.jobs = jobs;
  return options;
}

/// Runs one rsync fan-out at -j`streams` from `src` to `dst` and returns
/// its makespan.
double run_fanout(sim::Simulation& sim, SimFilesystem& src, SimFilesystem& dst,
                  const std::vector<FileEntry>& files, std::size_t streams,
                  double per_file_overhead,
                  std::function<void(const FileEntry&)> landed = {}) {
  exec::SimDriver driver(sim, jobs_option(streams));
  double makespan = -1.0;
  driver.add(
      0.0, files.size(),
      [&] {
        return rsync_executor(sim, files, per_file_overhead, {&src.data(), &dst.data()},
                              landed);
      },
      [&](const core::RunSummary& summary) { makespan = summary.makespan; });
  driver.run();
  return makespan;
}

TEST(Staging, CopiesEverythingAndReportsThroughput) {
  sim::Simulation sim;
  FilesystemSpec fast;
  fast.bandwidth = 1e9;
  SimFilesystem src(sim, fast);
  SimFilesystem dst(sim, fast);
  Dataset dataset = Dataset::uniform("d", 64, 1e6);
  std::size_t landed = 0;
  double landed_bytes = 0.0;
  double makespan = run_fanout(sim, src, dst, dataset.files, 8, 0.01,
                               [&](const FileEntry& file) {
                                 ++landed;
                                 landed_bytes += file.bytes;
                               });
  EXPECT_EQ(landed, 64u);
  EXPECT_DOUBLE_EQ(landed_bytes, 64e6);
  EXPECT_DOUBLE_EQ(dst.bytes_moved(), 64e6);
  EXPECT_DOUBLE_EQ(src.bytes_moved(), 64e6);
  EXPECT_DOUBLE_EQ(makespan, sim.now());
  EXPECT_GT(dst.bytes_moved() / makespan, 0.0);
}

TEST(Staging, MoreStreamsFinishFasterOnOverheadBoundWork) {
  auto run_with_streams = [](std::size_t streams) {
    sim::Simulation sim;
    FilesystemSpec fast;
    fast.bandwidth = 1e12;
    SimFilesystem src(sim, fast);
    SimFilesystem dst(sim, fast);
    Dataset dataset = Dataset::uniform("d", 320, 1e3);  // tiny files
    return run_fanout(sim, src, dst, dataset.files, streams, 0.05);
  };
  double serial = run_with_streams(1);
  double wide = run_with_streams(32);
  EXPECT_NEAR(serial / wide, 32.0, 2.0);
}

TEST(Staging, EmptyFileListCompletesImmediately) {
  sim::Simulation sim;
  SimFilesystem src(sim, FilesystemSpec::lustre());
  SimFilesystem dst(sim, FilesystemSpec::nvme());
  std::size_t landed = 0;
  double makespan = run_fanout(sim, src, dst, {}, 32, 0.05,
                               [&](const FileEntry&) { ++landed; });
  EXPECT_DOUBLE_EQ(makespan, 0.0);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(landed, 0u);
  EXPECT_DOUBLE_EQ(dst.bytes_moved(), 0.0);
}

TEST(Staging, OneStreamLandsFilesInInputOrderOnce) {
  sim::Simulation sim;
  FilesystemSpec fast;
  fast.bandwidth = 1e6;
  SimFilesystem src(sim, fast);
  SimFilesystem dst(sim, fast);
  util::Rng rng(9);
  Dataset dataset = Dataset::lognormal("d", 50, 1e5, 1.0, rng);
  std::vector<std::string> landed;
  run_fanout(sim, src, dst, dataset.files, 1, 0.01,
             [&](const FileEntry& file) { landed.push_back(file.path); });
  std::vector<std::string> expected;
  for (const FileEntry& file : dataset.files) expected.push_back(file.path);
  EXPECT_EQ(landed, expected);
}

TEST(Staging, NeverMoreCopiesInFlightThanStreams) {
  // A copy is in flight from its job's start until it lands; the engine
  // starts the next one only after reaping a landed copy, so the count just
  // before each landing is the peak since the previous one.
  sim::Simulation sim;
  FilesystemSpec fast;
  fast.bandwidth = 1e6;
  SimFilesystem src(sim, fast);
  SimFilesystem dst(sim, fast);
  util::Rng rng(13);
  Dataset dataset = Dataset::lognormal("d", 200, 1e5, 1.5, rng);
  exec::SimDriver driver(sim, jobs_option(6));
  exec::SimExecutor* executor = nullptr;
  std::size_t peak = 0;
  std::size_t landed = 0;
  driver.add(0.0, dataset.files.size(), [&] {
    auto fanout = rsync_executor(sim, dataset.files, 0.01, {&src.data(), &dst.data()},
                                 [&](const FileEntry&) {
                                   ++landed;
                                   peak = std::max(peak, executor->active_count());
                                 });
    executor = fanout.get();
    return fanout;
  });
  driver.run();
  EXPECT_EQ(landed, 200u);
  EXPECT_EQ(peak, 6u);
}

TEST(DeleteFiles, CountsUnlinksAndFreesSpace) {
  sim::Simulation sim;
  FilesystemSpec spec;
  spec.bandwidth = 1.0;
  spec.metadata_op_cost = 0.1;
  spec.metadata_servers = 10;
  SimFilesystem fs(sim, spec);
  Dataset dataset = Dataset::uniform("d", 20, 100.0);
  for (const auto& file : dataset.files) fs.account_store(file.bytes);
  EXPECT_DOUBLE_EQ(fs.bytes_stored(), 2000.0);
  bool done = false;
  delete_files(fs, dataset.files, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(fs.metadata_ops(), 20u);
  EXPECT_DOUBLE_EQ(fs.bytes_stored(), 0.0);
  EXPECT_DOUBLE_EQ(fs.peak_bytes_stored(), 2000.0);
}

TEST(PipelineFootprint, EvictionBoundsNvmeUsage) {
  // With depth 1 the NVMe never holds more than two datasets at once.
  sim::Simulation sim;
  SimFilesystem lustre(sim, FilesystemSpec::lustre());
  SimFilesystem nvme(sim, FilesystemSpec::nvme());
  PipelineConfig config;
  config.process_from_lustre = 100.0;
  config.process_from_nvme = 80.0;
  util::Rng rng(3);
  const double dataset_bytes = 1000.0 * 100;
  for (int d = 0; d < 5; ++d) {
    config.datasets.push_back(Dataset::uniform("d" + std::to_string(d), 100, 1000.0));
  }
  PipelineRunner runner(sim, lustre, nvme, config);
  runner.run();
  EXPECT_LE(nvme.peak_bytes_stored(), 2.0 * dataset_bytes + 1.0);
  EXPECT_GE(nvme.peak_bytes_stored(), dataset_bytes);
}

class PipelineFixture : public ::testing::Test {
 protected:
  PipelineConfig make_config(std::size_t datasets, double copy_file_bytes = 1e3) {
    PipelineConfig config;
    config.process_from_lustre = 86.0 * 60.0;
    config.process_from_nvme = 68.0 * 60.0;
    config.staging.parallel_streams = 32;
    config.staging.per_file_overhead = 0.01;
    util::Rng rng(11);
    for (std::size_t d = 0; d < datasets; ++d) {
      config.datasets.push_back(
          Dataset::uniform("ds" + std::to_string(d), 100, copy_file_bytes));
    }
    return config;
  }
};

TEST_F(PipelineFixture, ReproducesPaperArithmetic) {
  // Copies are much faster than stages, so the paper's closed form holds:
  // 86 + 4*68 = 358 minutes vs 5*86 = 430, a 17% improvement.
  sim::Simulation sim;
  SimFilesystem lustre(sim, FilesystemSpec::lustre());
  SimFilesystem nvme(sim, FilesystemSpec::nvme());
  PipelineRunner runner(sim, lustre, nvme, make_config(5));
  PipelineReport report = runner.run();
  ASSERT_EQ(report.stages.size(), 5u);
  EXPECT_EQ(report.stages[0].processed_from, "lustre");
  EXPECT_EQ(report.stages[1].processed_from, "nvme");
  EXPECT_NEAR(report.makespan / 60.0, 358.0, 1.0);
  EXPECT_NEAR(report.lustre_only_estimate / 60.0, 430.0, 0.1);
  EXPECT_NEAR(report.improvement_percent(), 17.0, 1.0);
}

TEST_F(PipelineFixture, SlowCopyExtendsStage) {
  // Prefetch slower than processing: the barrier waits for the copy.
  sim::Simulation sim;
  FilesystemSpec slow;
  slow.bandwidth = 10.0;  // bytes/s: copying 100 files x 1e3 B takes ages
  SimFilesystem lustre(sim, slow);
  SimFilesystem nvme(sim, FilesystemSpec::nvme());
  PipelineConfig config = make_config(2);
  PipelineRunner runner(sim, lustre, nvme, config);
  PipelineReport report = runner.run();
  // Stage 1 takes copy time (1e5 B / 10 B/s = 1e4 s) > 86 min.
  EXPECT_GT(report.stages[0].duration(), 86.0 * 60.0);
  EXPECT_GT(report.stages[0].copy_seconds, 86.0 * 60.0);
}

TEST_F(PipelineFixture, StageReportsAreContiguous) {
  sim::Simulation sim;
  SimFilesystem lustre(sim, FilesystemSpec::lustre());
  SimFilesystem nvme(sim, FilesystemSpec::nvme());
  PipelineRunner runner(sim, lustre, nvme, make_config(4));
  PipelineReport report = runner.run();
  for (std::size_t s = 1; s < report.stages.size(); ++s) {
    EXPECT_DOUBLE_EQ(report.stages[s].start_time, report.stages[s - 1].end_time);
  }
  EXPECT_DOUBLE_EQ(report.stages.back().end_time, report.makespan);
}

TEST_F(PipelineFixture, RejectsBadConfig) {
  sim::Simulation sim;
  SimFilesystem lustre(sim, FilesystemSpec::lustre());
  SimFilesystem nvme(sim, FilesystemSpec::nvme());
  PipelineConfig empty;
  EXPECT_THROW(PipelineRunner(sim, lustre, nvme, empty), util::ConfigError);
  PipelineConfig bad = make_config(2);
  bad.prefetch_depth = 0;
  EXPECT_THROW(PipelineRunner(sim, lustre, nvme, bad), util::ConfigError);
  PipelineConfig no_streams = make_config(2);
  no_streams.staging.parallel_streams = 0;  // -j0 would be one per CPU
  EXPECT_THROW(PipelineRunner(sim, lustre, nvme, no_streams), util::ConfigError);
  PipelineConfig negative = make_config(2);
  negative.staging.per_file_overhead = -0.01;
  EXPECT_THROW(PipelineRunner(sim, lustre, nvme, negative), util::ConfigError);
}

double run_pipeline(PipelineConfig config, double* nvme_peak = nullptr) {
  sim::Simulation sim;
  SimFilesystem lustre(sim, FilesystemSpec::lustre());
  SimFilesystem nvme(sim, FilesystemSpec::nvme());
  PipelineRunner runner(sim, lustre, nvme, std::move(config));
  PipelineReport report = runner.run();
  if (nvme_peak != nullptr) *nvme_peak = nvme.peak_bytes_stored();
  return report.makespan;
}

TEST_F(PipelineFixture, OverlapModeMatchesBarrierWhenCopiesAreFast) {
  // Copies finish well inside each stage, so overlap has nothing to hide:
  // both modes reduce to 86 + 4*68 minutes.
  PipelineConfig barrier = make_config(5);
  PipelineConfig overlap = make_config(5);
  overlap.overlap = true;
  EXPECT_NEAR(run_pipeline(std::move(overlap)), run_pipeline(std::move(barrier)),
              1.0);
}

TEST_F(PipelineFixture, OverlapModeBeatsBarrierWhenCopiesAreSlow) {
  // Copies take about as long as a stage (100 files x 1.68e11 B = 4200 s at
  // NVMe's 4 GB/s ingest) and the window is 2 deep. The barrier pipeline
  // bursts both depth-window copies at stage 1's start, halving each one's
  // bandwidth and stretching the stage; the overlap pipeline chains copies
  // back-to-back ahead of the stage boundary instead, hiding them behind
  // the compute.
  auto slow_config = [this](bool overlap) {
    PipelineConfig config = make_config(4);
    for (auto& dataset : config.datasets) {
      for (auto& file : dataset.files) file.bytes = 1.68e11;
    }
    config.prefetch_depth = 2;
    config.overlap = overlap;
    return config;
  };
  double barrier = run_pipeline(slow_config(false));
  double overlap = run_pipeline(slow_config(true));
  EXPECT_LT(overlap, 0.9 * barrier);
}

TEST_F(PipelineFixture, SlowCopyStageReportsMatchPinnedValues) {
  // Copies about as long as a stage (100 files x 1.68e11 B = 4200 s at
  // NVMe's 4 GB/s ingest), in both modes at both depths. Values from the
  // hand-written stream pool the engine fan-outs replaced; the port must not
  // move them.
  struct Stage {
    double start, end, copy;
  };
  struct Pinned {
    bool overlap;
    std::size_t depth;
    double makespan;
    std::vector<Stage> stages;
  };
  const std::vector<Pinned> pinned = {
      {false, 1, 17640.080000000002,
       {{0, 5160, 4200.0400000000009},
        {5160, 9360.0400000000009, 4200.0400000000009},
        {9360.0400000000009, 13560.080000000002, 4200.0400000000009},
        {13560.080000000002, 17640.080000000002, 0}}},
      {false, 2, 20760.080000000002,
       {{0, 8400.0400000000009, 8400.0400000000009},
        {8400.0400000000009, 12600.080000000002, 4200.0400000000009},
        {12600.080000000002, 16680.080000000002, 0},
        {16680.080000000002, 20760.080000000002, 0}}},
      {true, 1, 17520.04199999995,
       {{0, 5160, 4200.0400000000009},
        {5160, 9240, 4200.0400000000009},
        {9240, 13320, 4200.0400000000009},
        {13440.04199999995, 17520.04199999995, 0}}},
      {true, 2, 17400,
       {{0, 5160, 4200.0400000000009},
        {5160, 9240, 4200.0400000000009},
        {9240, 13320, 0},
        {13320, 17400, 0}}},
  };
  auto expect_pinned = [](double actual, double expected) {
    EXPECT_NEAR(actual, expected, 1e-9 * expected);
  };
  for (const Pinned& run : pinned) {
    SCOPED_TRACE(std::string(run.overlap ? "overlap" : "barrier") + " depth " +
                 std::to_string(run.depth));
    PipelineConfig config = make_config(4);
    for (auto& dataset : config.datasets) {
      for (auto& file : dataset.files) file.bytes = 1.68e11;
    }
    config.prefetch_depth = run.depth;
    config.overlap = run.overlap;
    sim::Simulation sim;
    SimFilesystem lustre(sim, FilesystemSpec::lustre());
    SimFilesystem nvme(sim, FilesystemSpec::nvme());
    PipelineReport report = PipelineRunner(sim, lustre, nvme, std::move(config)).run();
    expect_pinned(report.makespan, run.makespan);
    ASSERT_EQ(report.stages.size(), run.stages.size());
    for (std::size_t s = 0; s < run.stages.size(); ++s) {
      expect_pinned(report.stages[s].start_time, run.stages[s].start);
      expect_pinned(report.stages[s].end_time, run.stages[s].end);
      expect_pinned(report.stages[s].copy_seconds, run.stages[s].copy);
    }
    EXPECT_EQ(lustre.metadata_ops(), 300u);
    EXPECT_EQ(nvme.metadata_ops(), 500u);
  }
}

TEST_F(PipelineFixture, OverlapModeKeepsEvictionFootprintBound) {
  // Running copies ahead of the barrier must not let datasets pile up on
  // NVMe: copy k waits for evict k-1-depth, so at most depth+1 datasets
  // are ever resident.
  PipelineConfig config = make_config(5);
  config.overlap = true;
  const double dataset_bytes = 100 * 1e3;
  double peak = 0.0;
  run_pipeline(std::move(config), &peak);
  EXPECT_LE(peak, 2.0 * dataset_bytes + 1.0);
  EXPECT_GE(peak, dataset_bytes);
}

}  // namespace
}  // namespace parcl::storage
