#include <gtest/gtest.h>

#include "dtn/transfer.hpp"
#include "util/error.hpp"

namespace parcl::dtn {
namespace {

storage::Dataset small_archive() {
  util::Rng rng(21);
  // 20k files, ~2 TB: big enough for steady state, small enough for tests.
  return storage::Dataset::project_archive("proj", 20000, 2e12, rng);
}

TEST(DtnTransfer, ParallelBeatsSequentialByOrders) {
  DtnSpec spec;
  DtnTransfer dtn(spec);
  storage::Dataset dataset = small_archive();
  TransferReport parallel = dtn.run_parallel(dataset);
  TransferReport sequential = dtn.run_sequential(dataset);
  EXPECT_EQ(parallel.files, dataset.file_count());
  EXPECT_DOUBLE_EQ(parallel.bytes, dataset.total_bytes());
  double speedup = sequential.duration / parallel.duration;
  EXPECT_GT(speedup, 100.0);
  EXPECT_LT(speedup, 400.0);
}

TEST(DtnTransfer, DurationsMatchPinnedValues) {
  // Values from the hand-written per-node stream pools the engine fan-outs
  // replaced; the port must not move them.
  DtnSpec spec;
  DtnTransfer dtn(spec);
  storage::Dataset dataset = small_archive();
  auto expect_pinned = [](double actual, double expected) {
    EXPECT_NEAR(actual, expected, 1e-9 * expected);
  };
  expect_pinned(dtn.run_parallel(dataset).duration, 821.66561450566201);
  expect_pinned(dtn.run_sequential(dataset).duration, 167177.21530913198);
  expect_pinned(dtn.run_wms_protocol(dataset).duration, 23272.936563979503);
}

TEST(DtnTransfer, ParallelBeatsWmsProtocolByTenX) {
  DtnSpec spec;
  DtnTransfer dtn(spec);
  storage::Dataset dataset = small_archive();
  TransferReport parallel = dtn.run_parallel(dataset);
  TransferReport wms = dtn.run_wms_protocol(dataset);
  EXPECT_GT(wms.duration / parallel.duration, 10.0);
}

TEST(DtnTransfer, PerNodeThroughputNearPaperValue) {
  DtnSpec spec;
  DtnTransfer dtn(spec);
  // Bulk-dominated dataset so the NIC ceiling shows.
  storage::Dataset dataset = storage::Dataset::uniform("bulk", 4096, 1e9);
  TransferReport report = dtn.run_parallel(dataset);
  EXPECT_GT(report.per_node_mbps(), 2000.0);
  EXPECT_LT(report.per_node_mbps(), 2500.0);
}

TEST(DtnTransfer, TotalStreamsIs256) {
  DtnSpec spec;
  DtnTransfer dtn(spec);
  TransferReport report = dtn.run_parallel(storage::Dataset::uniform("d", 512, 1e6));
  EXPECT_EQ(report.total_streams, 256u);
  EXPECT_EQ(report.nodes, 8u);
}

TEST(DtnTransfer, SequentialUsesOneStream) {
  DtnSpec spec;
  DtnTransfer dtn(spec);
  TransferReport report = dtn.run_sequential(storage::Dataset::uniform("d", 16, 1e6));
  EXPECT_EQ(report.total_streams, 1u);
  // One 12 MB/s stream moving 16 MB plus 16 x 0.05 s overhead.
  EXPECT_NEAR(report.duration, 16e6 / 12e6 + 16 * 0.05, 0.2);
}

TEST(DtnTransfer, RejectsBadSpec) {
  DtnSpec bad;
  bad.nodes = 0;
  EXPECT_THROW(DtnTransfer{bad}, util::ConfigError);
  DtnSpec bad2;
  bad2.streams_per_node = 0;
  EXPECT_THROW(DtnTransfer{bad2}, util::ConfigError);
  DtnSpec ok;
  DtnTransfer dtn(ok);
  EXPECT_THROW(dtn.run_wms_protocol(storage::Dataset::uniform("d", 1, 1.0), 1.0, 0),
               util::ConfigError);
}

TEST(DtnTransfer, EmptyDatasetFinishesInstantly) {
  DtnSpec spec;
  DtnTransfer dtn(spec);
  storage::Dataset empty;
  empty.name = "empty";
  TransferReport report = dtn.run_parallel(empty);
  EXPECT_DOUBLE_EQ(report.duration, 0.0);
  EXPECT_EQ(report.files, 0u);
}

}  // namespace
}  // namespace parcl::dtn
