// Sec IV-E: massive parallel file transfer over a scheduled DTN cluster.
//
//   find /gpfs/proj/data -type f | parallel -j32 -X rsync -R -Ha {} /lustre/proj/
//
// combined with the Listing-1 driver over 8 DTN nodes: the file list is
// striped across nodes, each node runs one GNU Parallel instance driving 32
// rsync processes, a 256-wide transfer. The paper reports 2,385 Mb/s
// sustained per node, ~200x over a sequential transfer, and >10x over the
// per-file transfer protocols of traditional workflow systems.
//
// Each node's `parallel -j32 rsync` is one storage::rsync_executor instance
// on a shared exec::SimDriver, so the copies run on real engines. Each copy
// occupies three channels at once (the node NIC, the source filesystem and
// the destination filesystem) and completes when the slowest drains (fluid
// streaming approximation).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/shared_bandwidth.hpp"
#include "sim/simulation.hpp"
#include "storage/dataset.hpp"

namespace parcl::dtn {

struct DtnSpec {
  std::size_t nodes = 8;
  std::size_t streams_per_node = 32;
  /// Sustained per-node NIC ceiling in bytes/s. The paper's measured
  /// 2,385 Mb/s is the *achieved* value; the ceiling sits slightly above.
  double node_nic_bandwidth = 2500e6 / 8.0;
  /// A single rsync stream's ceiling (ssh cipher + checksum bound). The
  /// paper's aggregate numbers imply ~9-12 MB/s per stream: 256 streams
  /// deliver ~2.4 GB/s while one sequential rsync moves ~12 MB/s — the
  /// source of the ~200x sequential speedup.
  double per_stream_cap = 12e6;
  /// rsync per-file cost: spawn + stat + delta handshake.
  double per_file_overhead = 0.05;
  /// Source and destination parallel filesystems (aggregate).
  double src_fs_bandwidth = 100e9;
  double dst_fs_bandwidth = 100e9;
};

struct TransferReport {
  std::string label;
  double duration = 0.0;
  double bytes = 0.0;
  std::size_t files = 0;
  std::size_t nodes = 0;
  std::size_t total_streams = 0;

  double aggregate_throughput() const noexcept {  // bytes/s
    return duration > 0.0 ? bytes / duration : 0.0;
  }
  double per_node_mbps() const noexcept {
    if (nodes == 0) return 0.0;
    return aggregate_throughput() / static_cast<double>(nodes) * 8.0 / 1e6;
  }
};

/// Runs one transfer configuration to completion inside its own simulation
/// and returns the report (synchronous convenience — the sim is private).
class DtnTransfer {
 public:
  explicit DtnTransfer(DtnSpec spec);

  /// The paper's setup: stripe files across nodes, 32 streams each.
  TransferReport run_parallel(const storage::Dataset& dataset);

  /// Baseline 1: one node, one stream ("cp -r"-style sequential copy).
  TransferReport run_sequential(const storage::Dataset& dataset);

  /// Baseline 2: a traditional WMS transfer protocol — every file is a
  /// scheduled task with per-task protocol overhead and modest concurrency.
  TransferReport run_wms_protocol(const storage::Dataset& dataset,
                                  double per_task_overhead = 1.0,
                                  std::size_t concurrency = 8);

 private:
  TransferReport run_config(const storage::Dataset& dataset, const std::string& label,
                            std::size_t nodes, std::size_t streams_per_node,
                            double per_file_overhead);

  DtnSpec spec_;
};

}  // namespace parcl::dtn
