#include "dtn/transfer.hpp"

#include "exec/sim_driver.hpp"
#include "storage/staging.hpp"
#include "util/error.hpp"

namespace parcl::dtn {

DtnTransfer::DtnTransfer(DtnSpec spec) : spec_(spec) {
  if (spec_.nodes == 0) throw util::ConfigError("dtn needs at least one node");
  if (spec_.streams_per_node == 0) throw util::ConfigError("dtn needs streams >= 1");
}

TransferReport DtnTransfer::run_config(const storage::Dataset& dataset,
                                       const std::string& label, std::size_t nodes,
                                       std::size_t streams_per_node,
                                       double per_file_overhead) {
  sim::Simulation sim;
  sim::SharedBandwidth src(sim, "gpfs", spec_.src_fs_bandwidth, spec_.per_stream_cap);
  sim::SharedBandwidth dst(sim, "lustre", spec_.dst_fs_bandwidth, spec_.per_stream_cap);

  std::vector<std::unique_ptr<sim::SharedBandwidth>> nics;
  nics.reserve(nodes);
  for (std::size_t n = 0; n < nodes; ++n) {
    nics.push_back(std::make_unique<sim::SharedBandwidth>(
        sim, "dtn-nic" + std::to_string(n), spec_.node_nic_bandwidth,
        spec_.per_stream_cap));
  }

  // Listing 1 over the DTNs: each node runs one `parallel -j<streams>
  // rsync` instance over its stripe of the file list.
  core::Options options;
  options.jobs = streams_per_node;
  exec::SimDriver driver(sim, options);
  auto shards = storage::stripe_files(dataset, nodes);
  std::size_t nodes_done = 0;
  for (std::size_t n = 0; n < nodes; ++n) {
    std::size_t files = shards[n].size();
    auto build = [&sim, &src, &dst, nic = nics[n].get(), shard = std::move(shards[n]),
                  per_file_overhead]() mutable {
      return storage::rsync_executor(sim, std::move(shard), per_file_overhead,
                                     {nic, &src, &dst});
    };
    driver.add(0.0, files, std::move(build),
               [&nodes_done](const core::RunSummary&) { ++nodes_done; });
  }
  driver.run();
  util::require(nodes_done == nodes, "dtn transfer did not drain");

  TransferReport report;
  report.label = label;
  report.duration = sim.now();
  report.bytes = dataset.total_bytes();
  report.files = dataset.file_count();
  report.nodes = nodes;
  report.total_streams = nodes * streams_per_node;
  return report;
}

TransferReport DtnTransfer::run_parallel(const storage::Dataset& dataset) {
  return run_config(dataset, "parallel-rsync", spec_.nodes, spec_.streams_per_node,
                    spec_.per_file_overhead);
}

TransferReport DtnTransfer::run_sequential(const storage::Dataset& dataset) {
  return run_config(dataset, "sequential", 1, 1, spec_.per_file_overhead);
}

TransferReport DtnTransfer::run_wms_protocol(const storage::Dataset& dataset,
                                             double per_task_overhead,
                                             std::size_t concurrency) {
  if (concurrency == 0) throw util::ConfigError("wms concurrency must be >= 1");
  return run_config(dataset, "wms-protocol", 1, concurrency, per_task_overhead);
}

}  // namespace parcl::dtn
