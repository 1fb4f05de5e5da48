// Sec IV-E: data motion — massive parallel file transfer on a DTN cluster.
//
// Paper anchors: 8 DTN nodes x 32 rsync = 256-wide transfer; over a
// petabyte migrated; ~200x speedup over sequential transfer; >10x over the
// transfer protocols of traditional workflow systems; 2,385 Mb/s measured
// average per node.
#include <iostream>

#include "bench_common.hpp"
#include "dtn/transfer.hpp"

int main() {
  using namespace parcl;
  bench::print_header("Sec IV-E", "parallel DTN transfer (GPFS -> Lustre)");

  util::Rng rng(4096);
  // A scaled slice of the PB migration: the speedups are ratio claims, so a
  // 50 TB / 500k-file archive exercises the same regimes tractably.
  storage::Dataset archive = storage::Dataset::project_archive("proj", 500000, 5e13, rng);
  std::cout << "dataset: " << archive.file_count() << " files, "
            << util::format_bytes(archive.total_bytes()) << "\n\n";

  dtn::DtnSpec spec;
  dtn::DtnTransfer transfer(spec);

  dtn::TransferReport parallel = transfer.run_parallel(archive);
  dtn::TransferReport sequential = transfer.run_sequential(archive);
  dtn::TransferReport wms = transfer.run_wms_protocol(archive);

  util::Table table({"mode", "nodes", "streams", "duration", "per_node_Mb/s"});
  for (const auto& report : {parallel, wms, sequential}) {
    table.add_row({report.label, std::to_string(report.nodes),
                   std::to_string(report.total_streams),
                   util::format_duration(report.duration),
                   util::format_double(report.per_node_mbps(), 0)});
  }
  std::cout << table.render() << '\n';

  double vs_sequential = sequential.duration / parallel.duration;
  double vs_wms = wms.duration / parallel.duration;

  bench::CheckTable check;
  check.add("speedup vs sequential", "~200x", vs_sequential, 0,
            vs_sequential > 120.0 && vs_sequential < 300.0);
  check.add("speedup vs WMS transfer protocol", "> 10x", vs_wms, 1, vs_wms > 10.0);
  check.add("per-node throughput (Mb/s)", "2,385", parallel.per_node_mbps(), 0,
            parallel.per_node_mbps() > 2000.0 && parallel.per_node_mbps() < 2500.0);
  check.add_text("transfer width", "256 rsync processes",
                 std::to_string(parallel.total_streams), parallel.total_streams == 256);
  check.print();
  return check.exit_status();
}
