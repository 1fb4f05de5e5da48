// Fig 2: weak scaling on Frontier GPU nodes with Celeritas. 10 to 100
// nodes, 8 processes per node (one per schedulable GPU) pinned via the {%}
// slot -> HIP_VISIBLE_DEVICES recipe.
//
// Paper anchors: linear (flat) scaling; variance in execution time under
// 10 seconds across runs.
//
// Each GPU task is a fixed-length celer-sim run (kTaskSeconds, with a 0.4%
// lognormal spread); the figure's claims are about the dispatcher and the
// allocation wave, not about the kernel's speed on the host running this.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "util/stats.hpp"
#include "wms/weak_scaling.hpp"

int main() {
  using namespace parcl;
  bench::print_header("Fig 2", "GPU weak scaling with Celeritas (simulated)");

  // One GPU task's median length in seconds.
  constexpr double kTaskSeconds = 120.0;
  std::cout << "modeled GPU task: " << util::format_double(kTaskSeconds, 0)
            << " s\n\n";

  util::Table table({"nodes", "gpu_tasks", "mean_s", "min_s", "max_s", "spread_s"});
  double worst_spread = 0.0;
  double mean_10 = 0.0, mean_100 = 0.0;
  for (std::size_t nodes = 10; nodes <= 100; nodes += 10) {
    wms::WeakScalingConfig config = wms::gpu_scaling_config(nodes, kTaskSeconds, 0.004);
    config.seed = 777 + nodes;
    wms::WeakScalingResult result = wms::run_weak_scaling(config);
    util::BoxStats stats = result.span_stats();
    double spread = stats.max - stats.min;
    worst_spread = std::max(worst_spread, spread);
    if (nodes == 10) mean_10 = stats.mean;
    if (nodes == 100) mean_100 = stats.mean;
    table.add_row({std::to_string(nodes), std::to_string(result.total_tasks),
                   util::format_double(stats.mean, 1), util::format_double(stats.min, 1),
                   util::format_double(stats.max, 1), util::format_double(spread, 1)});
  }
  std::cout << table.render() << '\n';

  bench::CheckTable check;
  check.add("variance across 10..100 nodes (s)", "< 10", worst_spread, 2,
            worst_spread < 10.0);
  check.add("flatness (mean 100 / mean 10)", "~1 (linear)", mean_100 / mean_10, 3,
            std::abs(mean_100 / mean_10 - 1.0) < 0.05);
  check.add_text("processes per node", "8 (one per GPU)", "8", true);
  check.print();
  return check.exit_status();
}
