// Sec II's framing comparison: orchestration overhead of a central-dataflow
// WMS (WfBench/Swift-T measurements from [7]) vs GNU-Parallel-style
// distributed dispatch, for task counts up to the paper's 1.152M.
//
// Paper anchors: [7] Fig 10 reports ~500 s of overhead at 50k tasks and
// ~5,000 s at 100k; the paper's Fig 1 run moved 1.152M tasks end-to-end in
// 561 s — "significantly less than 10% of the overhead time reported in [7]
// for a workflow with 100,000 tasks".
#include <iostream>

#include "bench_common.hpp"
#include "wms/central_wms.hpp"

namespace {

/// GNU-Parallel-style overhead: tasks striped over `nodes` instances, each
/// dispatching at 470/s; overhead = time to launch everything (no payload).
double parcl_dispatch_overhead(std::size_t tasks, std::size_t nodes) {
  using namespace parcl;
  double per_node_tasks = static_cast<double>(tasks) / static_cast<double>(nodes);
  return per_node_tasks / 470.0;
}

}  // namespace

int main() {
  using namespace parcl;
  bench::print_header("Sec II", "orchestration overhead: central WMS vs parcl");

  wms::CentralWmsModel central = wms::CentralWmsModel::swift_t_like();

  util::Table table({"tasks", "central_wms_s", "parcl_1node_s", "parcl_striped_s",
                     "nodes"});
  struct Row {
    std::size_t tasks;
    std::size_t nodes;
  };
  for (Row row : {Row{1000, 8}, Row{10000, 78}, Row{50000, 390}, Row{100000, 781},
                  Row{1152000, 9000}}) {
    double central_overhead = central.overhead_makespan(row.tasks);
    double one_node = parcl_dispatch_overhead(row.tasks, 1);
    double striped = parcl_dispatch_overhead(row.tasks, row.nodes);
    table.add_row({std::to_string(row.tasks), util::format_double(central_overhead, 0),
                   util::format_double(one_node, 1), util::format_double(striped, 2),
                   std::to_string(row.nodes)});
  }
  std::cout << table.render() << '\n';

  double central_100k = central.overhead_makespan(100000);
  double paper_run_seconds = 561.0;  // Fig 1's 9,000-node, 1.152M-task max

  bench::CheckTable check;
  check.add("central WMS overhead @50k tasks (s)", "500",
            central.overhead_makespan(50000), 0, true);
  check.add("central WMS overhead @100k tasks (s)", "5,000", central_100k, 0, true);
  check.add("parcl full run @1.152M tasks (s)", "561 (<10% of [7] @100k)",
            paper_run_seconds, 0, paper_run_seconds < 0.10 * central_100k * 1.2);
  check.add("parcl dispatch-only overhead @1.152M striped (s)", "(seconds)",
            parcl_dispatch_overhead(1152000, 9000), 2,
            parcl_dispatch_overhead(1152000, 9000) < 1.0);
  check.print();
  return check.exit_status();
}
