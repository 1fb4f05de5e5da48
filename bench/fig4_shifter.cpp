// Fig 4: maximum container launches per second on a Perlmutter CPU node
// using Shifter, vs bare metal.
//
// Paper anchors: Shifter's upper bound is ~5,200 launches/second — a
// startup overhead of only ~19% relative to bare-metal process launches.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "container/runtime.hpp"
#include "exec/sim_driver.hpp"

namespace {

double measure_rate(const parcl::container::RuntimeProfile& profile,
                    std::size_t instances, std::size_t tasks_each,
                    double task_seconds = 0.0) {
  using namespace parcl;
  sim::Simulation sim;
  container::ContainerHost host(sim, profile);
  core::Options options;
  options.jobs = 256 / instances > 0 ? 256 / instances : 1;
  exec::SimDriver driver(sim, options);
  double dispatch_cost = std::max(0.0, 1.0 / 470.0 - profile.node_gate_hold);
  for (std::size_t i = 0; i < instances; ++i) {
    driver.add(0.0, tasks_each, [&host, dispatch_cost, task_seconds, i] {
      return host.executor(dispatch_cost, task_seconds, util::Rng(137 + i));
    });
  }
  driver.run();
  return static_cast<double>(instances * tasks_each) / sim.now();
}

}  // namespace

int main() {
  using namespace parcl;
  bench::print_header("Fig 4", "Shifter container launch rate vs bare metal");

  util::Table table({"instances", "bare_metal_per_s", "shifter_per_s", "overhead_%"});
  double bare_peak = 0.0, shifter_peak = 0.0;
  for (std::size_t instances : {1u, 2u, 4u, 8u, 16u, 32u}) {
    double bare = measure_rate(container::RuntimeProfile::bare_metal(), instances, 1500);
    double shifter = measure_rate(container::RuntimeProfile::shifter(), instances, 1500);
    bare_peak = std::max(bare_peak, bare);
    shifter_peak = std::max(shifter_peak, shifter);
    table.add_row({std::to_string(instances), util::format_double(bare, 0),
                   util::format_double(shifter, 0),
                   util::format_double(100.0 * (1.0 - shifter / bare), 1)});
  }
  std::cout << table.render() << '\n';

  double overhead = 100.0 * (1.0 - shifter_peak / bare_peak);

  bench::CheckTable check;
  check.add("shifter ceiling (launches/s)", "5,200", shifter_peak, 0,
            shifter_peak > 4700.0 && shifter_peak <= 5200.0);
  check.add("startup overhead vs bare metal (%)", "19", overhead, 1,
            overhead > 12.0 && overhead < 25.0);
  check.print();
  return check.exit_status();
}
