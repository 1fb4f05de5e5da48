// Fig 5: maximum Podman-HPC containers launched per second on a Perlmutter
// CPU node, per -j (jobs) setting.
//
// Paper anchors: upper bound ~65 launches/second — two orders of magnitude
// below Shifter — plus reliability failures at larger scales (user
// namespaces, database locking, setgid, task tmp directories).
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "container/runtime.hpp"
#include "exec/sim_driver.hpp"

namespace {

struct PodmanRun {
  double rate = 0.0;
  double failure_percent = 0.0;
};

PodmanRun measure(std::size_t jobs, std::size_t instances, std::size_t tasks_each) {
  using namespace parcl;
  sim::Simulation sim;
  container::ContainerHost host(sim, container::RuntimeProfile::podman_hpc());
  core::Options options;
  options.jobs = jobs;
  exec::SimDriver driver(sim, options);
  std::size_t failed = 0;
  for (std::size_t i = 0; i < instances; ++i) {
    driver.add(
        0.0, tasks_each,
        [&host, i] { return host.executor(1.0 / 470.0, 0.0, util::Rng(977 + i)); },
        [&failed](const core::RunSummary& summary) { failed += summary.failed; });
  }
  driver.run();
  PodmanRun run;
  run.rate = static_cast<double>(instances * tasks_each) / sim.now();
  run.failure_percent = 100.0 * static_cast<double>(failed) /
                        static_cast<double>(instances * tasks_each);
  return run;
}

}  // namespace

int main() {
  using namespace parcl;
  bench::print_header("Fig 5", "Podman-HPC launch rate and reliability");

  util::Table table({"jobs(-j)", "instances", "launches_per_s", "failures_%"});
  double peak = 0.0;
  double failures_narrow = 0.0, failures_wide = 0.0;
  for (std::size_t jobs : {4u, 16u, 64u, 128u, 256u}) {
    PodmanRun run = measure(jobs, 4, 120);
    peak = std::max(peak, run.rate);
    if (jobs == 4) failures_narrow = run.failure_percent;
    if (jobs == 256) failures_wide = run.failure_percent;
    table.add_row({std::to_string(jobs), "4", util::format_double(run.rate, 1),
                   util::format_double(run.failure_percent, 2)});
  }
  std::cout << table.render() << '\n';

  // Shifter reference for the "two orders of magnitude" claim (Fig 4 peak).
  double shifter_reference = 5200.0;

  bench::CheckTable check;
  check.add("podman ceiling (launches/s)", "65", peak, 1, peak > 50.0 && peak <= 66.0);
  check.add("shifter / podman ratio", "~80x (2 orders)", shifter_reference / peak, 0,
            shifter_reference / peak > 50.0);
  check.add_text("failures worsen at scale",
                 "namespace/db-lock/setgid errors",
                 util::format_double(failures_narrow, 2) + "% @ -j4 vs " +
                     util::format_double(failures_wide, 2) + "% @ -j256",
                 failures_wide > failures_narrow);
  check.print();
  return check.exit_status();
}
