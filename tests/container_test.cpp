#include <gtest/gtest.h>

#include "container/runtime.hpp"
#include "exec/sim_driver.hpp"
#include "util/error.hpp"

namespace parcl::container {
namespace {

core::Options jobs_option(std::size_t jobs) {
  core::Options options;
  options.jobs = jobs;
  return options;
}

/// Launches `tasks` zero-duration tasks through `instances` parallel
/// instances under a runtime and returns the aggregate launch rate.
double measure_launch_rate(RuntimeProfile profile, std::size_t instances,
                           std::size_t tasks_per_instance) {
  // Zero-duration validation: strip the startup model so only the gate
  // and dispatch cost matter.
  profile.startup_median = 0.0;
  sim::Simulation sim;
  ContainerHost host(sim, profile);
  exec::SimDriver driver(sim, jobs_option(64));
  for (std::size_t i = 0; i < instances; ++i) {
    driver.add(0.0, tasks_per_instance, [&host, i] {
      return host.executor(1.0 / 470.0, 0.0, util::Rng(13 + i));
    });
  }
  driver.run();
  return static_cast<double>(instances * tasks_per_instance) / sim.now();
}

TEST(Profiles, CeilingsMatchPaper) {
  sim::Simulation sim;
  EXPECT_NEAR(ContainerHost(sim, RuntimeProfile::bare_metal()).launch_rate_ceiling(),
              6400.0, 1.0);
  EXPECT_NEAR(ContainerHost(sim, RuntimeProfile::shifter()).launch_rate_ceiling(),
              5200.0, 1.0);
  EXPECT_NEAR(ContainerHost(sim, RuntimeProfile::podman_hpc()).launch_rate_ceiling(),
              65.0, 0.5);
}

TEST(BareMetal, SingleInstanceRuns470PerSecond) {
  double rate = measure_launch_rate(RuntimeProfile::bare_metal(), 1, 940);
  // One instance is dispatch-cost bound: ~1/(1/470 + 1/6400) ~ 437/s.
  EXPECT_GT(rate, 400.0);
  EXPECT_LT(rate, 470.0);
}

TEST(BareMetal, ManyInstancesSaturateAt6400) {
  double rate = measure_launch_rate(RuntimeProfile::bare_metal(), 20, 640);
  EXPECT_GT(rate, 5800.0);
  EXPECT_LE(rate, 6400.0);
}

TEST(Shifter, CeilingNear5200) {
  double rate = measure_launch_rate(RuntimeProfile::shifter(), 20, 520);
  EXPECT_GT(rate, 4700.0);
  EXPECT_LE(rate, 5200.0);
}

TEST(Shifter, OverheadVersusBareMetalAbout19Percent) {
  double bare = measure_launch_rate(RuntimeProfile::bare_metal(), 20, 640);
  double shifter = measure_launch_rate(RuntimeProfile::shifter(), 20, 640);
  double overhead = 100.0 * (1.0 - shifter / bare);
  EXPECT_GT(overhead, 12.0);
  EXPECT_LT(overhead, 25.0);
}

TEST(Podman, TwoOrdersOfMagnitudeSlower) {
  double podman = measure_launch_rate(RuntimeProfile::podman_hpc(), 8, 65);
  EXPECT_GT(podman, 40.0);
  EXPECT_LE(podman, 66.0);
  double shifter = measure_launch_rate(RuntimeProfile::shifter(), 8, 520);
  EXPECT_GT(shifter / podman, 50.0);
}

TEST(Podman, FailuresWorsenWithConcurrency) {
  auto run_failures = [](std::size_t jobs) {
    RuntimeProfile profile = RuntimeProfile::podman_hpc();
    profile.node_gate_hold = 0.0;  // isolate the failure model
    sim::Simulation sim;
    ContainerHost host(sim, profile);
    exec::SimDriver driver(sim, jobs_option(jobs));
    std::size_t failed = 0;
    driver.add(
        0.0, 2000, [&host] { return host.executor(0.0, 5.0, util::Rng(17)); },
        [&](const core::RunSummary& summary) { failed = summary.failed; });
    driver.run();
    return failed;
  };
  std::size_t narrow = run_failures(4);
  std::size_t wide = run_failures(128);
  EXPECT_GT(wide, narrow * 2);
}

TEST(Host, StartupOverheadBilledToSlot) {
  // With a huge startup overhead and wide slots, the gate (fast) is not the
  // bottleneck; the startup time is.
  sim::Simulation sim;
  RuntimeProfile profile = RuntimeProfile::shifter();
  profile.startup_median = 2.0;
  profile.startup_sigma = 0.01;
  ContainerHost host(sim, profile);
  exec::SimDriver driver(sim, jobs_option(64));
  driver.add(0.0, 64, [&host] { return host.executor(0.0, 0.0, util::Rng(3)); });
  driver.run();
  // 64 tasks in 64 slots: makespan ~ one startup (2 s), not 64 x 2 s.
  EXPECT_GT(sim.now(), 1.8);
  EXPECT_LT(sim.now(), 3.0);
}

TEST(Host, RejectsNegativeGateHold) {
  sim::Simulation sim;
  RuntimeProfile profile;
  profile.node_gate_hold = -1.0;
  EXPECT_THROW(ContainerHost(sim, profile), util::ConfigError);
}

}  // namespace
}  // namespace parcl::container
