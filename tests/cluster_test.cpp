#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "cluster/machine.hpp"
#include "exec/sim_driver.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace parcl::cluster {
namespace {

TEST(NodeSpecs, PresetsMatchPaperHardware) {
  EXPECT_EQ(NodeSpec::frontier().cpu_threads, 128u);
  EXPECT_EQ(NodeSpec::frontier().gpus, 8u);
  EXPECT_EQ(NodeSpec::perlmutter_cpu().cpu_threads, 256u);
  EXPECT_EQ(NodeSpec::perlmutter_cpu().gpus, 0u);
  EXPECT_GT(NodeSpec::dtn().nic_bandwidth, 0.0);
}

TEST(Node, GpuAccessOnGpulessNodeThrows) {
  sim::Simulation sim;
  Node cpu_node(sim, NodeSpec::perlmutter_cpu(), 0);
  EXPECT_FALSE(cpu_node.has_gpus());
  EXPECT_THROW(cpu_node.gpu(), util::InternalError);
  Node gpu_node(sim, NodeSpec::frontier(), 1);
  EXPECT_TRUE(gpu_node.has_gpus());
  EXPECT_EQ(gpu_node.gpu().capacity(), 8u);
}

TEST(Node, HostnamesAreStable) {
  sim::Simulation sim;
  Node node(sim, NodeSpec::frontier(), 42);
  EXPECT_EQ(node.hostname(), "frontier00042");
}

TEST(Machine, BuildsNodesAndSharedFilesystem) {
  sim::Simulation sim;
  Machine machine = Machine::frontier(sim, 16);
  EXPECT_EQ(machine.node_count(), 16u);
  EXPECT_GT(machine.lustre_data().capacity(), 0.0);
  EXPECT_THROW(machine.node(16), util::InternalError);
  EXPECT_THROW(Machine::frontier(sim, 0), util::ConfigError);
}

TEST(Machine, LustreIoChargesMetadataAndData) {
  sim::Simulation sim;
  Machine machine = Machine::frontier(sim, 1);
  bool done = false;
  machine.lustre_io(5.0e9, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  // 5 GB at the 5 GB/s per-flow cap is 1 s, plus 1 ms metadata.
  EXPECT_NEAR(sim.now(), 1.001, 1e-9);
}

// ---- Simulated `parallel` instances: real engines on one sim clock ------

core::Options jobs_option(std::size_t jobs) {
  core::Options options;
  options.jobs = jobs;
  return options;
}

/// An executor whose every task runs `seconds`.
exec::SimDriver::Build fixed_tasks(sim::Simulation& sim, double seconds,
                                   double dispatch_cost = 0.0) {
  return [&sim, seconds, dispatch_cost] {
    return std::make_unique<exec::SimExecutor>(
        sim,
        [seconds](const core::ExecRequest&) { return exec::SimOutcome{seconds, 0, ""}; },
        dispatch_cost);
  };
}

/// An executor whose every task holds one of `resource`'s tokens for
/// `seconds` (a GPU per task, as in Fig 2).
exec::SimDriver::Build resource_tasks(sim::Simulation& sim, sim::Resource& resource,
                                      double seconds) {
  return [&sim, &resource, seconds] {
    return std::make_unique<exec::SimExecutor>(
        sim, [&sim, &resource, seconds](const core::ExecRequest&) {
          exec::SimOutcome outcome;
          outcome.body = [&sim, &resource, seconds](std::function<void()> finish) {
            resource.acquire([&sim, &resource, seconds, finish = std::move(finish)] {
              sim.schedule(seconds, [&resource, finish] {
                resource.release();
                finish();
              });
            });
          };
          return outcome;
        });
  };
}

TEST(SimDriver, FixedTasksPackExactly) {
  sim::Simulation sim;
  exec::SimDriver driver(sim, jobs_option(4));
  bool finished = false;
  driver.add(0.0, 16, fixed_tasks(sim, 10.0), [&](const core::RunSummary& summary) {
    finished = true;
    EXPECT_EQ(summary.succeeded, 16u);
    EXPECT_DOUBLE_EQ(summary.makespan, 40.0);
    EXPECT_DOUBLE_EQ(sim.now(), 40.0);
  });
  driver.run();
  EXPECT_TRUE(finished);
}

TEST(SimDriver, EnginesOnOneClockEndAtTheirSoloMakespan) {
  // Sharing the clock must not couple instances: each engine, with its own
  // dispatcher, ends at exactly the makespan it has when run alone.
  struct Shape {
    std::size_t tasks;
    double seconds;
    double start;
  };
  const std::vector<Shape> shapes = {{1, 5.0, 0.0}, {7, 5.0, 0.0},  {24, 5.0, 1.5},
                                     {24, 0.3, 0.0}, {13, 2.5, 4.0}, {0, 1.0, 2.0}};
  const double dispatch_cost = 1.0 / 470.0;
  for (std::size_t jobs : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    std::vector<double> solo;
    for (const Shape& shape : shapes) {
      sim::Simulation sim;
      exec::SimExecutor executor(
          sim,
          [&](const core::ExecRequest&) {
            return exec::SimOutcome{shape.seconds, 0, ""};
          },
          dispatch_cost);
      std::ostringstream out, err;
      core::Engine engine(jobs_option(jobs), executor, out, err);
      engine.run_raw("task {#}", shape.tasks);
      solo.push_back(sim.now());
    }

    sim::Simulation sim;
    exec::SimDriver driver(sim, jobs_option(jobs));
    std::vector<double> shared(shapes.size(), -1.0);
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      driver.add(shapes[i].start, shapes[i].tasks,
                 fixed_tasks(sim, shapes[i].seconds, dispatch_cost),
                 [&, i](const core::RunSummary& summary) {
                   EXPECT_EQ(summary.succeeded, shapes[i].tasks);
                   shared[i] = sim.now() - shapes[i].start;
                 });
    }
    driver.run();
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      if (shapes[i].start == 0.0) {
        EXPECT_DOUBLE_EQ(shared[i], solo[i]) << "jobs=" << jobs << " shape=" << i;
      } else {  // an offset start rounds its sums differently
        EXPECT_NEAR(shared[i], solo[i], 1e-9) << "jobs=" << jobs << " shape=" << i;
      }
    }
    // Without a dispatch cost a fixed shape is exactly ceil(tasks/jobs)
    // waves of its duration.
    sim::Simulation plain;
    exec::SimDriver waves(plain, jobs_option(jobs));
    double makespan = -1.0;
    waves.add(0.0, 24, fixed_tasks(plain, 5.0),
              [&](const core::RunSummary&) { makespan = plain.now(); });
    waves.run();
    EXPECT_DOUBLE_EQ(makespan, 5.0 * static_cast<double>((24 + jobs - 1) / jobs));
  }
}

TEST(SimDriver, DispatchRateCeiling) {
  // With zero-duration tasks each engine launches at 1/dispatch_cost: four
  // engines with no shared gate each reach 470/s.
  sim::Simulation sim;
  exec::SimDriver driver(sim, jobs_option(128));
  std::vector<double> ends;
  for (int i = 0; i < 4; ++i) {
    driver.add(0.0, 940, fixed_tasks(sim, 0.0, 1.0 / 470.0),
               [&](const core::RunSummary& summary) {
                 EXPECT_EQ(summary.succeeded, 940u);
                 ends.push_back(sim.now());
               });
  }
  driver.run();
  ASSERT_EQ(ends.size(), 4u);
  for (double end : ends) EXPECT_NEAR(940.0 / end, 470.0, 0.5);
}

TEST(SimDriver, LaunchGateCapsAggregateRate) {
  // 4 instances, each capable of 470/s alone, share a 100/s node gate.
  sim::Simulation sim;
  sim::Resource gate(sim, "gate", 1);
  exec::SimDriver driver(sim, jobs_option(16));
  int done_count = 0;
  for (int i = 0; i < 4; ++i) {
    driver.add(
        0.0, 100,
        [&] {
          return std::make_unique<exec::SimExecutor>(
              sim, [](const core::ExecRequest&) { return exec::SimOutcome{}; },
              1.0 / 470.0, &gate, 1.0 / 100.0);
        },
        [&](const core::RunSummary&) { ++done_count; });
  }
  driver.run();
  EXPECT_EQ(done_count, 4);
  // 400 launches through a 100/s gate: no faster than 4 s.
  EXPECT_GE(sim.now(), 4.0);
  EXPECT_LE(sim.now(), 4.5);
}

TEST(SimDriver, FailureInjectionCountsFailures) {
  sim::Simulation sim;
  exec::SimDriver driver(sim, jobs_option(8));
  std::size_t failed = 0;
  driver.add(
      0.0, 1000,
      [&sim] {
        return std::make_unique<exec::SimExecutor>(
            sim, [rng = util::Rng(3)](const core::ExecRequest&) mutable {
              return exec::SimOutcome{1.0, rng.bernoulli(0.2) ? 1 : 0, ""};
            });
      },
      [&](const core::RunSummary& summary) { failed = summary.failed; });
  driver.run();
  EXPECT_GT(failed, 150u);
  EXPECT_LT(failed, 250u);
}

TEST(SimDriver, StdoutBytesFlowThroughChannel) {
  sim::Simulation sim;
  sim::SharedBandwidth nvme(sim, "nvme", 100.0);
  exec::SimDriver driver(sim, jobs_option(1));
  driver.add(0.0, 5, [&] {
    return std::make_unique<exec::SimExecutor>(sim, [&](const core::ExecRequest&) {
      exec::SimOutcome outcome;
      outcome.body = [&](std::function<void()> finish) {
        nvme.transfer(100.0, std::move(finish));
      };
      return outcome;
    });
  });
  driver.run();
  EXPECT_DOUBLE_EQ(nvme.bytes_delivered(), 500.0);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);  // serialized: 5 x 1s writes
}

TEST(SimDriver, TaskResourceLimitsEffectiveParallelism) {
  // -j16 over 8 GPUs: service is GPU-bound, so 32 x 10s tasks take
  // 32/8 * 10 = 40s regardless of the wider slot pool.
  sim::Simulation sim;
  Node node(sim, NodeSpec::frontier(), 0);
  exec::SimDriver driver(sim, jobs_option(16));  // oversubscribed
  driver.add(0.0, 32, resource_tasks(sim, node.gpu(), 10.0));
  driver.run();
  EXPECT_DOUBLE_EQ(sim.now(), 40.0);
  EXPECT_EQ(node.gpu().in_use(), 0u);  // everything released
}

TEST(SimDriver, MatchedJobsToGpusIsNotSlower) {
  // The paper's 1-1 process-GPU mapping: -j8 on 8 GPUs equals the
  // oversubscribed makespan for uniform tasks (queueing buys nothing).
  auto run_with_jobs = [](std::size_t jobs) {
    sim::Simulation sim;
    Node node(sim, NodeSpec::frontier(), 0);
    exec::SimDriver driver(sim, jobs_option(jobs));
    driver.add(0.0, 32, resource_tasks(sim, node.gpu(), 10.0));
    driver.run();
    return sim.now();
  };
  EXPECT_DOUBLE_EQ(run_with_jobs(8), run_with_jobs(32));
}

TEST(SimDriver, ZeroTasksCompletesImmediately) {
  sim::Simulation sim;
  exec::SimDriver driver(sim, jobs_option(128));
  bool done = false;
  driver.add(2.5, 0, fixed_tasks(sim, 1.0), [&](const core::RunSummary& summary) {
    done = true;
    EXPECT_EQ(summary.total, 0u);
    EXPECT_DOUBLE_EQ(summary.makespan, 0.0);
  });
  driver.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
}

TEST(SimDriver, EnginesLiveOnlyWhileTheirInstanceRuns) {
  // Staggered instances that never overlap: one engine at a time, however
  // many instances the run holds.
  sim::Simulation sim;
  exec::SimDriver driver(sim, jobs_option(4));
  std::size_t done = 0;
  for (int i = 0; i < 50; ++i) {
    driver.add(10.0 * i, 8, fixed_tasks(sim, 1.0),
               [&](const core::RunSummary&) { ++done; });
  }
  driver.run();
  EXPECT_EQ(done, 50u);
  EXPECT_EQ(driver.peak_live(), 1u);
}

}  // namespace
}  // namespace parcl::cluster
