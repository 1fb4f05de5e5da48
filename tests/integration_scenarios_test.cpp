// Cross-module integration scenarios: small-scale versions of the paper's
// end-to-end workflows, exercising several libraries together.
#include <gtest/gtest.h>

#include <mutex>
#include <sstream>

#include "cluster/machine.hpp"
#include "container/runtime.hpp"
#include "core/engine.hpp"
#include "core/profile.hpp"
#include "exec/function_executor.hpp"
#include "exec/sim_driver.hpp"
#include "storage/pipeline.hpp"
#include "wms/central_wms.hpp"
#include "wms/weak_scaling.hpp"
#include "workloads/celeritas.hpp"
#include "workloads/darshan.hpp"

namespace parcl {
namespace {

// Scenario 1: the Fig 1 workflow at toy scale, then profile extraction from
// the engine's own run — driver striping, simulated dispatch, profile.
TEST(Scenario, WeakScalingRunFeedsProfileExtraction) {
  sim::Simulation sim;
  exec::SimExecutor executor(sim,
                             [](const core::ExecRequest&) {
                               return exec::SimOutcome{30.0, 0, ""};
                             },
                             1.0 / 470.0);
  core::Options options;
  options.jobs = 16;
  std::ostringstream out, err;
  core::Engine engine(options, executor, out, err);
  std::vector<core::ArgVector> inputs;
  for (int i = 0; i < 128; ++i) inputs.push_back({std::to_string(i)});
  core::RunSummary summary = engine.run("payload {}", std::move(inputs));
  ASSERT_EQ(summary.succeeded, 128u);

  core::ParallelProfile profile = core::profile_run(summary);
  EXPECT_EQ(profile.jobs, 128u);
  EXPECT_EQ(profile.peak_concurrency, 16u);  // every slot was busy
  EXPECT_GT(profile.utilization(16), 0.9);   // uniform tasks pack tightly
  EXPECT_NEAR(profile.total_busy, 128 * 30.0, 1.0);
}

// Scenario 2: Celeritas decks through the engine with GPU isolation, then
// physics checks on the aggregated results — workloads + engine + env.
TEST(Scenario, CeleritasFanOutConservesEnergy) {
  double total_in = 0.0;
  double total_out = 0.0;
  std::mutex mutex;
  auto celer = [&](const core::ExecRequest& request) {
    workloads::CeleritasInput input = workloads::CeleritasInput::from_json(
        request.command.substr(request.command.find('{')));
    workloads::CeleritasResult result = run_celeritas(input);
    {
      std::lock_guard<std::mutex> lock(mutex);
      total_in += static_cast<double>(input.primaries) * input.energy_mev;
      total_out += result.total_deposited + result.total_escaped_energy;
    }
    return exec::TaskOutcome{};
  };
  core::Options options;
  options.jobs = 4;
  options.env["HIP_VISIBLE_DEVICES"] = "{%}";
  options.quote_args = false;  // decks carry JSON braces
  exec::FunctionExecutor executor(celer, 4);
  std::ostringstream out, err;
  core::Engine engine(options, executor, out, err);
  std::vector<core::ArgVector> decks;
  for (int i = 0; i < 8; ++i) {
    workloads::CeleritasInput input;
    input.primaries = 3000;
    input.seed = 100 + static_cast<std::uint64_t>(i);
    decks.push_back({input.to_json()});
  }
  core::RunSummary summary = engine.run("celer-sim {}", std::move(decks));
  EXPECT_EQ(summary.succeeded, 8u);
  EXPECT_NEAR(total_out, total_in, total_in * 1e-9);
}

// Scenario 3: Darshan logs flow through the pipeline-planned simulation and
// the real analyzer agrees with the generator — storage + workloads.
TEST(Scenario, DarshanPipelineAndAnalyzerAgree) {
  util::Rng rng(3);
  std::vector<std::string> logs;
  for (int i = 0; i < 60; ++i) {
    logs.push_back(
        workloads::serialize_darshan_log(workloads::generate_darshan_log(i, rng)));
  }
  auto report = workloads::analyze_darshan_logs(logs);
  std::uint64_t jobs = 0;
  for (const auto& [key, agg] : report) jobs += agg.jobs;
  EXPECT_EQ(jobs, 60u);

  sim::Simulation sim;
  storage::SimFilesystem lustre(sim, storage::FilesystemSpec::lustre());
  storage::SimFilesystem nvme(sim, storage::FilesystemSpec::nvme());
  storage::PipelineConfig config;
  config.process_from_lustre = 100.0;
  config.process_from_nvme = 60.0;
  for (int d = 0; d < 3; ++d) {
    config.datasets.push_back(storage::Dataset::uniform("d" + std::to_string(d), 50, 1e6));
  }
  storage::PipelineRunner runner(sim, lustre, nvme, config);
  storage::PipelineReport pipeline = runner.run();
  EXPECT_NEAR(pipeline.makespan, 100.0 + 2 * 60.0, 1.0);
  EXPECT_GT(pipeline.improvement_percent(), 20.0);
}

// Scenario 4: container host + weak-scaling config together — a containered
// node sweep stays under the runtime's ceiling.
TEST(Scenario, ContaineredInstanceRespectsRuntimeCeiling) {
  sim::Simulation sim;
  container::RuntimeProfile profile = container::RuntimeProfile::shifter();
  profile.startup_median = 0.0;
  container::ContainerHost host(sim, profile);
  core::Options options;
  options.jobs = 64;
  exec::SimDriver driver(sim, options);
  // No dispatch cost: isolate the gate.
  driver.add(0.0, 2600, [&host] { return host.executor(0.0, 0.0, util::Rng(5)); });
  driver.run();
  double rate = 2600.0 / sim.now();
  EXPECT_LE(rate, host.launch_rate_ceiling() + 1.0);
  EXPECT_GT(rate, host.launch_rate_ceiling() * 0.95);
}

// Scenario 5: the paper's headline comparison — a full scaled-down Fig 1
// run (payloads included) against the central WMS's orchestration-only
// overhead for the same task count.
TEST(Scenario, HeadlineComparisonHolds) {
  wms::WeakScalingConfig config;
  config.nodes = 100;  // scaled-down Fig 1 run
  config.tasks_per_node = 128;
  config.seed = 17;
  wms::WeakScalingResult result = wms::run_weak_scaling(config);
  EXPECT_GT(result.makespan, 0.0);

  wms::CentralWmsModel central = wms::CentralWmsModel::swift_t_like();
  // At paper scale the superlinear overhead dominates: the 9,000-node run's
  // 561 s is under 20% of the WMS overhead for 100k tasks, and the WMS
  // overhead for the full 1.152M tasks dwarfs any end-to-end parcl run.
  EXPECT_LT(561.0, 0.2 * central.overhead_makespan(100000));
  EXPECT_GT(central.overhead_makespan(1152000), 100.0 * result.makespan);
}

}  // namespace
}  // namespace parcl
