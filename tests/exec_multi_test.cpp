#include "exec/multi_executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "core/engine.hpp"
#include "core/joblog.hpp"
#include "exec/fault_executor.hpp"
#include "exec/function_executor.hpp"
#include "exec/local_executor.hpp"
#include "exec/sim_executor.hpp"
#include "sim/duration_model.hpp"
#include "sim/node_failure.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace parcl::exec {
namespace {

using core::ArgVector;
using core::Engine;
using core::Options;
using core::RunSummary;

std::vector<ArgVector> numbered(int n) {
  std::vector<ArgVector> out;
  for (int i = 0; i < n; ++i) out.push_back({std::to_string(i)});
  return out;
}

std::unique_ptr<MultiExecutor> function_cluster(std::vector<HostSpec> hosts,
                                                TaskFn task,
                                                HealthPolicy policy = {}) {
  return std::make_unique<MultiExecutor>(
      std::move(hosts),
      [task](const HostSpec& spec) {
        return std::make_unique<FunctionExecutor>(task, spec.jobs);
      },
      std::move(policy));
}

core::ExecRequest simple_request(std::uint64_t id, std::size_t slot,
                                 const std::string& command = "work") {
  core::ExecRequest request;
  request.job_id = id;
  request.command = command;
  request.slot = slot;
  return request;
}

TEST(MultiExecutor, SlotRangesMapToHosts) {
  auto task = [](const core::ExecRequest&) { return TaskOutcome{}; };
  auto multi = function_cluster({{"a", 2, ""}, {"b", 3, ""}, {"c", 1, ""}}, task);
  EXPECT_EQ(multi->total_slots(), 6u);
  EXPECT_EQ(multi->host_for_slot(1).name, "a");
  EXPECT_EQ(multi->host_for_slot(2).name, "a");
  EXPECT_EQ(multi->host_for_slot(3).name, "b");
  EXPECT_EQ(multi->host_for_slot(5).name, "b");
  EXPECT_EQ(multi->host_for_slot(6).name, "c");
  EXPECT_THROW(multi->host_for_slot(7), util::InternalError);
}

TEST(MultiExecutor, EngineDistributesAcrossHosts) {
  auto task = [](const core::ExecRequest&) {
    TaskOutcome outcome;
    outcome.stdout_data = "ok\n";
    return outcome;
  };
  auto multi = function_cluster({{"node1", 2, ""}, {"node2", 2, ""}}, task);
  Options options;
  options.jobs = multi->total_slots();
  std::ostringstream out, err;
  Engine engine(options, *multi, out, err);
  RunSummary summary = engine.run("work {}", numbered(40));
  EXPECT_EQ(summary.succeeded, 40u);
  // Both hosts did real work.
  ASSERT_EQ(multi->starts_by_host().size(), 2u);
  EXPECT_GT(multi->starts_by_host().at("node1"), 5u);
  EXPECT_GT(multi->starts_by_host().at("node2"), 5u);
}

TEST(MultiExecutor, WrapperPrefixesCommand) {
  std::vector<std::string> seen;
  std::mutex mutex;
  auto task = [&](const core::ExecRequest& request) {
    std::lock_guard<std::mutex> lock(mutex);
    seen.push_back(request.command);
    return TaskOutcome{};
  };
  auto multi = function_cluster({{"remote", 1, "ssh node07"}}, task);
  Options options;
  options.jobs = 1;
  std::ostringstream out, err;
  Engine engine(options, *multi, out, err);
  engine.run("hostname {}", numbered(1));
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "ssh node07 'hostname 0'");
}

TEST(MultiExecutor, RealProcessesAcrossLocalHosts) {
  auto multi = MultiExecutor::local_cluster(
      {{"hostA", 2, ""}, {"hostB", 2, ""}});
  Options options;
  options.jobs = multi->total_slots();
  std::ostringstream out, err;
  Engine engine(options, *multi, out, err);
  RunSummary summary = engine.run("echo from-{}", numbered(12));
  EXPECT_EQ(summary.succeeded, 12u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_NE(out.str().find("from-" + std::to_string(i)), std::string::npos);
  }
}

TEST(MultiExecutor, FailuresPropagate) {
  auto multi = MultiExecutor::local_cluster({{"x", 1, ""}, {"y", 1, ""}});
  Options options;
  options.jobs = 2;
  std::ostringstream out, err;
  Engine engine(options, *multi, out, err);
  RunSummary summary = engine.run("exit {}", {{"0"}, {"7"}});
  EXPECT_EQ(summary.succeeded, 1u);
  EXPECT_EQ(summary.failed, 1u);
}

TEST(MultiExecutor, KillRoutesToOwningHost) {
  auto multi = MultiExecutor::local_cluster({{"x", 1, ""}, {"y", 1, ""}});
  Options options;
  options.jobs = 2;
  options.halt = core::HaltPolicy::parse("now,fail=1");
  options.quote_args = false;  // args are whole shell commands here
  std::ostringstream out, err;
  Engine engine(options, *multi, out, err);
  RunSummary summary = engine.run("{}", {{"false"}, {"sleep 30"}});
  EXPECT_TRUE(summary.halted);
  EXPECT_EQ(summary.killed, 1u);
}

TEST(MultiExecutor, GpuSlotEnvIsGloballyUnique) {
  // The cross-node GPU recipe: flat {%} slots stay unique even with two
  // hosts of 2 slots each.
  std::mutex mutex;
  std::set<std::string> devices;
  bool collision = false;
  auto task = [&](const core::ExecRequest& request) {
    std::string device = request.env.at("GPU");
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (!devices.insert(device).second) collision = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      std::lock_guard<std::mutex> lock(mutex);
      devices.erase(device);
    }
    return TaskOutcome{};
  };
  auto multi = function_cluster({{"n1", 2, ""}, {"n2", 2, ""}}, task);
  Options options;
  options.jobs = 4;
  options.env["GPU"] = "{%}";
  std::ostringstream out, err;
  Engine engine(options, *multi, out, err);
  RunSummary summary = engine.run("sim {}", numbered(24));
  EXPECT_EQ(summary.succeeded, 24u);
  EXPECT_FALSE(collision);
}

TEST(MultiExecutor, SpawnFailuresQuarantineTheHostAndRescheduleFree) {
  // One host rejects every spawn (dead sshd, full fork table). With
  // --retries 1 every job must still finish: host failures reschedule onto
  // the healthy host without charging the retry budget.
  auto task = [](const core::ExecRequest&) {
    TaskOutcome outcome;
    outcome.stdout_data = "ok\n";
    return outcome;
  };
  std::map<std::string, FaultPlan> plans;
  FaultPlan dead;
  dead.seed = 7;
  dead.spawn_failure_prob = 1.0;
  plans["sick"] = dead;
  HealthPolicy policy;
  policy.quarantine_after = 3;
  policy.probe_interval = 60.0;  // no reinstatement during this test
  MultiExecutor multi(
      {{"sick", 2, ""}, {"ok", 2, ""}},
      per_host_fault_factory(
          [task](const HostSpec& spec) {
            return std::make_unique<FunctionExecutor>(task, spec.jobs);
          },
          plans),
      policy);

  Options options;
  options.jobs = multi.total_slots();
  std::ostringstream out, err;
  Engine engine(options, multi, out, err);
  RunSummary summary = engine.run("work {}", numbered(24));

  EXPECT_EQ(summary.succeeded, 24u);
  EXPECT_EQ(summary.failed, 0u);
  EXPECT_EQ(multi.host_state("sick"), HostState::kQuarantined);
  EXPECT_EQ(multi.host_state("ok"), HostState::kHealthy);
  EXPECT_EQ(multi.health_counters().quarantines, 1u);
  // The sick host never actually started anything.
  EXPECT_EQ(multi.starts_by_host().count("sick"), 0u);
  EXPECT_EQ(multi.starts_by_host().at("ok"), 24u);
  // Reschedules, not retries: counters say so and every result still shows
  // a single charged attempt.
  EXPECT_GE(summary.dispatch.rescheduled, 3u);
  EXPECT_GE(summary.dispatch.host_failures, summary.dispatch.rescheduled);
  for (const core::JobResult& result : summary.results) {
    EXPECT_EQ(result.attempts, 1u) << "seq " << result.seq;
    EXPECT_EQ(result.host, "ok") << "seq " << result.seq;
  }
}

TEST(MultiExecutor, RescheduleCapFailsTheJobWhenEveryHostEatsIt) {
  // Quarantine disabled and a single all-spawn-fail host: the engine's
  // reschedule cap (16) must end the loop with an honest failure instead of
  // circulating the job forever.
  auto task = [](const core::ExecRequest&) { return TaskOutcome{}; };
  std::map<std::string, FaultPlan> plans;
  FaultPlan dead;
  dead.spawn_failure_prob = 1.0;
  plans["sick"] = dead;
  HealthPolicy policy;
  policy.quarantine_after = 0;  // never quarantine: the host stays in rotation
  MultiExecutor multi(
      {{"sick", 1, ""}},
      per_host_fault_factory(
          [task](const HostSpec& spec) {
            return std::make_unique<FunctionExecutor>(task, spec.jobs);
          },
          plans),
      policy);

  Options options;
  options.jobs = 1;
  std::ostringstream out, err;
  Engine engine(options, multi, out, err);
  RunSummary summary = engine.run("work {}", numbered(1));

  EXPECT_EQ(summary.failed, 1u);
  EXPECT_EQ(summary.dispatch.rescheduled, 16u);
  EXPECT_EQ(summary.dispatch.host_failures, 17u);
  ASSERT_EQ(summary.results.size(), 1u);
  EXPECT_EQ(summary.results[0].attempts, 1u);  // reschedules never charged
  EXPECT_EQ(summary.results[0].exit_code, 255);
  EXPECT_EQ(summary.results[0].host, "sick");
}

TEST(MultiExecutor, TransportDeathsQuarantineAndAProbeReinstates) {
  // Exit 255 behind a wrapper is the ssh "connection failed" convention.
  // Once the host recovers, the backoff probe brings it back into rotation.
  std::atomic<bool> down{true};
  auto task = [&down](const core::ExecRequest&) {
    TaskOutcome outcome;
    if (down.load()) outcome.exit_code = 255;
    return outcome;
  };
  HealthPolicy policy;
  policy.quarantine_after = 2;
  policy.probe_interval = 0.02;
  auto multi = function_cluster({{"flaky", 2, "ssh flaky"}}, task, policy);

  multi->start(simple_request(1, 1));
  multi->start(simple_request(2, 2));
  for (int i = 0; i < 2; ++i) {
    auto result = multi->wait_any(2.0);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->exit_code, 255);
    EXPECT_TRUE(result->host_failure);
    EXPECT_EQ(result->host, "flaky");
  }
  EXPECT_EQ(multi->host_state("flaky"), HostState::kQuarantined);
  EXPECT_FALSE(multi->slot_usable(1));
  EXPECT_FALSE(multi->slot_usable(2));

  down.store(false);
  for (int i = 0; i < 500 && multi->host_state("flaky") != HostState::kHealthy;
       ++i) {
    multi->wait_any(0.02);  // wait_any pumps the probe loop
  }
  EXPECT_EQ(multi->host_state("flaky"), HostState::kHealthy);
  EXPECT_TRUE(multi->slot_usable(1));
  EXPECT_EQ(multi->health_counters().reinstatements, 1u);
  EXPECT_GE(multi->health_counters().probes_launched, 1u);

  // The reinstated host runs jobs again.
  multi->start(simple_request(3, 1));
  auto result = multi->wait_any(2.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->exit_code, 0);
  EXPECT_FALSE(result->host_failure);
}

// The probe cases above run over FunctionExecutor hosts, which take any
// job id. These run real processes through LocalExecutor hosts, as the CLI
// does, so a probe id LocalExecutor refuses would show here.
TEST(MultiExecutor, FilterHostsKeepsAnAnsweringHostAndDropsAFailingOne) {
  auto multi = MultiExecutor::local_cluster(
      {{"good", 1, "sh -c"}, {"bad", 1, "sh -c 'exit 255'"}});
  EXPECT_EQ(multi->filter_hosts(10.0), std::vector<std::string>{"bad"});
  EXPECT_EQ(multi->host_state("good"), HostState::kHealthy);
  EXPECT_EQ(multi->host_state("bad"), HostState::kQuarantined);

  Options options;
  options.jobs = multi->total_slots();
  std::ostringstream out, err;
  Engine engine(options, *multi, out, err);
  RunSummary summary = engine.run("echo {}", numbered(4));
  EXPECT_EQ(summary.succeeded, 4u);
  EXPECT_EQ(multi->starts_by_host().count("bad"), 0u);
}

TEST(MultiExecutor, QuarantinedLocalHostIsReinstatedByItsProbe) {
  // The wrapper fails like a dead ssh (exit 255) until the flag file
  // exists, then runs the command it wraps.
  const std::string flag =
      ::testing::TempDir() + "multi_probe_flag_" + std::to_string(::getpid());
  std::remove(flag.c_str());
  HealthPolicy policy;
  policy.quarantine_after = 1;
  policy.probe_interval = 0.05;
  auto multi = MultiExecutor::local_cluster(
      {{"flaky", 1, "sh -c '[ -e " + flag + " ] || exit 255; eval \"$0\"'"}}, policy);
  multi->start(simple_request(1, 1, "true"));
  std::optional<core::ExecResult> result = multi->wait_any(5.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->host_failure);
  EXPECT_EQ(multi->host_state("flaky"), HostState::kQuarantined);

  std::ofstream(flag) << "up\n";
  for (int i = 0; i < 200 && multi->host_state("flaky") != HostState::kHealthy; ++i) {
    multi->wait_any(0.02);  // wait_any pumps the probe loop
  }
  std::remove(flag.c_str());
  EXPECT_EQ(multi->host_state("flaky"), HostState::kHealthy);
  EXPECT_EQ(multi->health_counters().reinstatements, 1u);
}

// A pilot host's channel carries its commands unwrapped, so the wrapper its
// spec still names plays no part: a job's own exit 255 is the job's
// failure, charged to --retries, and --filter-hosts probes the channel, not
// a `ssh n1 true` job run on the worker.
TEST(MultiExecutor, PilotHostIgnoresItsSpecsWrapper) {
  PilotSettings settings;
  settings.heartbeat_interval = 0.1;
  auto multi = MultiExecutor::pilot_cluster(
      {{"n1", 1, "ssh n1"}}, [](const HostSpec&) { return std::vector<std::string>{}; },
      settings);
  EXPECT_TRUE(multi->filter_hosts(10.0).empty());
  EXPECT_EQ(multi->host_state("n1"), HostState::kHealthy);

  multi->start(simple_request(1, 1, "exit 255"));
  std::optional<core::ExecResult> result = multi->wait_any(10.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->exit_code, 255);
  EXPECT_FALSE(result->host_failure);

  Options options;
  options.jobs = 1;
  options.retries = 2;
  std::ostringstream out, err;
  Engine engine(options, *multi, out, err);
  RunSummary summary = engine.run("exit {}", {{"255"}});
  EXPECT_EQ(summary.failed, 1u);
  ASSERT_EQ(summary.results.size(), 1u);
  EXPECT_EQ(summary.results[0].exit_code, 255);
  EXPECT_EQ(summary.results[0].attempts, 2u) << "each exit 255 charged to --retries";
  EXPECT_EQ(summary.dispatch.host_failures, 0u);
  EXPECT_EQ(summary.dispatch.rescheduled, 0u);
  EXPECT_EQ(multi->host_state("n1"), HostState::kHealthy);
}

TEST(MultiExecutor, QuarantineKillsInFlightJobsAndFlagsThemLost) {
  std::atomic<bool> down{true};
  auto task = [&down](const core::ExecRequest& request) {
    TaskOutcome outcome;
    if (request.command.find("hang") != std::string::npos) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      return outcome;  // would succeed, but quarantine kills it first
    }
    if (down.load()) outcome.exit_code = 255;
    return outcome;
  };
  HealthPolicy policy;
  policy.quarantine_after = 2;
  policy.probe_interval = 60.0;
  auto multi = function_cluster({{"node", 3, "ssh node"}}, task, policy);

  multi->start(simple_request(1, 1, "hang"));
  multi->start(simple_request(2, 2));
  multi->start(simple_request(3, 3));

  std::map<std::uint64_t, core::ExecResult> results;
  for (int i = 0; i < 3; ++i) {
    auto result = multi->wait_any(5.0);
    ASSERT_TRUE(result.has_value());
    results[result->job_id] = std::move(*result);
  }
  EXPECT_EQ(multi->host_state("node"), HostState::kQuarantined);
  // The hanging job was abandoned with the host: killed, flagged lost.
  ASSERT_EQ(results.count(1), 1u);
  EXPECT_TRUE(results[1].host_failure);
  EXPECT_NE(results[1].term_signal, 0);
  EXPECT_EQ(multi->health_counters().jobs_lost, 1u);
  EXPECT_EQ(multi->active_count(), 0u);
}

TEST(MultiExecutor, KillIsANoOpForUnknownAndReapedIds) {
  auto task = [](const core::ExecRequest&) { return TaskOutcome{}; };
  auto multi = function_cluster({{"a", 1, ""}}, task);
  // Never-started ids.
  EXPECT_NO_THROW(multi->kill(999, /*force=*/true));
  EXPECT_NO_THROW(multi->kill_signal(999, 15));
  // Reaped ids.
  multi->start(simple_request(1, 1));
  ASSERT_TRUE(multi->wait_any(2.0).has_value());
  EXPECT_NO_THROW(multi->kill(1, /*force=*/false));
  EXPECT_NO_THROW(multi->kill_signal(1, 9));
  EXPECT_EQ(multi->active_count(), 0u);
}

TEST(MultiExecutor, JoblogRecordsTheHostThatActuallyRan) {
  // Jobs bounced off the sick host must log the healthy host that finally
  // ran them — the Host column is evidence, not configuration.
  auto task = [](const core::ExecRequest&) { return TaskOutcome{}; };
  std::map<std::string, FaultPlan> plans;
  FaultPlan dead;
  dead.spawn_failure_prob = 1.0;
  plans["sick"] = dead;
  HealthPolicy policy;
  policy.quarantine_after = 1;
  policy.probe_interval = 60.0;
  MultiExecutor multi(
      {{"sick", 1, ""}, {"ok", 1, ""}},
      per_host_fault_factory(
          [task](const HostSpec& spec) {
            return std::make_unique<FunctionExecutor>(task, spec.jobs);
          },
          plans),
      policy);

  std::string log_path = ::testing::TempDir() + "parcl_multi_hosts.tsv";
  std::remove(log_path.c_str());
  Options options;
  options.jobs = 2;
  options.joblog_path = log_path;
  std::ostringstream out, err;
  Engine engine(options, multi, out, err);
  RunSummary summary = engine.run("work {}", numbered(8));
  EXPECT_EQ(summary.succeeded, 8u);

  std::vector<core::JoblogEntry> entries = core::read_joblog(log_path);
  ASSERT_EQ(entries.size(), 8u);
  std::set<std::uint64_t> seqs;
  for (const core::JoblogEntry& entry : entries) {
    EXPECT_EQ(entry.host, "ok") << "seq " << entry.seq;
    EXPECT_TRUE(seqs.insert(entry.seq).second) << "seq logged twice";
  }
  std::remove(log_path.c_str());
}

TEST(MultiExecutor, HedgeRescuesAStragglerExactlyOnce) {
  // The primary's first run of the "slow" command hangs far past the
  // median; the speculative duplicate (second run) finishes quickly on the
  // other host and wins. The loser is killed and never reaches the results.
  std::mutex mutex;
  std::map<std::string, int> runs;
  auto task = [&](const core::ExecRequest& request) {
    bool slow = request.command.find("slowjob") != std::string::npos;
    int run_index;
    {
      std::lock_guard<std::mutex> lock(mutex);
      run_index = runs[request.command]++;
    }
    int ms = 25;
    if (slow) ms = run_index == 0 ? 1200 : 10;
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    TaskOutcome outcome;
    outcome.stdout_data = "done\n";
    return outcome;
  };
  auto multi = function_cluster({{"h1", 1, ""}, {"h2", 1, ""}}, task);

  Options options;
  options.jobs = 2;
  options.hedge_multiplier = 3.0;
  std::ostringstream out, err;
  Engine engine(options, *multi, out, err);
  RunSummary summary =
      engine.run("task {}", {{"a"}, {"b"}, {"c"}, {"d"}, {"slowjob"}});

  EXPECT_EQ(summary.succeeded, 5u);
  EXPECT_EQ(summary.dispatch.hedges_launched, 1u);
  EXPECT_EQ(summary.dispatch.hedges_won, 1u);
  EXPECT_EQ(summary.dispatch.hedges_lost, 0u);
  ASSERT_EQ(summary.results.size(), 5u);
  for (const core::JobResult& result : summary.results) {
    EXPECT_EQ(result.status, core::JobStatus::kSuccess) << "seq " << result.seq;
    EXPECT_EQ(result.attempts, 1u) << "seq " << result.seq;
  }
}

TEST(MultiExecutor, HedgeLosesGracefullyWhenThePrimaryRecovers) {
  // The primary is merely slow, not stuck: it beats its own hedge. The
  // hedge is killed, counted as lost, and the job still records once.
  std::mutex mutex;
  std::map<std::string, int> runs;
  auto task = [&](const core::ExecRequest& request) {
    bool slow = request.command.find("slowjob") != std::string::npos;
    int run_index;
    {
      std::lock_guard<std::mutex> lock(mutex);
      run_index = runs[request.command]++;
    }
    int ms = 25;
    if (slow) ms = run_index == 0 ? 300 : 1500;
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    TaskOutcome outcome;
    outcome.stdout_data = "done\n";
    return outcome;
  };
  auto multi = function_cluster({{"h1", 1, ""}, {"h2", 1, ""}}, task);

  Options options;
  options.jobs = 2;
  options.hedge_multiplier = 3.0;
  std::ostringstream out, err;
  Engine engine(options, *multi, out, err);
  RunSummary summary =
      engine.run("task {}", {{"a"}, {"b"}, {"c"}, {"d"}, {"slowjob"}});

  EXPECT_EQ(summary.succeeded, 5u);
  EXPECT_EQ(summary.dispatch.hedges_launched, 1u);
  EXPECT_EQ(summary.dispatch.hedges_won, 0u);
  EXPECT_EQ(summary.dispatch.hedges_lost, 1u);
  for (const core::JobResult& result : summary.results) {
    EXPECT_EQ(result.status, core::JobStatus::kSuccess) << "seq " << result.seq;
  }
}

TEST(MultiExecutor, SimulatedClusterSurvivesNodeChurnWithoutBurningRetries) {
  // The ISSUE acceptance scenario: 64 nodes, MTBF 300 s, --retries 1. Node
  // deaths are host failures, so every job completes on reschedules alone
  // and no result ever shows a second charged attempt.
  sim::Simulation sim;
  sim::LognormalDuration durations(/*median=*/20.0, /*sigma=*/0.3);
  sim::NodeChurnConfig churn_config;
  churn_config.nodes = 64;
  churn_config.mtbf_seconds = 300.0;
  churn_config.repair_seconds = 30.0;
  churn_config.seed = 11;
  sim::NodeChurnModel churn(churn_config);
  util::Rng rng(5);
  SimExecutor executor(sim, churn_task_model(sim, durations, churn, rng));

  Options options;
  options.jobs = 64;
  options.retries = 1;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("job {}", numbered(2000));

  EXPECT_EQ(summary.succeeded, 2000u);
  EXPECT_EQ(summary.failed, 0u);
  EXPECT_GT(summary.dispatch.rescheduled, 0u) << "churn never bit: weak test";
  EXPECT_EQ(summary.dispatch.host_failures, summary.dispatch.rescheduled);
  for (const core::JobResult& result : summary.results) {
    EXPECT_EQ(result.attempts, 1u) << "seq " << result.seq;
  }
}

TEST(MultiExecutor, RejectsBadConfig) {
  EXPECT_THROW(MultiExecutor({}, [](const HostSpec&) {
                 return std::unique_ptr<core::Executor>{};
               }),
               util::ConfigError);
  EXPECT_THROW(function_cluster({{"z", 0, ""}},
                                [](const core::ExecRequest&) { return TaskOutcome{}; }),
               util::ConfigError);
}

}  // namespace
}  // namespace parcl::exec
