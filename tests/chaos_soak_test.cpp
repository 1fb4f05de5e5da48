// Chaos soak: the engine under 100 seeded fault schedules, three backends.
//
// Every schedule drives the full engine (slots, retries, timeouts, halt,
// keep-order collation, joblog) through a FaultInjectingExecutor that
// injects spawn failures, mid-run kills, nonzero exits, torn output, and
// straggler completion delays — plus, on the simulated backend, lost-node
// churn from an MTBF model. After every run the shared invariants
// (tests/invariants.hpp) are checked, and simulated schedules are re-run to
// prove the joblog replays byte-for-byte from the seed alone.
//
// Replaying one failing seed: PARCL_CHAOS_SEEDS=<n>[,<n>...] restricts every
// scenario to those seeds, e.g.
//   PARCL_CHAOS_SEEDS=17 ./tests/chaos_soak_test --gtest_filter='ChaosSoak.*'
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/dag_source.hpp"
#include "core/joblog.hpp"
#include "core/server.hpp"
#include "core/signal_coordinator.hpp"
#include "exec/fault_executor.hpp"
#include "exec/function_executor.hpp"
#include "exec/local_executor.hpp"
#include "exec/multi_executor.hpp"
#include "exec/pilot_executor.hpp"
#include "exec/sim_executor.hpp"
#include "exec/worker_agent.hpp"
#include "invariants.hpp"
#include "sim/duration_model.hpp"
#include "sim/node_failure.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace parcl {
namespace {

using core::Engine;
using core::Options;
using core::OutputMode;
using core::RunSummary;
using exec::FaultInjectingExecutor;
using exec::FaultPlan;

std::vector<std::uint64_t> seed_range(std::uint64_t first, std::uint64_t last) {
  const char* env = std::getenv("PARCL_CHAOS_SEEDS");
  std::vector<std::uint64_t> seeds;
  if (env != nullptr && *env != '\0') {
    std::stringstream in(env);
    std::string token;
    while (std::getline(in, token, ',')) {
      std::uint64_t seed = std::strtoull(token.c_str(), nullptr, 10);
      if (seed >= first && seed <= last) seeds.push_back(seed);
    }
    return seeds;  // possibly empty: the scenario is skipped entirely
  }
  for (std::uint64_t s = first; s <= last; ++s) seeds.push_back(s);
  return seeds;
}

std::string temp_joblog(const std::string& stem) {
  std::string path = ::testing::TempDir() + "chaos_" + stem + ".tsv";
  std::remove(path.c_str());
  return path;
}

struct ScheduleResult {
  RunSummary summary;
  std::string output;        // collated -k stdout
  std::string joblog_bytes;  // whole --joblog file
  exec::FaultCounters faults;
  std::size_t total_jobs = 0;
  Options options;
};

void check_schedule(const ScheduleResult& run, std::uint64_t seed,
                    const std::string& scenario) {
  testing::InvariantReport report;
  testing::check_run(run.summary, run.options, run.total_jobs, report);
  if (!run.options.joblog_path.empty()) {
    testing::check_joblog(run.options.joblog_path, run.summary, report);
  }
  // Halt contract: the final tallies trigger the policy iff the run halted
  // (both sides are monotone in the tallies, so end-state implies history).
  bool end_triggered = run.options.halt.triggered(
      run.summary.failed, run.summary.succeeded,
      run.total_jobs - run.summary.skipped, run.total_jobs);
  if (end_triggered != run.summary.halted) {
    report.fail("halt policy disagrees with summary.halted");
  }
  // Every fault-executor start was eventually delivered back.
  if (run.faults.delivered != run.faults.started) {
    report.fail("fault executor lost or duplicated completions");
  }
  EXPECT_TRUE(report.ok()) << scenario << " seed " << seed << " violated:\n"
                           << report.str();
}

// ---------------------------------------------------------------------------
// Scenario 1: simulated cluster with node churn — deterministic, replayable.
// ---------------------------------------------------------------------------

FaultPlan sim_plan(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  if (seed % 10 == 0) {
    // Halt-soon seeds: failures frequent enough to trip the policy.
    plan.fail_prob = 0.45;
    return plan;
  }
  if (seed % 10 == 5) {
    // Halt-now seeds: mid-run kills dominate.
    plan.kill_prob = 0.40;
    plan.fail_prob = 0.10;
    return plan;
  }
  plan.spawn_failure_prob = 0.04;
  plan.kill_prob = 0.03;
  plan.fail_prob = 0.05;
  plan.truncate_prob = 0.03;
  plan.straggler_prob = 0.05;
  plan.straggler_delay_min = 0.5;
  plan.straggler_delay_max = 5.0;
  return plan;
}

Options sim_options(std::uint64_t seed, const std::string& joblog_path) {
  Options options;
  options.jobs = 32;
  options.output_mode = OutputMode::kKeepOrder;
  options.joblog_path = joblog_path;
  if (seed % 10 == 0) {
    options.retries = 2;
    options.halt = core::HaltPolicy::parse("soon,fail=10");
  } else if (seed % 10 == 5) {
    options.retries = 2;
    options.halt = core::HaltPolicy::parse("now,fail=5");
  } else {
    options.retries = 4;
    if (seed % 3 == 0) options.timeout_seconds = 40.0;
  }
  return options;
}

ScheduleResult run_sim_schedule(std::uint64_t seed, bool faults,
                                const std::string& joblog_path,
                                std::size_t total_jobs, bool streamed = false) {
  sim::Simulation sim;
  sim::LognormalDuration body(/*median=*/4.0, /*sigma=*/0.4);
  sim::ParetoDuration tail(/*scale=*/6.0, /*alpha=*/1.8, /*cap=*/25.0);
  sim::StragglerMixture durations(body, tail, /*straggler_prob=*/0.05);
  sim::NodeChurnConfig churn_config;
  churn_config.nodes = 8;
  churn_config.mtbf_seconds = faults ? 400.0 : 0.0;  // baseline: no churn
  churn_config.repair_seconds = 30.0;
  churn_config.seed = seed * 31 + 7;
  sim::NodeChurnModel churn(churn_config);
  util::Rng duration_rng(seed * 7 + 1);
  exec::SimExecutor inner(
      sim, exec::churn_task_model(sim, durations, churn, duration_rng),
      /*dispatch_cost=*/1.0 / 470.0);

  FaultPlan plan = faults ? sim_plan(seed) : FaultPlan{};
  if (!faults) plan.seed = seed;
  FaultInjectingExecutor executor(inner, plan);

  ScheduleResult result;
  result.total_jobs = total_jobs;
  result.options = sim_options(seed, joblog_path);
  if (!faults) {
    // The baseline measures the fault-free contract: no halt, no timeout.
    result.options.halt = core::HaltPolicy{};
    result.options.timeout_seconds = 0.0;
  }
  std::remove(joblog_path.c_str());

  std::ostringstream out, err;
  Engine engine(result.options, executor, out, err);
  if (streamed) {
    // The same inputs pulled lazily, one at a time, never materialized.
    std::size_t next = 0;
    core::FunctionSource source([&]() -> std::optional<core::JobInput> {
      if (next >= total_jobs) return std::nullopt;
      core::JobInput job;
      job.args = {std::to_string(next++)};
      return job;
    });
    result.summary = engine.run_source("task {}", source);
  } else {
    std::vector<core::ArgVector> inputs;
    inputs.reserve(total_jobs);
    for (std::size_t i = 0; i < total_jobs; ++i) inputs.push_back({std::to_string(i)});
    result.summary = engine.run("task {}", std::move(inputs));
  }
  result.output = out.str();
  result.joblog_bytes = testing::slurp(joblog_path);
  result.faults = executor.counters();
  EXPECT_EQ(executor.active_count(), 0u);
  return result;
}

TEST(ChaosSoak, SimulatedClusterSchedulesHoldInvariantsAndReplay) {
  const std::size_t kJobs = 200;
  const std::string joblog_a = temp_joblog("sim_a");
  const std::string joblog_b = temp_joblog("sim_b");
  ScheduleResult baseline = run_sim_schedule(1, /*faults=*/false, joblog_a, kJobs);
  ASSERT_EQ(baseline.summary.succeeded, kJobs);
  const std::string expected_output = baseline.output;

  std::size_t fully_succeeded = 0;
  std::uint64_t faults_injected = 0;
  for (std::uint64_t seed : seed_range(1, 70)) {
    ScheduleResult run = run_sim_schedule(seed, /*faults=*/true, joblog_a, kJobs);
    check_schedule(run, seed, "sim");
    faults_injected += run.faults.spawn_failures + run.faults.kills +
                       run.faults.exit_rewrites + run.faults.truncations +
                       run.faults.stragglers;
    if (!run.summary.halted && run.summary.succeeded == kJobs) {
      ++fully_succeeded;
      // Keep-order output must be byte-identical to the fault-free run:
      // retries deliver only the final, clean attempt.
      EXPECT_EQ(run.output, expected_output) << "sim seed " << seed;
    }
    if (run.summary.halted) {
      EXPECT_NE(run.options.halt.when, core::HaltWhen::kNever)
          << "sim seed " << seed << " halted without a halt policy";
    }

    // Replay oracle: the same seed reproduces the run bit-for-bit — same
    // joblog bytes (sim timestamps included), same collated output.
    ScheduleResult replay = run_sim_schedule(seed, /*faults=*/true, joblog_b, kJobs);
    EXPECT_EQ(replay.joblog_bytes, run.joblog_bytes)
        << "sim seed " << seed << " did not replay byte-for-byte";
    EXPECT_EQ(replay.output, run.output) << "sim seed " << seed;
    EXPECT_EQ(replay.summary.failed, run.summary.failed) << "sim seed " << seed;
  }
  if (std::getenv("PARCL_CHAOS_SEEDS") == nullptr) {
    // Fault rates are calibrated so most schedules still finish clean; the
    // output-identity check above must actually have bitten — and so must
    // the injector (a silently inert plan would pass vacuously).
    EXPECT_GE(fully_succeeded, 35u);
    EXPECT_GT(faults_injected, 1000u);
  }
  std::remove(joblog_a.c_str());
  std::remove(joblog_b.c_str());
}

TEST(ChaosSoak, StreamedSourceReplaysMaterializedFaultSchedules) {
  // Streamed-vs-materialized equivalence under fire: pulling jobs lazily
  // through a JobSource must reproduce the materialized run bit-for-bit —
  // same collated -k output, same joblog bytes (sim timestamps included),
  // same tallies — under every fault schedule, halting seeds included.
  const std::size_t kJobs = 200;
  const std::string joblog_m = temp_joblog("sim_streamed_m");
  const std::string joblog_s = temp_joblog("sim_streamed_s");
  for (std::uint64_t seed : seed_range(1, 30)) {
    ScheduleResult materialized =
        run_sim_schedule(seed, /*faults=*/true, joblog_m, kJobs);
    ScheduleResult streamed =
        run_sim_schedule(seed, /*faults=*/true, joblog_s, kJobs, /*streamed=*/true);
    check_schedule(streamed, seed, "sim-streamed");
    EXPECT_EQ(streamed.output, materialized.output) << "streamed seed " << seed;
    EXPECT_EQ(streamed.joblog_bytes, materialized.joblog_bytes)
        << "streamed seed " << seed << " joblog diverged";
    EXPECT_EQ(streamed.summary.succeeded, materialized.summary.succeeded);
    EXPECT_EQ(streamed.summary.failed, materialized.summary.failed);
    EXPECT_EQ(streamed.summary.skipped, materialized.summary.skipped);
    EXPECT_EQ(streamed.summary.halted, materialized.summary.halted);
  }
  std::remove(joblog_m.c_str());
  std::remove(joblog_s.c_str());
}

// ---------------------------------------------------------------------------
// Scenario 2: in-process FunctionExecutor — multi-threaded backend, fault
// decisions stable under any completion interleaving.
// ---------------------------------------------------------------------------

ScheduleResult run_function_schedule(std::uint64_t seed,
                                     const std::string& joblog_path, bool faults,
                                     std::size_t total_jobs) {
  exec::FunctionExecutor inner(
      [](const core::ExecRequest& request) {
        exec::TaskOutcome outcome;
        outcome.stdout_data = "out:" + request.command + "\n";
        return outcome;
      },
      /*threads=*/8);

  FaultPlan plan;
  plan.seed = seed;
  if (faults) {
    plan.spawn_failure_prob = 0.05;
    plan.kill_prob = 0.04;
    plan.fail_prob = 0.06;
    plan.truncate_prob = 0.04;
    plan.straggler_prob = 0.03;
    plan.straggler_delay_min = 0.001;
    plan.straggler_delay_max = 0.01;
  }
  FaultInjectingExecutor executor(inner, plan);

  ScheduleResult result;
  result.total_jobs = total_jobs;
  result.options.jobs = 8;
  result.options.retries = 5;
  result.options.output_mode = OutputMode::kKeepOrder;
  result.options.joblog_path = joblog_path;
  std::remove(joblog_path.c_str());

  std::ostringstream out, err;
  Engine engine(result.options, executor, out, err);
  std::vector<core::ArgVector> inputs;
  for (std::size_t i = 0; i < total_jobs; ++i) inputs.push_back({std::to_string(i)});
  result.summary = engine.run("fn {}", std::move(inputs));
  result.output = out.str();
  result.joblog_bytes = testing::slurp(joblog_path);
  result.faults = executor.counters();
  EXPECT_EQ(executor.active_count(), 0u);
  return result;
}

TEST(ChaosSoak, FunctionExecutorSchedulesHoldInvariants) {
  const std::size_t kJobs = 60;
  const std::string joblog = temp_joblog("fn");
  ScheduleResult baseline =
      run_function_schedule(1, joblog, /*faults=*/false, kJobs);
  ASSERT_EQ(baseline.summary.succeeded, kJobs);

  std::size_t fully_succeeded = 0;
  for (std::uint64_t seed : seed_range(1, 20)) {
    ScheduleResult run = run_function_schedule(seed, joblog, /*faults=*/true, kJobs);
    check_schedule(run, seed, "function");
    // Attempt counts are decided by (command, attempt) draws, so each job's
    // fate is deterministic even though the thread pool interleaves freely.
    if (run.summary.succeeded == kJobs) {
      ++fully_succeeded;
      EXPECT_EQ(run.output, baseline.output) << "function seed " << seed;
    }
  }
  if (std::getenv("PARCL_CHAOS_SEEDS") == nullptr) {
    EXPECT_GE(fully_succeeded, 15u);
  }
  std::remove(joblog.c_str());
}

// ---------------------------------------------------------------------------
// Scenario 2b: multi-host dispatch with one dead host — quarantine keeps the
// host out of rotation, bounced jobs reschedule without burning retries, a
// straggler gets hedged, and the joblog stays exactly-once through all of it.
// ---------------------------------------------------------------------------

TEST(ChaosSoak, MultiHostQuarantineAndHedgingHoldInvariants) {
  const std::size_t kQuick = 40;
  for (std::uint64_t seed : seed_range(1, 4)) {
    std::map<std::string, FaultPlan> plans;
    FaultPlan dead;
    dead.seed = seed;
    dead.spawn_failure_prob = 1.0;  // the host never manages to start a job
    plans["bad"] = dead;
    exec::HealthPolicy policy;
    policy.quarantine_after = 3;
    policy.probe_interval = 60.0;  // no reinstatement within this test

    std::mutex mutex;
    std::map<std::string, int> runs;
    auto task = [&](const core::ExecRequest& request) {
      int run_index;
      {
        std::lock_guard<std::mutex> lock(mutex);
        run_index = runs[request.command]++;
      }
      bool slow = request.command.find("slowjob") != std::string::npos;
      int ms = 5 + static_cast<int>((request.job_id * (seed + 3)) % 12);
      if (slow) ms = run_index == 0 ? 400 : 10;  // hedge beats the first run
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      exec::TaskOutcome outcome;
      outcome.stdout_data = "done\n";
      return outcome;
    };
    exec::MultiExecutor multi(
        {{"bad", 2, ""}, {"ok1", 2, ""}, {"ok2", 2, ""}},
        exec::per_host_fault_factory(
            [&task](const exec::HostSpec& spec) {
              return std::make_unique<exec::FunctionExecutor>(task, spec.jobs);
            },
            plans),
        policy);

    ScheduleResult run;
    run.total_jobs = kQuick + 1;
    run.options.jobs = multi.total_slots();
    run.options.retries = 1;  // free reschedules must carry the whole load
    run.options.hedge_multiplier = 3.0;
    run.options.joblog_path = temp_joblog("multihost");

    std::ostringstream out, err;
    Engine engine(run.options, multi, out, err);
    std::vector<core::ArgVector> inputs;
    for (std::size_t i = 0; i < kQuick; ++i) inputs.push_back({std::to_string(i)});
    inputs.push_back({"slowjob"});  // last: the median is armed by then
    run.summary = engine.run("fn {}", std::move(inputs));

    testing::InvariantReport report;
    testing::check_run(run.summary, run.options, run.total_jobs, report);
    testing::check_joblog(run.options.joblog_path, run.summary, report);
    EXPECT_TRUE(report.ok()) << "multihost seed " << seed << " violated:\n"
                             << report.str();

    EXPECT_EQ(run.summary.succeeded, run.total_jobs) << "seed " << seed;
    // The dead host tripped quarantine, never ran anything, and every bounce
    // was a free reschedule rather than a charged retry.
    EXPECT_EQ(multi.host_state("bad"), exec::HostState::kQuarantined);
    EXPECT_EQ(multi.health_counters().quarantines, 1u);
    EXPECT_EQ(multi.starts_by_host().count("bad"), 0u);
    EXPECT_GE(run.summary.dispatch.rescheduled, 3u);
    EXPECT_GE(run.summary.dispatch.host_failures,
              run.summary.dispatch.rescheduled);
    // Hedging: the straggler was duplicated, the pair resolved, and the
    // joblog saw the winning attempt exactly once.
    EXPECT_GE(run.summary.dispatch.hedges_launched, 1u) << "seed " << seed;
    EXPECT_EQ(run.summary.dispatch.hedges_won + run.summary.dispatch.hedges_lost,
              run.summary.dispatch.hedges_launched);
    std::size_t slow_rows = 0;
    for (const core::JoblogEntry& entry :
         core::read_joblog(run.options.joblog_path)) {
      if (entry.command.find("slowjob") != std::string::npos) ++slow_rows;
    }
    EXPECT_EQ(slow_rows, 1u) << "hedged job must log exactly once";
    EXPECT_EQ(multi.active_count(), 0u);
    std::remove(run.options.joblog_path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Scenario 2d: elastic host churn — hosts added, drained, and preempted
// (removed with zero grace) while the run is in flight. Whatever the
// membership schedule, the run must stay exactly-once: every job succeeds on
// one attempt (retries=1 — drain/preemption kills must all ride the
// uncharged requeue path), the joblog logs each seq once, and the -k output
// is byte-identical to a fixed-allocation baseline.
// ---------------------------------------------------------------------------

TEST(ChaosSoak, ElasticHostChurnHoldsInvariants) {
  const std::size_t kJobs = 40;
  auto task = [](const core::ExecRequest& request) {
    // A few ms of real runtime so membership changes land on in-flight work.
    int ms = 2 + static_cast<int>(request.job_id % 6);
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    exec::TaskOutcome outcome;
    outcome.stdout_data = "out:" + request.command + "\n";
    return outcome;
  };
  auto make_cluster = [&] {
    return std::make_unique<exec::MultiExecutor>(
        std::vector<exec::HostSpec>{{"h1", 2, ""}, {"h2", 2, ""}, {"h3", 2, ""}},
        [&task](const exec::HostSpec& spec) {
          return std::make_unique<exec::FunctionExecutor>(task, spec.jobs);
        });
  };

  // Fixed-allocation baseline: the byte-identity oracle.
  std::string expected_output;
  {
    auto multi = make_cluster();
    Options options;
    options.jobs = multi->total_slots();
    options.output_mode = OutputMode::kKeepOrder;
    std::ostringstream out, err;
    Engine engine(options, *multi, out, err);
    std::vector<core::ArgVector> inputs;
    for (std::size_t i = 0; i < kJobs; ++i) inputs.push_back({std::to_string(i)});
    RunSummary summary = engine.run("fn {}", std::move(inputs));
    ASSERT_EQ(summary.succeeded, kJobs);
    expected_output = out.str();
  }

  std::size_t drains_hit_inflight = 0;
  std::size_t late_starts = 0;
  for (std::uint64_t seed : seed_range(1, 100)) {
    util::Rng rng(seed * 131 + 17);
    // Three membership events at seed-chosen completion counts: a grown
    // allocation, a drained host, and a zero-notice preemption.
    std::size_t add_at = static_cast<std::size_t>(rng.uniform_int(2, 10));
    std::size_t drain_at = static_cast<std::size_t>(rng.uniform_int(11, 20));
    std::size_t preempt_at = static_cast<std::size_t>(rng.uniform_int(21, 32));

    auto multi = make_cluster();
    ScheduleResult run;
    run.total_jobs = kJobs;
    run.options.jobs = multi->total_slots();
    run.options.retries = 1;  // every recovery must be an uncharged requeue
    run.options.output_mode = OutputMode::kKeepOrder;
    run.options.joblog_path = temp_joblog("elastic");

    std::ostringstream out, err;
    Engine engine(run.options, *multi, out, err);
    std::size_t completed = 0;
    engine.set_result_callback([&](const core::JobResult&) {
      ++completed;
      if (completed == add_at) multi->add_host({"late", 2, ""});
      if (completed == drain_at) multi->drain_host("h2", 0.002);
      if (completed == preempt_at) multi->remove_host("h3");
    });
    std::vector<core::ArgVector> inputs;
    for (std::size_t i = 0; i < kJobs; ++i) inputs.push_back({std::to_string(i)});
    run.summary = engine.run("fn {}", std::move(inputs));
    run.output = out.str();

    testing::InvariantReport report;
    testing::check_run(run.summary, run.options, kJobs, report);
    testing::check_joblog(run.options.joblog_path, run.summary, report);
    EXPECT_TRUE(report.ok()) << "elastic seed " << seed << " violated:\n"
                             << report.str();

    // Exactly-once, with retries=1: every kill from a drain or preemption
    // must have ridden the free host-failure requeue, never a charged retry.
    EXPECT_EQ(run.summary.succeeded, kJobs) << "elastic seed " << seed;
    for (const core::JobResult& job : run.summary.results) {
      EXPECT_EQ(job.attempts, 1u)
          << "elastic seed " << seed << " charged a retry for a membership kill";
    }
    std::set<std::uint64_t> seen;
    for (const core::JoblogEntry& entry :
         core::read_joblog(run.options.joblog_path)) {
      EXPECT_TRUE(seen.insert(entry.seq).second)
          << "elastic seed " << seed << ": seq " << entry.seq << " logged twice";
    }
    EXPECT_EQ(seen.size(), kJobs) << "elastic seed " << seed;

    // Byte-identity under -k: elasticity must be invisible in the output.
    EXPECT_EQ(run.output, expected_output) << "elastic seed " << seed;

    EXPECT_EQ(multi->host_state("h2"), exec::HostState::kRemoved);
    EXPECT_EQ(multi->host_state("h3"), exec::HostState::kRemoved);
    EXPECT_EQ(multi->active_count(), 0u);
    drains_hit_inflight += run.summary.dispatch.host_failures;
    if (multi->starts_by_host().count("late") != 0) {
      late_starts += multi->starts_by_host().at("late");
    }
    std::remove(run.options.joblog_path.c_str());
  }
  if (std::getenv("PARCL_CHAOS_SEEDS") == nullptr) {
    // The churn must actually have bitten: added hosts ran real work and
    // drains/preemptions really killed in-flight jobs across the soak.
    EXPECT_GT(late_starts, 100u);
    EXPECT_GT(drains_hit_inflight, 30u);
  }
}

// ---------------------------------------------------------------------------
// Scenario 3: real child processes — spawn-failure plumbing, dispatch
// counter balance, fd/zombie hygiene.
// ---------------------------------------------------------------------------

TEST(ChaosSoak, LocalExecutorSchedulesLeakNothing) {
  const std::size_t kJobs = 12;
  const std::string joblog = temp_joblog("local");
  const std::size_t fds_before = testing::open_fd_count();

  std::size_t fully_succeeded = 0;
  std::vector<std::uint64_t> seeds = seed_range(1, 10);
  for (std::uint64_t seed : seeds) {
    exec::LocalExecutor inner;
    FaultPlan plan;
    plan.seed = seed;
    plan.spawn_failure_prob = 0.12;
    plan.kill_prob = 0.05;
    plan.fail_prob = 0.08;
    plan.truncate_prob = 0.05;
    FaultInjectingExecutor executor(inner, plan);

    ScheduleResult run;
    run.total_jobs = kJobs;
    run.options.jobs = 4;
    run.options.retries = 3;
    run.options.output_mode = OutputMode::kKeepOrder;
    run.options.joblog_path = joblog;
    std::remove(joblog.c_str());

    std::ostringstream out, err;
    Engine engine(run.options, executor, out, err);
    std::vector<core::ArgVector> inputs;
    for (std::size_t i = 0; i < kJobs; ++i) inputs.push_back({std::to_string(i)});
    run.summary = engine.run("/bin/echo ok {}", std::move(inputs));
    run.output = out.str();
    run.faults = executor.counters();
    check_schedule(run, seed, "local");

    // DispatchCounters must balance: every spawned child was reaped.
    EXPECT_EQ(inner.counters().spawns, inner.counters().reaps)
        << "local seed " << seed;
    EXPECT_EQ(inner.active_count(), 0u);
    if (run.summary.succeeded == kJobs) ++fully_succeeded;
  }
  if (std::getenv("PARCL_CHAOS_SEEDS") == nullptr && !seeds.empty()) {
    EXPECT_GE(fully_succeeded, 6u);
  }

  EXPECT_TRUE(testing::no_unreaped_children()) << "zombie children remain";
  EXPECT_EQ(testing::open_fd_count(), fds_before) << "fd leak across the soak";
  std::remove(joblog.c_str());
}

// ---------------------------------------------------------------------------
// Scenario 2c: the pilot-worker transport under seeded frame-fault schedules
// — drops, duplicates, reorders, delays, and mid-run connection kills on the
// worker→pilot stream. Reconnect-and-reconcile must keep the run exactly-once:
// every job executes once on a worker, the joblog logs each seq once, all
// reschedules ride the free host-failure path (retries=1 means one charged
// retry would already fail the run), and the -k output is byte-identical to a
// fault-free schedule.
// ---------------------------------------------------------------------------

struct PilotSoakResult {
  RunSummary summary;
  std::string output;
  Options options;
  std::map<std::string, int> runs;  // per-command worker-side run counts
  exec::TransportCounters transport;
  exec::transport::TransportFaultCounters faults;
};

PilotSoakResult run_pilot_schedule(std::uint64_t seed, bool faults,
                                   const std::string& joblog_path,
                                   std::size_t total_jobs) {
  PilotSoakResult result;
  std::mutex mutex;
  auto task = [&](const core::ExecRequest& request) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      ++result.runs[request.command];
    }
    exec::TaskOutcome outcome;
    outcome.stdout_data = "out:" + request.command + "\n";
    return outcome;
  };

  exec::PilotSettings settings;
  settings.heartbeat_interval = 0.01;
  settings.handshake_timeout = 2.0;
  settings.reconnect_max = 10;
  if (faults) {
    settings.faults.drop_prob = 0.05;
    settings.faults.duplicate_prob = 0.05;
    settings.faults.reorder_prob = 0.05;
    settings.faults.delay_prob = 0.04;
    settings.faults.delay_min_seconds = 0.001;
    settings.faults.delay_max_seconds = 0.010;
    if (seed % 3 == 0) {
      // Every third schedule also severs the link mid-run on each host.
      settings.faults.kill_connection_after = 15 + seed % 20;
    }
  }
  exec::HealthPolicy policy;
  policy.quarantine_after = 50;  // chaos must bend the transport, not health
  policy.probe_interval = 0.05;

  std::vector<exec::PilotExecutor*> pilots;
  exec::MultiExecutor multi(
      {{"pw1", 4, ""}, {"pw2", 4, ""}},
      [&, seed](const exec::HostSpec& spec) {
        exec::WorkerConfig config;
        config.heartbeat_interval = settings.heartbeat_interval;
        config.make_inner = [&task, &spec] {
          return std::make_unique<exec::FunctionExecutor>(task, spec.jobs);
        };
        exec::PilotSettings host_settings = settings;
        host_settings.faults.seed = seed * 977 + pilots.size() + 1;
        auto pilot = std::make_unique<exec::PilotExecutor>(
            std::make_unique<exec::ThreadWorkerTransport>(std::move(config)),
            host_settings);
        pilots.push_back(pilot.get());
        return pilot;
      },
      policy);

  result.options.jobs = multi.total_slots();
  result.options.retries = 1;  // a single charged retry would fail the run
  result.options.output_mode = OutputMode::kKeepOrder;
  result.options.joblog_path = joblog_path;
  std::remove(joblog_path.c_str());

  std::ostringstream out, err;
  Engine engine(result.options, multi, out, err);
  std::vector<core::ArgVector> inputs;
  inputs.reserve(total_jobs);
  for (std::size_t i = 0; i < total_jobs; ++i) inputs.push_back({std::to_string(i)});
  result.summary = engine.run("pt {}", std::move(inputs));
  result.output = out.str();
  EXPECT_EQ(multi.active_count(), 0u);
  for (exec::PilotExecutor* pilot : pilots) {
    auto add = [](std::uint64_t& into, std::uint64_t from) { into += from; };
    add(result.transport.reconnects, pilot->counters().reconnects);
    add(result.transport.duplicate_results, pilot->counters().duplicate_results);
    add(result.transport.duplicate_chunks, pilot->counters().duplicate_chunks);
    add(result.transport.jobs_reconciled_lost,
        pilot->counters().jobs_reconciled_lost);
    add(result.faults.dropped, pilot->fault_counters().dropped);
    add(result.faults.duplicated, pilot->fault_counters().duplicated);
    add(result.faults.reordered, pilot->fault_counters().reordered);
    add(result.faults.delayed, pilot->fault_counters().delayed);
    add(result.faults.connection_kills, pilot->fault_counters().connection_kills);
  }
  return result;
}

TEST(ChaosSoak, PilotTransportSchedulesStayExactlyOnce) {
  const std::size_t kJobs = 24;
  const std::string joblog = temp_joblog("pilot");
  PilotSoakResult baseline =
      run_pilot_schedule(1, /*faults=*/false, joblog, kJobs);
  ASSERT_EQ(baseline.summary.succeeded, kJobs);
  const std::string expected_output = baseline.output;

  exec::transport::TransportFaultCounters injected;
  std::uint64_t reconnects = 0;
  for (std::uint64_t seed : seed_range(1, 100)) {
    PilotSoakResult run = run_pilot_schedule(seed, /*faults=*/true, joblog, kJobs);

    testing::InvariantReport report;
    testing::check_run(run.summary, run.options, kJobs, report);
    testing::check_joblog(run.options.joblog_path, run.summary, report);
    EXPECT_TRUE(report.ok()) << "pilot seed " << seed << " violated:\n"
                             << report.str();

    // retries=1: success of every job proves all reschedules were free
    // host-failure requeues, never charged retries.
    EXPECT_EQ(run.summary.succeeded, kJobs) << "pilot seed " << seed;
    EXPECT_FALSE(run.summary.halted) << "pilot seed " << seed;

    // Exactly-once at the worker: no command ran twice anywhere, despite
    // duplicated SUBMIT frames and journal replays.
    EXPECT_EQ(run.runs.size(), kJobs) << "pilot seed " << seed;
    for (const auto& [command, count] : run.runs) {
      EXPECT_EQ(count, 1) << "pilot seed " << seed << ": " << command
                          << " ran " << count << " times";
    }

    // Exactly-once in the joblog: every seq logged once.
    std::set<std::uint64_t> seen;
    for (const core::JoblogEntry& entry :
         core::read_joblog(run.options.joblog_path)) {
      EXPECT_TRUE(seen.insert(entry.seq).second)
          << "pilot seed " << seed << ": seq " << entry.seq << " logged twice";
    }
    EXPECT_EQ(seen.size(), kJobs) << "pilot seed " << seed;

    // Byte-identity under -k: frame chaos must be invisible in the output.
    EXPECT_EQ(run.output, expected_output) << "pilot seed " << seed;

    injected.dropped += run.faults.dropped;
    injected.duplicated += run.faults.duplicated;
    injected.reordered += run.faults.reordered;
    injected.delayed += run.faults.delayed;
    injected.connection_kills += run.faults.connection_kills;
    reconnects += run.transport.reconnects;
  }
  if (std::getenv("PARCL_CHAOS_SEEDS") == nullptr) {
    // The rig must actually have bitten: thousands of frame faults, a kill
    // on every third schedule, and real reconnect-and-reconcile traffic.
    EXPECT_GT(injected.dropped, 100u);
    EXPECT_GT(injected.duplicated, 100u);
    EXPECT_GT(injected.reordered, 100u);
    EXPECT_GT(injected.delayed, 100u);
    EXPECT_GE(injected.connection_kills, 33u);
    // A kill with nothing left in flight reattaches lazily (maybe never);
    // but across the soak, most cuts land mid-run and must reconcile.
    EXPECT_GE(reconnects, 25u);
  }
  std::remove(joblog.c_str());
}

// ---------------------------------------------------------------------------
// Scenario 4: interrupt + resume pairs over a shared joblog — across the
// pair no job may be lost and none may run twice, even when the first half
// ends in a --termseq escalation (tests/invariants.hpp check_resume_pair).
// ---------------------------------------------------------------------------

Options interruptible_options(const std::string& joblog_path) {
  Options options;
  options.jobs = 16;
  options.output_mode = OutputMode::kKeepOrder;
  options.joblog_path = joblog_path;
  options.resume = true;
  options.term_seq = "TERM,100,KILL";
  return options;
}

/// One half of an interrupt+resume pair. `interrupt_after` is the number of
/// completions before SIGINT lands (`> total_jobs` = run to the end);
/// `interrupts` > 1 escalates through --termseq.
RunSummary run_interruptible_half(std::uint64_t seed, const std::string& joblog_path,
                                  std::size_t total_jobs,
                                  std::size_t interrupt_after, int interrupts,
                                  bool streamed = false) {
  sim::Simulation sim;
  util::Rng durations(seed * 13 + 3);
  exec::SimExecutor executor(
      sim,
      [&](const core::ExecRequest&) {
        return exec::SimOutcome{durations.uniform(0.5, 8.0), 0, ""};
      },
      /*dispatch_cost=*/1.0 / 470.0);
  std::ostringstream out, err;
  Engine engine(interruptible_options(joblog_path), executor, out, err);
  core::SignalCoordinator signals;
  engine.set_signal_coordinator(&signals);
  std::size_t completed = 0;
  engine.set_result_callback([&](const core::JobResult&) {
    if (++completed == interrupt_after) {
      for (int i = 0; i < interrupts; ++i) signals.notify(SIGINT);
    }
  });
  if (streamed) {
    std::size_t next = 0;
    core::FunctionSource source([&]() -> std::optional<core::JobInput> {
      if (next >= total_jobs) return std::nullopt;
      core::JobInput job;
      job.args = {std::to_string(next++)};
      return job;
    });
    return engine.run_source("task {}", source);
  }
  std::vector<core::ArgVector> inputs;
  inputs.reserve(total_jobs);
  for (std::size_t i = 0; i < total_jobs; ++i) inputs.push_back({std::to_string(i)});
  return engine.run("task {}", std::move(inputs));
}

TEST(ChaosSoak, InterruptResumePairsNeverRunAJobTwice) {
  const std::size_t kJobs = 120;
  const std::string joblog = temp_joblog("resume_pair");
  for (std::uint64_t seed : seed_range(1, 30)) {
    std::remove(joblog.c_str());
    util::Rng rng(seed * 101 + 9);
    std::size_t interrupt_after =
        static_cast<std::size_t>(rng.uniform_int(1, static_cast<long>(kJobs / 2)));
    // Every third seed double-interrupts, killing the in-flight jobs via
    // --termseq instead of draining them.
    int interrupts = seed % 3 == 0 ? 2 : 1;

    RunSummary first =
        run_interruptible_half(seed, joblog, kJobs, interrupt_after, interrupts);
    EXPECT_EQ(first.interrupt_signal, SIGINT) << "pair seed " << seed;
    EXPECT_GT(first.skipped, 0u) << "pair seed " << seed;
    if (interrupts == 2) {
      EXPECT_GT(first.dispatch.escalated, 0u) << "pair seed " << seed;
    }

    RunSummary second =
        run_interruptible_half(seed, joblog, kJobs, kJobs + 1, 0);
    EXPECT_EQ(second.interrupt_signal, 0) << "pair seed " << seed;

    testing::InvariantReport report;
    Options options = interruptible_options(joblog);
    testing::check_run(first, options, kJobs, report);
    testing::check_run(second, options, kJobs, report);
    testing::check_resume_pair(first, second, kJobs, report);
    EXPECT_TRUE(report.ok()) << "pair seed " << seed << " violated:\n"
                             << report.str();

    // The shared joblog ends up covering every seq exactly once — the
    // drain-killed jobs' rows (Signal 15) included, so they never re-ran.
    std::set<std::uint64_t> seen;
    for (const core::JoblogEntry& entry : core::read_joblog(joblog)) {
      EXPECT_TRUE(seen.insert(entry.seq).second)
          << "pair seed " << seed << ": seq " << entry.seq << " logged twice";
    }
    EXPECT_EQ(seen.size(), kJobs) << "pair seed " << seed;
  }
  std::remove(joblog.c_str());
}

TEST(ChaosSoak, StreamedInterruptResumePairsMatchMaterialized) {
  // Interrupt + resume with the jobs pulled lazily: both halves must leave
  // exactly the same joblog bytes as the materialized pair (the sim clock is
  // deterministic), and the pair invariants must hold streamed too.
  const std::size_t kJobs = 120;
  const std::string joblog_m = temp_joblog("resume_pair_m");
  const std::string joblog_s = temp_joblog("resume_pair_s");
  for (std::uint64_t seed : seed_range(1, 10)) {
    std::remove(joblog_m.c_str());
    std::remove(joblog_s.c_str());
    util::Rng rng(seed * 101 + 9);
    std::size_t interrupt_after =
        static_cast<std::size_t>(rng.uniform_int(1, static_cast<long>(kJobs / 2)));
    int interrupts = seed % 3 == 0 ? 2 : 1;

    RunSummary first_m = run_interruptible_half(seed, joblog_m, kJobs,
                                                interrupt_after, interrupts);
    RunSummary second_m = run_interruptible_half(seed, joblog_m, kJobs, kJobs + 1, 0);

    RunSummary first_s = run_interruptible_half(seed, joblog_s, kJobs,
                                                interrupt_after, interrupts,
                                                /*streamed=*/true);
    RunSummary second_s = run_interruptible_half(seed, joblog_s, kJobs, kJobs + 1, 0,
                                                 /*streamed=*/true);

    EXPECT_EQ(first_s.skipped, first_m.skipped) << "pair seed " << seed;
    EXPECT_EQ(second_s.succeeded, second_m.succeeded) << "pair seed " << seed;
    EXPECT_EQ(testing::slurp(joblog_s), testing::slurp(joblog_m))
        << "pair seed " << seed << ": streamed pair left a different joblog";

    testing::InvariantReport report;
    Options options = interruptible_options(joblog_s);
    testing::check_run(first_s, options, kJobs, report);
    testing::check_run(second_s, options, kJobs, report);
    testing::check_resume_pair(first_s, second_s, kJobs, report);
    EXPECT_TRUE(report.ok()) << "streamed pair seed " << seed << " violated:\n"
                             << report.str();
  }
  std::remove(joblog_m.c_str());
  std::remove(joblog_s.c_str());
}

// ---------------------------------------------------------------------------
// Scenario 6: dependency-aware dispatch under fire. A diamond plus a
// two-stage fan-out, 100 seeded fault schedules over the simulated backend:
// no job may start before every predecessor's FINAL success, the joblog
// stays exactly-once, dep-skips are justified by a failed ancestor, and a
// clean schedule's -k output is byte-identical to the topological -j1
// baseline.
// ---------------------------------------------------------------------------

const char* kChaosDagText =
    "src :: run src\n"
    "dia_a after=src :: run dia_a\n"
    "dia_b after=src :: run dia_b\n"
    "dia_join after=dia_a,dia_b :: run dia_join\n"
    "fan1 after=src :: run fan1\n"
    "fan2 after=src :: run fan2\n"
    "fan3 after=src :: run fan3\n"
    "fan4 after=src :: run fan4\n"
    "red1 after=fan1,fan2 :: run red1\n"
    "red2 after=fan3,fan4 :: run red2\n"
    "final after=red1,red2,dia_join :: run final\n";
constexpr std::size_t kChaosDagNodes = 11;
// (successor, predecessor) pairs, seqs = declaration order above.
const std::pair<std::uint64_t, std::uint64_t> kChaosDagEdges[] = {
    {2, 1}, {3, 1}, {4, 2}, {4, 3},  {5, 1},  {6, 1},  {7, 1}, {8, 1},
    {9, 5}, {9, 6}, {10, 7}, {10, 8}, {11, 9}, {11, 10}, {11, 4}};

struct DagJoblogRow {
  double start = 0.0;
  double end = 0.0;
  int exitval = 0;
};

FaultPlan dag_plan(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  // No truncation: torn output would break the byte-identity leg without
  // exercising anything dependency-specific.
  plan.spawn_failure_prob = 0.04;
  plan.kill_prob = 0.05;
  plan.fail_prob = 0.10;
  plan.straggler_prob = 0.10;
  plan.straggler_delay_min = 0.5;
  plan.straggler_delay_max = 5.0;
  return plan;
}

ScheduleResult run_dag_schedule(std::uint64_t seed, bool faults,
                                const std::string& joblog_path,
                                std::size_t jobs) {
  sim::Simulation sim;
  util::Rng duration_rng(seed * 13 + 3);
  exec::SimExecutor inner(
      sim,
      [&](const core::ExecRequest& request) {
        exec::SimOutcome outcome;
        outcome.duration = duration_rng.lognormal(0.5, 0.4);
        outcome.stdout_data = request.command + "\n";
        return outcome;
      },
      /*dispatch_cost=*/1.0 / 470.0);
  FaultPlan plan = faults ? dag_plan(seed) : FaultPlan{};
  if (!faults) plan.seed = seed;
  FaultInjectingExecutor executor(inner, plan);

  ScheduleResult result;
  result.total_jobs = kChaosDagNodes;
  result.options.jobs = jobs;
  result.options.output_mode = OutputMode::kKeepOrder;
  result.options.joblog_path = joblog_path;
  result.options.retries = 1 + seed % 3;
  std::remove(joblog_path.c_str());

  std::ostringstream out, err;
  Engine engine(result.options, executor, out, err);
  std::istringstream graph(kChaosDagText);
  core::GraphSource source(core::GraphSpec::parse(graph, "chaos.graph"));
  result.summary = engine.run_source("", source);
  result.output = out.str();
  result.joblog_bytes = testing::slurp(joblog_path);
  result.faults = executor.counters();
  EXPECT_EQ(executor.active_count(), 0u);
  return result;
}

TEST(ChaosSoak, DagSchedulesRespectDependenciesExactlyOnce) {
  const std::string joblog = temp_joblog("dag");
  ScheduleResult baseline =
      run_dag_schedule(1, /*faults=*/false, joblog, /*jobs=*/1);
  ASSERT_EQ(baseline.summary.succeeded, kChaosDagNodes);
  const std::string expected_output = baseline.output;

  std::size_t fully_succeeded = 0;
  std::size_t dep_skips_seen = 0;
  for (std::uint64_t seed : seed_range(1, 100)) {
    ScheduleResult run =
        run_dag_schedule(seed, /*faults=*/true, joblog, 1 + seed % 8);

    // Every node reaches exactly one terminal state, and the joblog has
    // exactly one row per seq.
    EXPECT_EQ(run.summary.succeeded + run.summary.failed +
                  run.summary.dep_skipped,
              kChaosDagNodes)
        << "dag seed " << seed;
    std::map<std::uint64_t, DagJoblogRow> rows;
    std::istringstream log(run.joblog_bytes);
    std::string line;
    std::getline(log, line);  // header
    while (std::getline(log, line)) {
      auto fields = util::split(line, '\t');
      ASSERT_GE(fields.size(), 7u) << "dag seed " << seed;
      std::uint64_t seq =
          static_cast<std::uint64_t>(util::parse_long(fields[0]));
      EXPECT_TRUE(rows.find(seq) == rows.end())
          << "dag seed " << seed << ": seq " << seq << " logged twice";
      DagJoblogRow row;
      row.start = std::stod(fields[2]);
      row.end = row.start + std::stod(fields[3]);
      row.exitval = static_cast<int>(util::parse_long(fields[6]));
      rows[seq] = row;
    }
    ASSERT_EQ(rows.size(), kChaosDagNodes) << "dag seed " << seed;

    std::size_t logged_dep_skips = 0;
    for (const auto& [seq, row] : rows) {
      if (row.exitval == core::kDepSkippedExitval) ++logged_dep_skips;
    }
    EXPECT_EQ(logged_dep_skips, run.summary.dep_skipped) << "dag seed " << seed;
    dep_skips_seen += logged_dep_skips;

    for (const auto& [successor, predecessor] : kChaosDagEdges) {
      const DagJoblogRow& succ = rows.at(successor);
      const DagJoblogRow& pred = rows.at(predecessor);
      if (succ.exitval == core::kDepSkippedExitval) continue;
      // The successor ran, so every predecessor's final attempt succeeded
      // — and finished (in sim time) before the successor started.
      EXPECT_EQ(pred.exitval, 0)
          << "dag seed " << seed << ": seq " << successor
          << " ran although predecessor " << predecessor << " failed";
      EXPECT_GE(succ.start, pred.end - 1e-9)
          << "dag seed " << seed << ": seq " << successor
          << " started before predecessor " << predecessor << " finished";
    }
    for (const auto& [seq, row] : rows) {
      if (row.exitval != core::kDepSkippedExitval) continue;
      // A dep-skip needs a dead ancestor among its direct predecessors.
      bool justified = false;
      for (const auto& [successor, predecessor] : kChaosDagEdges) {
        if (successor == seq && rows.at(predecessor).exitval != 0)
          justified = true;
      }
      EXPECT_TRUE(justified) << "dag seed " << seed << ": seq " << seq
                             << " dep-skipped with all predecessors clean";
    }

    if (run.summary.failed == 0 && run.summary.dep_skipped == 0) {
      ++fully_succeeded;
      EXPECT_EQ(run.output, expected_output)
          << "dag seed " << seed
          << ": clean -k output diverged from the -j1 topological baseline";
    }
  }
  if (std::getenv("PARCL_CHAOS_SEEDS") == nullptr) {
    // Both legs must actually bite: some schedules finish clean (output
    // identity exercised) and some propagate failures (dep-skip rows
    // exercised).
    EXPECT_GE(fully_succeeded, 10u);
    EXPECT_GE(dep_skips_seen, 50u);
  }
  std::remove(joblog.c_str());
}

// ---------------------------------------------------------------------------
// Service mode: kill -9 mid-intake
// ---------------------------------------------------------------------------

/// Deterministic synchronous executor for the server soak. start() is the
/// "execution" (it computes the job's output immediately); a release budget
/// controls how many completions each step may reap, so a crash can land
/// with jobs in every state: queued, running, ledgered. It also enforces
/// the exactly-once contract at the execution site: a job that was already
/// in the ledger when this incarnation began must never start again.
class SoakServerExecutor final : public core::Executor {
 public:
  explicit SoakServerExecutor(const std::set<std::uint64_t>& already_ledgered,
                              std::vector<std::uint64_t>& double_runs)
      : already_ledgered_(already_ledgered), double_runs_(double_runs) {}

  void start(const core::ExecRequest& request) override {
    if (already_ledgered_.count(request.job_id)) {
      double_runs_.push_back(request.job_id);
    }
    core::ExecResult result;
    result.job_id = request.job_id;
    result.start_time = clock_;
    result.end_time = clock_ += 0.001;
    result.stdout_data = "out:" + request.command + "\n";
    done_.push_back(result);
  }
  std::optional<core::ExecResult> wait_any(double) override {
    if (done_.empty() || release_budget_ == 0) return std::nullopt;
    if (release_budget_ > 0) --release_budget_;
    core::ExecResult result = done_.front();
    done_.pop_front();
    return result;
  }
  void kill(std::uint64_t, bool) override {}
  std::size_t active_count() const override { return done_.size(); }
  double now() const override { return clock_; }

  long release_budget_ = -1;

 private:
  const std::set<std::uint64_t>& already_ledgered_;
  std::vector<std::uint64_t>& double_runs_;
  std::deque<core::ExecResult> done_;
  double clock_ = 1.0;
};

// One seeded schedule: concurrent tenants submit against a bounded server,
// the "process" is kill -9'd (core destroyed, optionally with a torn
// journal tail) at seeded points and restarted over the same state dir.
// Afterwards: every acked job is in the ledger exactly once, nothing
// ledgered ever re-ran, and each tenant's keep-order output is
// byte-identical to its serial baseline.
TEST(ChaosSoak, ServerSurvivesKill9MidIntake) {
  for (std::uint64_t seed : seed_range(1, 100)) {
    util::Rng rng(seed * 1000003 + 17);
    const std::string dir = ::testing::TempDir() + "server_soak_" +
                            std::to_string(getpid()) + "_" + std::to_string(seed);
    mkdir(dir.c_str(), 0755);
    const std::size_t tenant_count = 2 + seed % 3;
    std::vector<std::string> tenants;
    std::vector<double> weights;
    std::vector<std::uint64_t> total;      // jobs each tenant will submit
    std::vector<std::uint64_t> next_seq;   // per-tenant client seq cursor
    for (std::size_t i = 0; i < tenant_count; ++i) {
      tenants.push_back("t" + std::to_string(i));
      weights.push_back(static_cast<double>(rng.uniform_int(1, 4)));
      total.push_back(static_cast<std::uint64_t>(rng.uniform_int(8, 20)));
      next_seq.push_back(1);
    }
    auto command_for = [](const std::string& tenant, std::uint64_t seq) {
      return "job " + tenant + " " + std::to_string(seq);
    };

    core::ServerConfig config;
    config.state_dir = dir;
    config.slots = static_cast<std::size_t>(rng.uniform_int(1, 4));

    std::set<std::uint64_t> ledgered_at_restart;  // ledger as of this incarnation
    std::vector<std::uint64_t> double_runs;
    std::set<std::uint64_t> accepted_ids;
    // tenant -> client seq -> stdout (the client's-eye view across
    // reconnects; duplicates are exactly-once violations).
    std::map<std::string, std::map<std::uint64_t, std::string>> outputs;

    auto make_executor = [&] {
      return std::make_unique<SoakServerExecutor>(ledgered_at_restart, double_runs);
    };
    auto attach_all = [&](core::ServerCore& core) {
      for (std::size_t i = 0; i < tenant_count; ++i) {
        ASSERT_TRUE(core.attach_tenant(tenants[i], weights[i]).accepted)
            << "seed " << seed;
      }
    };
    auto pump = [&](core::ServerCore& core) {
      for (core::TenantEvent& event : core.take_events()) {
        auto [it, inserted] =
            outputs[event.tenant].emplace(event.result.seq, event.result.stdout_data);
        EXPECT_TRUE(inserted) << "seed " << seed << ": tenant " << event.tenant
                              << " seq " << event.result.seq
                              << " delivered twice";
        EXPECT_EQ(event.result.exit_code, 0) << "seed " << seed;
      }
    };

    std::unique_ptr<SoakServerExecutor> executor = make_executor();
    auto core = std::make_unique<core::ServerCore>(config, *executor);
    attach_all(*core);

    std::size_t crashes_left = 1 + seed % 3;
    bool submissions_done = false;
    while (!submissions_done || !core->idle() || crashes_left > 0) {
      // A burst of interleaved submissions from every tenant.
      submissions_done = true;
      for (std::size_t i = 0; i < tenant_count; ++i) {
        std::uint64_t burst = static_cast<std::uint64_t>(rng.uniform_int(0, 4));
        while (burst > 0 && next_seq[i] <= total[i]) {
          core::Admission admission = core->submit(
              tenants[i], next_seq[i], command_for(tenants[i], next_seq[i]));
          ASSERT_TRUE(admission.accepted) << "seed " << seed;
          accepted_ids.insert(admission.intake_id);
          ++next_seq[i];
          --burst;
        }
        if (next_seq[i] <= total[i]) submissions_done = false;
      }

      // Partial progress: dispatch freely, reap only a few completions.
      executor->release_budget_ = rng.uniform_int(0, 5);
      core->step(0.0);
      pump(*core);

      if (crashes_left > 0 && (submissions_done || rng.bernoulli(0.15))) {
        // kill -9: the core dies here. Journal and ledger are exactly what
        // their O_APPEND writes made them; in-flight work evaporates.
        --crashes_left;
        core.reset();
        if (rng.bernoulli(0.5)) {
          // Torn final write: crashed mid-append, no trailing newline.
          std::ofstream torn(core::ServerCore::journal_path(dir),
                             std::ios::app | std::ios::binary);
          torn << "A\t424242\tt0\t7\t0\ttorn-mid-wri";
        }
        ledgered_at_restart =
            core::read_resume_skip_set(core::ServerCore::ledger_path(dir), false);
        executor = make_executor();
        core = std::make_unique<core::ServerCore>(config, *executor);
        EXPECT_EQ(core->stats().replayed,
                  accepted_ids.size() - ledgered_at_restart.size())
            << "seed " << seed << ": replay != journaled minus ledgered";
        attach_all(*core);
      }
    }

    EXPECT_TRUE(double_runs.empty())
        << "seed " << seed << ": " << double_runs.size()
        << " ledgered jobs ran again (first intake id " << double_runs.front()
        << ")";

    // No acked job lost: the final ledger covers every accepted intake id,
    // exactly once (ledger Seq column must have no duplicates).
    std::set<std::uint64_t> ledgered =
        core::read_resume_skip_set(core::ServerCore::ledger_path(dir), false);
    EXPECT_EQ(ledgered.size(), accepted_ids.size()) << "seed " << seed;
    std::size_t ledger_rows = 0;
    {
      std::ifstream in(core::ServerCore::ledger_path(dir));
      std::string line;
      while (std::getline(in, line)) {
        if (!line.empty() && line[0] != 'S') ++ledger_rows;  // skip header
      }
    }
    EXPECT_EQ(ledger_rows, accepted_ids.size())
        << "seed " << seed << ": duplicate or missing ledger rows";
    for (std::uint64_t id : accepted_ids) {
      EXPECT_TRUE(ledgered.count(id))
          << "seed " << seed << ": acked job " << id << " lost";
    }

    // Keep-order output identity: each tenant's deliveries, ordered by its
    // own seq, must be byte-identical to the serial baseline.
    for (std::size_t i = 0; i < tenant_count; ++i) {
      std::string baseline, collated;
      for (std::uint64_t seq = 1; seq < next_seq[i]; ++seq) {
        baseline += "out:" + command_for(tenants[i], seq) + "\n";
      }
      for (const auto& [seq, text] : outputs[tenants[i]]) collated += text;
      EXPECT_EQ(collated, baseline)
          << "seed " << seed << ": tenant " << tenants[i]
          << " -k output diverged from serial baseline";
    }

    core.reset();
    std::remove(core::ServerCore::journal_path(dir).c_str());
    std::remove(core::ServerCore::ledger_path(dir).c_str());
    for (const std::string& tenant : tenants) {
      std::remove(core::ServerCore::tenant_joblog_path(dir, tenant).c_str());
    }
    rmdir(dir.c_str());
  }
}

}  // namespace
}  // namespace parcl
