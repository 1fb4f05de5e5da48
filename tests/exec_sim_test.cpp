// The engine over SimExecutor: cluster-scale behaviour in zero wall time.
#include "exec/sim_executor.hpp"

#include <gtest/gtest.h>

#include <csignal>

#include <algorithm>
#include <sstream>
#include <vector>

#include "core/engine.hpp"
#include "core/signal_coordinator.hpp"
#include "exec/sim_driver.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace parcl::exec {
namespace {

using core::ArgVector;
using core::Engine;
using core::ExecRequest;
using core::Options;
using core::RunSummary;

std::vector<ArgVector> numbered(int n) {
  std::vector<ArgVector> out;
  for (int i = 0; i < n; ++i) out.push_back({std::to_string(i)});
  return out;
}

TEST(SimExecutor, FixedDurationJobsPackPerfectly) {
  sim::Simulation simulation;
  SimExecutor executor(simulation, [](const ExecRequest&) {
    return SimOutcome{10.0, 0, ""};
  });
  Options options;
  options.jobs = 4;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("task {}", numbered(16));
  EXPECT_EQ(summary.succeeded, 16u);
  // 16 jobs / 4 slots * 10s each = 40s of simulated time, zero overhead.
  EXPECT_DOUBLE_EQ(summary.makespan, 40.0);
  EXPECT_DOUBLE_EQ(simulation.now(), 40.0);
}

TEST(SimExecutor, DispatchCostSerializesStarts) {
  sim::Simulation simulation;
  const double dispatch = 1.0 / 470.0;  // paper's single-instance rate
  SimExecutor executor(simulation,
                       [](const ExecRequest&) { return SimOutcome{0.0, 0, ""}; },
                       dispatch);
  Options options;
  options.jobs = 128;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("noop {}", numbered(470));
  EXPECT_EQ(summary.succeeded, 470u);
  // 470 dispatches at 1/470 s each: the run takes about one second, and the
  // measured dispatch rate approaches 470/s.
  EXPECT_NEAR(simulation.now(), 1.0, 0.01);
  EXPECT_NEAR(summary.dispatch_rate(), 470.0, 5.0);
}

TEST(SimExecutor, ExitCodesFlowThrough) {
  sim::Simulation simulation;
  SimExecutor executor(simulation, [](const ExecRequest& request) {
    SimOutcome outcome;
    outcome.duration = 1.0;
    outcome.exit_code = request.command.find("bad") != std::string::npos ? 2 : 0;
    return outcome;
  });
  Options options;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("job {}", {{"good"}, {"bad"}});
  EXPECT_EQ(summary.succeeded, 1u);
  EXPECT_EQ(summary.failed, 1u);
}

TEST(SimExecutor, SlotReuseMatchesFreeListSemantics) {
  sim::Simulation simulation;
  std::vector<std::size_t> slots_seen;
  SimExecutor executor(simulation, [&](const ExecRequest& request) {
    slots_seen.push_back(request.slot);
    // Job on slot 1 is long; others short.
    return SimOutcome{request.slot == 1 ? 100.0 : 1.0, 0, ""};
  });
  Options options;
  options.jobs = 2;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  engine.run("t {}", numbered(5));
  // First two jobs take slots 1,2. Slot 1 busy for 100s, so jobs 3..5 all
  // reuse slot 2.
  ASSERT_EQ(slots_seen.size(), 5u);
  EXPECT_EQ(slots_seen[0], 1u);
  EXPECT_EQ(slots_seen[1], 2u);
  EXPECT_EQ(slots_seen[2], 2u);
  EXPECT_EQ(slots_seen[3], 2u);
  EXPECT_EQ(slots_seen[4], 2u);
}

TEST(SimExecutor, TimeoutInSimTime) {
  sim::Simulation simulation;
  SimExecutor executor(simulation, [](const ExecRequest&) {
    return SimOutcome{1000.0, 0, ""};  // would run 1000 sim seconds
  });
  Options options;
  options.timeout_seconds = 5.0;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("hang {}", {{"x"}});
  EXPECT_EQ(summary.failed, 1u);
  EXPECT_EQ(summary.results[0].status, core::JobStatus::kTimedOut);
  EXPECT_LT(simulation.now(), 100.0);  // did not wait the full 1000s
}

TEST(SimExecutor, MillionTaskScaleIsTractable) {
  // A smoke-scale version of the Fig-1 workload shape: many no-op tasks
  // through 128 slots with a dispatch cost.
  sim::Simulation simulation;
  SimExecutor executor(simulation,
                       [](const ExecRequest&) { return SimOutcome{30.0, 0, ""}; },
                       0.002);
  Options options;
  options.jobs = 128;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("payload {}", numbered(12800));
  EXPECT_EQ(summary.succeeded, 12800u);
  // 12800 tasks / 128 slots = 100 waves of 30s plus dispatch overhead.
  EXPECT_GT(summary.makespan, 3000.0);
  EXPECT_LT(summary.makespan, 3100.0);
}

// Property: the engine is a greedy list scheduler, so for any task set its
// makespan obeys the classical bounds
//   max(total/j, longest) <= makespan <= total/j + longest.
class ListSchedulingBounds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ListSchedulingBounds, MakespanWithinGrahamBounds) {
  util::Rng rng(GetParam());
  std::size_t jobs = static_cast<std::size_t>(rng.uniform_int(2, 16));
  std::size_t tasks = static_cast<std::size_t>(rng.uniform_int(1, 120));

  std::vector<double> durations;
  double total = 0.0, longest = 0.0;
  for (std::size_t i = 0; i < tasks; ++i) {
    double d = rng.uniform(0.1, 50.0);
    durations.push_back(d);
    total += d;
    longest = std::max(longest, d);
  }

  sim::Simulation simulation;
  SimExecutor executor(simulation, [&](const core::ExecRequest& request) {
    // The command's trailing token is the task index.
    std::size_t index = static_cast<std::size_t>(
        std::stoul(request.command.substr(request.command.rfind(' ') + 1)));
    return SimOutcome{durations[index], 0, ""};
  });
  core::Options options;
  options.jobs = jobs;
  std::ostringstream out, err;
  core::Engine engine(options, executor, out, err);
  core::RunSummary summary = engine.run("t {}", numbered(static_cast<int>(tasks)));
  ASSERT_EQ(summary.succeeded, tasks);

  double lower = std::max(total / static_cast<double>(jobs), longest);
  double upper = total / static_cast<double>(jobs) + longest;
  EXPECT_GE(summary.makespan, lower - 1e-9)
      << "jobs=" << jobs << " tasks=" << tasks;
  EXPECT_LE(summary.makespan, upper + 1e-9)
      << "jobs=" << jobs << " tasks=" << tasks;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ListSchedulingBounds,
                         ::testing::Range<std::uint64_t>(1, 21));

// Regression: a job killed between start() and its completion event must
// surface exactly one ExecResult — the cancelled completion must not fire
// too, and a TERM->KILL escalation must not mint a second result.
TEST(SimExecutor, KilledWhileQueuedSurfacesExactlyOneResult) {
  sim::Simulation simulation;
  SimExecutor executor(simulation, [](const ExecRequest&) {
    return SimOutcome{50.0, 0, "never-delivered"};
  });
  ExecRequest request;
  request.job_id = 7;
  request.command = "victim";
  executor.start(request);
  EXPECT_EQ(executor.active_count(), 1u);

  executor.kill(7, /*force=*/false);
  executor.kill(7, /*force=*/true);  // escalation: must not duplicate

  std::vector<core::ExecResult> results;
  while (auto result = executor.wait_any(200.0)) results.push_back(*result);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].job_id, 7u);
  EXPECT_EQ(results[0].term_signal, SIGTERM);
  EXPECT_EQ(executor.active_count(), 0u);
  // The cancelled completion event must not reappear later.
  simulation.run();
  EXPECT_FALSE(executor.wait_any(0.0).has_value());
}

// Regression: with nothing in flight, a negative timeout returns nullopt
// immediately — it must not burn down unrelated events on a shared
// simulation (node churn, monitors) hunting for a completion that cannot
// arrive.
TEST(SimExecutor, IdleIndefiniteWaitLeavesSharedSimulationUntouched) {
  sim::Simulation simulation;
  int unrelated_fired = 0;
  simulation.schedule(5.0, [&] { ++unrelated_fired; });
  SimExecutor executor(simulation,
                       [](const ExecRequest&) { return SimOutcome{1.0, 0, ""}; });
  EXPECT_FALSE(executor.wait_any(-1.0).has_value());
  EXPECT_EQ(unrelated_fired, 0);
  EXPECT_DOUBLE_EQ(simulation.now(), 0.0);
}

// A task model can report death-by-signal; the result carries both the
// signal and the 128+N exit convention.
TEST(SimExecutor, TaskModelSignalDeathFlowsThrough) {
  sim::Simulation simulation;
  SimExecutor executor(simulation, [](const ExecRequest&) {
    SimOutcome outcome;
    outcome.duration = 2.0;
    outcome.term_signal = SIGKILL;
    return outcome;
  });
  ExecRequest request;
  request.job_id = 1;
  executor.start(request);
  auto result = executor.wait_any(-1.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->term_signal, SIGKILL);
  EXPECT_EQ(result->exit_code, 128 + SIGKILL);
}

TEST(SimExecutor, RejectsNegativeDispatchCost) {
  sim::Simulation simulation;
  EXPECT_THROW(SimExecutor(simulation,
                           [](const ExecRequest&) { return SimOutcome{}; }, -1.0),
               util::ConfigError);
}

// --- Graceful interruption, backoff, adaptive timeouts, pressure guards ---

// First interrupt: stop dispatching, let running jobs finish, skip the rest.
TEST(SimExecutor, FirstInterruptDrainsWithoutKilling) {
  sim::Simulation simulation;
  SimExecutor executor(simulation, [](const ExecRequest&) {
    return SimOutcome{10.0, 0, ""};
  });
  Options options;
  options.jobs = 2;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  core::SignalCoordinator signals;
  engine.set_signal_coordinator(&signals);
  bool notified = false;
  engine.set_result_callback([&](const core::JobResult&) {
    if (!notified) {
      notified = true;
      signals.notify(SIGINT);  // "Ctrl-C" right after the first completion
    }
  });
  RunSummary summary = engine.run("task {}", numbered(8));
  EXPECT_EQ(summary.interrupt_signal, SIGINT);
  // The job running when the interrupt landed drained to success; the six
  // never-started jobs were skipped, and nothing was killed.
  EXPECT_EQ(summary.succeeded, 2u);
  EXPECT_EQ(summary.skipped, 6u);
  EXPECT_EQ(summary.failed, 0u);
  EXPECT_EQ(summary.dispatch.drained, 1u);
  EXPECT_EQ(summary.dispatch.escalated, 0u);
  EXPECT_DOUBLE_EQ(summary.makespan, 10.0);
}

TEST(SimExecutor, InterruptBeforeFirstDispatchSkipsEverything) {
  sim::Simulation simulation;
  SimExecutor executor(simulation, [](const ExecRequest&) {
    return SimOutcome{1.0, 0, ""};
  });
  Options options;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  core::SignalCoordinator signals;
  engine.set_signal_coordinator(&signals);
  signals.notify(SIGTERM);
  RunSummary summary = engine.run("task {}", numbered(5));
  EXPECT_EQ(summary.interrupt_signal, SIGTERM);
  EXPECT_EQ(summary.succeeded, 0u);
  EXPECT_EQ(summary.skipped, 5u);
  EXPECT_EQ(summary.dispatch.drained, 0u);
  EXPECT_DOUBLE_EQ(simulation.now(), 0.0);
}

// Second interrupt: every running job gets the first --termseq signal, and
// the death-by-signal is recorded verbatim (exit 128+N convention).
TEST(SimExecutor, SecondInterruptEscalatesAndRecordsSignal) {
  sim::Simulation simulation;
  core::SignalCoordinator signals;
  int started = 0;
  // Double-interrupt once all four slots are busy: the model runs inside
  // start(), so the fourth dispatch is the right hook point.
  SimExecutor executor(simulation, [&](const ExecRequest&) {
    if (++started == 4) {
      signals.notify(SIGINT);
      signals.notify(SIGINT);
    }
    return SimOutcome{1000.0, 0, ""};  // would hang well past the drain
  });
  Options options;
  options.jobs = 4;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  engine.set_signal_coordinator(&signals);
  RunSummary summary = engine.run("hang {}", numbered(8));
  EXPECT_EQ(summary.interrupt_signal, SIGINT);
  EXPECT_EQ(summary.dispatch.drained, 4u);
  EXPECT_EQ(summary.dispatch.escalated, 4u);  // one TERM per running job
  EXPECT_EQ(summary.skipped, 4u);
  std::size_t signaled = 0;
  for (const auto& result : summary.results) {
    if (result.status == core::JobStatus::kSignaled) {
      ++signaled;
      EXPECT_EQ(result.term_signal, SIGTERM);
      EXPECT_EQ(result.exit_code, 128 + SIGTERM);
    }
  }
  EXPECT_EQ(signaled, 4u);
  EXPECT_LT(simulation.now(), 10.0);  // nowhere near the 1000s job length
}

/// Forwards to a SimExecutor but shrugs off everything below SIGKILL, so a
/// --termseq escalation has to walk all its stages to make progress.
class StubbornExecutor : public core::Executor {
 public:
  explicit StubbornExecutor(SimExecutor& inner) : inner_(inner) {}
  void start(const core::ExecRequest& request) override { inner_.start(request); }
  std::optional<core::ExecResult> wait_any(double timeout) override {
    return inner_.wait_any(timeout);
  }
  void kill(std::uint64_t id, bool force) override {
    kill_signal(id, force ? SIGKILL : SIGTERM);
  }
  void kill_signal(std::uint64_t id, int sig) override {
    signals_sent.push_back(sig);
    if (sig == SIGKILL) inner_.kill_signal(id, sig);
  }
  std::size_t active_count() const override { return inner_.active_count(); }
  double now() const override { return inner_.now(); }

  std::vector<int> signals_sent;

 private:
  SimExecutor& inner_;
};

TEST(SimExecutor, TermseqWalksStagesUntilJobsDie) {
  sim::Simulation simulation;
  int started = 0;
  core::SignalCoordinator signals;
  SimExecutor inner(simulation, [&](const ExecRequest&) {
    if (++started == 2) {
      signals.notify(SIGINT);
      signals.notify(SIGINT);
    }
    return SimOutcome{1000.0, 0, ""};
  });
  StubbornExecutor executor(inner);
  Options options;
  options.jobs = 2;
  options.term_seq = "TERM,200,KILL";
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  engine.set_signal_coordinator(&signals);
  RunSummary summary = engine.run("stubborn {}", numbered(2));

  // Stage 0 TERM is ignored by the jobs; 200ms later stage 1 KILL lands.
  ASSERT_EQ(executor.signals_sent.size(), 4u);
  EXPECT_EQ(executor.signals_sent[0], SIGTERM);
  EXPECT_EQ(executor.signals_sent[1], SIGTERM);
  EXPECT_EQ(executor.signals_sent[2], SIGKILL);
  EXPECT_EQ(executor.signals_sent[3], SIGKILL);
  EXPECT_EQ(summary.dispatch.escalated, 4u);
  for (const auto& result : summary.results) {
    EXPECT_EQ(result.status, core::JobStatus::kSignaled);
    EXPECT_EQ(result.term_signal, SIGKILL);
  }
  // The KILL stage fires one --termseq delay after the TERM stage, not the
  // 1000 sim seconds the jobs would have taken.
  EXPECT_LT(simulation.now(), 10.0);
}

// --retry-delay: attempt k waits base * 2^(k-1) with +/-25% jitter.
TEST(SimExecutor, RetryDelayBacksOffExponentially) {
  sim::Simulation simulation;
  SimExecutor executor(simulation, [](const ExecRequest&) {
    return SimOutcome{0.5, 1, ""};  // always fails
  });
  Options options;
  options.retries = 3;
  options.retry_delay_seconds = 1.0;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("flaky {}", numbered(1));
  EXPECT_EQ(summary.failed, 1u);
  EXPECT_EQ(summary.results[0].attempts, 3u);
  ASSERT_EQ(summary.start_times.size(), 3u);
  // Gap between attempt k's failure and attempt k+1's start.
  double gap1 = summary.start_times[1] - (summary.start_times[0] + 0.5);
  double gap2 = summary.start_times[2] - (summary.start_times[1] + 0.5);
  EXPECT_GE(gap1, 0.75);  // 1.0 * jitter in [0.75, 1.25]
  EXPECT_LE(gap1, 1.25 + 1e-9);
  EXPECT_GE(gap2, 1.5);  // 2.0 * jitter
  EXPECT_LE(gap2, 2.5 + 1e-9);
  EXPECT_GT(gap2, gap1);  // exponential: the second wait is strictly longer
}

TEST(SimExecutor, RetryDelayScheduleIsSeedDeterministic) {
  auto run_once = [](std::uint64_t seed) {
    sim::Simulation simulation;
    SimExecutor executor(simulation, [](const ExecRequest&) {
      return SimOutcome{0.5, 1, ""};
    });
    Options options;
    options.retries = 3;
    options.retry_delay_seconds = 1.0;
    options.retry_jitter_seed = seed;
    std::ostringstream out, err;
    Engine engine(options, executor, out, err);
    return engine.run("flaky {}", numbered(1)).start_times;
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));
}

// --timeout 200%: the limit arms off the running median of successes and
// kills the straggler at 2x the median, not at its natural 500s length.
TEST(SimExecutor, AdaptiveTimeoutKillsStragglerAtMedianMultiple) {
  sim::Simulation simulation;
  SimExecutor executor(simulation, [](const ExecRequest& request) {
    bool straggler = request.command.back() == '3';
    return SimOutcome{straggler ? 500.0 : 1.0, 0, ""};
  });
  Options options;
  options.jobs = 4;
  options.timeout_percent = 200.0;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("t {}", numbered(4));
  EXPECT_EQ(summary.succeeded, 3u);
  EXPECT_EQ(summary.failed, 1u);
  EXPECT_EQ(summary.results[3].status, core::JobStatus::kTimedOut);
  // The straggler started at t=0 with no deadline (no samples yet); the
  // third success at t=1 armed it at median(1.0) * 200% = 2.0.
  EXPECT_DOUBLE_EQ(summary.makespan, 2.0);
}

TEST(SimExecutor, AdaptiveTimeoutNeedsMinimumSamples) {
  sim::Simulation simulation;
  SimExecutor executor(simulation, [](const ExecRequest& request) {
    bool slow = request.command.back() == '1';
    return SimOutcome{slow ? 50.0 : 1.0, 0, ""};
  });
  Options options;
  options.jobs = 2;
  options.timeout_percent = 200.0;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  // Two jobs: one fast success is below kAdaptiveMinSamples, so the slow
  // job must run to its natural end.
  RunSummary summary = engine.run("t {}", numbered(2));
  EXPECT_EQ(summary.succeeded, 2u);
  EXPECT_DOUBLE_EQ(summary.makespan, 50.0);
}

// --memfree: dispatch defers (without failing jobs) until memory recovers.
TEST(SimExecutor, MemfreePressureDefersDispatch) {
  sim::Simulation simulation;
  SimExecutor executor(simulation, [](const ExecRequest&) {
    return SimOutcome{1.0, 0, ""};
  });
  executor.set_pressure_model([&] {
    core::ResourcePressure pressure;
    // Memory is exhausted for the first simulated second, then recovers.
    pressure.mem_free_bytes = simulation.now() < 1.0 ? 0.0 : 8.0e9;
    pressure.load_avg = 0.25;
    return pressure;
  });
  Options options;
  options.jobs = 2;
  options.memfree_bytes = 1ull << 30;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("task {}", numbered(4));
  EXPECT_EQ(summary.succeeded, 4u);
  EXPECT_GE(summary.dispatch.deferred, 1u);
  for (double start : summary.start_times) {
    EXPECT_GE(start, 1.0);  // nothing dispatched while below the floor
  }
}

TEST(SimExecutor, LoadPressureDefersDispatch) {
  sim::Simulation simulation;
  SimExecutor executor(simulation, [](const ExecRequest&) {
    return SimOutcome{1.0, 0, ""};
  });
  executor.set_pressure_model([&] {
    core::ResourcePressure pressure;
    pressure.load_avg = simulation.now() < 0.5 ? 64.0 : 0.5;
    return pressure;
  });
  Options options;
  options.load_max = 8.0;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("task {}", numbered(3));
  EXPECT_EQ(summary.succeeded, 3u);
  EXPECT_GE(summary.dispatch.deferred, 1u);
  for (double start : summary.start_times) EXPECT_GE(start, 0.5);
}

TEST(SimExecutor, UnknownPressureLeavesGuardsInert) {
  sim::Simulation simulation;
  SimExecutor executor(simulation, [](const ExecRequest&) {
    return SimOutcome{1.0, 0, ""};
  });
  // No pressure model: the executor reports "unknown" (-1 fields), which
  // must never block dispatch — a backend without probes behaves as before.
  Options options;
  options.jobs = 3;
  options.memfree_bytes = 1ull << 40;
  options.load_max = 0.001;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("task {}", numbered(3));
  EXPECT_EQ(summary.succeeded, 3u);
  EXPECT_EQ(summary.dispatch.deferred, 0u);
  for (double start : summary.start_times) EXPECT_DOUBLE_EQ(start, 0.0);
}

// --- The shared-clock contract: launches queue behind the dispatcher ------

ExecRequest job(std::uint64_t id) {
  ExecRequest request;
  request.job_id = id;
  request.command = "task " + std::to_string(id);
  return request;
}

/// Drains every ready completion, lowest job id first.
std::vector<core::ExecResult> drain(SimExecutor& executor) {
  std::vector<core::ExecResult> results;
  while (auto result = executor.wait_any(0.0)) results.push_back(std::move(*result));
  return results;
}

TEST(SimExecutor, RejectsBadConfig) {
  sim::Simulation simulation;
  auto model = [](const ExecRequest&) { return SimOutcome{}; };
  sim::Resource gate(simulation, "gate", 1);
  EXPECT_THROW(SimExecutor(simulation, TaskModel{}), util::ConfigError);
  EXPECT_THROW(SimExecutor(simulation, model, 0.0, &gate, -1.0), util::ConfigError);
  EXPECT_THROW(SimExecutor(simulation, model, 0.0, nullptr, 0.5), util::ConfigError);
  EXPECT_NO_THROW(SimExecutor(simulation, model, 0.1, &gate, 0.5));
}

TEST(SimExecutor, StartNeverAdvancesTheClockUnderADriver) {
  sim::Simulation simulation;
  SimExecutor executor(
      simulation, [](const ExecRequest&) { return SimOutcome{1.0, 0, ""}; },
      /*dispatch_cost=*/0.5);
  executor.attach([] {});
  for (std::uint64_t id = 1; id <= 3; ++id) executor.start(job(id));
  EXPECT_DOUBLE_EQ(simulation.now(), 0.0);
  EXPECT_EQ(simulation.fired_events(), 0u);
  EXPECT_EQ(executor.active_count(), 3u);
}

TEST(SimExecutor, SoloStartRunsTheClockToItsLaunch) {
  // Without a driver start() blocks like a real fork+exec, so the engine
  // stamps each dispatch at its launch.
  sim::Simulation simulation;
  SimExecutor executor(
      simulation, [](const ExecRequest&) { return SimOutcome{1.0, 0, ""}; },
      /*dispatch_cost=*/0.5);
  executor.start(job(1));
  EXPECT_DOUBLE_EQ(simulation.now(), 0.5);
  executor.start(job(2));
  EXPECT_DOUBLE_EQ(simulation.now(), 1.0);
}

TEST(SimExecutor, LaunchesBeginOneAtATimeDispatchCostApart) {
  sim::Simulation simulation;
  std::vector<double> begun;
  SimExecutor executor(simulation,
                       [&](const ExecRequest&) {
                         begun.push_back(simulation.now());
                         return SimOutcome{2.0, 0, ""};
                       },
                       /*dispatch_cost=*/0.5);
  executor.attach([] {});
  for (std::uint64_t id = 1; id <= 3; ++id) executor.start(job(id));
  simulation.run();
  EXPECT_EQ(begun, (std::vector<double>{0.5, 1.0, 1.5}));
  std::vector<core::ExecResult> results = drain(executor);
  ASSERT_EQ(results.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    // ExecResult::start_time is when the job began, not when it was asked.
    EXPECT_DOUBLE_EQ(results[i].start_time, begun[i]);
    EXPECT_DOUBLE_EQ(results[i].end_time, begun[i] + 2.0);
  }
}

TEST(SimExecutor, GateWaitAndHoldAddToTheLaunchGap) {
  sim::Simulation simulation;
  sim::Resource gate(simulation, "gate", 1);
  // Someone else holds the gate until t = 1.
  gate.acquire([] {});
  simulation.schedule(1.0, [&] { gate.release(); });
  std::vector<double> begun;
  SimExecutor executor(simulation,
                       [&](const ExecRequest&) {
                         begun.push_back(simulation.now());
                         return SimOutcome{};
                       },
                       /*dispatch_cost=*/0.5, &gate, /*gate_hold=*/0.25);
  executor.attach([] {});
  for (std::uint64_t id = 1; id <= 3; ++id) executor.start(job(id));
  simulation.run();
  // Launch 1 waits out the gate (0.5 -> 1.0) and holds it 0.25; each later
  // launch pays the dispatch cost and the hold: 0.75 apart.
  EXPECT_EQ(begun, (std::vector<double>{1.25, 2.0, 2.75}));
  EXPECT_EQ(drain(executor).size(), 3u);
  EXPECT_EQ(gate.in_use(), 0u);
}

TEST(SimExecutor, JobKilledBeforeItBeginsNeverBegins) {
  sim::Simulation simulation;
  std::vector<std::string> begun;
  SimExecutor executor(simulation,
                       [&](const ExecRequest& request) {
                         begun.push_back(request.command);
                         return SimOutcome{5.0, 0, ""};
                       },
                       /*dispatch_cost=*/1.0);
  executor.attach([] {});
  for (std::uint64_t id = 1; id <= 3; ++id) executor.start(job(id));
  executor.kill(3, /*force=*/false);  // still queued: ends now
  executor.kill(1, /*force=*/true);   // under way: ends as its launch does
  std::vector<core::ExecResult> now = drain(executor);
  ASSERT_EQ(now.size(), 1u);
  EXPECT_EQ(now[0].job_id, 3u);
  EXPECT_EQ(now[0].term_signal, SIGTERM);
  EXPECT_DOUBLE_EQ(now[0].start_time, 0.0);
  EXPECT_DOUBLE_EQ(now[0].end_time, 0.0);

  simulation.run();
  std::vector<core::ExecResult> later = drain(executor);
  ASSERT_EQ(later.size(), 2u);
  EXPECT_EQ(later[0].job_id, 1u);
  EXPECT_EQ(later[0].term_signal, SIGKILL);
  EXPECT_DOUBLE_EQ(later[0].end_time, 1.0);
  EXPECT_EQ(later[1].job_id, 2u);
  EXPECT_DOUBLE_EQ(later[1].start_time, 2.0);  // the dispatcher moved on at 1
  EXPECT_EQ(begun, std::vector<std::string>{"task 2"});
  EXPECT_EQ(executor.active_count(), 0u);
}

TEST(SimExecutor, WaitAnyUnderADriverFiresNoEvent) {
  for (double timeout : {-1.0, 0.0, 0.5, 2.0, 100.0}) {
    sim::Simulation simulation;
    int notified = 0;
    SimExecutor executor(simulation,
                         [](const ExecRequest&) { return SimOutcome{5.0, 0, ""}; });
    executor.attach([&] { ++notified; });
    executor.start(job(1));
    EXPECT_FALSE(executor.wait_any(timeout).has_value());
    EXPECT_DOUBLE_EQ(simulation.now(), 0.0) << timeout;
    EXPECT_EQ(simulation.fired_events(), 0u) << timeout;
    // The armed wake, if any, fires at the timeout; the completion at 5.
    std::vector<double> notices;
    while (simulation.step()) {
      if (notified > static_cast<int>(notices.size())) {
        notices.push_back(simulation.now());
      }
    }
    if (timeout >= 0.0 && timeout < 5.0) {
      EXPECT_EQ(notices, (std::vector<double>{timeout, 5.0})) << timeout;
    } else if (timeout < 0.0) {
      EXPECT_EQ(notices, std::vector<double>{5.0});
    }
    ASSERT_TRUE(executor.wait_any(-1.0).has_value());
  }
}

TEST(SimExecutor, KillDuringABodyEndsTheJobWhenTheBodyFinishes) {
  sim::Simulation simulation;
  SimExecutor executor(simulation, [&](const ExecRequest&) {
    SimOutcome outcome;
    outcome.duration = 1.0;
    outcome.body = [&](std::function<void()> finish) {
      simulation.schedule(3.0, std::move(finish));
    };
    return outcome;
  });
  executor.attach([] {});
  executor.start(job(1));
  executor.start(job(2));
  simulation.run_until(2.0);
  executor.kill(1, /*force=*/false);  // within its body: runs on
  EXPECT_TRUE(drain(executor).empty());
  simulation.run();
  std::vector<core::ExecResult> results = drain(executor);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].term_signal, SIGTERM);
  EXPECT_DOUBLE_EQ(results[0].end_time, 4.0);
  EXPECT_EQ(results[1].term_signal, 0);
  EXPECT_DOUBLE_EQ(results[1].end_time, 4.0);
}

TEST(SimDriver, TimeoutKillsTheOverdueJobAtTheRightSimTime) {
  // Two instances share the clock; only the hung one's jobs hit --timeout,
  // and each dies the moment its deadline passes.
  sim::Simulation simulation;
  Options options;
  options.jobs = 2;
  options.timeout_seconds = 5.0;
  SimDriver driver(simulation, options);
  auto instance = [&](double seconds) {
    return [&simulation, seconds] {
      return std::make_unique<SimExecutor>(
          simulation,
          [seconds](const ExecRequest&) { return SimOutcome{seconds, 0, ""}; },
          /*dispatch_cost=*/0.25);
    };
  };
  RunSummary hung, healthy;
  double hung_end = -1.0, healthy_end = -1.0;
  driver.add(1.0, 2, instance(1000.0), [&](const RunSummary& summary) {
    hung = summary;
    hung_end = simulation.now();
  });
  driver.add(0.0, 4, instance(3.0), [&](const RunSummary& summary) {
    healthy = summary;
    healthy_end = simulation.now();
  });
  driver.run();
  EXPECT_EQ(hung.failed, 2u);
  // Both launches were asked at t = 1, so both deadlines fall at t = 6.
  EXPECT_DOUBLE_EQ(hung_end, 6.0);
  EXPECT_EQ(healthy.succeeded, 4u);
  // Job 2 begins at 0.5 and ends at 3.5; job 4, asked then, waits for the
  // dispatcher to finish job 3's launch, begins at 3.75 and ends last.
  EXPECT_DOUBLE_EQ(healthy_end, 3.75 + 3.0);
}

}  // namespace
}  // namespace parcl::exec
