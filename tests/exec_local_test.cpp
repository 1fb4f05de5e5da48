// End-to-end tests: the engine driving real child processes through
// LocalExecutor — the configuration the paper's stress tests exercise.
#include "exec/local_executor.hpp"

#include <gtest/gtest.h>

#include <signal.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/engine.hpp"
#include "exec/host_probe.hpp"

namespace parcl::exec {
namespace {

using core::ArgVector;
using core::Engine;
using core::ExecRequest;
using core::Options;
using core::RunSummary;

std::vector<ArgVector> values(std::initializer_list<const char*> items) {
  std::vector<ArgVector> out;
  for (const char* item : items) out.push_back({item});
  return out;
}

TEST(LocalExecutor, RunsRealShellCommands) {
  Options options;
  options.jobs = 2;
  LocalExecutor executor;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("echo hello-{}", values({"a", "b"}));
  EXPECT_EQ(summary.succeeded, 2u);
  EXPECT_NE(out.str().find("hello-a"), std::string::npos);
  EXPECT_NE(out.str().find("hello-b"), std::string::npos);
}

TEST(LocalExecutor, CapturesExitCodes) {
  Options options;
  LocalExecutor executor;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("exit {}", values({"0", "3", "0"}));
  EXPECT_EQ(summary.succeeded, 2u);
  EXPECT_EQ(summary.failed, 1u);
  EXPECT_EQ(summary.results[1].exit_code, 3);
}

TEST(LocalExecutor, CapturesStderrSeparately) {
  Options options;
  LocalExecutor executor;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  engine.run("echo to-out; echo to-err 1>&2", values({"x"}));
  EXPECT_NE(out.str().find("to-out"), std::string::npos);
  EXPECT_NE(err.str().find("to-err"), std::string::npos);
  EXPECT_EQ(out.str().find("to-err"), std::string::npos);
}

TEST(LocalExecutor, LargeOutputDoesNotDeadlock) {
  // 1 MiB of stdout: far beyond the 64 KiB pipe buffer.
  Options options;
  LocalExecutor executor;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary =
      engine.run("head -c {} /dev/zero | tr '\\0' 'x'", values({"1048576"}));
  EXPECT_EQ(summary.succeeded, 1u);
  EXPECT_GE(summary.results[0].stdout_data.size(), 1048576u);
}

TEST(LocalExecutor, EnvReachesChild) {
  Options options;
  options.env["PARCL_SLOT_CHECK"] = "slot-{%}";
  LocalExecutor executor;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("echo $PARCL_SLOT_CHECK", values({"x"}));
  EXPECT_EQ(summary.succeeded, 1u);
  EXPECT_NE(out.str().find("slot-1"), std::string::npos);
}

TEST(LocalExecutor, QuotingProtectsHostileInputs) {
  std::string hostile = "; touch /tmp/parcl_pwned_$$ ;";
  Options options;
  LocalExecutor executor;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("printf '%s' {}", {{hostile}});
  EXPECT_EQ(summary.succeeded, 1u);
  EXPECT_EQ(summary.results[0].stdout_data, hostile);
}

TEST(LocalExecutor, TimeoutKillsLongJob) {
  Options options;
  options.timeout_seconds = 0.2;
  LocalExecutor executor;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("sleep {}", values({"30"}));
  EXPECT_EQ(summary.failed, 1u);
  EXPECT_EQ(summary.results[0].status, core::JobStatus::kTimedOut);
  EXPECT_LT(summary.results[0].runtime(), 5.0);
}

TEST(LocalExecutor, HaltNowKillsRunningJobs) {
  Options options;
  options.jobs = 2;
  options.halt = core::HaltPolicy::parse("now,fail=1");
  options.quote_args = false;  // args are whole shell commands here
  LocalExecutor executor;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  // First job fails fast; second would run 30s but must be killed.
  RunSummary summary = engine.run("{}", values({"false", "sleep 30"}));
  EXPECT_TRUE(summary.halted);
  EXPECT_EQ(summary.failed, 1u);
  EXPECT_EQ(summary.killed, 1u);
  EXPECT_EQ(summary.results[1].status, core::JobStatus::kKilled);
}

TEST(LocalExecutor, ZygoteServesSpawns) {
  // SpawnTuning::zygote (--zygote): direct-exec-eligible commands fork from
  // the preforked helper, and the counters record it.
  constexpr int kJobs = 24;
  Options options;
  options.jobs = 4;
  SpawnTuning tuning;
  tuning.zygote = true;
  LocalExecutor executor{tuning};
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  std::vector<ArgVector> inputs;
  for (int i = 0; i < kJobs; ++i) inputs.push_back({std::to_string(i)});
  RunSummary summary = engine.run("/bin/echo z-{}", std::move(inputs));
  EXPECT_EQ(summary.succeeded, static_cast<std::size_t>(kJobs));
  EXPECT_EQ(executor.counters().spawns, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(executor.counters().reaps, executor.counters().spawns);
  EXPECT_GT(executor.counters().zygote_spawns, 0u);
  for (int i = 0; i < kJobs; ++i) {
    EXPECT_NE(out.str().find("z-" + std::to_string(i)), std::string::npos);
  }
}

TEST(LocalExecutor, MissingBinaryReports127) {
  Options options;
  LocalExecutor executor;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("/definitely/not/a/binary", values({"x"}));
  EXPECT_EQ(summary.failed, 1u);
  EXPECT_EQ(summary.results[0].exit_code, 127);
}

TEST(LocalExecutor, SignaledChildReported) {
  Options options;
  LocalExecutor executor;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("kill -TERM $$", values({"x"}));
  EXPECT_EQ(summary.failed, 1u);
  EXPECT_EQ(summary.results[0].status, core::JobStatus::kSignaled);
  EXPECT_EQ(summary.results[0].term_signal, SIGTERM);
}

TEST(LocalExecutor, ManySmallJobsAllComplete) {
  Options options;
  options.jobs = 8;
  LocalExecutor executor;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  std::vector<ArgVector> inputs;
  for (int i = 0; i < 64; ++i) inputs.push_back({std::to_string(i)});
  RunSummary summary = engine.run("echo {}", std::move(inputs));
  EXPECT_EQ(summary.succeeded, 64u);
  EXPECT_EQ(core::OutputMode::kGroup, options.output_mode);
  // Every job echoed its index exactly once.
  for (int i = 0; i < 64; ++i) {
    EXPECT_NE(out.str().find(std::to_string(i)), std::string::npos);
  }
}

TEST(LocalExecutor, SlotNumbersDriveGpuIsolationEnv) {
  Options options;
  options.jobs = 4;
  options.env["FAKE_GPU"] = "{%}";
  LocalExecutor executor;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  std::vector<ArgVector> inputs;
  for (int i = 0; i < 16; ++i) inputs.push_back({std::to_string(i)});
  RunSummary summary = engine.run("echo gpu=$FAKE_GPU", std::move(inputs));
  EXPECT_EQ(summary.succeeded, 16u);
  // All emitted GPU ids are within the slot range 1..4.
  EXPECT_NE(out.str().find("gpu=1"), std::string::npos);
  EXPECT_EQ(out.str().find("gpu=5"), std::string::npos);
  EXPECT_EQ(out.str().find("gpu=0"), std::string::npos);
}

TEST(LocalExecutor, NoShellModeExecsDirectly) {
  Options options;
  options.use_shell = false;
  LocalExecutor executor;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("/bin/echo {}", values({"direct"}));
  EXPECT_EQ(summary.succeeded, 1u);
  EXPECT_NE(out.str().find("direct"), std::string::npos);
}

TEST(LocalExecutor, PipeModeFeedsStdin) {
  Options options;
  options.jobs = 2;
  LocalExecutor executor;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run_pipe("wc -l", {"a\nb\nc\n", "x\n"});
  EXPECT_EQ(summary.succeeded, 2u);
  EXPECT_NE(out.str().find("3"), std::string::npos);
  EXPECT_NE(out.str().find("1"), std::string::npos);
}

TEST(LocalExecutor, LargeStdinDoesNotDeadlock) {
  // 1 MiB through the child's stdin: beyond the pipe buffer, so the
  // nonblocking feed path must interleave with output draining.
  std::string block;
  block.reserve(1 << 20);
  for (int i = 0; i < (1 << 20) / 16; ++i) block += "0123456789abcde\n";
  Options options;
  LocalExecutor executor;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run_pipe("wc -c", {block});
  EXPECT_EQ(summary.succeeded, 1u);
  EXPECT_NE(out.str().find(std::to_string(block.size())), std::string::npos);
}

TEST(LocalExecutor, ChildIgnoringStdinStillCompletes) {
  Options options;
  LocalExecutor executor;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  // `true` never reads stdin; the engine must not hang on the unread pipe.
  RunSummary summary = engine.run_pipe("true", {std::string(1 << 20, 'x')});
  EXPECT_EQ(summary.succeeded, 1u);
}

TEST(LocalExecutor, WaitAnyWithNothingActiveTimesOut) {
  LocalExecutor executor;
  EXPECT_FALSE(executor.wait_any(-1.0).has_value());
  double t0 = executor.now();
  EXPECT_FALSE(executor.wait_any(0.05).has_value());
  EXPECT_GE(executor.now() - t0, 0.04);
}

TEST(LocalExecutor, CompletionWakesWaitAnyImmediately) {
  // Regression for the old 100 ms waitpid sweep: with no capture pipes (the
  // -u configuration) a child's exit must wake wait_any() through the pidfd
  // / SIGCHLD self-pipe event, not the next periodic sweep. Minimum over a
  // few runs shrugs off CI scheduling noise; the sweep-based executor could
  // not get below ~80 ms latency for this child lifetime.
  LocalExecutor executor;
  double best_latency = 1e9;
  for (int attempt = 0; attempt < 3 && best_latency > 0.010; ++attempt) {
    ExecRequest request;
    request.job_id = static_cast<std::uint64_t>(100 + attempt);
    request.command = "/bin/sleep 0.12";
    request.use_shell = false;
    request.capture_output = false;
    double t0 = executor.now();
    executor.start(request);
    auto result = executor.wait_any(5.0);
    double elapsed = executor.now() - t0;
    ASSERT_TRUE(result.has_value());
    best_latency = std::min(best_latency, elapsed - 0.12);
  }
  EXPECT_LT(best_latency, 0.05);
}

TEST(LocalExecutor, ManyShortLivedChildrenCompleteOutOfOrder) {
  // Children exit in roughly reverse start order; the event-driven reaper
  // must surface each completion as it happens, not in table order.
  LocalExecutor executor;
  constexpr int kJobs = 10;
  for (int i = 0; i < kJobs; ++i) {
    ExecRequest request;
    request.job_id = static_cast<std::uint64_t>(i + 1);
    // Job 1 sleeps longest (0.18 s); job kJobs exits immediately.
    char duration[16];
    std::snprintf(duration, sizeof(duration), "%.2f", 0.02 * (kJobs - 1 - i));
    request.command = std::string("/bin/sleep ") + duration;
    request.use_shell = false;
    request.capture_output = false;
    executor.start(request);
  }
  std::vector<std::uint64_t> order;
  while (executor.active_count() > 0) {
    auto result = executor.wait_any(10.0);
    ASSERT_TRUE(result.has_value());
    order.push_back(result->job_id);
  }
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kJobs));
  std::vector<std::uint64_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < kJobs; ++i) {
    EXPECT_EQ(sorted[static_cast<std::size_t>(i)],
              static_cast<std::uint64_t>(i + 1));
  }
  // Loose ordering assertions (scheduling noise): the first completion is a
  // short sleeper, the last a long one.
  EXPECT_GT(order.front(), static_cast<std::uint64_t>(kJobs / 2));
  EXPECT_LE(order.back(), static_cast<std::uint64_t>(kJobs / 2));
}

TEST(LocalExecutor, StdinBackpressureWithSlowConsumer) {
  // The child reads nothing for 200 ms, so the 1 MiB stdin block backs up
  // far beyond the pipe buffer before draining; the POLLOUT-driven feed must
  // deliver every byte.
  std::string block(1 << 20, 'x');
  Options options;
  LocalExecutor executor;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run_pipe("sleep 0.2; wc -c", {block});
  EXPECT_EQ(summary.succeeded, 1u);
  EXPECT_NE(out.str().find("1048576"), std::string::npos);
}

TEST(LocalExecutor, TimeoutEscalatesToSigkillForStubbornChild) {
  // The child ignores SIGTERM, so only the engine's SIGKILL escalation
  // (timeout + 1 s grace) can end it.
  Options options;
  options.timeout_seconds = 0.2;
  LocalExecutor executor;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run_raw("trap '' TERM; sleep 30");
  EXPECT_EQ(summary.failed, 1u);
  EXPECT_EQ(summary.results[0].status, core::JobStatus::kTimedOut);
  EXPECT_EQ(summary.results[0].term_signal, SIGKILL);
  EXPECT_LT(summary.results[0].runtime(), 5.0);
}

TEST(LocalExecutor, ManyConcurrentTimeoutsAllEnforced) {
  // Several overlapping deadlines exercise the engine's timeout min-heap
  // with real children.
  Options options;
  options.jobs = 6;
  options.timeout_seconds = 0.15;
  LocalExecutor executor;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  std::vector<ArgVector> inputs;
  for (int i = 0; i < 6; ++i) inputs.push_back({std::to_string(i)});
  RunSummary summary = engine.run("sleep 30 '{}'", std::move(inputs));
  EXPECT_EQ(summary.failed, 6u);
  for (const auto& result : summary.results) {
    EXPECT_EQ(result.status, core::JobStatus::kTimedOut);
    EXPECT_LT(result.runtime(), 5.0);
  }
}

TEST(LocalExecutor, SpawnFailureUnderDirectExecReports127) {
  // posix_spawnp reports the missing binary synchronously; the engine must
  // fold that into the shell convention's exit 127.
  Options options;
  options.use_shell = false;
  LocalExecutor executor;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("/definitely/not/a/binary {}", values({"x"}));
  EXPECT_EQ(summary.failed, 1u);
  EXPECT_EQ(summary.results[0].exit_code, 127);
}

TEST(LocalExecutor, ShellSafeCommandSkipsTheShell) {
  Options options;
  LocalExecutor executor;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("/bin/echo {}", values({"fast-path"}));
  EXPECT_EQ(summary.succeeded, 1u);
  EXPECT_NE(out.str().find("fast-path"), std::string::npos);
  EXPECT_EQ(executor.counters().direct_execs, 1u);
  EXPECT_EQ(executor.counters().spawns, 1u);
}

TEST(LocalExecutor, MetacharactersStillGoThroughTheShell) {
  Options options;
  LocalExecutor executor;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("/bin/echo {} && /bin/echo second",
                                  values({"first"}));
  EXPECT_EQ(summary.succeeded, 1u);
  EXPECT_NE(out.str().find("second"), std::string::npos);
  EXPECT_EQ(executor.counters().direct_execs, 0u);
}

TEST(LocalExecutor, EndTimeRecordedAtReap) {
  // end_time must come from the moment the child was reaped, not from a
  // later harvest pass — a /bin/true runtime is a couple of milliseconds.
  LocalExecutor executor;
  ExecRequest request;
  request.job_id = 1;
  request.command = "/bin/true";
  request.use_shell = false;
  request.capture_output = false;
  executor.start(request);
  auto result = executor.wait_any(5.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_LT(result->end_time - result->start_time, 0.05);
}

void custom_sigpipe_handler(int) {}

TEST(LocalExecutor, RestoresPriorSigpipeDisposition) {
  struct sigaction custom {};
  custom.sa_handler = custom_sigpipe_handler;
  sigemptyset(&custom.sa_mask);
  struct sigaction original {};
  ASSERT_EQ(sigaction(SIGPIPE, &custom, &original), 0);
  {
    LocalExecutor executor;
    struct sigaction during {};
    ASSERT_EQ(sigaction(SIGPIPE, nullptr, &during), 0);
    EXPECT_EQ(during.sa_handler, SIG_IGN);
  }
  struct sigaction after {};
  ASSERT_EQ(sigaction(SIGPIPE, nullptr, &after), 0);
  EXPECT_EQ(after.sa_handler, custom_sigpipe_handler);
  sigaction(SIGPIPE, &original, nullptr);
}

TEST(HostProbe, ParsesMeminfoAndLoadavgFixtures) {
  std::string meminfo = ::testing::TempDir() + "probe_meminfo";
  std::string loadavg = ::testing::TempDir() + "probe_loadavg";
  {
    std::ofstream out(meminfo);
    out << "MemTotal:       65536000 kB\n"
        << "MemFree:         1024000 kB\n"
        << "MemAvailable:    2048000 kB\n";
  }
  {
    std::ofstream out(loadavg);
    out << "3.25 2.10 1.05 2/1234 56789\n";
  }
  HostProbe probe(meminfo, loadavg);
  core::ResourcePressure pressure = probe.read_now();
  EXPECT_DOUBLE_EQ(pressure.mem_free_bytes, 2048000.0 * 1024.0);
  EXPECT_DOUBLE_EQ(pressure.load_avg, 3.25);
  std::remove(meminfo.c_str());
  std::remove(loadavg.c_str());
}

TEST(HostProbe, MissingFilesReportUnknown) {
  HostProbe probe("/no/such/meminfo", "/no/such/loadavg");
  core::ResourcePressure pressure = probe.read_now();
  EXPECT_LT(pressure.mem_free_bytes, 0.0);
  EXPECT_LT(pressure.load_avg, 0.0);
}

TEST(LocalExecutor, PressureReportsRealHostNumbers) {
  // On Linux /proc is present, so the real probe returns live values; the
  // contract elsewhere is only "negative = unknown".
  LocalExecutor executor;
  core::ResourcePressure pressure = executor.pressure();
  if (pressure.mem_free_bytes >= 0.0) EXPECT_GT(pressure.mem_free_bytes, 0.0);
  if (pressure.load_avg >= 0.0) EXPECT_GE(pressure.load_avg, 0.0);
}

}  // namespace
}  // namespace parcl::exec
