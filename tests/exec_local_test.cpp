// End-to-end tests: the engine driving real child processes through
// LocalExecutor — the configuration the paper's stress tests exercise.
#include "exec/local_executor.hpp"

#include <gtest/gtest.h>

#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <sys/ptrace.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <sstream>

#include "core/engine.hpp"
#include "core/signal_coordinator.hpp"
#include "exec/host_probe.hpp"
#include "util/error.hpp"

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
  // 1 MiB of stdout: a pipe would fill 16 times over; the memory file the
  // child writes never blocks it.
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

TEST(LocalExecutor, ReadinessFdPollsReadableAtExitOnly) {
  // The readiness fd is the epoll set over the children's pidfds: nothing
  // makes it readable while the child runs (its output goes to memory
  // files, not to fds in the set), and its exit does.
  LocalExecutor executor;
  ASSERT_GE(executor.readiness_fd(), 0);
  ExecRequest request;
  request.job_id = 1;
  request.command = "/bin/sleep 0.2";
  request.use_shell = false;
  double t0 = executor.now();
  executor.start(request);
  pollfd pfd{executor.readiness_fd(), POLLIN, 0};
  EXPECT_EQ(poll(&pfd, 1, 100), 0) << "readable while the child runs";
  ASSERT_EQ(poll(&pfd, 1, 5000), 1) << "the exit did not make it readable";
  EXPECT_GE(executor.now() - t0, 0.19);
  auto result = executor.wait_any(0.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->exit_code, 0);
  EXPECT_FALSE(executor.wait_any(0.0).has_value());
  EXPECT_EQ(poll(&pfd, 1, 0), 0) << "still readable with nothing left to reap";
}

// A tracer that is not the job's parent (strace -f, gdb) takes the job's
// exit first: the pidfd turns readable at the exit, but the parent's
// waitpid finds nothing until the tracer reaps and so hands the exit on,
// which wakes the pidfd a second time. That wake must still reap the job.
TEST(LocalExecutor, ExitHeldByATracerIsStillReaped) {
  const std::string pid_file =
      ::testing::TempDir() + "parcl_traced_" + std::to_string(getpid());
  std::remove(pid_file.c_str());
  // The executor runs in a child of this process, so that this process,
  // the job's grandparent, is its tracer: Yama's default scope lets a
  // process trace its descendants only.
  pid_t parent = fork();
  ASSERT_GE(parent, 0);
  if (parent == 0) {
    alarm(10);  // a job that is never reaped ends this process by SIGALRM
    LocalExecutor executor;
    ExecRequest request;
    request.job_id = 1;
    request.command = "echo $$ > " + pid_file + "; exec /bin/sleep 0.5";
    executor.start(request);
    std::optional<core::ExecResult> result = executor.wait_any(8.0);
    _exit(!result ? 2 : result->exit_code == 0 ? 0 : 3);
  }
  pid_t job = 0;
  for (int i = 0; i < 5000 && job <= 0; ++i) {
    std::ifstream in(pid_file);
    std::string line;
    if (std::getline(in, line) && !in.eof()) job = std::atoi(line.c_str());
    if (job <= 0) usleep(1000);
  }
  std::remove(pid_file.c_str());
  int status = 0;
  if (job <= 0 || ptrace(PTRACE_SEIZE, job, nullptr, nullptr) != 0) {
    const int error = errno;
    ::kill(parent, SIGKILL);
    waitpid(parent, &status, 0);
    ASSERT_GT(job, 0) << "the job never wrote its pid";
    GTEST_SKIP() << "cannot trace the job: " << std::strerror(error);
  }
  // Let stops pass until the job has exited, without reaping it; then hold
  // the exit a while before reaping it as its tracer.
  while (true) {
    siginfo_t info{};
    ASSERT_EQ(waitid(P_PID, static_cast<id_t>(job), &info,
                     WEXITED | WSTOPPED | WNOWAIT | __WALL),
              0);
    if (info.si_code != CLD_TRAPPED && info.si_code != CLD_STOPPED) break;
    ASSERT_EQ(waitpid(job, &status, __WALL), job);
    const int sig = WSTOPSIG(status) == SIGTRAP ? 0 : WSTOPSIG(status);
    ptrace(PTRACE_CONT, job, nullptr, reinterpret_cast<void*>(std::intptr_t{sig}));
  }
  usleep(200 * 1000);
  ASSERT_EQ(waitpid(job, &status, __WALL), job);
  ASSERT_EQ(waitpid(parent, &status, 0), parent);
  ASSERT_FALSE(WIFSIGNALED(status)) << "the executor never reaped the job";
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "2: wait_any timed out; 3: wrong exit code";
}

TEST(LocalExecutor, BackgroundWriterDoesNotHoldTheJob) {
  // A job is done when its process exits, as in GNU Parallel, which spools
  // output to files: a background process that keeps stdout open does not
  // hold the job, and what it writes after the exit is dropped.
  LocalExecutor executor;
  ExecRequest request;
  request.job_id = 1;
  request.command = "(sleep 2; echo late) & echo early; echo $$ >&2";
  double t0 = executor.now();
  executor.start(request);
  auto result = executor.wait_any(5.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_LT(executor.now() - t0, 1.0);
  EXPECT_EQ(result->stdout_data, "early\n");
  // The background subshell is still in the job's process group.
  pid_t group = static_cast<pid_t>(std::atol(result->stderr_data.c_str()));
  if (group > 0) ::kill(-group, SIGKILL);
}

TEST(LocalExecutor, EightMiBPerStreamComesBackExact) {
  const std::string dir =
      ::testing::TempDir() + "parcl_streams_" + std::to_string(getpid());
  ASSERT_EQ(mkdir(dir.c_str(), 0755), 0);
  std::mt19937_64 rng(28);
  auto pattern = [&rng] {
    std::string bytes(8u << 20, '\0');
    for (char& c : bytes) c = static_cast<char>(rng() & 0xff);
    return bytes;
  };
  const std::string out_bytes = pattern();
  const std::string err_bytes = pattern();
  std::ofstream(dir + "/out", std::ios::binary) << out_bytes;
  std::ofstream(dir + "/err", std::ios::binary) << err_bytes;

  LocalExecutor executor;
  ExecRequest request;
  request.job_id = 1;
  request.command = "cat " + dir + "/out; cat " + dir + "/err >&2";
  executor.start(request);
  auto result = executor.wait_any(30.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->exit_code, 0);
  EXPECT_EQ(result->stdout_data.size(), out_bytes.size());
  EXPECT_EQ(result->stderr_data.size(), err_bytes.size());
  EXPECT_TRUE(result->stdout_data == out_bytes) << "stdout differs";
  EXPECT_TRUE(result->stderr_data == err_bytes) << "stderr differs";
  std::remove((dir + "/out").c_str());
  std::remove((dir + "/err").c_str());
  rmdir(dir.c_str());
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

// The platform picks the spawn path: a CLONE_VM child (exec/spawn_path.hpp)
// where the build and kernel allow it, posix_spawn + pidfd_open otherwise.
// kPosixSpawn forces the fallback so a CLONE_VM host covers it too; both
// paths must keep the same job contract. The CLONE_VM child runs in the
// test's memory while the test runs on, so several cases pin the test
// thread (and so its children) to one CPU: the parent then runs ahead of
// each child, and a child that read memory the parent had reused, wrote
// the parent's errno or ran the parent's signal handler would show it.
class SpawnPath : public ::testing::TestWithParam<SpawnTuning::Path> {};

/// Pins the calling thread to the first CPU of its current mask for the
/// scope.
class PinnedToOneCpu {
 public:
  PinnedToOneCpu() {
    if (pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        CPU_SET(cpu, &one);
        break;
      }
    }
    pinned_ = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
  }
  ~PinnedToOneCpu() {
    if (pinned_) pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
  }
  PinnedToOneCpu(const PinnedToOneCpu&) = delete;
  PinnedToOneCpu& operator=(const PinnedToOneCpu&) = delete;
  bool pinned() const { return pinned_; }

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// Sets an environment variable, or with nullopt unsets it, for the scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* key, const std::optional<std::string>& value) : key_(key) {
    if (const char* old = std::getenv(key)) saved_ = old;
    if (value) {
      setenv(key, value->c_str(), 1);
    } else {
      unsetenv(key);
    }
  }
  ~ScopedEnv() {
    if (saved_) {
      setenv(key_, saved_->c_str(), 1);
    } else {
      unsetenv(key_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* key_;
  std::optional<std::string> saved_;
};

TEST_P(SpawnPath, KeepsTheJobContract) {
  SpawnTuning tuning;
  tuning.path = GetParam();
  LocalExecutor executor{tuning};
  std::uint64_t next_id = 1;
  {
    SCOPED_TRACE("exit codes and stderr");
    std::ostringstream out, err;
    Engine engine(Options{}, executor, out, err);
    RunSummary summary =
        engine.run("echo out-{}; echo err-{} 1>&2; exit {}", values({"0", "3"}));
    EXPECT_EQ(summary.succeeded, 1u);
    ASSERT_EQ(summary.results.size(), 2u);
    EXPECT_EQ(summary.results[1].exit_code, 3);
    EXPECT_NE(out.str().find("out-3"), std::string::npos);
    EXPECT_NE(err.str().find("err-3"), std::string::npos);
    EXPECT_EQ(out.str().find("err-"), std::string::npos);
  }
  {
    SCOPED_TRACE("stdin");
    std::ostringstream out, err;
    Engine engine(Options{}, executor, out, err);
    RunSummary summary = engine.run_pipe("wc -l", {"a\nb\nc\n"});
    EXPECT_EQ(summary.succeeded, 1u);
    EXPECT_NE(out.str().find('3'), std::string::npos);
  }
  {
    SCOPED_TRACE("signaled child");
    std::ostringstream out, err;
    Engine engine(Options{}, executor, out, err);
    RunSummary summary = engine.run("kill -TERM $$", values({"x"}));
    ASSERT_EQ(summary.results.size(), 1u);
    EXPECT_EQ(summary.results[0].status, core::JobStatus::kSignaled);
    EXPECT_EQ(summary.results[0].term_signal, SIGTERM);
  }
  {
    // The CLONE_VM child reports the missing binary as its exit 127;
    // posix_spawnp fails synchronously and the engine folds that into 127.
    SCOPED_TRACE("missing binary");
    std::ostringstream out, err;
    Engine engine(Options{}, executor, out, err);
    RunSummary summary = engine.run("/definitely/not/a/binary {}", values({"x"}));
    EXPECT_EQ(summary.failed, 1u);
    ASSERT_EQ(summary.results.size(), 1u);
    EXPECT_EQ(summary.results[0].exit_code, 127);
  }
  {
    // The dispatcher's signal mask must not reach the child: with SIGTERM
    // blocked in the starting thread, the TERM that --timeout, halt and
    // --termseq send must still end the job at once, not wait for SIGKILL.
    SCOPED_TRACE("kill under a blocked SIGTERM");
    sigset_t term, saved;
    sigemptyset(&term);
    sigaddset(&term, SIGTERM);
    ASSERT_EQ(pthread_sigmask(SIG_BLOCK, &term, &saved), 0);
    ExecRequest request;
    request.job_id = next_id++;
    request.command = "/bin/sleep 5";
    request.use_shell = false;
    request.capture_output = false;
    executor.start(request);
    pthread_sigmask(SIG_SETMASK, &saved, nullptr);
    executor.kill(request.job_id, /*force=*/false);
    auto result = executor.wait_any(2.0);
    ASSERT_TRUE(result.has_value()) << "SIGTERM did not end the child";
    EXPECT_EQ(result->term_signal, SIGTERM);
  }
  {
    // A job's --env value replaces an inherited variable of the same name,
    // so C getenv() in the child sees the job's value, not the launcher's.
    SCOPED_TRACE("--env overrides an inherited variable");
    ScopedEnv inherited("PARCL_SPAWN_OVERRIDE", "inherited");
    ExecRequest request;
    request.job_id = next_id++;
    request.command = "/usr/bin/env";
    request.use_shell = false;
    request.env["PARCL_SPAWN_OVERRIDE"] = "from-job";
    executor.start(request);
    auto result = executor.wait_any(5.0);
    ASSERT_TRUE(result.has_value());
    std::istringstream lines(result->stdout_data);
    std::vector<std::string> entries;
    for (std::string line; std::getline(lines, line);) {
      if (line.rfind("PARCL_SPAWN_OVERRIDE=", 0) == 0) entries.push_back(line);
    }
    EXPECT_EQ(entries, std::vector<std::string>{"PARCL_SPAWN_OVERRIDE=from-job"});
  }
  {
    // Each child must exec its own target, though the parent has started
    // 31 more jobs, and reused the memory of the calls that started them,
    // before the pinned child gets the CPU.
    SCOPED_TRACE("5,000 pinned spawns at width 32 each run their own command");
    PinnedToOneCpu pin;
    EXPECT_TRUE(pin.pinned());
    constexpr int kJobs = 5000;
    constexpr int kWidth = 32;
    std::map<std::uint64_t, std::string> expected;
    int started = 0;
    int mismatches = 0;
    auto launch = [&] {
      ExecRequest request;
      request.job_id = next_id++;
      std::string token = "job-" + std::to_string(started++);
      request.command = "/bin/echo " + token;
      request.use_shell = false;
      request.has_stdin = true;
      request.stdin_data = "stdin-" + token + "\n";
      request.env["PARCL_SPAWN_TOKEN"] = token;
      executor.start(request);
      expected[request.job_id] = token + "\n";
    };
    while (started < kWidth) launch();
    for (int done = 0; done < kJobs; ++done) {
      auto result = executor.wait_any(-1.0);
      ASSERT_TRUE(result.has_value());
      auto it = expected.find(result->job_id);
      ASSERT_NE(it, expected.end());
      if (result->exit_code != 0 || result->stdout_data != it->second) {
        if (++mismatches <= 5) {
          ADD_FAILURE() << "job " << result->job_id << " printed '"
                        << result->stdout_data << "' (exit " << result->exit_code
                        << "), expected '" << it->second << "'";
        }
      }
      expected.erase(it);
      if (started < kJobs) launch();
    }
    EXPECT_EQ(mismatches, 0);
  }
  {
    // A failed exec candidate must not reach the parent's errno: a child
    // sharing the parent's memory and TCB would write it through libc.
    SCOPED_TRACE("a failed exec leaves the parent's errno alone");
    std::string path = "/no/such/parcl/dir";
    if (const char* inherited = std::getenv("PATH")) path += std::string(":") + inherited;
    ScopedEnv search("PATH", path);
    constexpr int kSentinel = 4242;
    for (const char* command : {"true", "/definitely/not/a/binary"}) {
      ExecRequest request;
      request.job_id = next_id++;
      request.command = command;
      request.use_shell = false;
      request.capture_output = false;
      executor.start(request);
      errno = kSentinel;
      auto result = executor.wait_any(-1.0);
      int seen = errno;
      ASSERT_TRUE(result.has_value());
      EXPECT_EQ(seen, kSentinel) << command;
      // A binary that is nowhere is "command not found" on both paths.
      EXPECT_EQ(result->exit_code, command[0] == '/' ? 127 : 0) << command;
    }
  }
  {
    // SignalCoordinator's handler writes the dispatcher's self-pipe. A
    // child that unblocked SIGTERM before resetting the handler would run
    // it, tell the dispatcher it was signaled, and exec on past the TERM.
    SCOPED_TRACE("a TERM sent at once kills the child, not the handler");
    PinnedToOneCpu pin;
    EXPECT_TRUE(pin.pinned());
    core::SignalCoordinator coordinator;
    coordinator.install();
    ExecRequest request;
    request.job_id = next_id++;
    request.command = "/bin/sleep 5";
    request.use_shell = false;
    request.capture_output = false;
    executor.start(request);
    executor.kill(request.job_id, /*force=*/false);
    auto result = executor.wait_any(2.0);
    ASSERT_TRUE(result.has_value()) << "SIGTERM did not end the child";
    EXPECT_EQ(result->term_signal, SIGTERM);
    EXPECT_EQ(coordinator.poll(), 0) << "the dispatcher's handler ran";
  }
  {
    // execvpe runs an executable without a #! line through /bin/sh, and so
    // do both spawn paths.
    SCOPED_TRACE("a script without #! runs through /bin/sh");
    char dir_template[] = "/tmp/parcl_spawn_XXXXXX";
    ASSERT_NE(mkdtemp(dir_template), nullptr);
    std::string script = std::string(dir_template) + "/noshebang";
    {
      std::ofstream file(script);
      file << "echo ran-as-script \"$1\"\n";
    }
    ASSERT_EQ(chmod(script.c_str(), 0755), 0);
    ExecRequest request;
    request.job_id = next_id++;
    request.command = script + " arg";
    request.use_shell = false;
    executor.start(request);
    auto result = executor.wait_any(5.0);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->exit_code, 0);
    EXPECT_EQ(result->stdout_data, "ran-as-script arg\n");
    std::remove(script.c_str());
    rmdir(dir_template);
  }
  if (GetParam() == SpawnTuning::Path::kPosixSpawn || !kCloneVmSpawn) {
    EXPECT_EQ(executor.counters().clone_vm_spawns, 0u);
  } else {
    EXPECT_EQ(executor.counters().clone_vm_spawns, executor.counters().spawns);
  }
}

// A shell-mode command that skips /bin/sh acts as it would through the
// shell. Each row runs in its bare form and in its forced-shell form
// ("CMD ;"), and the two print the same stdout and stderr and end with the
// same status. Bare names exec directly unless sh would not look them up in
// the job's PATH; a direct exec that finds nothing to run hands the command
// to sh -c, so its failure is the shell's.
TEST_P(SpawnPath, DirectExecAgreesWithTheShell) {
  SpawnTuning tuning;
  tuning.path = GetParam();
  LocalExecutor executor{tuning};
  std::uint64_t next_id = 1;
  auto run = [&](const std::string& command, bool use_shell,
                 const std::map<std::string, std::string>& env) {
    ExecRequest request;
    request.job_id = next_id++;
    request.command = command;
    request.use_shell = use_shell;
    request.env = env;
    executor.start(request);
    std::optional<core::ExecResult> result = executor.wait_any(10.0);
    EXPECT_TRUE(result.has_value()) << command;
    return result.value_or(core::ExecResult{});
  };

  char dir_template[] = "/tmp/parcl_direct_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  const std::string dir = dir_template;
  const std::string data = dir + "/data";
  const std::string tool = dir + "/parcltool";  // found only in DIR
  const std::string unexecutable = dir + "/noexec";
  const std::string subdir = dir + "/sub";
  std::ofstream(data) << "abcdef";
  std::ofstream(tool) << "#!/bin/sh\necho parcltool \"$@\"\n";
  std::ofstream(unexecutable) << "echo never\n";
  ASSERT_EQ(chmod(tool.c_str(), 0755), 0);
  ASSERT_EQ(chmod(unexecutable.c_str(), 0644), 0);
  ASSERT_EQ(mkdir(subdir.c_str(), 0755), 0);
  const char* inherited = std::getenv("PATH");
  ASSERT_NE(inherited, nullptr);
  const std::map<std::string, std::string> job_path{
      {"PATH", dir + ":" + inherited}};

  struct Row {
    std::string command;
    std::map<std::string, std::string> env;
    bool direct;  // the bare form skips /bin/sh
    int exit_code;
    std::optional<std::string> stdout_data;  // nullopt: /bin/sh's choice
    std::string stderr_part;  // in the stderr of both forms (the shell's
                              // message names the command; its wording
                              // is dash's or bash's)
    bool unset_path = false;  // PATH in neither environment
  };
  const std::vector<Row> rows = {
      {"head -c 3 " + data, {}, true, 0, "abc", ""},
      {"parcltool x", job_path, true, 0, "parcltool x\n", ""},
      {"cd /", {}, false, 0, "", ""},
      {"exit 3", {}, false, 3, "", ""},
      {"true", {}, false, 0, "", ""},
      // A bash /bin/sh imports the function; dash runs head. Either way the
      // shell decides, so both forms agree.
      {"head -c 3 " + data, {{"BASH_FUNC_head%%", "() {  echo function; }"}}, false,
       0, std::nullopt, ""},
      {"head -c 3 " + data, {}, false, 0, "abc", "", /*unset_path=*/true},
      {"nosuchparclcmd x", {}, true, 127, "", "nosuchparclcmd"},
      {dir + "/nosuch x", {}, true, 127, "", dir + "/nosuch"},
      {unexecutable + " x", {}, true, 126, "", unexecutable},
      {subdir + " x", {}, true, 126, "", subdir},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.command);
    std::optional<ScopedEnv> no_path;
    if (row.unset_path) no_path.emplace("PATH", std::nullopt);
    std::uint64_t before = executor.counters().direct_execs;
    core::ExecResult bare = run(row.command, true, row.env);
    std::uint64_t bare_direct = executor.counters().direct_execs - before;
    core::ExecResult shell = run(row.command + " ;", true, row.env);
    EXPECT_EQ(executor.counters().direct_execs - before, bare_direct);
    EXPECT_EQ(bare_direct, row.direct ? 1u : 0u);
    EXPECT_EQ(bare.exit_code, row.exit_code);
    EXPECT_EQ(shell.exit_code, row.exit_code);
    EXPECT_EQ(bare.stdout_data, shell.stdout_data);
    EXPECT_EQ(bare.stderr_data, shell.stderr_data);
    if (row.stdout_data) {
      EXPECT_EQ(bare.stdout_data, *row.stdout_data);
    }
    EXPECT_NE(bare.stderr_data.find(row.stderr_part), std::string::npos)
        << bare.stderr_data;
  }
  {
    // --no-shell searches the job's PATH too, and what it cannot exec ends
    // with exit 127: its words are not shell syntax to hand to sh.
    SCOPED_TRACE("--no-shell");
    core::ExecResult found = run("parcltool y", false, job_path);
    EXPECT_EQ(found.exit_code, 0);
    EXPECT_EQ(found.stdout_data, "parcltool y\n");
    core::ExecResult missing = run("nosuchparclcmd y", false, {});
    EXPECT_EQ(missing.exit_code, 127);
    EXPECT_EQ(missing.stderr_data, "");
  }
  for (const std::string& file : {data, tool, unexecutable}) std::remove(file.c_str());
  rmdir(subdir.c_str());
  rmdir(dir.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    BothPaths, SpawnPath,
    ::testing::Values(SpawnTuning::Path::kAuto, SpawnTuning::Path::kPosixSpawn),
    [](const ::testing::TestParamInfo<SpawnTuning::Path>& info) {
      return info.param == SpawnTuning::Path::kAuto ? "Auto" : "PosixSpawn";
    });

}  // namespace
}  // namespace parcl::exec
