// Engine behaviour tests, driven through FunctionExecutor so jobs are fast,
// deterministic in outcome, and require no fork/exec.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "core/joblog.hpp"
#include "exec/function_executor.hpp"
#include "invariants.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace parcl::core {
namespace {

using exec::FunctionExecutor;
using exec::TaskOutcome;

std::vector<ArgVector> values(std::initializer_list<const char*> items) {
  std::vector<ArgVector> out;
  for (const char* item : items) out.push_back({item});
  return out;
}

/// Echo task: stdout is the command string.
TaskOutcome echo_task(const ExecRequest& request) {
  TaskOutcome outcome;
  outcome.stdout_data = request.command + "\n";
  return outcome;
}

// The eventfd is counted by the pool's workers and read by the dispatch
// thread: under TSan this is the handoff the worker agent's wait relies on.
TEST(FunctionExecutor, ReadinessFdIsReadableExactlyWhileACompletionIsQueued) {
  std::atomic<bool> gate{false};
  std::atomic<bool> gated_started{false};
  FunctionExecutor executor(
      [&](const ExecRequest& request) {
        if (request.command == "gated") {
          gated_started.store(true);
          while (!gate.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return TaskOutcome{};
      },
      1);  // one worker: tasks run in start order
  pollfd pfd{executor.readiness_fd(), POLLIN, 0};
  ASSERT_GE(pfd.fd, 0);
  auto readable = [&pfd](int timeout_ms) { return poll(&pfd, 1, timeout_ms) == 1; };
  auto start = [&executor](std::uint64_t id, const std::string& command) {
    ExecRequest request;
    request.job_id = id;
    request.command = command;
    executor.start(request);
  };
  EXPECT_FALSE(readable(0));

  // Jobs 1 and 2 finish before the worker reaches gated job 3, so exactly
  // two completions are queued once job 3 has started.
  start(1, "quick");
  start(2, "quick");
  start(3, "gated");
  while (!gated_started.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(readable(0));
  ASSERT_TRUE(executor.wait_any(0.0).has_value());
  EXPECT_TRUE(readable(0)) << "one completion is still queued";
  ASSERT_TRUE(executor.wait_any(0.0).has_value());
  EXPECT_FALSE(readable(0)) << "readable while job 3 still runs";
  EXPECT_FALSE(executor.wait_any(0.0).has_value());

  gate.store(true);
  EXPECT_TRUE(readable(5000));
  std::optional<ExecResult> last = executor.wait_any(0.0);
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->job_id, 3u);
  EXPECT_FALSE(readable(0));
}

// A caller that sleeps on the fd and then asks for exactly one completion
// must get it: the fd may never turn readable before its completion is
// queued. Each job runs alone, so the queue is empty while it runs.
TEST(FunctionExecutor, ReadableFdAlwaysYieldsACompletion) {
  FunctionExecutor executor([](const ExecRequest&) { return TaskOutcome{}; }, 2);
  pollfd pfd{executor.readiness_fd(), POLLIN, 0};
  ASSERT_GE(pfd.fd, 0);
  std::size_t missed = 0;
  for (std::uint64_t id = 1; id <= 2000; ++id) {
    ExecRequest request;
    request.job_id = id;
    executor.start(request);
    ASSERT_EQ(poll(&pfd, 1, 5000), 1) << "job " << id << " never completed";
    if (!executor.wait_any(0.0)) {
      ++missed;
      ASSERT_TRUE(executor.wait_any(5.0).has_value());
    }
  }
  EXPECT_EQ(missed, 0u) << "readable fd with no completion queued";
  EXPECT_EQ(executor.active_count(), 0u);
}

TEST(Engine, RunsEveryJobAndCapturesOutput) {
  Options options;
  options.jobs = 4;
  FunctionExecutor executor(echo_task, 4);
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("echo {}", values({"a", "b", "c"}));
  EXPECT_EQ(summary.succeeded, 3u);
  EXPECT_EQ(summary.failed, 0u);
  ASSERT_EQ(summary.results.size(), 3u);
  EXPECT_EQ(summary.results[0].command, "echo a");
  EXPECT_EQ(summary.results[2].command, "echo c");
  EXPECT_NE(out.str().find("echo b"), std::string::npos);
}

TEST(Engine, AppendsArgumentsWhenNoPlaceholder) {
  Options options;
  FunctionExecutor executor(echo_task, 1);
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("gzip -9", values({"f.txt"}));
  EXPECT_EQ(summary.results[0].command, "gzip -9 f.txt");
}

TEST(Engine, NeverExceedsJobsInFlight) {
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  auto task = [&](const ExecRequest&) {
    int now = in_flight.fetch_add(1) + 1;
    int expected = peak.load();
    while (now > expected && !peak.compare_exchange_weak(expected, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    in_flight.fetch_sub(1);
    return TaskOutcome{};
  };
  Options options;
  options.jobs = 3;
  FunctionExecutor executor(task, 8);  // more threads than slots
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  std::vector<ArgVector> inputs;
  for (int i = 0; i < 30; ++i) inputs.push_back({std::to_string(i)});
  RunSummary summary = engine.run("t {}", std::move(inputs));
  EXPECT_EQ(summary.succeeded, 30u);
  EXPECT_LE(peak.load(), 3);
  EXPECT_EQ(peak.load(), 3);  // slots were actually used concurrently
}

TEST(Engine, SlotsAreUniqueAmongConcurrentJobs) {
  std::mutex mutex;
  std::set<std::string> active_devices;
  bool collision = false;
  auto task = [&](const ExecRequest& request) {
    std::string device = request.env.at("HIP_VISIBLE_DEVICES");
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (!active_devices.insert(device).second) collision = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      std::lock_guard<std::mutex> lock(mutex);
      active_devices.erase(device);
    }
    return TaskOutcome{};
  };
  Options options;
  options.jobs = 8;
  options.env["HIP_VISIBLE_DEVICES"] = "{%}";
  FunctionExecutor executor(task, 8);
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  std::vector<ArgVector> inputs;
  for (int i = 0; i < 64; ++i) inputs.push_back({std::to_string(i)});
  RunSummary summary = engine.run("celer-sim {}", std::move(inputs));
  EXPECT_EQ(summary.succeeded, 64u);
  EXPECT_FALSE(collision) << "two concurrent jobs shared a GPU slot";
}

TEST(Engine, RetriesUntilSuccess) {
  std::atomic<int> calls{0};
  auto task = [&](const ExecRequest&) {
    TaskOutcome outcome;
    outcome.exit_code = calls.fetch_add(1) < 2 ? 1 : 0;  // fail twice
    return outcome;
  };
  Options options;
  options.retries = 3;
  FunctionExecutor executor(task, 1);
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("flaky {}", values({"x"}));
  EXPECT_EQ(summary.succeeded, 1u);
  EXPECT_EQ(summary.results[0].attempts, 3u);
  EXPECT_EQ(calls.load(), 3);
}

TEST(Engine, RetriesExhaustedReportsFailure) {
  auto task = [](const ExecRequest&) {
    TaskOutcome outcome;
    outcome.exit_code = 7;
    return outcome;
  };
  Options options;
  options.retries = 2;
  FunctionExecutor executor(task, 1);
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("fail {}", values({"x"}));
  EXPECT_EQ(summary.failed, 1u);
  EXPECT_EQ(summary.results[0].status, JobStatus::kFailed);
  EXPECT_EQ(summary.results[0].exit_code, 7);
  EXPECT_EQ(summary.results[0].attempts, 2u);
  EXPECT_EQ(summary.exit_status(), 1);
}

TEST(Engine, HaltSoonStopsNewJobs) {
  auto task = [](const ExecRequest& request) {
    TaskOutcome outcome;
    outcome.exit_code = request.command.find("bad") != std::string::npos ? 1 : 0;
    return outcome;
  };
  Options options;
  options.jobs = 1;  // deterministic order
  options.halt = HaltPolicy::parse("soon,fail=1");
  FunctionExecutor executor(task, 1);
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("run {}", values({"ok1", "bad", "ok2", "ok3"}));
  EXPECT_TRUE(summary.halted);
  EXPECT_EQ(summary.succeeded, 1u);
  EXPECT_EQ(summary.failed, 1u);
  EXPECT_EQ(summary.skipped, 2u);
  EXPECT_EQ(summary.results[2].status, JobStatus::kSkipped);
}

/// Holds every started job as already exited with the status `exit N` in
/// its command names, and returns the failures first. kill() cannot reach
/// a job that has exited: it only counts.
class ExitedJobsExecutor final : public Executor {
 public:
  void start(const ExecRequest& request) override {
    ExecResult result;
    result.job_id = request.job_id;
    result.exit_code = std::stoi(request.command.substr(request.command.rfind(' ')));
    exited_.push_back(std::move(result));
  }
  std::optional<ExecResult> wait_any(double) override {
    if (exited_.empty()) return std::nullopt;
    auto next = std::find_if(exited_.begin(), exited_.end(),
                             [](const ExecResult& r) { return r.exit_code != 0; });
    if (next == exited_.end()) next = exited_.begin();
    ExecResult result = std::move(*next);
    exited_.erase(next);
    return result;
  }
  void kill(std::uint64_t, bool) override { ++kills; }
  std::size_t active_count() const override { return exited_.size(); }
  double now() const override { return 0.0; }

  std::size_t kills = 0;

 private:
  std::vector<ExecResult> exited_;
};

// --halt now kills what still runs. A job whose exit-0 completion is only
// waiting to be returned when the halt fires was not killed: it ends as
// its exit says, and the summary counts no kill.
TEST(Engine, HaltNowKeepsTheStatusOfAJobThatAlreadyExited) {
  Options options;
  options.jobs = 2;
  options.halt = HaltPolicy::parse("now,fail=1");
  ExitedJobsExecutor executor;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("exit {}", values({"0", "1"}));
  EXPECT_TRUE(summary.halted);
  EXPECT_EQ(executor.kills, 1u) << "the halt sent its kill";
  ASSERT_EQ(summary.results.size(), 2u);
  EXPECT_EQ(summary.results[0].status, JobStatus::kSuccess);
  EXPECT_EQ(summary.results[1].status, JobStatus::kFailed);
  EXPECT_EQ(summary.killed, 0u);
  EXPECT_EQ(summary.succeeded, 1u);
  EXPECT_EQ(summary.exit_status(), 1);
}

// Engine::kill (the server's orphan-cancel) on a job that already exited
// 3: it ends kFailed with its own Exitval, and --retries does not rerun it.
TEST(Engine, KilledJobThatExitedFirstIsNeverRetried) {
  Options options;
  options.retries = 3;
  ExitedJobsExecutor executor;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  VectorSource source(values({"3"}));
  engine.begin(CommandTemplate::parse("exit {}"), source);
  engine.fill();
  engine.kill(1, /*force=*/false);
  while (engine.step(0.0) != Engine::Step::kIdle) {
  }
  RunSummary summary = engine.finish();
  ASSERT_EQ(summary.results.size(), 1u);
  EXPECT_EQ(summary.results[0].status, JobStatus::kFailed);
  EXPECT_EQ(summary.results[0].exit_code, 3);
  EXPECT_EQ(summary.results[0].attempts, 1u);
  EXPECT_EQ(summary.killed, 0u);
}

TEST(Engine, DryRunPrintsWithoutExecuting) {
  std::atomic<int> calls{0};
  auto task = [&](const ExecRequest&) {
    calls.fetch_add(1);
    return TaskOutcome{};
  };
  Options options;
  options.dry_run = true;
  FunctionExecutor executor(task, 1);
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("echo {}", values({"a", "b"}));
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(summary.succeeded, 2u);
  EXPECT_EQ(out.str(), "echo a\necho b\n");
}

TEST(Engine, KeepOrderOutput) {
  // Job "a" sleeps; "b" finishes first; -k must still print a before b.
  auto task = [](const ExecRequest& request) {
    if (request.command.find(" a") != std::string::npos) {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
    TaskOutcome outcome;
    outcome.stdout_data = request.command + "\n";
    return outcome;
  };
  Options options;
  options.jobs = 2;
  options.output_mode = OutputMode::kKeepOrder;
  FunctionExecutor executor(task, 2);
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  engine.run("job {}", values({"a", "b"}));
  EXPECT_EQ(out.str(), "job a\njob b\n");
}

TEST(Engine, DelaySpacesStarts) {
  Options options;
  options.jobs = 4;
  options.delay_seconds = 0.03;
  FunctionExecutor executor(echo_task, 4);
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("x {}", values({"1", "2", "3"}));
  ASSERT_EQ(summary.start_times.size(), 3u);
  std::vector<double> starts = summary.start_times;
  std::sort(starts.begin(), starts.end());
  EXPECT_GE(starts[1] - starts[0], 0.025);
  EXPECT_GE(starts[2] - starts[1], 0.025);
}

TEST(Engine, JoblogAndResume) {
  std::string path = ::testing::TempDir() + "engine_joblog.tsv";
  std::remove(path.c_str());
  auto task = [](const ExecRequest& request) {
    TaskOutcome outcome;
    outcome.exit_code = request.command.find("failme") != std::string::npos ? 1 : 0;
    return outcome;
  };
  Options options;
  options.joblog_path = path;
  {
    FunctionExecutor executor(task, 1);
    std::ostringstream out, err;
    Engine engine(options, executor, out, err);
    engine.run("run {}", values({"a", "failme", "c"}));
  }
  EXPECT_EQ(read_joblog(path).size(), 3u);

  // --resume-failed re-runs only the failure.
  std::atomic<int> calls{0};
  auto counting = [&](const ExecRequest&) {
    calls.fetch_add(1);
    return TaskOutcome{};
  };
  options.resume_failed = true;
  FunctionExecutor executor(counting, 1);
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("run {}", values({"a", "failme", "c"}));
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(summary.skipped, 2u);
  EXPECT_EQ(summary.succeeded, 1u);
  std::remove(path.c_str());
}

TEST(Engine, FinishedRowReachesJoblogWhileNeighbourRuns) {
  // -j2 with a fast job and a 2 s job: the fast job's row must reach the
  // file while the slow job still runs, not only when the run ends — else
  // kill -9 would replay it on --resume.
  std::string joblog = ::testing::TempDir() + "engine_row_while_running.tsv";
  std::remove(joblog.c_str());
  Options options;
  options.jobs = 2;
  options.joblog_path = joblog;
  std::vector<JoblogEntry> mid_run;  // the file, halfway through the slow job
  auto task = [&](const ExecRequest& request) {
    if (request.command == "slow") {
      std::this_thread::sleep_for(std::chrono::seconds(1));
      mid_run = read_joblog(joblog);
      std::this_thread::sleep_for(std::chrono::seconds(1));
    }
    return TaskOutcome{};
  };
  FunctionExecutor executor(task, 2);
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("{}", values({"fast", "slow"}));
  EXPECT_EQ(summary.succeeded, 2u);
  ASSERT_EQ(mid_run.size(), 1u);
  EXPECT_EQ(mid_run[0].seq, 1u);
  EXPECT_EQ(read_joblog(joblog).size(), 2u);
  std::remove(joblog.c_str());
}

TEST(Engine, MaxArgsPacking) {
  Options options;
  options.max_args = 2;
  FunctionExecutor executor(echo_task, 1);
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("rm {}", values({"a", "b", "c"}));
  ASSERT_EQ(summary.results.size(), 2u);
  EXPECT_EQ(summary.results[0].command, "rm a b");
  EXPECT_EQ(summary.results[1].command, "rm c");
}

TEST(Engine, ResultCallbackFires) {
  Options options;
  FunctionExecutor executor(echo_task, 1);
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  std::vector<std::uint64_t> seqs;
  engine.set_result_callback([&](const JobResult& result) { seqs.push_back(result.seq); });
  engine.run("e {}", values({"a", "b"}));
  EXPECT_EQ(seqs.size(), 2u);
}

TEST(Engine, TaskExceptionBecomesExitCode70) {
  auto task = [](const ExecRequest&) -> TaskOutcome {
    throw std::runtime_error("boom");
  };
  Options options;
  FunctionExecutor executor(task, 1);
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("t {}", values({"x"}));
  EXPECT_EQ(summary.failed, 1u);
  EXPECT_EQ(summary.results[0].exit_code, 70);
  EXPECT_NE(err.str().find("boom"), std::string::npos);
}

TEST(Engine, EmptyInputListIsANoop) {
  Options options;
  FunctionExecutor executor(echo_task, 1);
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("e {}", {});
  EXPECT_EQ(summary.results.size(), 0u);
  EXPECT_EQ(summary.succeeded, 0u);
}

TEST(Engine, ColsepSplitsValuesIntoColumns) {
  Options options;
  options.colsep = ",";
  FunctionExecutor executor(echo_task, 1);
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary =
      engine.run("cp {1} {2}", values({"src1,dst1", "src2,dst2"}));
  ASSERT_EQ(summary.results.size(), 2u);
  EXPECT_EQ(summary.results[0].command, "cp src1 dst1");
  EXPECT_EQ(summary.results[1].command, "cp src2 dst2");
}

TEST(Engine, ColsepHandlesEmptyAndMissingColumns) {
  Options options;
  options.colsep = "\t";
  options.quote_args = false;  // keep the composed commands readable
  FunctionExecutor executor(echo_task, 1);
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("x {1}:{2}", values({"a\t", "b\tc"}));
  EXPECT_EQ(summary.results[0].command, "x a:");
  EXPECT_EQ(summary.results[1].command, "x b:c");
  // A row with too few columns for {2} fails loudly at compose time.
  EXPECT_THROW(engine.run("x {3}", values({"only\ttwo"})), util::ConfigError);
}

TEST(Engine, TrimStripsValues) {
  Options options;
  options.trim_mode = "lr";
  FunctionExecutor executor(echo_task, 1);
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("v={}", values({"  padded  ", "\ttabbed\t"}));
  EXPECT_EQ(summary.results[0].command, "v=padded");
  EXPECT_EQ(summary.results[1].command, "v=tabbed");

  Options left_only;
  left_only.trim_mode = "l";
  Engine engine_left(left_only, executor, out, err);
  RunSummary left = engine_left.run("v={}", values({"  both  "}));
  EXPECT_EQ(left.results[0].command, "v='both  '");  // right side kept, quoted
}

TEST(Engine, TagStringTemplateExpands) {
  auto task = [](const ExecRequest& request) {
    TaskOutcome outcome;
    outcome.stdout_data = "line\n";
    (void)request;
    return outcome;
  };
  Options options;
  options.jobs = 1;
  options.tag_template = "job{#}/{}";
  FunctionExecutor executor(task, 1);
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  engine.run("cmd {}", values({"a", "b"}));
  EXPECT_EQ(out.str(), "job1/a\tline\njob2/b\tline\n");
}

TEST(Engine, ShuffleRunsAllJobsOnce) {
  std::vector<std::string> run_order;
  std::mutex mutex;
  auto task = [&](const ExecRequest& request) {
    std::lock_guard<std::mutex> lock(mutex);
    run_order.push_back(request.command);
    return TaskOutcome{};
  };
  Options options;
  options.jobs = 1;
  options.shuffle = true;
  options.shuffle_seed = 99;
  FunctionExecutor executor(task, 1);
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  std::vector<ArgVector> inputs;
  for (int i = 0; i < 20; ++i) inputs.push_back({std::to_string(i)});
  RunSummary summary = engine.run("j {}", std::move(inputs));
  EXPECT_EQ(summary.succeeded, 20u);
  ASSERT_EQ(run_order.size(), 20u);
  // Shuffled: not the identity order...
  std::vector<std::string> sorted = run_order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_NE(run_order.front() + run_order.back(), "j 0j 19");
  // ...but every job ran exactly once.
  std::vector<std::string> expected;
  for (int i = 0; i < 20; ++i) expected.push_back("j " + std::to_string(i));
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(sorted, expected);
}

TEST(Engine, ShuffleKeepsKeepOrderOutputStable) {
  auto task = [](const ExecRequest& request) {
    TaskOutcome outcome;
    outcome.stdout_data = request.command + "\n";
    return outcome;
  };
  Options options;
  options.jobs = 1;
  options.shuffle = true;
  options.output_mode = OutputMode::kKeepOrder;
  FunctionExecutor executor(task, 1);
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  engine.run("v {}", values({"1", "2", "3", "4"}));
  EXPECT_EQ(out.str(), "v 1\nv 2\nv 3\nv 4\n");  // -k wins over --shuf
}

TEST(Engine, ResultsDirSavesPerJobTree) {
  std::string dir = ::testing::TempDir() + "parcl_results_" +
                    std::to_string(::getpid());
  auto task = [](const ExecRequest& request) {
    TaskOutcome outcome;
    outcome.exit_code = request.command.find("bad") != std::string::npos ? 3 : 0;
    outcome.stdout_data = "out-of-" + request.command + "\n";
    outcome.stderr_data = "err\n";
    return outcome;
  };
  Options options;
  options.results_dir = dir;
  FunctionExecutor executor(task, 1);
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("run {}", values({"good", "bad"}));
  EXPECT_EQ(summary.failed, 1u);

  auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  EXPECT_EQ(slurp(dir + "/1/stdout"), "out-of-run good\n");
  EXPECT_EQ(slurp(dir + "/2/stderr"), "err\n");
  std::string meta = slurp(dir + "/2/meta");
  EXPECT_NE(meta.find("exitval\t3"), std::string::npos);
  EXPECT_NE(meta.find("status\tfailed"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(Engine, DispatchRateIsMeasured) {
  Options options;
  options.jobs = 2;
  FunctionExecutor executor(echo_task, 2);
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  std::vector<ArgVector> inputs;
  for (int i = 0; i < 50; ++i) inputs.push_back({std::to_string(i)});
  RunSummary summary = engine.run("e {}", std::move(inputs));
  EXPECT_GT(summary.dispatch_rate(), 0.0);
  EXPECT_EQ(summary.start_times.size(), 50u);
}

TEST(Engine, RetryRunsBeforeRemainingPendingWork) {
  // A failed attempt is re-queued at the head of the pending work, so with
  // one slot the retry executes before untouched inputs (seed semantics,
  // now via the retry deque instead of vector::insert at the front).
  std::mutex mutex;
  std::vector<std::string> order;
  std::atomic<int> a_calls{0};
  auto task = [&](const ExecRequest& request) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      order.push_back(request.command);
    }
    TaskOutcome outcome;
    if (request.command == "t a" && a_calls.fetch_add(1) == 0) {
      outcome.exit_code = 1;
    }
    return outcome;
  };
  Options options;
  options.retries = 2;
  FunctionExecutor executor(task, 1);
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("t {}", values({"a", "b", "c"}));
  EXPECT_EQ(summary.succeeded, 3u);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], "t a");
  EXPECT_EQ(order[1], "t a");  // retry jumps the queue
  EXPECT_EQ(order[2], "t b");
  EXPECT_EQ(order[3], "t c");
}

TEST(Engine, StaleDeadlinesFromFinishedJobsNeverFire) {
  // Every job arms a deadline; jobs finish long before it. The lazy-deletion
  // min-heap accumulates one stale entry per completion and must discard
  // them all without touching later attempts that reuse nothing.
  auto task = [](const ExecRequest&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return TaskOutcome{};
  };
  Options options;
  options.jobs = 8;
  options.timeout_seconds = 30.0;
  FunctionExecutor executor(task, 8);
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  std::vector<ArgVector> inputs;
  for (int i = 0; i < 64; ++i) inputs.push_back({std::to_string(i)});
  RunSummary summary = engine.run("job {}", std::move(inputs));
  EXPECT_EQ(summary.succeeded, 64u);
  EXPECT_EQ(summary.failed, 0u);
  for (const auto& result : summary.results) {
    EXPECT_EQ(result.status, JobStatus::kSuccess);
  }
}

// ---- Streaming pipeline (run_source) ----------------------------------

TEST(Engine, StreamedSourceMatchesMaterializedRun) {
  // The refactor's equivalence property: the same inputs pulled lazily from
  // a JobSource and handed over as a materialized vector must yield
  // byte-identical -k output and identical joblogs.
  auto task = [](const ExecRequest& request) {
    TaskOutcome outcome;
    outcome.exit_code = request.command.find("7") != std::string::npos ? 1 : 0;
    outcome.stdout_data = request.command + "\n";
    return outcome;
  };
  std::vector<ArgVector> inputs;
  for (int i = 0; i < 100; ++i) inputs.push_back({std::to_string(i)});

  Options options;
  options.jobs = 8;
  options.output_mode = OutputMode::kKeepOrder;

  std::string streamed_log = ::testing::TempDir() + "streamed_joblog.tsv";
  std::string materialized_log = ::testing::TempDir() + "materialized_joblog.tsv";
  std::remove(streamed_log.c_str());
  std::remove(materialized_log.c_str());

  std::ostringstream streamed_out, err1;
  {
    Options streamed_options = options;
    streamed_options.joblog_path = streamed_log;
    FunctionExecutor executor(task, 8);
    Engine engine(streamed_options, executor, streamed_out, err1);
    std::size_t next = 0;
    FunctionSource source([&]() -> std::optional<JobInput> {
      if (next >= inputs.size()) return std::nullopt;
      JobInput job;
      job.args = inputs[next++];
      return job;
    });
    RunSummary summary = engine.run_source("t {}", source);
    EXPECT_EQ(summary.total, 100u);
  }

  std::ostringstream materialized_out, err2;
  {
    Options materialized_options = options;
    materialized_options.joblog_path = materialized_log;
    FunctionExecutor executor(task, 8);
    Engine engine(materialized_options, executor, materialized_out, err2);
    engine.run("t {}", inputs);
  }

  EXPECT_FALSE(streamed_out.str().empty());
  EXPECT_EQ(streamed_out.str(), materialized_out.str());

  auto seq_set = [](const std::string& path) {
    std::set<std::uint64_t> seqs;
    for (const auto& entry : read_joblog(path)) seqs.insert(entry.seq);
    return seqs;
  };
  EXPECT_EQ(seq_set(streamed_log), seq_set(materialized_log));
  std::remove(streamed_log.c_str());
  std::remove(materialized_log.c_str());
}

TEST(Engine, StreamedRunIsConstantMemoryWhenNotCollecting) {
  // collect_results=false (the CLI's configuration) keeps the summary O(1):
  // counts only, no per-job results or start times.
  Options options;
  options.jobs = 4;
  options.collect_results = false;
  FunctionExecutor executor(echo_task, 4);
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  std::size_t next = 0;
  FunctionSource source([&]() -> std::optional<JobInput> {
    if (next >= 500) return std::nullopt;
    JobInput job;
    job.args = {std::to_string(next++)};
    return job;
  });
  RunSummary summary = engine.run_source("e {}", source);
  EXPECT_EQ(summary.succeeded, 500u);
  EXPECT_EQ(summary.total, 500u);
  EXPECT_TRUE(summary.results.empty());
  EXPECT_TRUE(summary.start_times.empty());
  // dispatch_rate derives from start_times, so it is unavailable here.
  EXPECT_EQ(summary.dispatch_rate(), 0.0);
}

TEST(Engine, ProgressShowsUnknownTotalUntilSourceDrains) {
  Options options;
  options.jobs = 1;
  options.progress = true;
  FunctionExecutor executor(echo_task, 1);
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  std::size_t next = 0;
  FunctionSource source([&]() -> std::optional<JobInput> {
    if (next >= 40) return std::nullopt;
    JobInput job;
    job.args = {std::to_string(next++)};
    return job;
  });
  RunSummary summary = engine.run_source("e {}", source);
  EXPECT_EQ(summary.succeeded, 40u);
  std::string progress = err.str();
  // While the source still had jobs, the denominator is unknowable.
  EXPECT_NE(progress.find("/?"), std::string::npos);
  // The final flush reports the exact total.
  EXPECT_NE(progress.find("40/40"), std::string::npos);
}

TEST(Engine, KeepOrderWindowBoundsHeldOutput) {
  // One straggler (seq 1) with a tiny -k window: fresh dispatch must pause
  // at the window bound, then resume and finish every job in order.
  std::atomic<int> started{0};
  auto task = [&](const ExecRequest& request) {
    started.fetch_add(1);
    if (request.command == "w 0") {
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
    }
    TaskOutcome outcome;
    outcome.stdout_data = request.command + "\n";
    return outcome;
  };
  Options options;
  options.jobs = 4;
  options.output_mode = OutputMode::kKeepOrder;
  options.keep_order_window = 8;
  FunctionExecutor executor(task, 4);
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  std::vector<ArgVector> inputs;
  for (int i = 0; i < 200; ++i) inputs.push_back({std::to_string(i)});
  RunSummary summary = engine.run("w {}", std::move(inputs));
  EXPECT_EQ(summary.succeeded, 200u);
  std::string expected;
  for (int i = 0; i < 200; ++i) expected += "w " + std::to_string(i) + "\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(Engine, RunSourceAppliesPackingDecorators) {
  Options options;
  options.max_args = 2;
  FunctionExecutor executor(echo_task, 1);
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  std::size_t next = 0;
  FunctionSource source([&]() -> std::optional<JobInput> {
    static const char* vals[] = {"a", "b", "c"};
    if (next >= 3) return std::nullopt;
    JobInput job;
    job.args = {vals[next++]};
    return job;
  });
  RunSummary summary = engine.run_source("rm {}", source);
  ASSERT_EQ(summary.results.size(), 2u);
  EXPECT_EQ(summary.results[0].command, "rm a b");
  EXPECT_EQ(summary.results[1].command, "rm c");
}

TEST(Engine, StreamedResumeSkipsCompletedSeqs) {
  // --resume against an existing joblog must skip without knowing the total
  // up front (the skip set is consulted as jobs stream past).
  std::string path = ::testing::TempDir() + "streamed_resume.tsv";
  std::remove(path.c_str());
  auto task = [](const ExecRequest& request) {
    TaskOutcome outcome;
    outcome.exit_code = request.command.find("failme") != std::string::npos ? 1 : 0;
    return outcome;
  };
  Options options;
  options.joblog_path = path;
  {
    FunctionExecutor executor(task, 1);
    std::ostringstream out, err;
    Engine engine(options, executor, out, err);
    engine.run("run {}", values({"a", "failme", "c"}));
  }
  std::atomic<int> calls{0};
  auto counting = [&](const ExecRequest&) {
    calls.fetch_add(1);
    return TaskOutcome{};
  };
  options.resume_failed = true;
  FunctionExecutor executor(counting, 1);
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  const char* vals[] = {"a", "failme", "c"};
  std::size_t next = 0;
  FunctionSource source([&]() -> std::optional<JobInput> {
    if (next >= 3) return std::nullopt;
    JobInput job;
    job.args = {vals[next++]};
    return job;
  });
  RunSummary summary = engine.run_source("run {}", source);
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(summary.skipped, 2u);
  EXPECT_EQ(summary.succeeded, 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace parcl::core
