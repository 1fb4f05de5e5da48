// End-to-end tests of the `parcl` binary itself: real fork/exec through the
// CLI, checking stdout, exit codes, and joblog side effects — the closest
// analog to running the paper's shell one-liners.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/transport.hpp"
#include "util/net.hpp"
#include "util/strings.hpp"

#ifndef PARCL_BINARY_PATH
#error "PARCL_BINARY_PATH must be defined by the build"
#endif

namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

CommandResult run_command(const std::string& command) {
  CommandResult result;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer{};
  std::size_t n = 0;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), n);
  }
  int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string parcl() { return PARCL_BINARY_PATH; }

TEST(ParclCli, EchoOverLiteralSource) {
  CommandResult result = run_command(parcl() + " -j2 -k echo {} ::: one two three");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.output, "one\ntwo\nthree\n");
}

TEST(ParclCli, KeepOrderHoldsUnderSkew) {
  // First job sleeps; -k must still print in input order.
  CommandResult result = run_command(
      parcl() + " -j3 -k 'sleep 0.{}; echo v{}' ::: 2 1 0");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.output, "v2\nv1\nv0\n");
}

TEST(ParclCli, CartesianProductAndRanges) {
  CommandResult result =
      run_command(parcl() + " --dry-run echo {1}-{2} ::: {1..3} ::: a b");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(parcl::util::split_lines(result.output).size(), 6u);
  EXPECT_NE(result.output.find("echo 1-a"), std::string::npos);
  EXPECT_NE(result.output.find("echo 3-b"), std::string::npos);
}

TEST(ParclCli, StdinInput) {
  CommandResult result =
      run_command("printf 'x\\ny\\n' | " + parcl() + " -k echo got-{}");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.output, "got-x\ngot-y\n");
}

TEST(ParclCli, ExitStatusCountsFailures) {
  CommandResult result = run_command(parcl() + " 'exit {}' ::: 0 1 2 0");
  EXPECT_EQ(result.exit_code, 2);  // two failed jobs
}

TEST(ParclCli, SeqAndSlotReplacements) {
  CommandResult result = run_command(parcl() + " -j1 -k 'echo {#}:{%}:{}' ::: a b");
  EXPECT_EQ(result.output, "1:1:a\n2:1:b\n");
}

TEST(ParclCli, TagPrefixesOutput) {
  CommandResult result = run_command(parcl() + " --tag -k echo {} ::: p q");
  EXPECT_EQ(result.output, "p\tp\nq\tq\n");
}

TEST(ParclCli, QuotingSurvivesHostileFilenames) {
  CommandResult result =
      run_command(parcl() + " -k 'printf %s {}' ::: 'a b' '$(echo nope)'");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("a b"), std::string::npos);
  EXPECT_NE(result.output.find("$(echo nope)"), std::string::npos);
  EXPECT_EQ(result.output.find("nope\n"), std::string::npos);
}

TEST(ParclCli, JoblogWritesRows) {
  std::string log_path = ::testing::TempDir() + "parcl_cli_joblog.tsv";
  std::remove(log_path.c_str());
  CommandResult result = run_command(
      parcl() + " --joblog " + log_path + " 'true {}' ::: 1 2 3");
  EXPECT_EQ(result.exit_code, 0);
  std::ifstream in(log_path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("Seq\tHost"), std::string::npos);
  EXPECT_EQ(parcl::util::split_lines(content).size(), 4u);  // header + 3 rows
  std::remove(log_path.c_str());
}

TEST(ParclCli, ResumeSkipsCompletedSeqs) {
  std::string log_path = ::testing::TempDir() + "parcl_cli_resume.tsv";
  std::remove(log_path.c_str());
  run_command(parcl() + " --joblog " + log_path + " echo {} ::: a b");
  CommandResult second = run_command(
      parcl() + " --joblog " + log_path + " --resume -k echo {} ::: a b c");
  EXPECT_EQ(second.exit_code, 0);
  EXPECT_EQ(second.output, "c\n");  // a and b skipped
  std::remove(log_path.c_str());
}

TEST(ParclCli, EnvInjectionWithSlot) {
  CommandResult result = run_command(
      parcl() + " -j1 --env 'HIP_VISIBLE_DEVICES={%}' 'echo dev=$HIP_VISIBLE_DEVICES'"
                " ::: x");
  // The input value is appended (no {} in the command), like parallel.
  EXPECT_EQ(result.output, "dev=1 x\n");
}

TEST(ParclCli, HelpAndVersion) {
  EXPECT_EQ(run_command(parcl() + " --help").exit_code, 0);
  CommandResult version = run_command(parcl() + " --version");
  EXPECT_EQ(version.exit_code, 0);
  EXPECT_NE(version.output.find("parcl"), std::string::npos);
}

TEST(ParclCli, BadUsageExits255) {
  EXPECT_EQ(run_command(parcl() + " --bogus").exit_code, 255);
  EXPECT_EQ(run_command(parcl() + " --line-buffer echo ::: a").exit_code, 255);
  EXPECT_EQ(run_command(parcl() + " --halt wat,x=1 echo ::: a").exit_code, 255);
}

TEST(ParclCli, MaxArgsPacksInputs) {
  CommandResult result =
      run_command(parcl() + " -n3 -k echo group: {} ::: 1 2 3 4 5");
  EXPECT_EQ(result.output, "group: 1 2 3\ngroup: 4 5\n");
}

TEST(ParclCli, TimeoutKillsHangingJobs) {
  CommandResult result =
      run_command(parcl() + " --timeout 0.3 'sleep {}' ::: 5");
  EXPECT_NE(result.exit_code, 0);
}

TEST(ParclCli, PipeModeSplitsStdinAcrossJobs) {
  // 6 lines, 4-byte blocks -> one wc -l per block; totals sum to 6.
  CommandResult result = run_command(
      "printf 'a\\nb\\nc\\nd\\ne\\nf\\n' | " + parcl() +
      " --pipe --block 4 -k wc -l");
  EXPECT_EQ(result.exit_code, 0);
  long total = 0;
  for (const auto& line : parcl::util::split_lines(result.output)) {
    total += parcl::util::parse_long(parcl::util::trim(line));
  }
  EXPECT_EQ(total, 6);
  EXPECT_GT(parcl::util::split_lines(result.output).size(), 1u);
}

TEST(ParclCli, PipeRoundTripsBytes) {
  CommandResult result = run_command(
      "printf '3\\n1\\n2\\n' | " + parcl() + " --pipe --block 1k -k cat");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.output, "3\n1\n2\n");
}

TEST(ParclProfile, ExtractsProfileFromJoblog) {
  std::string log_path = ::testing::TempDir() + "parcl_profile_joblog.tsv";
  std::remove(log_path.c_str());
  run_command(parcl() + " -j2 --joblog " + log_path + " 'sleep 0.1' ::: 1 2 3 4");
  CommandResult result =
      run_command(std::string(PARCL_PROFILE_BINARY_PATH) + " " + log_path + " 2");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("peak concurrency:    2"), std::string::npos);
  EXPECT_NE(result.output.find("utilization"), std::string::npos);
  std::remove(log_path.c_str());
}

TEST(ParclProfile, BadUsage) {
  EXPECT_EQ(run_command(std::string(PARCL_PROFILE_BINARY_PATH)).exit_code, 255);
  EXPECT_EQ(run_command(std::string(PARCL_PROFILE_BINARY_PATH) + " /no/such/log")
                .exit_code,
            255);
}

// --- Failure plumbing: --retries / --timeout / --halt through the binary,
// --- checking joblog Exitval/Signal columns and the exit status against
// --- GNU parallel's documented semantics.

TEST(ParclCli, RetriesRerunUntilSuccessAndLogOneRow) {
  // The job fails until its third run: a counter file scripts the attempts.
  std::string counter = ::testing::TempDir() + "parcl_cli_retry_count";
  std::string log_path = ::testing::TempDir() + "parcl_cli_retry.tsv";
  std::remove(counter.c_str());
  std::remove(log_path.c_str());
  CommandResult result = run_command(
      parcl() + " --retries 3 --joblog " + log_path +
      " 'c=$(cat " + counter + " 2>/dev/null || echo 0); c=$((c+1));"
      " echo $c > " + counter + "; test $c -ge 3 && echo attempt-$c-{}'"
      " ::: ok");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("attempt-3-ok"), std::string::npos);
  // Exactly one joblog row (the final attempt), Exitval 0, Signal 0.
  std::ifstream in(log_path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  auto lines = parcl::util::split_lines(content);
  ASSERT_EQ(lines.size(), 2u) << content;  // header + one row
  EXPECT_NE(lines[1].find("\t0\t0\t"), std::string::npos) << lines[1];
  std::remove(counter.c_str());
  std::remove(log_path.c_str());
}

TEST(ParclCli, RetriesExhaustedFailsWithJoblogExitval) {
  std::string log_path = ::testing::TempDir() + "parcl_cli_exhaust.tsv";
  std::remove(log_path.c_str());
  CommandResult result = run_command(
      parcl() + " --retries 2 --joblog " + log_path + " 'exit 7' ::: a");
  EXPECT_EQ(result.exit_code, 1);  // one failed job
  std::ifstream in(log_path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  auto lines = parcl::util::split_lines(content);
  ASSERT_EQ(lines.size(), 2u) << content;
  EXPECT_NE(lines[1].find("\t7\t0\t"), std::string::npos)
      << "joblog must record Exitval 7, Signal 0: " << lines[1];
  std::remove(log_path.c_str());
}

TEST(ParclCli, CrashingScriptRecordsSignalColumn) {
  std::string log_path = ::testing::TempDir() + "parcl_cli_crash.tsv";
  std::remove(log_path.c_str());
  // The shell (and hence the job) dies by SIGKILL.
  CommandResult result = run_command(
      parcl() + " --joblog " + log_path + " 'kill -9 $$' ::: x");
  EXPECT_EQ(result.exit_code, 1);  // the signaled job counts as failed
  std::ifstream in(log_path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  auto lines = parcl::util::split_lines(content);
  ASSERT_EQ(lines.size(), 2u) << content;
  // Exitval 128+9 (parallel's shell convention) and Signal 9.
  EXPECT_NE(lines[1].find("\t137\t9\t"), std::string::npos)
      << "joblog must record Signal 9: " << lines[1];
  std::remove(log_path.c_str());
}

TEST(ParclCli, TimeoutRecordsTermSignalInJoblog) {
  std::string log_path = ::testing::TempDir() + "parcl_cli_tkill.tsv";
  std::remove(log_path.c_str());
  CommandResult result = run_command(
      parcl() + " --timeout 0.3 --joblog " + log_path + " 'sleep {}' ::: 10");
  EXPECT_EQ(result.exit_code, 1);
  std::ifstream in(log_path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  auto lines = parcl::util::split_lines(content);
  ASSERT_EQ(lines.size(), 2u) << content;
  EXPECT_NE(lines[1].find("\t143\t15\t"), std::string::npos)
      << "timed-out job should die by SIGTERM: " << lines[1];
  std::remove(log_path.c_str());
}

TEST(ParclCli, HaltNowStopsAfterFirstFailure) {
  // 6 jobs on one slot: the second fails; now,fail=1 must keep the later
  // jobs from ever starting. Their output must not appear.
  CommandResult result = run_command(
      parcl() + " -j1 -k --halt now,fail=1 'test {} -ne 2 && echo ran-{};"
                " test {} -ne 2' ::: 1 2 3 4 5 6");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("ran-1"), std::string::npos);
  EXPECT_EQ(result.output.find("ran-3"), std::string::npos);
  EXPECT_EQ(result.output.find("ran-6"), std::string::npos);
}

TEST(ParclCli, HaltSoonLetsRunningJobsFinish) {
  // Slot 1 starts a slow success before the failure lands on slot 2; soon
  // must let it finish (its output appears) but start nothing new.
  CommandResult result = run_command(
      parcl() + " -j2 -k --halt soon,fail=1"
                " 'test {} -eq 1 && sleep 0.4; test {} -ne 2 && echo done-{};"
                " test {} -ne 2' ::: 1 2 3 4");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("done-1"), std::string::npos)
      << "halt soon must not kill the in-flight job: " << result.output;
  EXPECT_EQ(result.output.find("done-4"), std::string::npos);
}

TEST(ParclCli, HaltFailOneExitsWithTheFailingJobsStatus) {
  // GNU Parallel's EXIT STATUS: with fail=1 the run exits with the status of
  // the failing job, under now and soon alike; 128+N for a job killed by
  // signal N. Other policies keep the count of failed jobs.
  for (const char* when : {"now", "soon"}) {
    std::string halt = std::string(" -j1 --halt ") + when + ",fail=1 ";
    EXPECT_EQ(run_command(parcl() + halt + "'test {} -lt 2 || exit 3' ::: 1 2 3 4 5")
                  .exit_code,
              3)
        << when;
    EXPECT_EQ(run_command(parcl() + halt + "'test {} -lt 2 || kill -9 $$' ::: 1 2 3")
                  .exit_code,
              128 + 9)
        << when;
  }
  EXPECT_EQ(run_command(parcl() + " -j1 --halt soon,fail=2 'exit {}' ::: 3 3 0").exit_code,
            2);
}

TEST(ParclCli, SpawnFailureRetriesAndCountsAsFailure) {
  // --no-shell with a nonexistent binary: every attempt is a spawn error;
  // the run fails without hanging and exits with the failed-job count.
  CommandResult result = run_command(
      parcl() + " --no-shell --retries 2 '/no/such/binary {}' ::: a b");
  EXPECT_EQ(result.exit_code, 2) << result.output;
}

TEST(ParclCli, SemaphoreRunsCommandVerbatim) {
  CommandResult result = run_command(
      parcl() + " --semaphore --id cli_test_sem -j2 echo sem-ran");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("sem-ran"), std::string::npos);
}

TEST(ParclCli, SemaphoreSerializesAcrossProcesses) {
  // Two sem-wrapped sleeps with -j1 must serialize: total wall time is at
  // least the sum of the two sleeps.
  std::string id = "cli_serial_sem_" + std::to_string(getpid());
  auto t0 = std::chrono::steady_clock::now();
  CommandResult result = run_command(
      "(" + parcl() + " --semaphore --id " + id + " -j1 sleep 0.3 & " +
      parcl() + " --semaphore --id " + id + " -j1 sleep 0.3; wait)");
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_GE(elapsed, 0.55);
}

TEST(ParclCli, ProgressPrintsCounter) {
  CommandResult result =
      run_command(parcl() + " --progress echo {} ::: a b c");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("3/3 done"), std::string::npos);
}

TEST(ParclCli, SigintDrainFinishesRunningJobsAndExits130) {
  std::string log_path = ::testing::TempDir() + "parcl_cli_drain.tsv";
  std::remove(log_path.c_str());
  // Interrupt once mid-run: the two in-flight jobs drain to completion (and
  // reach the joblog), the queued jobs never start, and parcl exits 128+2.
  CommandResult result = run_command(
      "bash -c '" + parcl() + " -j2 --joblog " + log_path +
      " \"sleep 1; echo done-{}\" ::: 1 2 3 4 & pid=$!;"
      " sleep 0.4; kill -INT $pid; wait $pid'");
  EXPECT_EQ(result.exit_code, 130) << result.output;
  EXPECT_NE(result.output.find("done-1"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("done-2"), std::string::npos) << result.output;
  EXPECT_EQ(result.output.find("done-3"), std::string::npos) << result.output;
  EXPECT_EQ(result.output.find("done-4"), std::string::npos) << result.output;
  std::ifstream in(log_path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  auto lines = parcl::util::split_lines(content);
  EXPECT_EQ(lines.size(), 3u) << content;  // header + the two drained jobs
  std::remove(log_path.c_str());
}

TEST(ParclCli, KeepOrderJoblogLogsNoSeqWhoseOutputIsHeld) {
  // -k holds seqs 2-4 behind the sleeping seq 1. SIGKILLed then, the run
  // must have logged no seq whose output is missing from out1, so that the
  // --resume run prints exactly what out1 lacks.
  const std::string dir = ::testing::TempDir();
  const std::string log_path = dir + "parcl_cli_k_kill.tsv";
  const std::string out1 = dir + "parcl_cli_k_kill.out";
  std::remove(log_path.c_str());
  std::remove(out1.c_str());
  const std::string run = parcl() + " -j4 -k --joblog " + log_path +
                          " --resume \"sleep {}; echo job-{}\" ::: 1.2 0.1 0.15 0.2";
  CommandResult killed = run_command("bash -c '" + run + " > " + out1 +
                                     " & pid=$!; sleep 0.6; kill -9 $pid; wait $pid'");
  EXPECT_EQ(killed.exit_code, 137) << killed.output;
  std::ifstream log_in(log_path);
  std::string log((std::istreambuf_iterator<char>(log_in)),
                  std::istreambuf_iterator<char>());
  std::ifstream out_in(out1);
  std::string printed((std::istreambuf_iterator<char>(out_in)),
                      std::istreambuf_iterator<char>());
  const std::vector<std::string> outputs = {"job-1.2", "job-0.1", "job-0.15", "job-0.2"};
  auto lines = parcl::util::split_lines(log);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    std::size_t seq = std::stoul(lines[i].substr(0, lines[i].find('\t')));
    ASSERT_GE(seq, 1u);
    ASSERT_LE(seq, outputs.size());
    EXPECT_NE(printed.find(outputs[seq - 1] + "\n"), std::string::npos)
        << "seq " << seq << " is logged but its output is not in out1: " << printed;
  }

  CommandResult resumed = run_command(run);
  EXPECT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_EQ(printed + resumed.output, "job-1.2\njob-0.1\njob-0.15\njob-0.2\n")
      << "output lost across the kill";
  // Each row's Receive column counts its job's stdout, held under -k or not.
  std::ifstream final_in(log_path);
  std::string final_log((std::istreambuf_iterator<char>(final_in)),
                        std::istreambuf_iterator<char>());
  lines = parcl::util::split_lines(final_log);
  ASSERT_EQ(lines.size(), 5u) << final_log;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    std::vector<std::string> fields = parcl::util::split(lines[i], '\t');
    ASSERT_GE(fields.size(), 9u) << lines[i];
    std::size_t seq = std::stoul(fields[0]);
    ASSERT_LE(seq, outputs.size());
    EXPECT_EQ(fields[5], std::to_string(outputs[seq - 1].size() + 1)) << lines[i];
  }
  std::remove(log_path.c_str());
  std::remove(out1.c_str());
}

TEST(ParclCli, SigtermDrainExits143) {
  CommandResult result = run_command(
      "bash -c '" + parcl() +
      " -j1 \"sleep 1\" ::: 1 2 & pid=$!;"
      " sleep 0.3; kill -TERM $pid; wait $pid'");
  EXPECT_EQ(result.exit_code, 143) << result.output;
}

TEST(ParclCli, DoubleInterruptEscalatesAndRecordsSignalInJoblog) {
  std::string log_path = ::testing::TempDir() + "parcl_cli_escalate.tsv";
  std::remove(log_path.c_str());
  // Two interrupts: the second walks --termseq, so the sleeping job dies by
  // SIGTERM *now* (well before its 30s length) and the joblog records the
  // drain-kill signal in the Signal column.
  auto t0 = std::chrono::steady_clock::now();
  CommandResult result = run_command(
      "bash -c '" + parcl() + " --joblog " + log_path +
      " --termseq TERM,200,KILL \"sleep {}\" ::: 30 & pid=$!;"
      " sleep 0.4; kill -INT $pid; sleep 0.3; kill -INT $pid; wait $pid'");
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_EQ(result.exit_code, 130) << result.output;
  EXPECT_LT(elapsed, 10.0);  // escalation, not a 30s drain
  std::ifstream in(log_path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  auto lines = parcl::util::split_lines(content);
  ASSERT_EQ(lines.size(), 2u) << content;
  EXPECT_NE(lines[1].find("\t143\t15\t"), std::string::npos)
      << "drain-killed job must record Signal 15: " << lines[1];
  std::remove(log_path.c_str());
}

TEST(ParclCli, RobustnessFlagsSmoke) {
  // --timeout N%, --memfree, --load, --retry-delay and --joblog-fsync all
  // wire through the real binary: tiny floor/huge ceiling keep the guards
  // permissive, so the run completes normally. The jobs sleep so the
  // adaptive median (and the 500% limit derived from it) dwarfs scheduler
  // jitter when the test suite itself runs in parallel.
  std::string log_path = ::testing::TempDir() + "parcl_cli_guards.tsv";
  std::remove(log_path.c_str());
  CommandResult result = run_command(
      parcl() + " --timeout 500% --memfree 1k --load 9999 --retry-delay 0.01"
                " --joblog-fsync --joblog " + log_path +
                " -k 'sleep 0.2; echo g{}' ::: 1 2 3 4");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_EQ(result.output, "g1\ng2\ng3\ng4\n");
  std::ifstream in(log_path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(parcl::util::split_lines(content).size(), 5u) << content;
  std::remove(log_path.c_str());
}

TEST(ParclCli, PilotTransportRunsJobsThroughAWorkerAgent) {
  // --pilot on the local host re-execs this binary as `--worker` over a
  // socketpair: the full framed protocol, spawn to collated output.
  CommandResult result = run_command(
      parcl() + " --pilot -S 4/: -k 'echo p{}' ::: 1 2 3 4 5 6 7 8");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_EQ(result.output, "p1\np2\np3\np4\np5\np6\np7\np8\n");
}

TEST(ParclCli, PilotTransportKeepsTheJoblogExactlyOnce) {
  const std::string log_path = ::testing::TempDir() + "parcl_cli_pilot_log.tsv";
  std::remove(log_path.c_str());
  CommandResult result = run_command(
      parcl() + " --pilot -S 2/: --heartbeat-interval 0.1 --joblog " +
      log_path + " -k 'echo w{}' ::: a b c d e");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_EQ(result.output, "wa\nwb\nwc\nwd\nwe\n");
  std::ifstream in(log_path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(parcl::util::split_lines(content).size(), 6u) << content;
  std::remove(log_path.c_str());
}

TEST(ParclCli, FilterHostsKeepsAHostThatAnswers) {
  // --filter-hosts probes each host before the run: a probe job on a
  // wrapper host, a channel attach on a pilot host. The local host answers
  // either way, and both jobs run on it.
  for (const std::string pilot : {"", " --pilot"}) {
    CommandResult result =
        run_command(parcl() + pilot + " --filter-hosts -S 1/: echo ::: a b");
    EXPECT_EQ(result.exit_code, 0) << pilot << ": " << result.output;
    EXPECT_EQ(result.output, "a\nb\n") << pilot;
  }
}

using SeqAndExitval = std::pair<std::string, std::string>;

/// Each joblog row's Seq and Exitval, in file order.
std::vector<SeqAndExitval> seq_and_exitval(const std::string& path) {
  std::vector<SeqAndExitval> rows;
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::vector<std::string> fields;
    std::string field;
    while (fields.size() < 7 && std::getline(row, field, '\t')) fields.push_back(field);
    if (fields.size() == 7) rows.emplace_back(fields[0], fields[6]);
  }
  return rows;
}

TEST(ParclCli, NoShellCommandOfNoWordsEndsWith127) {
  // A --no-shell command that splits into no words (none at all, or an
  // unterminated quote) names nothing to exec: it ends with the silent 127
  // of one whose words exec nothing, locally and on a pilot's worker, and
  // the next job still runs.
  const std::string log_path =
      ::testing::TempDir() + "parcl_cli_no_words_" + std::to_string(getpid()) + ".tsv";
  for (const std::string pilot : {"", " --pilot -S 1/:"}) {
    std::remove(log_path.c_str());
    CommandResult result =
        run_command(parcl() + pilot + " -j1 --no-shell --no-quote --joblog " + log_path +
                    " '{}' ::: '' 'echo \"x' true");
    EXPECT_EQ(result.exit_code, 2) << pilot << ": " << result.output;
    EXPECT_EQ(result.output, "") << pilot;
    EXPECT_EQ(seq_and_exitval(log_path),
              (std::vector<SeqAndExitval>{{"1", "127"}, {"2", "127"}, {"3", "0"}}))
        << pilot;
  }
  std::remove(log_path.c_str());
}

TEST(ParclCli, ClosedStdoutDoesNotEndTheRun) {
  // parcl ignores SIGPIPE in every mode that runs jobs: a reader that goes
  // away costs the run its output, not its jobs or its joblog.
  const std::string log_path = ::testing::TempDir() + "parcl_cli_closed_stdout_" +
                               std::to_string(getpid()) + ".tsv";
  std::remove(log_path.c_str());
  int out[2];
  ASSERT_EQ(pipe(out), 0);
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    dup2(out[1], STDOUT_FILENO);
    close(out[0]);
    close(out[1]);
    execl(PARCL_BINARY_PATH, "parcl", "-j1", "--joblog", log_path.c_str(),
          "echo {}; sleep 0.05", ":::", "1", "2", "3", "4", static_cast<char*>(nullptr));
    _exit(127);
  }
  close(out[1]);
  char byte = 0;
  EXPECT_EQ(read(out[0], &byte, 1), 1);
  close(out[0]);  // the reader exits after one byte
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "parcl ended by signal " << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(seq_and_exitval(log_path).size(), 4u);
  std::remove(log_path.c_str());
}

// ---------------------------------------------------------------------------
// Service mode (--server / --client)
// ---------------------------------------------------------------------------

TEST(ParclService, RoundTripOverUnixSocket) {
  // Server in the background, one client submitting through the full framed
  // protocol, clean SIGTERM drain. The client's -k output is the baseline.
  CommandResult result = run_command(
      "D=$(mktemp -d); " + parcl() + " --server --state-dir \"$D\" -j2 "
      "2>\"$D/server.log\" & S=$!; "
      "for i in $(seq 100); do [ -S \"$D/parcl.sock\" ] && break; sleep 0.05; done; " +
      parcl() + " --client --socket \"$D/parcl.sock\" -k 'echo s-{}' ::: a b c; "
      "C=$?; kill -TERM $S; wait $S; W=$?; echo \"client=$C server=$W\"; "
      "rm -rf \"$D\"");
  EXPECT_NE(result.output.find("s-a\ns-b\ns-c\n"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("client=0 server=0"), std::string::npos)
      << result.output;
}

TEST(ParclService, ClientKeepOrderMatchesLocalRunByteForByte) {
  // Jobs finish out of order, and each ends with a line that has no
  // newline: the client collates exactly as a local -k run does.
  const std::string jobs = " -k 'sleep 0.0{}; echo out-{}; printf tail-{}' ::: 3 1 2";
  CommandResult result = run_command(
      "D=$(mktemp -d); " + parcl() + " --server --state-dir \"$D\" -j3 "
      "2>\"$D/server.log\" & S=$!; "
      "for i in $(seq 100); do [ -S \"$D/parcl.sock\" ] && break; sleep 0.05; done; " +
      parcl() + " --client --socket \"$D/parcl.sock\"" + jobs + " >\"$D/client.out\"; " +
      parcl() + " -j3" + jobs + " >\"$D/local.out\"; "
      "kill -TERM $S; wait $S; "
      "cmp \"$D/client.out\" \"$D/local.out\" && echo same; "
      "cat \"$D/client.out\"; rm -rf \"$D\"");
  EXPECT_NE(result.output.find("same\nout-3\ntail-3\nout-1\ntail-1\nout-2\ntail-2\n"),
            std::string::npos)
      << result.output;
}

TEST(ParclService, ServerRunsClientCommandsVerbatim) {
  // The client already expanded each command; a replacement string in an
  // argument reaches the job untouched.
  CommandResult result = run_command(
      "D=$(mktemp -d); " + parcl() + " --server --state-dir \"$D\" -j2 "
      "2>\"$D/server.log\" & S=$!; "
      "for i in $(seq 100); do [ -S \"$D/parcl.sock\" ] && break; sleep 0.05; done; " +
      parcl() + " --client --socket \"$D/parcl.sock\" -k echo ::: '{}' '{#}' '{%}'; "
      "kill -TERM $S; wait $S; rm -rf \"$D\"");
  EXPECT_NE(result.output.find("{}\n{#}\n{%}\n"), std::string::npos) << result.output;
}

TEST(ParclService, TimeoutAndRetryWakeAQuietServer) {
  // One client, one job, no other traffic: only the loop's own deadlines
  // (the --timeout kill, the --retry-delay backoff, the SIGKILL grace) can
  // wake the server, and the RESULT must still arrive.
  CommandResult result = run_command(
      "D=$(mktemp -d); " + parcl() + " --server --state-dir \"$D\" -j1 "
      "--timeout 0.3 --retries 2 --retry-delay 0.2 2>\"$D/server.log\" & S=$!; "
      "for i in $(seq 100); do [ -S \"$D/parcl.sock\" ] && break; sleep 0.05; done; "
      "T0=$(date +%s%N); timeout 10 " +
      parcl() + " --client --socket \"$D/parcl.sock\" 'sleep {}' ::: 5; C=$?; "
      "T1=$(date +%s%N); kill -TERM $S; wait $S; W=$?; "
      "echo \"client=$C server=$W ms=$(( (T1 - T0) / 1000000 ))\"; "
      "tail -n +2 \"$D/ledger.joblog\" | cut -f8 | sed 's/^/signal=/'; rm -rf \"$D\"");
  EXPECT_NE(result.output.find("client=1 server=0"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("signal=15\n"), std::string::npos) << result.output;
  std::size_t at = result.output.find("ms=");
  ASSERT_NE(at, std::string::npos) << result.output;
  EXPECT_LT(std::atol(result.output.c_str() + at + 3), 3000) << result.output;
}

TEST(ParclService, SigtermDrainsAnIdleServerPromptly) {
  CommandResult result = run_command(
      "D=$(mktemp -d); " + parcl() + " --server --state-dir \"$D\" -j2 "
      "2>\"$D/server.log\" & S=$!; "
      "for i in $(seq 100); do [ -S \"$D/parcl.sock\" ] && break; sleep 0.05; done; "
      "sleep 0.2; T0=$(date +%s%N); kill -TERM $S; wait $S; W=$?; T1=$(date +%s%N); "
      "echo \"server=$W ms=$(( (T1 - T0) / 1000000 ))\"; rm -rf \"$D\"");
  EXPECT_NE(result.output.find("server=0"), std::string::npos) << result.output;
  std::size_t at = result.output.find("ms=");
  ASSERT_NE(at, std::string::npos) << result.output;
  EXPECT_LT(std::atol(result.output.c_str() + at + 3), 200) << result.output;
}

TEST(ParclService, ClientExits120WhenServerAbsent) {
  CommandResult result = run_command(
      parcl() + " --client --socket /nonexistent-parcl.sock 'echo x' ::: a");
  EXPECT_EQ(result.exit_code, 120) << result.output;
  EXPECT_NE(result.output.find("is the server running?"), std::string::npos);
}

TEST(ParclService, ClientExits120WhenTheServerClosesWhileItWrites) {
  // A listener that answers CLIENT_HELLO with HELLO_ACK and closes: the
  // client's SUBMIT then writes to a closed link. The client inherits
  // SIGPIPE's default action from this process (an ignored SIGPIPE would
  // be inherited too and hide the fault), and must report the lost
  // connection instead of dying of the signal.
  namespace transport = parcl::exec::transport;
  struct sigaction deflt {}, saved {};
  deflt.sa_handler = SIG_DFL;
  ASSERT_EQ(::sigaction(SIGPIPE, &deflt, &saved), 0);
  const std::string path = ::testing::TempDir() + "parcl_cli_closing_" +
                           std::to_string(::getpid()) + ".sock";
  int listener = parcl::util::unix_listen(path);
  std::thread server([listener] {
    int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    transport::FrameDecoder decoder;
    std::optional<transport::Frame> hello;
    while (!(hello = decoder.next()) &&
           transport::read_some(fd, decoder) == transport::ReadStatus::kData) {
    }
    if (hello && hello->type == transport::FrameType::kClientHello) {
      transport::write_all(fd, transport::encode_hello_ack({}));
    }
    ::close(fd);
  });
  CommandResult result =
      run_command(parcl() + " --client --socket " + path + " echo ::: 1 2 3");
  ::shutdown(listener, SHUT_RDWR);  // wakes the accept if the client never came
  server.join();
  ::close(listener);
  ::unlink(path.c_str());
  ::sigaction(SIGPIPE, &saved, nullptr);
  EXPECT_EQ(result.exit_code, 120) << result.output;
  EXPECT_NE(result.output.find("connection to server lost"), std::string::npos)
      << result.output;
}

TEST(ParclService, Kill9ThenRestartReplaysEveryAckedJob) {
  // kill -9 the server mid-run with jobs acked but unfinished; a restart
  // over the same state dir must run exactly the remainder — the final
  // ledger holds every intake id exactly once.
  CommandResult result = run_command(
      "D=$(mktemp -d); " + parcl() + " --server --state-dir \"$D\" -j1 "
      "2>\"$D/log1\" & S=$!; "
      "for i in $(seq 100); do [ -S \"$D/parcl.sock\" ] && break; sleep 0.05; done; " +
      parcl() + " --client --socket \"$D/parcl.sock\" 'sleep 0.3; echo r{}' "
      "::: 1 2 3 4 >\"$D/client.out\" 2>&1 & C=$!; "
      "sleep 0.7; kill -9 $S; wait $C 2>/dev/null; " +
      parcl() + " --server --state-dir \"$D\" -j2 2>\"$D/log2\" & S=$!; "
      "for i in $(seq 200); do "
      "n=$(tail -n +2 \"$D/ledger.joblog\" 2>/dev/null | wc -l); "
      "[ \"$n\" -ge 4 ] && break; sleep 0.05; done; "
      "kill -TERM $S; wait $S; "
      "echo \"seqs=$(tail -n +2 \"$D/ledger.joblog\" | cut -f1 | sort -n | tr '\\n' ',')\"; "
      "grep -o 'replayed=[0-9]*' \"$D/log2\"; rm -rf \"$D\"");
  EXPECT_NE(result.output.find("seqs=1,2,3,4,"), std::string::npos)
      << result.output;
  // At -j1 with 0.3s jobs and a kill at 0.7s, at most 2 finished first.
  EXPECT_TRUE(result.output.find("replayed=2") != std::string::npos ||
              result.output.find("replayed=3") != std::string::npos)
      << result.output;
}

TEST(ParclService, ConfigErrorsExit255) {
  EXPECT_EQ(run_command(parcl() + " --server").exit_code, 255);
  EXPECT_EQ(run_command(parcl() + " --client 'echo x' ::: a").exit_code, 255);
  EXPECT_EQ(run_command(parcl() + " --server --client --state-dir /tmp/x")
                .exit_code,
            255);
  EXPECT_EQ(run_command(parcl() + " --server --state-dir /tmp/x echo hi")
                .exit_code,
            255);
  EXPECT_EQ(run_command(parcl() + " --tenant-weight 0 --client --socket /s "
                        "'echo x' ::: a")
                .exit_code,
            255);
  // A non-loopback TCP bind is arbitrary command execution for anyone who
  // can reach the port — refused without a shared secret.
  EXPECT_EQ(run_command(parcl() +
                        " --server --state-dir /tmp/x --listen 0.0.0.0:19777")
                .exit_code,
            255);
  // --token is a service-mode flag.
  EXPECT_EQ(run_command(parcl() + " --token s 'echo x' ::: a").exit_code, 255);
}

TEST(ParclCli, ClientRefusesRunOptionsItCannotApply) {
  // The client reads its input, expands each command, submits it and
  // collates the output. Every other run option is refused by name (exit
  // 255) before anything is submitted, never accepted and ignored.
  const std::vector<std::string> refused = {
      "--dry-run", "-n 2", "-X", "--max-chars 100", "-u", "--tag", "--tagstring x",
      "--env FOO=bar", "--no-shell", "--halt now,fail=1", "--joblog /tmp/j",
      "--joblog-fsync", "--results /tmp/r", "--resume", "--resume-failed",
      "--retries 2", "--retry-delay 1", "--timeout 1", "--termseq INT,100,KILL",
      "--delay 0.1", "--memfree 1M", "--load 8", "--hedge 2", "--shuf", "--progress",
      "--pipe", "--block 1k", "--colsep ,", "--trim lr", "--then echo",
      "--graph /tmp/g", "-S 2/:", "--pilot -S 2/:", "--sem", "--sshlogin-file /tmp/h",
      "--min-hosts 1", "--heartbeat-interval 1", "--reconnect 2"};
  for (const std::string& flags : refused) {
    const std::string flag = flags.substr(0, flags.find(' '));
    CommandResult result = run_command(
        parcl() + " --client --socket /nonexistent.sock " + flags + " 'echo x' ::: a");
    EXPECT_EQ(result.exit_code, 255) << flags << ": " << result.output;
    EXPECT_NE(result.output.find("--client cannot apply " + flag + " "),
              std::string::npos)
        << flags << ": " << result.output;
  }

  // Against a live server: a refused --dry-run starts no job, and every
  // accepted option runs and shapes the client's side as a local run would.
  CommandResult result = run_command(
      "D=$(mktemp -d); " + parcl() + " --server --state-dir \"$D\" -j2 "
      "2>\"$D/server.log\" & S=$!; "
      "for i in $(seq 100); do [ -S \"$D/parcl.sock\" ] && break; sleep 0.05; done; "
      "C=\"" + parcl() + " --client --socket $D/parcl.sock\"; "
      "printf 'p\\0q\\0' >\"$D/nul\"; "
      "$C --dry-run \"echo {} >> $D/F\" ::: a b 2>/dev/null; echo \"dry-run=$?\"; R=; "
      "$C -j2 -k echo ::: a b; R=$R$?; "
      "$C --jobs 2 --keep-order echo ::: c d; R=$R$?; "
      "$C --group echo ::: e; R=$R$?; "
      "$C -k --no-quote echo ::: 'f;echo g'; R=$R$?; "
      "$C -k -0 -a \"$D/nul\" echo nul-{}; R=$R$?; "
      "$C -k --null --arg-file \"$D/nul\" echo null-{}; R=$R$?; "
      "$C -k --link echo {1}{2} ::: h i ::: 1 2; R=$R$?; "
      "$C --tenant t --tenant-weight 2 echo ::: j; R=$R$?; "
      "kill -TERM $S; wait $S; echo \"accepted=$R\"; "
      "[ -e \"$D/F\" ] && echo ran-F || echo no-F; rm -rf \"$D\"");
  for (const char* expected :
       {"dry-run=255\n", "a\nb\nc\nd\ne\nf\ng\n", "nul-p\nnul-q\nnull-p\nnull-q\n",
        "h1\ni2\nj\n", "accepted=00000000\n", "no-F\n"}) {
    EXPECT_NE(result.output.find(expected), std::string::npos)
        << "missing '" << expected << "' in:\n" << result.output;
  }
}

TEST(ParclService, TokenGatesAdmission) {
  // Server with a token: a tokenless client is rejected (122, protocol/auth)
  // before any job runs; a matching client is served normally.
  CommandResult result = run_command(
      "D=$(mktemp -d); " + parcl() +
      " --server --state-dir \"$D\" -j2 --token hunter2 "
      "2>\"$D/server.log\" & S=$!; "
      "for i in $(seq 100); do [ -S \"$D/parcl.sock\" ] && break; sleep 0.05; done; " +
      parcl() + " --client --socket \"$D/parcl.sock\" 'echo no-{}' ::: a "
      ">\"$D/bad.out\" 2>&1; B=$?; " +
      parcl() + " --client --socket \"$D/parcl.sock\" --token hunter2 "
      "-k 'echo ok-{}' ::: a b; G=$?; "
      "kill -TERM $S; wait $S; "
      "echo \"bad=$B good=$G\"; cat \"$D/bad.out\"; rm -rf \"$D\"");
  EXPECT_NE(result.output.find("ok-a\nok-b\n"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("bad=122 good=0"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("authentication failed"), std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("no-a"), std::string::npos) << result.output;
}

}  // namespace
