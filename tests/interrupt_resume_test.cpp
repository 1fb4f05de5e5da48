// Crash-safe resume soak: SIGKILL a real 500-job `parcl --joblog L --resume
// -k` run at seeded kill points, resume it, and verify the contract the
// joblog write-ahead ordering promises:
//   - the resumed run re-runs exactly the seqs missing from the joblog,
//     emitting their outputs in input order (-k),
//   - after the pair, the joblog covers every seq exactly once (zero
//     duplicated seqs),
//   - the --results tree is byte-identical to an uninterrupted run's.
// Kill delays are derived from a seeded Rng scaled by the measured duration
// of the reference run, so the points land mid-run on fast and slow
// machines alike. Override the seed with PARCL_RESUME_SEED to widen a soak.
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/joblog.hpp"
#include "util/rng.hpp"

namespace {

namespace fs = std::filesystem;
using namespace parcl;

constexpr std::size_t kTotalJobs = 500;
constexpr int kKillPoints = 20;

struct TempDir {
  fs::path path;
  TempDir() {
    char tmpl[] = "/tmp/parcl_resume_XXXXXX";
    char* made = mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path = made;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The invocation under test. Both halves of every pair use the exact same
/// argv — the first run simply finds no joblog to resume from.
std::vector<std::string> parcl_argv(const fs::path& dir) {
  std::vector<std::string> args = {
      PARCL_BINARY_PATH,
      "-j", "16",
      "-k",
      "--joblog", (dir / "joblog").string(),
      "--resume",
      "--results", (dir / "results").string(),
      "sleep", "0.004;", "echo", "job-{}",
      ":::"};
  for (std::size_t n = 1; n <= kTotalJobs; ++n) args.push_back(std::to_string(n));
  return args;
}

pid_t spawn_parcl(const std::vector<std::string>& args, const fs::path& stdout_path) {
  pid_t pid = fork();
  if (pid == 0) {
    int out = open(stdout_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    int devnull = open("/dev/null", O_WRONLY);
    if (out < 0 || devnull < 0) _exit(126);
    dup2(out, STDOUT_FILENO);
    dup2(devnull, STDERR_FILENO);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    _exit(127);
  }
  return pid;
}

int wait_for(pid_t pid) {
  int status = 0;
  waitpid(pid, &status, 0);
  return status;
}

std::uint64_t seed_from_env() {
  const char* env = std::getenv("PARCL_RESUME_SEED");
  if (env == nullptr || *env == '\0') return 0xC0FFEEULL;
  return std::strtoull(env, nullptr, 0);
}

}  // namespace

TEST(InterruptResume, SigkillAtSeededPointsResumesExactlyUnloggedSeqs) {
  // Reference: the same invocation run to completion, for output bytes,
  // the --results tree, and the wall-clock window the kill points scale to.
  TempDir ref;
  auto ref_start = std::chrono::steady_clock::now();
  int status = wait_for(spawn_parcl(parcl_argv(ref.path), ref.path / "out"));
  double ref_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - ref_start)
                           .count();
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "reference run failed, status " << status;

  std::ostringstream full_output;
  std::map<std::uint64_t, std::string> ref_results;
  for (std::size_t n = 1; n <= kTotalJobs; ++n) {
    full_output << "job-" << n << "\n";
    ref_results[n] = slurp(ref.path / "results" / std::to_string(n) / "stdout");
  }
  ASSERT_EQ(slurp(ref.path / "out"), full_output.str());

  util::Rng rng(seed_from_env());
  std::size_t interrupted_mid_run = 0;
  for (int point = 0; point < kKillPoints; ++point) {
    TempDir dir;
    std::vector<std::string> args = parcl_argv(dir.path);

    // First half: SIGKILL parcl partway through the reference duration.
    double delay = ref_seconds * rng.uniform(0.05, 0.9);
    pid_t pid = spawn_parcl(args, dir.path / "out1");
    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    ::kill(pid, SIGKILL);
    status = wait_for(pid);
    bool killed = WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
    // The run may have finished before the kill landed; that pair still
    // exercises the resume-of-a-complete-log path.
    if (killed) ++interrupted_mid_run;

    std::set<std::uint64_t> logged;
    core::JoblogReadStats stats;
    try {
      for (const core::JoblogEntry& entry :
           core::read_joblog((dir.path / "joblog").string(), &stats)) {
        EXPECT_TRUE(logged.insert(entry.seq).second)
            << "kill point " << point << ": seq " << entry.seq
            << " logged twice before the resume";
      }
    } catch (const std::exception&) {
      // Killed before the joblog was created: everything re-runs.
    }
    // A process SIGKILL cannot tear the single-write O_APPEND records.
    EXPECT_EQ(stats.torn_lines, 0u) << "kill point " << point;
    // Write-ahead: every logged seq already has its output in out1, -k
    // holding it or not.
    std::set<std::string> printed;
    std::istringstream out1(slurp(dir.path / "out1"));
    for (std::string line; std::getline(out1, line);) printed.insert(line);
    for (std::uint64_t seq : logged) {
      EXPECT_EQ(printed.count("job-" + std::to_string(seq)), 1u)
          << "kill point " << point << ": seq " << seq
          << " logged before the kill but its output is not in out1";
    }

    // Second half: identical invocation, resumed.
    status = wait_for(spawn_parcl(args, dir.path / "out2"));
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "kill point " << point << ": resume run failed, status " << status;

    // The resume emits exactly the unlogged seqs, in input order.
    std::ostringstream expected;
    for (std::size_t n = 1; n <= kTotalJobs; ++n) {
      if (logged.count(n) == 0) expected << "job-" << n << "\n";
    }
    EXPECT_EQ(slurp(dir.path / "out2"), expected.str())
        << "kill point " << point << " (killed after " << delay << "s, "
        << logged.size() << " seqs logged)";

    // Zero duplicated seqs: the pair's joblog covers 1..N exactly once.
    std::map<std::uint64_t, int> rows;
    for (const core::JoblogEntry& entry :
         core::read_joblog((dir.path / "joblog").string())) {
      ++rows[entry.seq];
    }
    EXPECT_EQ(rows.size(), kTotalJobs) << "kill point " << point;
    for (const auto& [seq, count] : rows) {
      EXPECT_EQ(count, 1) << "kill point " << point << ": seq " << seq
                          << " ran " << count << " times across the pair";
    }

    // The --results tree matches the uninterrupted run byte for byte.
    for (std::size_t n = 1; n <= kTotalJobs; ++n) {
      ASSERT_EQ(slurp(dir.path / "results" / std::to_string(n) / "stdout"),
                ref_results[n])
          << "kill point " << point << ": results diverge at seq " << n;
    }
  }
  // The scaled delays must actually interrupt most runs; a machine so fast
  // that nothing is ever caught mid-run would make this soak vacuous.
  EXPECT_GE(interrupted_mid_run, static_cast<std::size_t>(kKillPoints / 2))
      << "only " << interrupted_mid_run << "/" << kKillPoints
      << " kill points landed mid-run";
}
