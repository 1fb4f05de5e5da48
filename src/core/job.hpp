// Job descriptions and results flowing between the engine and executors.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace parcl::core {

/// A composed, ready-to-run job.
struct JobSpec {
  std::uint64_t seq = 0;                 // 1-based input order ({#})
  std::vector<std::string> args;         // raw argument values
  std::string command;                   // fully expanded command line
  std::map<std::string, std::string> env;  // expanded per-job environment
};

/// Why a job attempt ended.
enum class JobStatus {
  kSuccess,   // exit code 0
  kFailed,    // non-zero exit code
  kSignaled,  // terminated by a signal
  kTimedOut,  // killed by the engine's --timeout
  kKilled,    // killed by a --halt now policy
  kSkipped,   // never started (halt soon, or --resume)
  kDepSkipped,  // never started: a DAG predecessor failed and exhausted retries
};

const char* to_string(JobStatus status) noexcept;

/// Outcome of one job (after its final attempt).
struct JobResult {
  std::uint64_t seq = 0;
  std::size_t slot = 0;                  // 1-based slot that ran it
  /// DAG stage id (1-based; 0 = flat stream or unstaged graph node).
  std::size_t stage = 0;
  std::vector<std::string> args;         // the job's input argument values
  JobStatus status = JobStatus::kSkipped;
  int exit_code = 0;
  int term_signal = 0;
  std::size_t attempts = 0;
  double start_time = 0.0;               // executor clock, seconds
  double end_time = 0.0;
  std::string command;
  std::string stdout_data;
  std::string stderr_data;
  /// Host that ran the final attempt ("" = backend has no host notion). A
  /// rescheduled or hedged job records where it *actually* ran, not its
  /// first assignee.
  std::string host;

  bool ok() const noexcept { return status == JobStatus::kSuccess; }
  double runtime() const noexcept { return end_time - start_time; }
};

/// Dispatch hot-path accounting. Executors that launch real processes fill
/// the spawn/reap/poll fields; the engine fills the pressure/drain fields
/// on the RunSummary it returns. Quantifies the per-task overhead the
/// paper's launch-rate figures bound, and makes the robustness machinery
/// (--memfree/--load deferral, signal drain, --termseq escalation)
/// observable.
struct DispatchCounters {
  std::uint64_t spawns = 0;        // start() calls that produced a child
  std::uint64_t direct_execs = 0;  // shell-mode spawns that skipped /bin/sh
  std::uint64_t clone_vm_spawns = 0; // children that shared our memory until exec
  double spawn_seconds = 0.0;      // parent-side compose+spawn time
  std::uint64_t reaps = 0;         // children reaped (waitpid successes)
  std::uint64_t reap_sweeps = 0;   // fallback whole-table waitpid sweeps
  std::uint64_t polls = 0;         // poll() syscalls issued by wait_any()
  std::uint64_t poll_events = 0;   // fd events dispatched across all polls
  std::uint64_t exit_wakeups = 0;  // polls woken by a child-exit event
  double poll_wait_seconds = 0.0;  // time blocked inside poll()
  std::uint64_t deferred = 0;      // dispatch rounds deferred by --memfree/--load
  std::uint64_t drained = 0;       // jobs allowed to finish during a signal drain
  std::uint64_t escalated = 0;     // kill signals sent by --termseq escalation
  std::uint64_t host_failures = 0;   // completions classified as host (not job) failures
  std::uint64_t rescheduled = 0;     // attempts requeued free of --retries after host loss
  std::uint64_t hedges_launched = 0; // --hedge speculative duplicates started
  std::uint64_t hedges_won = 0;      // duplicates that finished first and were kept
  std::uint64_t hedges_lost = 0;     // duplicates discarded after the primary won
  std::uint64_t quarantines = 0;     // host quarantine transitions (backend-reported)

  /// Adds another counter set into this one, field by field: totals over
  /// several executors (the benchmark's traced run sums each executor's
  /// counters this way).
  void merge(const DispatchCounters& other) noexcept;

  /// Mean parent-side cost of one spawn, microseconds (0 when no spawns).
  double mean_spawn_us() const noexcept;

  /// Events dispatched per poll syscall (batching factor; 0 when no polls).
  double events_per_poll() const noexcept;

  /// Multi-line human-readable summary.
  std::string render() const;
};

/// Aggregate view of a completed run.
struct RunSummary {
  /// Per-job results indexed by seq-1. Empty when the engine ran with
  /// Options::collect_results == false (streaming runs that must stay
  /// constant-memory); the scalar tallies below are always filled.
  std::vector<JobResult> results;
  /// Jobs pulled from the source, including skipped ones (the streamed
  /// equivalent of "input size", known only once the source is exhausted).
  std::size_t total = 0;
  std::size_t succeeded = 0;
  std::size_t failed = 0;                // failed + signaled + timed out
  std::size_t killed = 0;
  std::size_t skipped = 0;
  /// The subset of `skipped` abandoned by a starved give-up (--min-hosts
  /// grace expiry). Kept apart from --resume/--halt skips: a resumed run
  /// that starves must not re-bill jobs a prior run already completed.
  std::size_t starved_skipped = 0;
  /// The subset of `skipped` cancelled by dependency-failure propagation
  /// (a --graph/stage-chain predecessor failed and exhausted its retries).
  /// Distinct from `failed` — these jobs never ran — but they still count
  /// against exit_status(): unfinished downstream work is not success.
  std::size_t dep_skipped = 0;
  bool halted = false;
  /// The --min-hosts grace expired and the run gave up on queued work; the
  /// abandoned tail is in `starved_skipped` and counts against
  /// exit_status() — losing work must never read as success.
  bool starved = false;
  /// Non-zero when a SIGINT/SIGTERM drain ended the run early; the CLI
  /// exits 128+N (130 for SIGINT, 143 for SIGTERM).
  int interrupt_signal = 0;
  /// Engine-side dispatch accounting (deferred/drained/escalated).
  DispatchCounters dispatch;
  double makespan = 0.0;                 // first start to last end
  double total_busy = 0.0;               // sum of job runtimes
  std::vector<double> start_times;       // dispatch instants, for rate studies

  /// Jobs started per second over the dispatch window (0 if < 2 starts).
  double dispatch_rate() const noexcept;

  /// Exit status with parallel's convention: number of failed jobs capped
  /// at 101.
  int exit_status() const noexcept;
};

}  // namespace parcl::core
