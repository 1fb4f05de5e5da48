// Executor: where composed jobs actually run.
//
// The engine is single-threaded and executor-agnostic. It starts jobs,
// blocks in wait_any() for the next completion (or lets its caller poll the
// executor's readiness_fd() beside other fds), and reads time through the
// executor's clock — so the same engine drives real child processes
// (exec::LocalExecutor), in-process functions (exec::FunctionExecutor), and
// discrete-event simulations (exec::SimExecutor) without change.
#pragma once

#include <csignal>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

namespace parcl::core {

/// What the engine hands to an executor.
/// Every Executor takes job ids below this: LocalExecutor tags its epoll
/// events with the id shifted past two bits.
constexpr std::uint64_t kJobIdLimit = 1ull << 62;

struct ExecRequest {
  std::uint64_t job_id = 0;  // engine-chosen, unique per attempt
  std::string command;       // expanded command line
  std::map<std::string, std::string> env;  // extra environment
  std::size_t slot = 0;      // 1-based slot, for executors that care
  bool use_shell = true;     // run via /bin/sh -c
  bool capture_output = true;
  /// The child's whole stdin (--pipe mode): LocalExecutor hands it over as
  /// a memory file read from offset 0. has_stdin=false means stdin is
  /// /dev/null.
  std::string stdin_data;
  bool has_stdin = false;
};

/// What comes back from wait_any().
struct ExecResult {
  std::uint64_t job_id = 0;
  int exit_code = 0;    // valid when term_signal == 0
  int term_signal = 0;  // non-zero when killed by a signal
  std::string stdout_data;
  std::string stderr_data;
  double start_time = 0.0;  // executor clock
  double end_time = 0.0;
  /// Host that actually ran the attempt ("" = backend has no host notion;
  /// the joblog then records ":", this machine).
  std::string host;
  /// The attempt died with the *host*, not the job: spawn/transport errors,
  /// wrapper exit 255, or an in-flight loss to quarantine. The engine
  /// requeues such attempts onto a healthy host without charging --retries.
  bool host_failure = false;
};

/// Snapshot of backend resource pressure for the --memfree/--load dispatch
/// guards. Negative fields mean "unknown: do not gate on this".
struct ResourcePressure {
  double mem_free_bytes = -1.0;  // allocatable memory on the host/node
  double load_avg = -1.0;        // 1-minute load average (or sim analog)
};

class Executor {
 public:
  virtual ~Executor() = default;

  /// Begins a job. Throws SystemError when the job cannot even be spawned.
  virtual void start(const ExecRequest& request) = 0;

  /// Blocks until a started job completes or `timeout_seconds` passes,
  /// returning nullopt on timeout. timeout_seconds < 0 waits indefinitely
  /// while jobs are active. With no active jobs, a non-negative timeout
  /// still sleeps it out (the engine uses this to honour --delay); a
  /// negative timeout returns nullopt immediately.
  virtual std::optional<ExecResult> wait_any(double timeout_seconds) = 0;

  /// Best-effort termination. `force` escalates (SIGTERM -> SIGKILL). The
  /// job still completes through wait_any() with its death recorded.
  virtual void kill(std::uint64_t job_id, bool force) = 0;

  /// Sends an arbitrary signal to the job (--termseq escalation stages).
  /// The default maps onto kill(): SIGKILL forces, anything else is the
  /// polite termination. Real-process executors override to deliver the
  /// exact signal to the job's process group.
  virtual void kill_signal(std::uint64_t job_id, int sig) {
    kill(job_id, sig == SIGKILL);
  }

  /// Backend pressure snapshot for the --memfree/--load guards. The default
  /// reports "unknown", which disables gating.
  virtual ResourcePressure pressure() const { return {}; }

  /// Whether dispatch to this slot is currently allowed. Health-aware
  /// backends veto slots on quarantined hosts; the scheduler then treats
  /// those slots as occupied until the host is reinstated.
  virtual bool slot_usable(std::size_t slot) const {
    (void)slot;
    return true;
  }

  /// Whether two slots share a failure domain (same host/node). --hedge
  /// only duplicates onto a *different* domain; the default true disables
  /// hedging on single-host backends.
  virtual bool same_failure_domain(std::size_t a, std::size_t b) const {
    (void)a;
    (void)b;
    return true;
  }

  /// Current total slot count for elastic backends whose host set can grow
  /// at runtime (a watched --sshlogin-file adding hosts mid-run). The
  /// scheduler re-reads this every loop iteration and grows its slot pool
  /// to match; slot ids are never reclaimed, so the count only rises —
  /// removed hosts leave tombstone slots vetoed via slot_usable(). 0 (the
  /// default) means the backend is static and the pool stays at -j.
  virtual std::size_t slot_capacity() const { return 0; }

  /// Hosts currently able to accept dispatch, for the --min-hosts floor.
  /// Elastic backends report their live (non-removed, non-draining) host
  /// count; the default 1 means "this backend never runs out of hosts".
  virtual std::size_t live_host_count() const { return 1; }

  /// An fd a caller may poll(2) or epoll for readable instead of sleeping in
  /// wait_any(), or -1 (the default) when the backend has none. Once
  /// wait_any(0) has returned nullopt, or holds_completion() is false, the
  /// fd polls readable whenever a later wait_any(0) has work to do: a
  /// completion to return, or an event to handle. It may also poll readable
  /// with nothing to do.
  virtual int readiness_fd() const { return -1; }

  /// Whether wait_any(0) may return a completion that readiness_fd() will
  /// not report: one an earlier wait took off the fd and still holds. A
  /// caller that sleeps on the fd takes these first. The default, true,
  /// makes such a caller ask wait_any(0) until it comes back empty; the
  /// service loop (serve()) does not sleep while it holds, so an executor
  /// with a readiness fd that runs under it overrides this.
  virtual bool holds_completion() const { return true; }

  /// Jobs started but not yet returned by wait_any().
  virtual std::size_t active_count() const = 0;

  /// The executor's clock, in seconds. Monotonic wall time for real
  /// executors, simulation time for simulated ones.
  virtual double now() const = 0;

  // ---- Thread-safety contract ----------------------------------------------
  // An Executor instance is single-threaded: start/wait_any/kill/kill_signal
  // must all be called from one thread at a time, and no call may overlap
  // another. The engine drives one instance from its single dispatch loop.

  /// No engine calls this, and every backend keeps the nullptr default. It
  /// stays only because the benchmark's timing decorator (perfbench/trace.cpp)
  /// still overrides it; drop it once that override is gone.
  virtual std::unique_ptr<Executor> make_shard() { return nullptr; }

  /// Backend-side dispatch counters (spawn/reap/poll costs), or nullptr when
  /// the backend keeps none. Lets a caller holding only the Executor
  /// interface read them (a decorator forwards its backend's).
  virtual const struct DispatchCounters* dispatch_counters() const { return nullptr; }
};

}  // namespace parcl::core
