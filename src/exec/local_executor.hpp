// LocalExecutor: runs jobs as real child processes on this machine.
//
// Each job gets its own process group (so kill() reaches the whole shell
// pipeline), stdin from /dev/null, and — when capturing — a memory file
// (memfd_create) each for stdout and stderr. The child writes them without
// ever blocking; the dispatcher reads each whole once the child is reaped.
// As in GNU Parallel, which spools output to files, a job is done when its
// process exits: a background process that keeps the job's stdout open
// does not hold the job, and what it writes after the exit is dropped.
//
// The dispatch hot path is event-driven:
//   - children are spawned by clone_vm_spawn (exec/spawn_path.hpp): a
//     CLONE_VM child that the dispatcher neither copies its page tables for
//     nor waits on, and whose pidfd comes back from the clone. Everything it
//     reads before exec lives in its Child record until harvest, and its
//     stack comes from a pool and goes back at reap;
//   - posix_spawn (a vfork-class clone on glibc) is the fallback: on other
//     targets, in ASan/TSan builds, when the kernel refuses the clone, and
//     under SpawnTuning::Path::kPosixSpawn. It tries the same exec
//     candidates, runs a script without #! through /bin/sh, and, as the
//     CLONE_VM child does, hands a shell-mode job it cannot exec to
//     /bin/sh -c and ends a --no-shell one with exit 127;
//   - shell-mode commands free of metacharacters skip /bin/sh when their
//     first word is a path, or a bare name that sh would look up in the
//     job's PATH: not a built-in, a reserved word or an exported function;
//   - a job's --env variables replace inherited ones of the same name;
//   - each child's exit is observed through a pidfd (Linux pidfd_open),
//     falling back to a SIGCHLD self-pipe where pidfds are unavailable, so
//     a completion wakes wait_any() immediately and reaping costs O(exits)
//     — not O(children) — waitpid calls per wakeup;
//   - one edge-triggered epoll set holds the pidfds, the --pipe stdin write
//     ends and the self-pipe; readiness_fd() returns it, so a caller can
//     wait on job exits beside its own fds. Each fd is added once and never
//     removed: closing it is enough (see watch()). A pidfd is armed for its
//     one exit event only, unless a tracer holds that exit: then it stays
//     armed for the wake that hands the exit on;
//   - a memory file is read with one pread into a stack buffer, and fstat
//     sizes the rest only when that fills.
#pragma once

#include <signal.h>
#include <sys/types.h>

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>

#include "core/executor.hpp"
#include "core/profile.hpp"
#include "exec/host_probe.hpp"
#include "exec/spawn_path.hpp"

namespace parcl::exec {

/// How LocalExecutor creates children.
struct SpawnTuning {
  enum class Path {
    kAuto,        // clone_vm_spawn where the build and kernel have it, else posix_spawn
    kPosixSpawn,  // force the portable path (tests, benchmarks, debugging)
  };
  Path path = Path::kAuto;
};

class LocalExecutor final : public core::Executor {
 public:
  explicit LocalExecutor(SpawnTuning tuning = {});
  /// Kills (SIGKILL) and reaps any children still running.
  ~LocalExecutor() override;
  LocalExecutor(const LocalExecutor&) = delete;
  LocalExecutor& operator=(const LocalExecutor&) = delete;

  void start(const core::ExecRequest& request) override;
  std::optional<core::ExecResult> wait_any(double timeout_seconds) override;
  void kill(std::uint64_t job_id, bool force) override;
  /// Delivers the exact signal to the job's process group (--termseq).
  void kill_signal(std::uint64_t job_id, int sig) override;
  /// Host pressure from /proc (MemAvailable + 1-minute load average).
  core::ResourcePressure pressure() const override;
  std::size_t active_count() const override { return children_.size(); }
  double now() const override;
  /// The epoll set. In self-pipe mode, executors in one process share the
  /// pipe, and one may drain a byte another's set was woken for: wait_any()
  /// caps its own sleeps at 100 ms for that reason, and so should a caller
  /// that polls this fd beside other executors of the same process.
  int readiness_fd() const override { return epoll_fd_; }
  /// Reaped children not yet returned, children that may have exited before
  /// the self-pipe existed, or events a full epoll_wait left in the set.
  bool holds_completion() const override {
    return !ready_.empty() || need_sweep_ || events_left_;
  }

  const core::DispatchCounters* dispatch_counters() const noexcept override {
    return &counters_;
  }

  /// Dispatch hot-path accounting (spawn/reap/poll costs) for overhead
  /// studies and the BENCH_dispatch.json benches.
  const core::DispatchCounters& counters() const noexcept { return counters_; }

 private:
  struct Child {
    pid_t pid = -1;
    int pidfd = -1;   // -1 when pidfds are unavailable (self-pipe fallback)
    int out_fd = -1;  // memory file the child's stdout goes to; -1 when not capturing
    int err_fd = -1;
    int in_fd = -1;   // write end of the child's stdin pipe (--pipe mode)
    std::string out_buffer;  // the memory files' contents, read at reap
    std::string err_buffer;
    std::string in_buffer;       // pending stdin bytes
    std::size_t in_offset = 0;   // how much of in_buffer is already written
    double start_time = 0.0;
    double end_time = 0.0;       // recorded when the child is reaped
    bool reaped = false;
    // The pidfd fired before the exit could be reaped (a tracer holds it):
    // its entry is re-armed without EPOLLONESHOT (see dispatch_event()).
    bool exit_held = false;
    int wait_status = 0;
    // What the child reads before exec, from before the spawn until harvest,
    // and its CLONE_VM stack until reap (nullptr after posix_spawn).
    SpawnImage image;
    void* stack = nullptr;
  };

  // What an epoll event's data.u64 carries below the job id.
  enum class FdKind : std::uint64_t { kIn, kPidfd, kSelfPipe };
  static constexpr int kKindBits = 2;
  static constexpr int kMaxEvents = 64;  // events one epoll_wait takes
  static FdKind kind_of(std::uint64_t data) noexcept {
    return static_cast<FdKind>(data & ((1u << kKindBits) - 1));
  }

  core::ExecResult harvest(std::uint64_t job_id, Child& child);
  /// Writes pending stdin bytes; closes the pipe when drained or broken.
  void feed_stdin(Child& child);
  /// Records the child's exit status and completion time, reads and closes
  /// its memory files, closes its pidfd and any still-open stdin pipe,
  /// returns its stack to the pool, and queues it for harvest.
  void mark_reaped(std::uint64_t job_id, Child& child, int status);
  /// Fallback reaper: WNOHANG-waits every unreaped child (self-pipe mode).
  void sweep_unreaped();
  void dispatch_event(std::uint64_t data);

  /// Adds `fd` to the epoll set, edge-triggered. The fd is never removed:
  /// a sibling's CLONE_VM child holds a copy of every fd until it execs, so
  /// a closed fd can stay in the set for a moment. Edge triggering keeps
  /// such an entry from firing again on a state that did not change (an
  /// exited pidfd stays readable), and the handlers ignore a closed fd and
  /// a harvested job. A pidfd is added EPOLLONESHOT as well: the reap wakes
  /// it once more, and a lingering entry would report that as an event
  /// that reaps nothing. Returns false (errno set) when epoll_ctl fails.
  bool watch(int fd, std::uint32_t events, std::uint64_t job_id, FdKind kind);
  /// Re-arms `child`'s pidfd, edge-triggered and no longer one-shot, after
  /// its exit event found nothing to reap; throws SystemError on failure.
  void rearm_pidfd(std::uint64_t job_id, Child& child);
  /// Switches to the SIGCHLD self-pipe when pidfd_open is unavailable.
  void enable_self_pipe();

  std::unordered_map<std::uint64_t, Child> children_;
  std::deque<std::uint64_t> ready_;  // reaped, waiting to be harvested
  int epoll_fd_ = -1;

  bool use_self_pipe_ = false;  // pidfd_open unavailable on this kernel
  bool self_pipe_owner_ = false;
  bool need_sweep_ = false;  // children predate the self-pipe handler
  bool events_left_ = false;  // the last epoll_wait filled its event array

  struct sigaction saved_sigpipe_ {};
  bool sigpipe_saved_ = false;

  SpawnTuning tuning_;
  StackPool stacks_;

  double epoch_ = 0.0;
  core::DispatchCounters counters_;
  mutable HostProbe host_probe_;  // cached /proc reads for pressure()
};

}  // namespace parcl::exec
