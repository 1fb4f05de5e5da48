// LocalExecutor: runs jobs as real child processes on this machine.
//
// Each job gets its own process group (so kill() reaches the whole shell
// pipeline), stdin from /dev/null, and — when capturing — pipes for stdout
// and stderr drained non-blockingly from wait_any()'s poll loop, so children
// writing more than a pipe buffer never deadlock.
//
// The dispatch hot path is event-driven:
//   - children are spawned with posix_spawn (vfork-class clone on glibc),
//     and shell-mode commands free of metacharacters skip /bin/sh entirely;
//   - each child's exit is observed through a pidfd in the poll set (Linux
//     pidfd_open), falling back to a SIGCHLD self-pipe where pidfds are
//     unavailable, so a completion wakes wait_any() immediately and reaping
//     costs O(exits) — not O(children) — waitpid calls per wakeup;
//   - the pollfd set is persistent and updated incrementally as pipes and
//     pidfds open and close, instead of being rebuilt every iteration.
#pragma once

#include <poll.h>
#include <signal.h>
#include <sys/types.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/executor.hpp"
#include "core/profile.hpp"
#include "exec/host_probe.hpp"
#include "exec/spawn_path.hpp"

namespace parcl::exec {

/// How LocalExecutor creates children.
struct SpawnTuning {
  enum class Path {
    kAuto,        // clone3(CLONE_PIDFD) when the kernel has it, else posix_spawn
    kPosixSpawn,  // force the portable path (benchmarks, debugging)
  };
  Path path = Path::kAuto;
  /// Route shell-bypass-eligible commands through a preforked zygote helper
  /// (--zygote): children fork from the helper's small address space instead
  /// of the full parcl process. Falls back transparently per spawn.
  bool zygote = false;
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

  const core::DispatchCounters* dispatch_counters() const noexcept override {
    return &counters_;
  }

  /// Dispatch hot-path accounting (spawn/reap/poll costs) for overhead
  /// studies and the BENCH_dispatch.json benches.
  const core::DispatchCounters& counters() const noexcept { return counters_; }

  /// Total dispatch time accumulated across start() calls.
  double spawn_seconds() const noexcept { return counters_.spawn_seconds; }

 private:
  struct Child {
    pid_t pid = -1;
    int pidfd = -1;   // -1 when pidfds are unavailable (self-pipe fallback)
    int out_fd = -1;  // -1 once closed / when not capturing
    int err_fd = -1;
    int in_fd = -1;   // write end of the child's stdin pipe (--pipe mode)
    // Slots of this child's fds in the persistent poll set (-1 = none).
    int pidfd_slot = -1;
    int out_slot = -1;
    int err_slot = -1;
    int in_slot = -1;
    std::string out_buffer;
    std::string err_buffer;
    std::string in_buffer;       // pending stdin bytes
    std::size_t in_offset = 0;   // how much of in_buffer is already written
    double start_time = 0.0;
    double end_time = 0.0;       // recorded when the child is reaped
    bool reaped = false;
    bool ready_queued = false;   // already pushed onto ready_
    int wait_status = 0;
  };

  enum class FdKind : unsigned char { kOut, kErr, kIn, kPidfd, kSelfPipe };
  struct PollMeta {
    std::uint64_t job_id = 0;
    FdKind kind = FdKind::kOut;
  };

  /// True when the child is fully finished (reaped and pipes drained).
  static bool finished(const Child& child) noexcept;
  core::ExecResult harvest(std::uint64_t job_id, Child& child);
  /// Reads everything currently available from one stream; closes at EOF.
  void drain_stream(Child& child, bool err_stream);
  /// Writes pending stdin bytes; closes the pipe when drained or broken.
  void feed_stdin(Child& child);
  /// Records the child's exit status and completion time; closes its pidfd
  /// and any still-open stdin pipe.
  void mark_reaped(Child& child, int status);
  /// Fallback reaper: WNOHANG-waits every unreaped child (self-pipe mode).
  void sweep_unreaped();
  /// Pushes the child onto ready_ once it transitions to finished.
  void maybe_finish(std::uint64_t job_id, Child& child);
  void dispatch_event(std::size_t slot, short revents);

  int add_poll_fd(int fd, short events, std::uint64_t job_id, FdKind kind);
  void remove_poll_fd(int& slot);
  void compact_poll_set();
  /// Switches to the SIGCHLD self-pipe when pidfd_open is unavailable.
  void enable_self_pipe();

  std::unordered_map<std::uint64_t, Child> children_;
  std::deque<std::uint64_t> ready_;  // finished, waiting to be harvested

  // Persistent poll set: pollfds_[i] is described by poll_meta_[i]; closed
  // slots are parked with fd = -1 (ignored by poll) and recycled.
  std::vector<pollfd> pollfds_;
  std::vector<PollMeta> poll_meta_;
  std::vector<int> free_slots_;

  bool use_self_pipe_ = false;  // pidfd_open unavailable on this kernel
  bool self_pipe_owner_ = false;
  int self_pipe_slot_ = -1;
  bool need_sweep_ = false;  // children predate the self-pipe handler

  struct sigaction saved_sigpipe_ {};
  bool sigpipe_saved_ = false;

  SpawnTuning tuning_;
  std::unique_ptr<Zygote> zygote_;
  bool zygote_tried_ = false;  // create() attempted (it may have failed)

  double epoch_ = 0.0;
  core::DispatchCounters counters_;
  mutable HostProbe host_probe_;  // cached /proc reads for pressure()
};

}  // namespace parcl::exec
