// Spawn fast paths for LocalExecutor: clone3(CLONE_PIDFD) and a preforked
// zygote.
//
// posix_spawn + pidfd_open costs two syscalls per child and leaves a window
// where the child can exit (and its pid recycle) before the pidfd exists.
// clone3 with CLONE_PIDFD returns the child's pidfd atomically from the one
// syscall that creates it, closing the race and shaving the extra trip. The
// zygote goes further for shell-bypass-eligible (direct argv) commands: a
// tiny helper process forked while the parent is still small serves spawn
// requests over a SOCK_SEQPACKET socket, so every job forks from the
// zygote's small address space instead of the full parcl process — the
// classic fix for fork-cost growth on large-RSS launchers. The zygote's
// children are created with CLONE_PARENT, so they are the *parcl* process's
// own children: reaping, process-group kills, and pid stability work exactly
// as for directly spawned jobs.
//
// Everything here is Linux-specific and runtime-detected: on kernels
// without clone3 (or when seccomp blocks it) the callers fall back to
// posix_spawn transparently.
#pragma once

#include <sys/types.h>

#include <memory>
#include <optional>

namespace parcl::exec {

/// One prepared exec: argv/envp plus the stdio fds to install. The fd
/// fields are the *parent's* descriptors; -1 means "open /dev/null" for
/// stdin and "inherit the parent's stream" for stdout/stderr.
struct SpawnTarget {
  char* const* argv = nullptr;  // null-terminated; argv[0] resolved via PATH
  char* const* envp = nullptr;  // full child environment; nullptr = inherit
                                // (for zygote spawns: the environment the
                                // helper captured when it was forked)
  int stdin_fd = -1;
  int stdout_fd = -1;
  int stderr_fd = -1;
};

struct SpawnedChild {
  pid_t pid = -1;
  int pidfd = -1;  // CLONE_PIDFD result; owned by the caller
};

/// Spawns via clone3(CLONE_PIDFD) + execvpe, returning the child's pid and
/// pidfd from one syscall. Returns nullopt when clone3 is unavailable
/// (ENOSYS/EPERM/EINVAL — remembered, so later calls fail fast); throws
/// SystemError on a genuine spawn error. An exec failure inside the child
/// surfaces as the child exiting 127, the same observable the shell would
/// produce. The child gets its own process group and default SIGPIPE.
std::optional<SpawnedChild> clone3_spawn(const SpawnTarget& target);

/// True once clone3_spawn has succeeded at least once in this process.
bool clone3_spawn_available() noexcept;

/// Preforked spawn helper. One instance serves one LocalExecutor; the
/// instance is not thread-safe. Safe to create from any thread: the
/// helper's service loop is malloc-free (fixed buffers, pointer arrays into
/// the request datagram), so forking from a threaded process cannot
/// deadlock on allocator locks.
class Zygote {
 public:
  /// Forks the helper. Returns nullptr when the platform cannot support it
  /// (no clone3, socketpair failure) — callers then use the direct paths.
  static std::unique_ptr<Zygote> create();

  ~Zygote();
  Zygote(const Zygote&) = delete;
  Zygote& operator=(const Zygote&) = delete;

  /// Asks the helper to spawn `target`. Returns nullopt when this request
  /// cannot be served (command too large for the fixed buffers, helper
  /// gone) — the caller falls back to clone3/posix_spawn. On success the
  /// returned child is the *caller process's* child with a fresh pidfd.
  std::optional<SpawnedChild> spawn(const SpawnTarget& target);

  /// False once the helper has died or the socket broke; spawn() will only
  /// ever return nullopt from then on.
  bool alive() const noexcept { return sock_ >= 0; }

 private:
  Zygote() = default;
  void shutdown() noexcept;

  int sock_ = -1;         // SEQPACKET socket to the helper
  int devnull_ = -1;      // passed as stdin for jobs without one
  pid_t helper_pid_ = -1;
};

}  // namespace parcl::exec
