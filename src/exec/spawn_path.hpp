// Spawn fast path for LocalExecutor: clone3(CLONE_PIDFD).
//
// posix_spawn + pidfd_open costs two syscalls per child and leaves a window
// where the child can exit (and its pid recycle) before the pidfd exists.
// clone3 with CLONE_PIDFD returns the child's pidfd atomically from the one
// syscall that creates it, closing the race and shaving the extra trip.
//
// Everything here is Linux-specific and runtime-detected: on kernels
// without clone3 (or when seccomp blocks it) the callers fall back to
// posix_spawn transparently.
#pragma once

#include <sys/types.h>

#include <optional>

namespace parcl::exec {

/// One prepared exec: argv/envp plus the stdio fds to install. The fd
/// fields are the *parent's* descriptors; -1 means "open /dev/null" for
/// stdin and "inherit the parent's stream" for stdout/stderr.
struct SpawnTarget {
  char* const* argv = nullptr;  // null-terminated; argv[0] resolved via PATH
  char* const* envp = nullptr;  // full child environment; nullptr = inherit
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
/// produce. The child gets its own process group, default SIGPIPE and an
/// empty signal mask.
std::optional<SpawnedChild> clone3_spawn(const SpawnTarget& target);

}  // namespace parcl::exec
