#include "exec/spawn_path.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdint>

#include "util/error.hpp"

#ifndef SYS_clone3
#define SYS_clone3 435  // same number on every architecture (post-unification)
#endif
#ifndef CLONE_PIDFD
#define CLONE_PIDFD 0x00001000
#endif

extern char** environ;

namespace parcl::exec {

namespace {

// Hand-rolled clone_args so the build does not depend on <linux/sched.h>
// being new enough. This is CLONE_ARGS_SIZE_VER0: the kernel accepts any
// prefix it knows, and 64 bytes is understood by every clone3-capable
// kernel.
struct Clone3Args {
  std::uint64_t flags;
  std::uint64_t pidfd;  // pointer to int receiving the CLONE_PIDFD fd
  std::uint64_t child_tid;
  std::uint64_t parent_tid;
  std::uint64_t exit_signal;
  std::uint64_t stack;
  std::uint64_t stack_size;
  std::uint64_t tls;
};
static_assert(sizeof(Clone3Args) == 64, "must match CLONE_ARGS_SIZE_VER0");

// Set once clone3 is refused (ENOSYS / seccomp EPERM / EINVAL).
std::atomic<bool> g_clone3_disabled{false};

// Plain-fork semantics (no CLONE_VM): the child is a full copy, safe to run
// C in. The pidfd lands in *pidfd_out atomically with process creation, and
// the kernel opens it O_CLOEXEC.
pid_t raw_clone3(int* pidfd_out) noexcept {
  Clone3Args args{};
  args.flags = CLONE_PIDFD;
  args.pidfd = reinterpret_cast<std::uint64_t>(pidfd_out);
  args.exit_signal = SIGCHLD;
  return static_cast<pid_t>(::syscall(SYS_clone3, &args, sizeof(args)));
}

// Between clone3 and exec the child must stay async-signal-safe: syscall
// wrappers only, no allocation (the parent is multi-threaded, so a copied
// allocator lock could be held forever). glibc's execvpe builds candidate
// paths on the stack, so the PATH walk is safe too.
[[noreturn]] void exec_in_child(const SpawnTarget& target) noexcept {
  ::setpgid(0, 0);
  ::signal(SIGPIPE, SIG_DFL);
  sigset_t none;
  sigemptyset(&none);
  ::sigprocmask(SIG_SETMASK, &none, nullptr);
  int in = target.stdin_fd;
  if (in < 0) in = ::open("/dev/null", O_RDONLY);
  if (in >= 0 && in != 0) ::dup2(in, 0);
  if (target.stdout_fd >= 0 && target.stdout_fd != 1) ::dup2(target.stdout_fd, 1);
  if (target.stderr_fd >= 0 && target.stderr_fd != 2) ::dup2(target.stderr_fd, 2);
  char* const* envp = target.envp != nullptr ? target.envp : environ;
  ::execvpe(target.argv[0], const_cast<char* const*>(target.argv), envp);
  ::_exit(127);  // same observable as "sh: command not found"
}

}  // namespace

std::optional<SpawnedChild> clone3_spawn(const SpawnTarget& target) {
  if (g_clone3_disabled.load(std::memory_order_relaxed)) return std::nullopt;
  int pidfd = -1;
  pid_t pid = raw_clone3(&pidfd);
  if (pid < 0) {
    // EINVAL covers kernels that know clone3 but reject CLONE_PIDFD via it;
    // EPERM is the usual seccomp verdict. All mean "use posix_spawn forever".
    if (errno == ENOSYS || errno == EPERM || errno == EINVAL) {
      g_clone3_disabled.store(true, std::memory_order_relaxed);
      return std::nullopt;
    }
    throw util::SystemError("clone3", errno);
  }
  if (pid == 0) exec_in_child(target);
  return SpawnedChild{pid, pidfd};
}

}  // namespace parcl::exec
