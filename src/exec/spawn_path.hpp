// Spawn fast path for LocalExecutor: clone(CLONE_VM | CLONE_PIDFD) without
// CLONE_VFORK.
//
// The child shares the dispatcher's memory until it execs, and the
// dispatcher does not wait for it. So it pays neither cost of the usual
// ways to start a child: fork copies the dispatcher's page tables (and each
// later write to a shared page faults), and vfork, which posix_spawn uses,
// stops the dispatcher until the child has exec'd. The child's pidfd comes
// back from the same syscall.
//
// Because the dispatcher runs on while the child runs in its memory, the
// child keeps these rules:
//   - It reads only a SpawnImage that the caller owns and keeps in place
//     until the child is reaped. The spawning frame is popped, and reused by
//     the next spawn, before the child gets to exec.
//   - It writes nothing but its own stack. Stacks come from a StackPool and
//     go back at reap.
//   - It makes only raw syscalls. A libc wrapper sets errno, and errno, like
//     the rest of the thread control block, is the dispatcher thread's.
//   - It neither allocates nor builds strings: the parent lays out every
//     exec candidate, the /bin/sh argv for each, and a shell-mode job's
//     /bin/sh -c argv for when none execs, before the clone.
//   - It gets every signal blocked and resets each caught handler to SIG_DFL
//     before it unblocks. Its handler table is a copy (no CLONE_SIGHAND), but
//     the handlers' code and data are the dispatcher's: a handler run in the
//     child would write the dispatcher's state.
//
// Other targets, and ASan or TSan builds (which cannot follow such a
// child), have no fast path: clone_vm_spawn() returns nullopt and the caller
// uses posix_spawn.
#pragma once

#include <sys/types.h>

#include <array>
#include <cerrno>
#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PARCL_SANITIZED_BUILD 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PARCL_SANITIZED_BUILD 1
#endif

#if defined(__linux__) && (defined(__x86_64__) || defined(__aarch64__)) && \
    !defined(PARCL_SANITIZED_BUILD)
#define PARCL_CLONE_VM_SPAWN 1
#else
#define PARCL_CLONE_VM_SPAWN 0
#endif

namespace parcl::exec {

/// True when this build has the CLONE_VM fast path.
inline constexpr bool kCloneVmSpawn = PARCL_CLONE_VM_SPAWN != 0;

/// The plain pointers a CLONE_VM child reads: it touches no container.
struct ChildPlan {
  char* const* argv = nullptr;        // null-terminated
  char* const* envp = nullptr;        // null-terminated
  char* const* candidates = nullptr;  // paths to exec, in execvpe order
  char* const* script_argvs = nullptr;  // one per candidate, script_stride apart
  std::size_t script_stride = 0;
  char* const* shell_argv = nullptr;  // exec'd when no candidate is; nullptr = exit 127
  int stdin_fd = -1;   // parent's fd; -1 = /dev/null
  int stdout_fd = -1;  // -1 = inherit the parent's stream
  int stderr_fd = -1;
};

/// Everything a child reads before it execs. The arrays point into this
/// object's strings and into the inherited environment, so the owner keeps
/// it alive and unmoved until the child is reaped.
struct SpawnImage {
  SpawnImage() = default;
  SpawnImage(const SpawnImage&) = delete;  // a child may hold its address
  SpawnImage& operator=(const SpawnImage&) = delete;

  std::vector<std::string> words;    // argv strings
  std::vector<std::string> job_env;  // "KEY=VALUE" for the job's variables
  std::vector<char*> argv;           // null-terminated, into words
  /// Null-terminated: the inherited entries whose key the job does not set,
  /// then job_env.
  std::vector<char*> envp;
  // Laid out by lay_out_candidates():
  std::string paths;                // PATH candidates, NUL-separated
  /// Null-terminated paths to exec, in execvpe order: argv[0] if it has a
  /// slash, else into `paths`.
  std::vector<char*> candidates;
  /// Per candidate, the execvpe retry for ENOEXEC:
  /// {"/bin/sh", candidate, argv[1..], nullptr}.
  std::vector<char*> script_argvs;
  // Set by hand_failures_to_shell():
  std::string command;
  std::array<char*, 4> shell_argv{};  // {"/bin/sh", "-c", command, nullptr}
  ChildPlan plan;  // the child's view; its fds are set by the caller
};

/// Fills a fresh image's words/argv/job_env/envp. A job variable replaces
/// an inherited one of the same name instead of following it, so getenv()
/// in the child sees the job's value.
void compose_image(SpawnImage& image, std::vector<std::string> words,
                   const std::map<std::string, std::string>& env);

/// Lays out argv[0]'s exec candidates as execvpe searches them (argv[0]
/// itself if it has a slash, else each entry of the job's PATH: the one in
/// its envp, or /bin:/usr/bin when it has none), the /bin/sh argv for each,
/// and the plan's pointers. Both spawn paths try the candidates in this
/// order.
void lay_out_candidates(SpawnImage& image);

/// For a shell-mode job that skipped /bin/sh: when no candidate execs, the
/// child runs `/bin/sh -c command` instead of ending with exit 127, so the
/// job fails as it would have through the shell (its message, 126 or 127).
/// A successful exec never gets there.
void hand_failures_to_shell(SpawnImage& image, std::string command);

/// Errors after which execvpe tries the next PATH candidate.
constexpr bool try_next_candidate(long err) noexcept {
  return err == EACCES || err == ENOENT || err == ESTALE || err == ENOTDIR ||
         err == ENODEV || err == ETIMEDOUT;
}

/// Child stacks: mmap'd on first need, each above a PROT_NONE guard page,
/// and reused last-in first-out. Nothing here touches a stack, so one costs
/// memory only for the pages a child writes.
class StackPool {
 public:
  StackPool() = default;
  ~StackPool();
  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;

  /// The top (highest address) of a free stack; nullptr if mmap fails.
  void* acquire() noexcept;
  /// Returns a stack whose child has been reaped.
  void release(void* top) noexcept;

 private:
  std::vector<void*> free_;  // tops
};

struct SpawnedChild {
  pid_t pid = -1;
  int pidfd = -1;  // CLONE_PIDFD result (O_CLOEXEC); -1 if the kernel gave none
};

/// Starts `image`, its candidates laid out, in a CLONE_VM child running on
/// `stack_top`. `image` and the stack must stay untouched until the child
/// is reaped. Returns nullopt when this build has no fast path or the
/// kernel refuses the clone (ENOSYS, EPERM, EINVAL), so the caller falls
/// back to posix_spawn; throws SystemError on any other failure. When no
/// candidate execs, the child execs the plan's shell_argv, or ends with
/// exit 127, as from a shell's "command not found", when it has none.
std::optional<SpawnedChild> clone_vm_spawn(SpawnImage& image, void* stack_top);

}  // namespace parcl::exec
