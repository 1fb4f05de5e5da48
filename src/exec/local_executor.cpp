#include "exec/local_executor.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/epoll.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string_view>
#include <utility>

#include "exec/spawn_path.hpp"
#include "util/error.hpp"
#include "util/shell.hpp"

namespace parcl::exec {

namespace {

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_cloexec(int fd) {
  int flags = fcntl(fd, F_GETFD, 0);
  if (flags >= 0) fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

void close_fd(int& fd) {
  if (fd >= 0) close(fd);
  fd = -1;
}

/// pidfd_open(2) via syscall(2): glibc grew a wrapper only in 2.36.
int pidfd_open_compat(pid_t pid) {
#if defined(SYS_pidfd_open)
  return static_cast<int>(syscall(SYS_pidfd_open, pid, 0));
#else
  (void)pid;
  errno = ENOSYS;
  return -1;
#endif
}

/// pread(2) retried on EINTR.
ssize_t pread_retry(int fd, char* buffer, std::size_t size, std::size_t offset) {
  ssize_t n;
  do {
    n = pread(fd, buffer, size, static_cast<off_t>(offset));
  } while (n < 0 && errno == EINTR);
  return n;
}

/// A memory file holding `data` from offset 0, for a child's stdin. Throws
/// SystemError when it cannot be made or filled.
int memory_file_holding(const std::string& data) {
  int fd = memfd_create("parcl-stdin", MFD_CLOEXEC);
  if (fd < 0) throw util::SystemError("memfd_create", errno);
  std::size_t written = 0;
  while (written < data.size()) {
    ssize_t n = pwrite(fd, data.data() + written, data.size() - written,
                       static_cast<off_t>(written));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      int error = n < 0 ? errno : EIO;
      close(fd);
      throw util::SystemError("pwrite", error);
    }
    written += static_cast<std::size_t>(n);
  }
  return fd;
}

/// Reads a memory file whole into `sink`, then closes it. Most outputs fit
/// the stack buffer and cost one pread; only a full buffer asks fstat for
/// the size of the rest.
void take_memory_file(int& fd, std::string& sink) {
  if (fd < 0) return;
  char buffer[16384];
  ssize_t n = pread_retry(fd, buffer, sizeof(buffer), 0);
  if (n > 0) sink.assign(buffer, static_cast<std::size_t>(n));
  struct stat st {};
  if (n == static_cast<ssize_t>(sizeof(buffer)) && fstat(fd, &st) == 0 &&
      static_cast<std::size_t>(st.st_size) > sink.size()) {
    std::size_t got = sink.size();
    sink.resize(static_cast<std::size_t>(st.st_size));
    while (got < sink.size()) {
      n = pread_retry(fd, sink.data() + got, sink.size() - got, got);
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
    }
    sink.resize(got);
  }
  close_fd(fd);
}

/// Once pidfd_open reports ENOSYS we stop retrying it for the process.
/// Atomic: in-process pilot workers each run a LocalExecutor on their own
/// thread and consult it concurrently.
std::atomic<bool>& pidfd_disabled() {
  static std::atomic<bool> disabled{false};
  return disabled;
}

// SIGCHLD self-pipe, shared by every LocalExecutor that needs the fallback.
// The handler only writes one byte; all reaping happens in wait_any().
int g_self_pipe_read = -1;
int g_self_pipe_write = -1;
int g_self_pipe_users = 0;
struct sigaction g_saved_sigchld;

void sigchld_self_pipe_handler(int) {
  int saved_errno = errno;
  char byte = 0;
  [[maybe_unused]] ssize_t n = write(g_self_pipe_write, &byte, 1);
  errno = saved_errno;
}

/// The first word of a shell-mode command made only of plain words, built
/// from characters the shell never interprets; empty when the command has
/// any other character, or no word.
std::string_view plain_first_word(const std::string& command) {
  std::size_t begin = command.find_first_not_of(' ');
  if (begin == std::string::npos) return {};
  std::size_t end = std::min(command.find(' ', begin), command.size());
  for (std::size_t i = begin; i < command.size(); ++i) {
    char c = command[i];
    if (c == ' ') continue;
    bool plain = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                 c == '_' || c == '-' || c == '+' || c == ':' || c == ',' ||
                 c == '.' || c == '/' || c == '%' || c == '@' || c == '^';
    // '=' is safe in arguments but a variable assignment in the first word.
    if (!plain && !(c == '=' && i > end)) return {};
  }
  return std::string_view(command).substr(begin, end - begin);
}

/// The built-ins and reserved words of POSIX sh, dash and bash (/bin/sh is
/// dash on Debian, bash on RHEL and SLES), sorted. sh runs these itself,
/// though some (echo, printf, kill, test, true) are binaries too and act
/// differently there. Words with a metacharacter ([, [[, !, {) never reach
/// the lookup.
constexpr std::string_view kShellWords[] = {
    ".",        ":",       "alias",    "bg",       "bind",     "break",
    "builtin",  "caller",  "case",     "cd",       "chdir",    "command",
    "compgen",  "complete", "compopt", "continue", "coproc",   "declare",
    "dirs",     "disown",  "do",       "done",     "echo",     "elif",
    "else",     "enable",  "esac",     "eval",     "exec",     "exit",
    "export",   "false",   "fc",       "fg",       "fi",       "for",
    "function", "getopts", "hash",     "help",     "history",  "if",
    "in",       "jobs",    "kill",     "let",      "local",    "logout",
    "mapfile",  "popd",    "printf",   "pushd",    "pwd",      "read",
    "readarray", "readonly", "return", "select",   "set",      "shift",
    "shopt",    "source",  "suspend",  "test",     "then",     "time",
    "times",    "trap",    "true",     "type",     "typeset",  "ulimit",
    "umask",    "unalias", "unset",    "until",    "wait",     "while",
};
static_assert(std::is_sorted(std::begin(kShellWords), std::end(kShellWords)));

/// True when `sh -c` would run the bare command `name` from the job's PATH:
/// it is no built-in or reserved word, the job's environment (inherited or
/// --env) exports no function of that name, which a bash /bin/sh would
/// import, and the job has a PATH to search.
bool runs_from_path(std::string_view name,
                    const std::map<std::string, std::string>& env) {
  if (std::binary_search(std::begin(kShellWords), std::end(kShellWords), name)) {
    return false;
  }
  auto exported = [&env](const std::string& key) {
    return env.count(key) != 0 || std::getenv(key.c_str()) != nullptr;
  };
  std::string function = "BASH_FUNC_" + std::string(name);
  return exported("PATH") && !exported(function + "%%") && !exported(function + "()");
}

}  // namespace

LocalExecutor::LocalExecutor(SpawnTuning tuning)
    : tuning_(tuning), epoch_(monotonic_seconds()) {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw util::SystemError("epoll_create1", errno);
}

LocalExecutor::~LocalExecutor() {
  for (auto& [id, child] : children_) {
    if (!child.reaped && child.pid > 0) {
      ::kill(-child.pid, SIGKILL);
      int status = 0;
      waitpid(child.pid, &status, 0);
    }
    stacks_.release(child.stack);
    close_fd(child.pidfd);
    close_fd(child.out_fd);
    close_fd(child.err_fd);
  }
  close(epoll_fd_);
  if (self_pipe_owner_ && --g_self_pipe_users == 0) {
    sigaction(SIGCHLD, &g_saved_sigchld, nullptr);
    close(g_self_pipe_read);
    close(g_self_pipe_write);
    g_self_pipe_read = g_self_pipe_write = -1;
  }
}

double LocalExecutor::now() const { return monotonic_seconds() - epoch_; }

void LocalExecutor::start(const core::ExecRequest& request) {
  util::require(children_.find(request.job_id) == children_.end(),
                "duplicate job id in LocalExecutor::start");
  static_assert((core::kJobIdLimit - 1) >> (64 - kKindBits) == 0);
  util::require(request.job_id < core::kJobIdLimit, "job id too large for LocalExecutor");
  double t0 = monotonic_seconds();

  // Shell-mode commands with no metacharacters skip /bin/sh when the shell
  // would only exec the argv we can compose ourselves (GNU parallel applies
  // the same optimization): a path-like first word, or a bare name that sh
  // would find in PATH. If no candidate execs, the child hands the command
  // to sh -c after all, so a failure reads as the shell's.
  bool direct = !request.use_shell;
  if (!direct) {
    std::string_view first = plain_first_word(request.command);
    direct = first.find('/') != std::string_view::npos ||
             (!first.empty() && runs_from_path(first, request.env));
  }
  std::vector<std::string> words;
  try {
    words = direct ? util::shell_split(request.command)
                   : std::vector<std::string>{"/bin/sh", "-c", request.command};
  } catch (const util::ParseError&) {
    // An unterminated quote or a trailing backslash: no words.
  }
  if (words.empty()) {
    // A --no-shell command of no words names nothing to exec: it ends as
    // one whose words exec nothing does, with a silent exit 127.
    end_unspawned(request.job_id);
    return;
  }

  // A --pipe block goes into a memory file of its own, whole, before the
  // spawn: the child reads it at its own pace, and only exits wake us. The
  // memory files are O_CLOEXEC: with LocalExecutors on several threads (the
  // in-process pilot workers), another thread's child can exec between
  // their creation and our spawn, and an inherited one would outlive the
  // job. The spawn installs the child's ends with dup, which clears CLOEXEC
  // on the duplicate.
  int in_fd = request.has_stdin ? memory_file_holding(request.stdin_data) : -1;
  int out_fd = -1;
  int err_fd = -1;
  auto close_all = [&] {
    close_fd(in_fd);
    close_fd(out_fd);
    close_fd(err_fd);
  };
  if (request.capture_output) {
    out_fd = memfd_create("parcl-stdout", MFD_CLOEXEC);
    if (out_fd >= 0) err_fd = memfd_create("parcl-stderr", MFD_CLOEXEC);
    if (err_fd < 0) {
      int error = errno;
      close_all();
      throw util::SystemError("memfd_create", error);
    }
  }

  // The record exists before the spawn: a CLONE_VM child reads its image
  // from here until it execs, and unordered_map nodes never move.
  Child& child = children_[request.job_id];
  auto abandon = [&] {
    close_all();
    stacks_.release(child.stack);
    children_.erase(request.job_id);
  };
  compose_image(child.image, std::move(words), request.env);
  lay_out_candidates(child.image);
  if (direct && request.use_shell) hand_failures_to_shell(child.image, request.command);
  ChildPlan& plan = child.image.plan;
  plan.stdin_fd = in_fd;
  plan.stdout_fd = out_fd;
  plan.stderr_fd = err_fd;

  pid_t pid = -1;
  int pidfd = -1;
  if (tuning_.path == SpawnTuning::Path::kAuto && kCloneVmSpawn) {
    child.stack = stacks_.acquire();
    // A nullopt means "no fast path here: fall through", not "job failed".
    std::optional<SpawnedChild> spawned;
    try {
      if (child.stack != nullptr) spawned = clone_vm_spawn(child.image, child.stack);
    } catch (...) {
      abandon();
      throw;
    }
    if (spawned) {
      pid = spawned->pid;
      pidfd = spawned->pidfd;  // CLONE_PIDFD fds are born O_CLOEXEC
      ++counters_.clone_vm_spawns;
    } else {
      stacks_.release(child.stack);
      child.stack = nullptr;
    }
  }

  if (pid < 0) {
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    // The memory files themselves close at exec (MFD_CLOEXEC).
    if (request.has_stdin) {
      posix_spawn_file_actions_adddup2(&actions, in_fd, STDIN_FILENO);
    } else {
      posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                       O_RDONLY, 0);
    }
    if (request.capture_output) {
      posix_spawn_file_actions_adddup2(&actions, out_fd, STDOUT_FILENO);
      posix_spawn_file_actions_adddup2(&actions, err_fd, STDERR_FILENO);
    }

    posix_spawnattr_t attr;
    posix_spawnattr_init(&attr);
    // New process group (kill() signals the whole pipeline), default
    // SIGPIPE in the child whatever parcl's own is, and an empty signal mask
    // as on the CLONE_VM path: an inherited blocked SIGTERM would make
    // --timeout, halt and --termseq kills wait for SIGKILL.
    sigset_t defaults;
    sigemptyset(&defaults);
    sigaddset(&defaults, SIGPIPE);
    posix_spawnattr_setsigdefault(&attr, &defaults);
    sigset_t none;
    sigemptyset(&none);
    posix_spawnattr_setsigmask(&attr, &none);
    posix_spawnattr_setpgroup(&attr, 0);
    posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETPGROUP | POSIX_SPAWN_SETSIGDEF |
                                        POSIX_SPAWN_SETSIGMASK);

    // The candidates, and the /bin/sh retry on ENOEXEC, in the order the
    // CLONE_VM child tries them.
    int rc = ENOENT;
    for (std::size_t i = 0; plan.candidates[i] != nullptr; ++i) {
      rc = posix_spawn(&pid, plan.candidates[i], &actions, &attr, plan.argv, plan.envp);
      if (rc == ENOEXEC) {
        char* const* script = plan.script_argvs + i * plan.script_stride;
        rc = posix_spawn(&pid, script[0], &actions, &attr, script, plan.envp);
      }
      if (rc == 0 || !try_next_candidate(rc)) break;
    }
    if (rc != 0 && rc != EAGAIN && rc != ENOMEM && plan.shell_argv != nullptr) {
      rc = posix_spawn(&pid, plan.shell_argv[0], &actions, &attr, plan.shell_argv,
                       plan.envp);
    }
    posix_spawn_file_actions_destroy(&actions);
    posix_spawnattr_destroy(&attr);
    if (rc == EAGAIN || rc == ENOMEM) {
      abandon();  // no process could be made, as when clone() fails
      throw util::SystemError("posix_spawn", rc);
    }
    if (rc != 0) {
      // Nothing to exec, not even the shell: the job ends at once with exit
      // 127, as the CLONE_VM child's does and a shell's "command not found".
      close_all();
      end_unspawned(request.job_id);
      return;
    }
  }

  child.pid = pid;
  child.start_time = now();
  close_fd(in_fd);  // the child holds its own copy
  child.out_fd = std::exchange(out_fd, -1);
  child.err_fd = std::exchange(err_fd, -1);

  child.pidfd = pidfd;
  if (child.pidfd < 0 && !pidfd_disabled().load(std::memory_order_relaxed)) {
    child.pidfd = pidfd_open_compat(pid);
    if (child.pidfd >= 0) {
      set_cloexec(child.pidfd);  // pidfd_open sets it; belt and braces
    } else if (errno == ENOSYS || errno == EPERM) {
      pidfd_disabled().store(true, std::memory_order_relaxed);
    }
  }
  if (child.pidfd < 0) enable_self_pipe();

  if (child.pidfd >= 0 &&
      !watch(child.pidfd, EPOLLIN | EPOLLONESHOT, request.job_id, FdKind::kPidfd)) {
    // Nothing would report this child's exit: end it here instead of
    // leaking a running process.
    int error = errno;
    if (::kill(-pid, SIGKILL) != 0) ::kill(pid, SIGKILL);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    close_fd(child.pidfd);
    close_fd(child.out_fd);
    close_fd(child.err_fd);
    stacks_.release(child.stack);
    children_.erase(request.job_id);
    throw util::SystemError("epoll_ctl", error);
  }
  ++counters_.spawns;
  if (direct && request.use_shell) ++counters_.direct_execs;
  counters_.spawn_seconds += monotonic_seconds() - t0;
}

void LocalExecutor::end_unspawned(std::uint64_t job_id) {
  Child& child = children_[job_id];
  child.start_time = child.end_time = now();
  child.reaped = true;
  child.wait_status = W_EXITCODE(127, 0);
  ready_.push_back(job_id);
}

bool LocalExecutor::watch(int fd, std::uint32_t events, std::uint64_t job_id,
                          FdKind kind) {
  epoll_event event{};
  event.events = events | EPOLLET;
  event.data.u64 = job_id << kKindBits | static_cast<std::uint64_t>(kind);
  return epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) == 0;
}

void LocalExecutor::enable_self_pipe() {
  if (use_self_pipe_) return;
  if (g_self_pipe_users == 0) {
    int fds[2];
    if (pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0) return;  // degraded: sweeps still reap
    g_self_pipe_read = fds[0];
    g_self_pipe_write = fds[1];
    struct sigaction action {};
    action.sa_handler = sigchld_self_pipe_handler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = SA_RESTART | SA_NOCLDSTOP;
    if (sigaction(SIGCHLD, &action, &g_saved_sigchld) != 0) {
      close(g_self_pipe_read);
      close(g_self_pipe_write);
      g_self_pipe_read = g_self_pipe_write = -1;
      return;
    }
  }
  ++g_self_pipe_users;
  self_pipe_owner_ = true;
  use_self_pipe_ = true;
  // A failed watch degrades to the 100 ms sweeps wait_any() makes anyway.
  watch(g_self_pipe_read, EPOLLIN, 0, FdKind::kSelfPipe);
  // Exits delivered before the handler existed never reach the pipe.
  need_sweep_ = true;
}

void LocalExecutor::mark_reaped(std::uint64_t job_id, Child& child, int status) {
  child.reaped = true;
  child.wait_status = status;
  child.end_time = now();
  ++counters_.reaps;
  stacks_.release(child.stack);  // the child is gone: nothing runs on it
  child.stack = nullptr;
  close_fd(child.pidfd);
  // What a background process writes from here on is dropped, as GNU
  // Parallel drops what lands in a job's spool file after it is printed.
  take_memory_file(child.out_fd, child.out_buffer);
  take_memory_file(child.err_fd, child.err_buffer);
  ready_.push_back(job_id);
}

void LocalExecutor::sweep_unreaped() {
  ++counters_.reap_sweeps;
  need_sweep_ = false;
  for (auto& [id, child] : children_) {
    if (child.reaped) continue;
    int status = 0;
    pid_t reaped = waitpid(child.pid, &status, WNOHANG);
    if (reaped == child.pid) mark_reaped(id, child, status);
  }
}

core::ExecResult LocalExecutor::harvest(std::uint64_t job_id, Child& child) {
  core::ExecResult result;
  result.job_id = job_id;
  result.start_time = child.start_time;
  result.end_time = child.end_time;
  result.stdout_data = std::move(child.out_buffer);
  result.stderr_data = std::move(child.err_buffer);
  if (WIFEXITED(child.wait_status)) {
    result.exit_code = WEXITSTATUS(child.wait_status);
  } else if (WIFSIGNALED(child.wait_status)) {
    result.term_signal = WTERMSIG(child.wait_status);
    result.exit_code = 128 + result.term_signal;
  }
  return result;
}

void LocalExecutor::dispatch_event(std::uint64_t data) {
  const FdKind kind = kind_of(data);
  if (kind == FdKind::kSelfPipe) {
    char buffer[256];
    while (read(g_self_pipe_read, buffer, sizeof(buffer)) > 0) {
    }
    sweep_unreaped();
    return;
  }
  const std::uint64_t job_id = data >> kKindBits;
  auto it = children_.find(job_id);
  if (it == children_.end()) return;  // harvested: a closed fd's last event
  Child& child = it->second;
  if (child.reaped) return;
  // A pidfd polls readable only once its process has exited.
  int status = 0;
  pid_t reaped = waitpid(child.pid, &status, WNOHANG);
  if (reaped == child.pid) {
    mark_reaped(job_id, child, status);
  } else if (!child.exit_held) {
    // A tracer (strace -f, gdb) reaps the exit first and then passes it
    // on, which wakes the pidfd again; the one-shot entry would drop that
    // wake and the job would never be reaped.
    rearm_pidfd(job_id, child);
  }
}

void LocalExecutor::rearm_pidfd(std::uint64_t job_id, Child& child) {
  child.exit_held = true;
  // The pidfd is readable now, so the re-arm reports one event at once; it
  // reaps nothing and, with the entry no longer one-shot, re-arms nothing.
  epoll_event event{};
  event.events = EPOLLIN | EPOLLET;
  event.data.u64 = job_id << kKindBits | static_cast<std::uint64_t>(FdKind::kPidfd);
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, child.pidfd, &event) != 0) {
    throw util::SystemError("epoll_ctl", errno);
  }
}

std::optional<core::ExecResult> LocalExecutor::wait_any(double timeout_seconds) {
  double deadline =
      timeout_seconds < 0.0 ? -1.0 : monotonic_seconds() + timeout_seconds;
  if (need_sweep_) sweep_unreaped();
  bool deadline_polled = false;

  while (true) {
    if (!ready_.empty()) {
      std::uint64_t job_id = ready_.front();
      ready_.pop_front();
      auto it = children_.find(job_id);
      util::require(it != children_.end(), "ready job vanished");
      core::ExecResult result = harvest(job_id, it->second);
      children_.erase(it);
      return result;
    }

    if (children_.empty()) {
      if (deadline < 0.0) return std::nullopt;
      // Honour the engine's --delay sleep even with nothing running.
      double remaining = deadline - monotonic_seconds();
      if (remaining <= 0.0) return std::nullopt;
      struct timespec ts;
      ts.tv_sec = static_cast<time_t>(remaining);
      ts.tv_nsec =
          static_cast<long>((remaining - static_cast<double>(ts.tv_sec)) * 1e9);
      nanosleep(&ts, nullptr);
      return std::nullopt;
    }

    // Wait window: with pidfds a child exit always produces an event, so we
    // can block indefinitely; in self-pipe mode we cap the window because a
    // second executor instance may consume our wakeup byte. An expired
    // deadline still gets one zero-timeout wait so completions that already
    // happened are collected (matching the old sweep-first behavior).
    int timeout_ms;
    if (deadline < 0.0) {
      timeout_ms = use_self_pipe_ ? 100 : -1;
    } else {
      double remaining = deadline - monotonic_seconds();
      if (remaining <= 0.0) {
        if (deadline_polled) return std::nullopt;
        deadline_polled = true;
        timeout_ms = 0;
      } else {
        timeout_ms = static_cast<int>(std::min(remaining * 1e3 + 1.0, 3.6e6));
        if (use_self_pipe_ && timeout_ms > 100) timeout_ms = 100;
      }
    }

    epoll_event events[kMaxEvents];
    double t0 = monotonic_seconds();
    int nready = epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    ++counters_.polls;
    counters_.poll_wait_seconds += monotonic_seconds() - t0;
    if (nready < 0) {
      if (errno == EINTR) continue;
      throw util::SystemError("epoll_wait", errno);
    }
    events_left_ = nready == kMaxEvents;
    if (nready == 0) {
      if (use_self_pipe_) sweep_unreaped();
      continue;
    }

    counters_.poll_events += static_cast<std::uint64_t>(nready);
    ++counters_.exit_wakeups;  // every event in the set is an exit's
    for (int i = 0; i < nready; ++i) dispatch_event(events[i].data.u64);
  }
}

void LocalExecutor::kill(std::uint64_t job_id, bool force) {
  kill_signal(job_id, force ? SIGKILL : SIGTERM);
}

void LocalExecutor::kill_signal(std::uint64_t job_id, int sig) {
  auto it = children_.find(job_id);
  if (it == children_.end() || it->second.reaped) return;
  // Signal the whole process group; fall back to the pid if the group is
  // already gone.
  if (::kill(-it->second.pid, sig) != 0) {
    ::kill(it->second.pid, sig);
  }
}

core::ResourcePressure LocalExecutor::pressure() const {
  return host_probe_.sample();
}

}  // namespace parcl::exec
