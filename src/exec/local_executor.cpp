#include "exec/local_executor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#if defined(__linux__)
#include <sys/syscall.h>
#endif

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "exec/spawn_path.hpp"
#include "util/error.hpp"
#include "util/shell.hpp"

extern char** environ;

namespace parcl::exec {

namespace {

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_nonblocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_cloexec(int fd) {
  int flags = fcntl(fd, F_GETFD, 0);
  if (flags >= 0) fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

/// pidfd_open(2) via syscall(2): glibc grew a wrapper only in 2.36.
int pidfd_open_compat(pid_t pid) {
#if defined(__linux__) && defined(SYS_pidfd_open)
  return static_cast<int>(syscall(SYS_pidfd_open, pid, 0));
#else
  (void)pid;
  errno = ENOSYS;
  return -1;
#endif
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

/// True when a shell-mode command can skip /bin/sh: only plain words built
/// from characters the shell never interprets, and a path-like first word
/// (so shell builtins such as `exit` or `cd` keep their shell semantics).
bool shell_bypass_safe(const std::string& command) {
  bool seen_word = false;
  bool in_first_word = true;
  bool first_word_is_path = false;
  for (char c : command) {
    if (c == ' ') {
      if (seen_word) in_first_word = false;
      continue;
    }
    bool plain = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                 c == '_' || c == '-' || c == '+' || c == ':' || c == ',' ||
                 c == '.' || c == '/' || c == '%' || c == '@' || c == '^';
    // '=' is safe in arguments but a variable assignment in the first word.
    if (!plain && !(c == '=' && !in_first_word)) return false;
    seen_word = true;
    if (in_first_word && c == '/') first_word_is_path = true;
  }
  return seen_word && first_word_is_path;
}

}  // namespace

LocalExecutor::LocalExecutor(SpawnTuning tuning)
    : tuning_(tuning), epoch_(monotonic_seconds()) {
  // A child dying while we are mid-write to a closed pipe must not kill us.
  // Children get the default disposition back through posix_spawn's sigdefault
  // set; our own prior disposition is restored on destruction.
  struct sigaction ignore {};
  ignore.sa_handler = SIG_IGN;
  sigemptyset(&ignore.sa_mask);
  if (sigaction(SIGPIPE, &ignore, &saved_sigpipe_) == 0) sigpipe_saved_ = true;
  // The zygote must fork before any job pipes exist: fork ignores O_CLOEXEC,
  // so a helper forked mid-run would inherit live pipe write ends and hold
  // the client's EOF hostage. Constructing it here keeps its address space
  // minimal too — that is the whole point of the zygote.
  if (tuning_.zygote) {
    zygote_tried_ = true;
    zygote_ = Zygote::create();
  }
}

LocalExecutor::~LocalExecutor() {
  for (auto& [id, child] : children_) {
    if (!child.reaped && child.pid > 0) {
      ::kill(-child.pid, SIGKILL);
      int status = 0;
      waitpid(child.pid, &status, 0);
    }
    if (child.pidfd >= 0) close(child.pidfd);
    if (child.out_fd >= 0) close(child.out_fd);
    if (child.err_fd >= 0) close(child.err_fd);
    if (child.in_fd >= 0) close(child.in_fd);
  }
  if (self_pipe_owner_ && --g_self_pipe_users == 0) {
    sigaction(SIGCHLD, &g_saved_sigchld, nullptr);
    close(g_self_pipe_read);
    close(g_self_pipe_write);
    g_self_pipe_read = g_self_pipe_write = -1;
  }
  if (sigpipe_saved_) sigaction(SIGPIPE, &saved_sigpipe_, nullptr);
}

double LocalExecutor::now() const { return monotonic_seconds() - epoch_; }

void LocalExecutor::start(const core::ExecRequest& request) {
  util::require(children_.find(request.job_id) == children_.end(),
                "duplicate job id in LocalExecutor::start");
  double t0 = monotonic_seconds();

  int out_pipe[2] = {-1, -1};
  int err_pipe[2] = {-1, -1};
  int in_pipe[2] = {-1, -1};
  auto close_pair = [](int fds[2]) {
    if (fds[0] >= 0) close(fds[0]);
    if (fds[1] >= 0) close(fds[1]);
  };
  // O_CLOEXEC on BOTH ends: with LocalExecutors on several threads (the
  // in-process pilot workers), another thread's child can exec between our
  // pipe() and spawn, and an inherited write end would keep this child's
  // stdout open past its exit (EOF never arrives). The spawn installs the
  // child-side ends with dup2, which clears CLOEXEC on the duplicate.
  if (request.capture_output) {
    if (pipe2(out_pipe, O_CLOEXEC) != 0) throw util::SystemError("pipe", errno);
    if (pipe2(err_pipe, O_CLOEXEC) != 0) {
      close_pair(out_pipe);
      throw util::SystemError("pipe", errno);
    }
  }
  if (request.has_stdin) {
    if (pipe2(in_pipe, O_CLOEXEC) != 0) {
      close_pair(out_pipe);
      close_pair(err_pipe);
      throw util::SystemError("pipe", errno);
    }
  }

  // Child environment: reuse `environ` untouched in the common case of no
  // per-job variables, composing a copy only when needed.
  std::vector<std::string> env_storage;
  std::vector<char*> envp_vec;
  char* const* envp = environ;
  if (!request.env.empty()) {
    for (char** e = environ; *e != nullptr; ++e) envp_vec.push_back(*e);
    env_storage.reserve(request.env.size());
    for (const auto& [key, value] : request.env) {
      env_storage.push_back(key + "=" + value);
    }
    for (auto& kv : env_storage) envp_vec.push_back(kv.data());
    envp_vec.push_back(nullptr);
    envp = envp_vec.data();
  }

  // Shell-mode commands with no metacharacters skip /bin/sh entirely: the
  // shell would only exec the argv we can compose ourselves (GNU parallel
  // applies the same optimization).
  bool direct = !request.use_shell || shell_bypass_safe(request.command);
  std::vector<std::string> argv_storage;
  std::vector<char*> argv;
  if (direct) {
    argv_storage = util::shell_split(request.command);
    if (argv_storage.empty()) {
      close_pair(out_pipe);
      close_pair(err_pipe);
      close_pair(in_pipe);
      throw util::ConfigError("empty command");
    }
  } else {
    argv_storage = {"/bin/sh", "-c", request.command};
  }
  argv.reserve(argv_storage.size() + 1);
  for (auto& word : argv_storage) argv.push_back(word.data());
  argv.push_back(nullptr);

  pid_t pid = -1;
  int spawned_pidfd = -1;  // from clone3/zygote: arrives with the pid
  bool fast_spawned = false;
  if (tuning_.path != SpawnTuning::Path::kPosixSpawn) {
    SpawnTarget target;
    target.argv = argv.data();
    target.envp = envp == environ ? nullptr : envp;
    target.stdin_fd = request.has_stdin ? in_pipe[0] : -1;
    target.stdout_fd = request.capture_output ? out_pipe[1] : -1;
    target.stderr_fd = request.capture_output ? err_pipe[1] : -1;
    try {
      // Zygote first (direct argv only — it has no shell), then clone3;
      // a nullopt from either means "fall through", not "job failed". The
      // helper was preforked at construction, before any job pipe existed.
      if (direct && zygote_) {
        if (auto spawned = zygote_->spawn(target)) {
          pid = spawned->pid;
          spawned_pidfd = spawned->pidfd;
          fast_spawned = true;
          ++counters_.zygote_spawns;
        }
      }
      if (!fast_spawned) {
        if (auto spawned = clone3_spawn(target)) {
          pid = spawned->pid;
          spawned_pidfd = spawned->pidfd;
          fast_spawned = true;
          ++counters_.clone3_spawns;
        }
      }
    } catch (...) {
      close_pair(out_pipe);
      close_pair(err_pipe);
      close_pair(in_pipe);
      throw;
    }
  }

  if (!fast_spawned) {
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    if (request.has_stdin) {
      posix_spawn_file_actions_adddup2(&actions, in_pipe[0], STDIN_FILENO);
      if (in_pipe[0] != STDIN_FILENO) {
        posix_spawn_file_actions_addclose(&actions, in_pipe[0]);
      }
    } else {
      posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                       O_RDONLY, 0);
    }
    if (request.capture_output) {
      posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
      posix_spawn_file_actions_adddup2(&actions, err_pipe[1], STDERR_FILENO);
      if (out_pipe[1] != STDOUT_FILENO) {
        posix_spawn_file_actions_addclose(&actions, out_pipe[1]);
      }
      if (err_pipe[1] != STDERR_FILENO) {
        posix_spawn_file_actions_addclose(&actions, err_pipe[1]);
      }
    }

    posix_spawnattr_t attr;
    posix_spawnattr_init(&attr);
    // New process group (kill() signals the whole pipeline) and default
    // SIGPIPE in the child despite our own SIG_IGN.
    sigset_t defaults;
    sigemptyset(&defaults);
    sigaddset(&defaults, SIGPIPE);
    posix_spawnattr_setsigdefault(&attr, &defaults);
    posix_spawnattr_setpgroup(&attr, 0);
    posix_spawnattr_setflags(&attr,
                             POSIX_SPAWN_SETPGROUP | POSIX_SPAWN_SETSIGDEF);

    int rc = direct ? posix_spawnp(&pid, argv[0], &actions, &attr, argv.data(),
                                   const_cast<char* const*>(envp))
                    : posix_spawn(&pid, "/bin/sh", &actions, &attr, argv.data(),
                                  const_cast<char* const*>(envp));
    posix_spawn_file_actions_destroy(&actions);
    posix_spawnattr_destroy(&attr);
    if (rc != 0) {
      close_pair(out_pipe);
      close_pair(err_pipe);
      close_pair(in_pipe);
      throw util::SystemError("posix_spawn", rc);
    }
  }

  Child child;
  child.pid = pid;
  child.start_time = now();
  if (request.capture_output) {
    close(out_pipe[1]);
    close(err_pipe[1]);
    set_nonblocking(out_pipe[0]);
    set_nonblocking(err_pipe[0]);
    child.out_fd = out_pipe[0];
    child.err_fd = err_pipe[0];
  }
  if (request.has_stdin) {
    close(in_pipe[0]);
    set_nonblocking(in_pipe[1]);
    child.in_fd = in_pipe[1];
    child.in_buffer = request.stdin_data;
  }

  if (fast_spawned) {
    child.pidfd = spawned_pidfd;  // CLONE_PIDFD fds are born O_CLOEXEC
  } else if (!pidfd_disabled().load(std::memory_order_relaxed)) {
    child.pidfd = pidfd_open_compat(pid);
    if (child.pidfd >= 0) {
      set_cloexec(child.pidfd);  // pidfd_open sets it; belt and braces
    } else if (errno == ENOSYS || errno == EPERM) {
      pidfd_disabled().store(true, std::memory_order_relaxed);
    }
  }
  if (child.pidfd < 0) enable_self_pipe();

  auto [it, inserted] = children_.emplace(request.job_id, std::move(child));
  Child& stored = it->second;
  if (stored.pidfd >= 0) {
    stored.pidfd_slot =
        add_poll_fd(stored.pidfd, POLLIN, request.job_id, FdKind::kPidfd);
  }
  if (stored.out_fd >= 0) {
    stored.out_slot =
        add_poll_fd(stored.out_fd, POLLIN, request.job_id, FdKind::kOut);
  }
  if (stored.err_fd >= 0) {
    stored.err_slot =
        add_poll_fd(stored.err_fd, POLLIN, request.job_id, FdKind::kErr);
  }
  if (stored.in_fd >= 0) {
    feed_stdin(stored);  // opportunistic first write
    if (stored.in_fd >= 0) {
      stored.in_slot =
          add_poll_fd(stored.in_fd, POLLOUT, request.job_id, FdKind::kIn);
    }
  }
  ++counters_.spawns;
  if (direct && request.use_shell) ++counters_.direct_execs;
  counters_.spawn_seconds += monotonic_seconds() - t0;
}

bool LocalExecutor::finished(const Child& child) noexcept {
  return child.reaped && child.out_fd < 0 && child.err_fd < 0;
}

int LocalExecutor::add_poll_fd(int fd, short events, std::uint64_t job_id,
                               FdKind kind) {
  if (!free_slots_.empty()) {
    int slot = free_slots_.back();
    free_slots_.pop_back();
    pollfds_[static_cast<std::size_t>(slot)] = {fd, events, 0};
    poll_meta_[static_cast<std::size_t>(slot)] = {job_id, kind};
    return slot;
  }
  pollfds_.push_back({fd, events, 0});
  poll_meta_.push_back({job_id, kind});
  return static_cast<int>(pollfds_.size() - 1);
}

void LocalExecutor::remove_poll_fd(int& slot) {
  if (slot < 0) return;
  auto index = static_cast<std::size_t>(slot);
  pollfds_[index].fd = -1;  // negative fds are ignored by poll(2)
  pollfds_[index].events = 0;
  pollfds_[index].revents = 0;
  free_slots_.push_back(slot);
  slot = -1;
}

void LocalExecutor::compact_poll_set() {
  std::vector<pollfd> fds;
  std::vector<PollMeta> meta;
  fds.reserve(pollfds_.size() - free_slots_.size());
  meta.reserve(fds.capacity());
  for (std::size_t i = 0; i < pollfds_.size(); ++i) {
    if (pollfds_[i].fd < 0) continue;
    int slot = static_cast<int>(fds.size());
    fds.push_back(pollfds_[i]);
    meta.push_back(poll_meta_[i]);
    if (poll_meta_[i].kind == FdKind::kSelfPipe) {
      self_pipe_slot_ = slot;
      continue;
    }
    auto it = children_.find(poll_meta_[i].job_id);
    if (it == children_.end()) continue;
    switch (poll_meta_[i].kind) {
      case FdKind::kOut: it->second.out_slot = slot; break;
      case FdKind::kErr: it->second.err_slot = slot; break;
      case FdKind::kIn: it->second.in_slot = slot; break;
      case FdKind::kPidfd: it->second.pidfd_slot = slot; break;
      case FdKind::kSelfPipe: break;
    }
  }
  pollfds_ = std::move(fds);
  poll_meta_ = std::move(meta);
  free_slots_.clear();
}

void LocalExecutor::enable_self_pipe() {
  if (use_self_pipe_) return;
  if (g_self_pipe_users == 0) {
    int fds[2];
    if (pipe(fds) != 0) return;  // degraded: periodic sweeps still reap
    g_self_pipe_read = fds[0];
    g_self_pipe_write = fds[1];
    set_nonblocking(g_self_pipe_read);
    set_nonblocking(g_self_pipe_write);
    set_cloexec(g_self_pipe_read);
    set_cloexec(g_self_pipe_write);
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
  self_pipe_slot_ = add_poll_fd(g_self_pipe_read, POLLIN, 0, FdKind::kSelfPipe);
  // Exits delivered before the handler existed never reach the pipe.
  need_sweep_ = true;
}

void LocalExecutor::mark_reaped(Child& child, int status) {
  child.reaped = true;
  child.wait_status = status;
  child.end_time = now();
  ++counters_.reaps;
  if (child.pidfd >= 0) {
    close(child.pidfd);
    child.pidfd = -1;
  }
  remove_poll_fd(child.pidfd_slot);
  if (child.in_fd >= 0) {
    // Child exited without consuming all of its stdin.
    close(child.in_fd);
    child.in_fd = -1;
    child.in_buffer.clear();
    remove_poll_fd(child.in_slot);
  }
}

void LocalExecutor::sweep_unreaped() {
  ++counters_.reap_sweeps;
  need_sweep_ = false;
  for (auto& [id, child] : children_) {
    if (child.reaped) continue;
    int status = 0;
    pid_t reaped = waitpid(child.pid, &status, WNOHANG);
    if (reaped == child.pid) {
      mark_reaped(child, status);
      maybe_finish(id, child);
    }
  }
}

void LocalExecutor::maybe_finish(std::uint64_t job_id, Child& child) {
  if (child.ready_queued || !finished(child)) return;
  child.ready_queued = true;
  ready_.push_back(job_id);
}

void LocalExecutor::feed_stdin(Child& child) {
  while (child.in_fd >= 0) {
    if (child.in_offset >= child.in_buffer.size()) {
      close(child.in_fd);  // EOF for the child
      child.in_fd = -1;
      child.in_buffer.clear();
      remove_poll_fd(child.in_slot);
      return;
    }
    ssize_t n = write(child.in_fd, child.in_buffer.data() + child.in_offset,
                      child.in_buffer.size() - child.in_offset);
    if (n > 0) {
      child.in_offset += static_cast<std::size_t>(n);
    } else {
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;  // full
      // EPIPE (child closed stdin early) or another error: stop feeding.
      close(child.in_fd);
      child.in_fd = -1;
      child.in_buffer.clear();
      remove_poll_fd(child.in_slot);
      return;
    }
  }
}

void LocalExecutor::drain_stream(Child& child, bool err_stream) {
  int& fd = err_stream ? child.err_fd : child.out_fd;
  int& slot = err_stream ? child.err_slot : child.out_slot;
  std::string& sink = err_stream ? child.err_buffer : child.out_buffer;
  char buffer[65536];
  while (fd >= 0) {
    ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n > 0) {
      sink.append(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    }
    close(fd);  // EOF, or unexpected error treated as EOF
    fd = -1;
    remove_poll_fd(slot);
    return;
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

void LocalExecutor::dispatch_event(std::size_t slot, short revents) {
  (void)revents;  // any event (IN/OUT/HUP/ERR) triggers the same handling
  const PollMeta meta = poll_meta_[slot];
  if (meta.kind == FdKind::kSelfPipe) {
    char buffer[256];
    while (read(g_self_pipe_read, buffer, sizeof(buffer)) > 0) {
    }
    sweep_unreaped();
    return;
  }
  auto it = children_.find(meta.job_id);
  if (it == children_.end()) return;
  Child& child = it->second;
  switch (meta.kind) {
    case FdKind::kPidfd: {
      if (!child.reaped) {
        int status = 0;
        pid_t reaped = waitpid(child.pid, &status, WNOHANG);
        if (reaped == child.pid) mark_reaped(child, status);
      }
      break;
    }
    case FdKind::kOut:
      drain_stream(child, /*err_stream=*/false);
      break;
    case FdKind::kErr:
      drain_stream(child, /*err_stream=*/true);
      break;
    case FdKind::kIn:
      feed_stdin(child);
      break;
    case FdKind::kSelfPipe:
      break;
  }
  maybe_finish(meta.job_id, child);
}

std::optional<core::ExecResult> LocalExecutor::wait_any(double timeout_seconds) {
  double deadline =
      timeout_seconds < 0.0 ? -1.0 : monotonic_seconds() + timeout_seconds;
  if (need_sweep_) sweep_unreaped();
  if (free_slots_.size() > 32 && free_slots_.size() > pollfds_.size() / 2) {
    compact_poll_set();
  }
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

    // Poll window: with pidfds a child exit always produces an event, so we
    // can block indefinitely; in self-pipe mode we cap the window because a
    // second executor instance may consume our wakeup byte. An expired
    // deadline still gets one zero-timeout poll so completions that already
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

    double t0 = monotonic_seconds();
    int nready =
        poll(pollfds_.data(), static_cast<nfds_t>(pollfds_.size()), timeout_ms);
    ++counters_.polls;
    counters_.poll_wait_seconds += monotonic_seconds() - t0;
    if (nready < 0) {
      if (errno == EINTR) continue;
      throw util::SystemError("poll", errno);
    }
    if (nready == 0) {
      if (use_self_pipe_) sweep_unreaped();
      continue;
    }

    counters_.poll_events += static_cast<std::uint64_t>(nready);
    bool exit_event = false;
    int handled = 0;
    for (std::size_t i = 0; i < pollfds_.size() && handled < nready; ++i) {
      short revents = pollfds_[i].revents;
      if (revents == 0 || pollfds_[i].fd < 0) continue;
      pollfds_[i].revents = 0;
      ++handled;
      FdKind kind = poll_meta_[i].kind;
      if (kind == FdKind::kPidfd || kind == FdKind::kSelfPipe)
        exit_event = true;
      dispatch_event(i, revents);
    }
    if (exit_event) ++counters_.exit_wakeups;
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
