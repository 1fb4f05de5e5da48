#include "exec/spawn_path.hpp"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/error.hpp"

#ifndef CLONE_PIDFD
#define CLONE_PIDFD 0x00001000
#endif

extern char** environ;

namespace parcl::exec {

namespace {
char g_shell[] = "/bin/sh";
char g_shell_c[] = "-c";
}  // namespace

void compose_image(SpawnImage& image, std::vector<std::string> words,
                   const std::map<std::string, std::string>& env) {
  image.words = std::move(words);
  image.argv.reserve(image.words.size() + 1);
  for (std::string& word : image.words) image.argv.push_back(word.data());
  image.argv.push_back(nullptr);

  image.job_env.reserve(env.size());
  for (const auto& [key, value] : env) image.job_env.push_back(key + "=" + value);
  std::size_t inherited = 0;
  while (environ[inherited] != nullptr) ++inherited;
  image.envp.reserve(inherited + env.size() + 1);
  for (char** entry = environ; *entry != nullptr; ++entry) {
    bool overridden = false;
    for (const auto& [key, value] : env) {
      if (std::strncmp(*entry, key.c_str(), key.size()) == 0 &&
          (*entry)[key.size()] == '=') {
        overridden = true;
        break;
      }
    }
    if (!overridden) image.envp.push_back(*entry);
  }
  for (std::string& entry : image.job_env) image.envp.push_back(entry.data());
  image.envp.push_back(nullptr);
}

void lay_out_candidates(SpawnImage& image) {
  char* file = image.argv[0];
  if (std::strchr(file, '/') != nullptr) {
    image.candidates.push_back(file);
  } else if (*file != '\0') {
    const char* search = "/bin:/usr/bin";
    for (char* const* entry = image.envp.data(); *entry != nullptr; ++entry) {
      if (std::strncmp(*entry, "PATH=", 5) == 0) {
        search = *entry + 5;
        break;
      }
    }
    std::string& paths = image.paths;
    std::vector<std::size_t> starts;
    const char* entry = search;  // an empty entry is the working directory
    while (true) {
      const char* end = ::strchrnul(entry, ':');
      starts.push_back(paths.size());
      paths.append(entry, end);
      if (end != entry) paths.push_back('/');
      paths.append(file).push_back('\0');
      if (*end == '\0') break;
      entry = end + 1;
    }
    for (std::size_t start : starts) image.candidates.push_back(paths.data() + start);
  }
  std::size_t count = image.candidates.size();
  image.candidates.push_back(nullptr);

  std::size_t argc = image.argv.size() - 1;
  std::size_t stride = argc + 2;
  image.script_argvs.assign(count * stride, nullptr);
  for (std::size_t i = 0; i < count; ++i) {
    char** script = image.script_argvs.data() + i * stride;
    script[0] = g_shell;
    script[1] = image.candidates[i];
    for (std::size_t k = 1; k < argc; ++k) script[k + 1] = image.argv[k];
  }
  image.plan.argv = image.argv.data();
  image.plan.envp = image.envp.data();
  image.plan.candidates = image.candidates.data();
  image.plan.script_argvs = image.script_argvs.data();
  image.plan.script_stride = stride;
}

void hand_failures_to_shell(SpawnImage& image, std::string command) {
  image.command = std::move(command);
  image.shell_argv = {g_shell, g_shell_c, image.command.data(), nullptr};
  image.plan.shell_argv = image.shell_argv.data();
}

namespace {

constexpr std::size_t kStackUsable = 32 * 1024;

std::size_t page_size() noexcept {
  static const std::size_t size = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return size;
}

std::size_t stack_usable() noexcept {
  std::size_t page = page_size();
  return (kStackUsable + page - 1) / page * page;
}

}  // namespace

StackPool::~StackPool() {
  for (void* top : free_) {
    ::munmap(static_cast<char*>(top) - stack_usable() - page_size(),
             stack_usable() + page_size());
  }
}

void* StackPool::acquire() noexcept {
  if (!free_.empty()) {
    void* top = free_.back();
    free_.pop_back();
    return top;
  }
  std::size_t guard = page_size();
  std::size_t usable = stack_usable();
  void* base = ::mmap(nullptr, guard + usable, PROT_NONE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
  if (base == MAP_FAILED) return nullptr;
  char* low = static_cast<char*>(base) + guard;
  if (::mprotect(low, usable, PROT_READ | PROT_WRITE) != 0) {
    ::munmap(base, guard + usable);
    return nullptr;
  }
  return low + usable;
}

void StackPool::release(void* top) noexcept {
  if (top != nullptr) free_.push_back(top);
}

#if PARCL_CLONE_VM_SPAWN

namespace {

// Raw syscalls for the child (and for the parent's signal mask around the
// clone): no errno, no TCB, no libc. Returns -errno on failure.
[[gnu::always_inline]] inline long raw_syscall(long nr, long a = 0, long b = 0,
                                               long c = 0, long d = 0) noexcept {
#if defined(__x86_64__)
  long ret;
  register long r10 asm("r10") = d;
  asm volatile("syscall"
               : "=a"(ret)
               : "a"(nr), "D"(a), "S"(b), "d"(c), "r"(r10)
               : "rcx", "r11", "memory");
  return ret;
#else  // __aarch64__
  register long x8 asm("x8") = nr;
  register long x0 asm("x0") = a;
  register long x1 asm("x1") = b;
  register long x2 asm("x2") = c;
  register long x3 asm("x3") = d;
  asm volatile("svc #0" : "+r"(x0) : "r"(x8), "r"(x1), "r"(x2), "r"(x3) : "memory");
  return x0;
#endif
}

template <typename T>
long arg(T* pointer) noexcept {
  return reinterpret_cast<long>(pointer);
}

// The kernel's struct sigaction on x86-64 and aarch64 (rt_sigaction takes an
// 8-byte signal set).
struct KernelSigaction {
  unsigned long handler;
  unsigned long flags;
  unsigned long restorer;
  unsigned long mask;
};
constexpr long kSigsetBytes = 8;

// dup3, not dup2: aarch64 has no dup2. dup3 refuses fd == target, where
// the fd only needs to lose its O_CLOEXEC.
[[gnu::always_inline]] inline void install_fd(long fd, long target) noexcept {
  if (fd == target) {
    raw_syscall(SYS_fcntl, fd, F_SETFD, 0);
  } else {
    raw_syscall(SYS_dup3, fd, target, 0);
  }
}

// The CLONE_VM child. See spawn_path.hpp for the rules it keeps.
[[gnu::no_stack_protector]] int child_main(void* raw_plan) {
  const ChildPlan& plan = *static_cast<const ChildPlan*>(raw_plan);
  raw_syscall(SYS_setpgid, 0, 0);
  // Every signal is blocked here (the parent blocked them all across the
  // clone). Reset the caught ones before unblocking, and SIGPIPE, which the
  // dispatcher ignores.
  for (long sig = 1; sig < _NSIG; ++sig) {
    if (sig == SIGKILL || sig == SIGSTOP) continue;
    KernelSigaction current{};
    raw_syscall(SYS_rt_sigaction, sig, 0, arg(&current), kSigsetBytes);
    bool caught = current.handler != reinterpret_cast<unsigned long>(SIG_DFL) &&
                  current.handler != reinterpret_cast<unsigned long>(SIG_IGN);
    if (!caught && sig != SIGPIPE) continue;
    KernelSigaction fallback{};  // SIG_DFL
    raw_syscall(SYS_rt_sigaction, sig, arg(&fallback), 0, kSigsetBytes);
  }
  long in = plan.stdin_fd;
  if (in < 0) {
    in = raw_syscall(SYS_openat, AT_FDCWD, arg("/dev/null"), O_RDONLY | O_CLOEXEC);
  }
  if (in >= 0) install_fd(in, STDIN_FILENO);
  if (plan.stdout_fd >= 0) install_fd(plan.stdout_fd, STDOUT_FILENO);
  if (plan.stderr_fd >= 0) install_fd(plan.stderr_fd, STDERR_FILENO);
  unsigned long none = 0;
  raw_syscall(SYS_rt_sigprocmask, SIG_SETMASK, arg(&none), 0, kSigsetBytes);
  for (std::size_t i = 0; plan.candidates[i] != nullptr; ++i) {
    long err = -raw_syscall(SYS_execve, arg(plan.candidates[i]), arg(plan.argv),
                            arg(plan.envp));
    if (err == ENOEXEC) {
      err = -raw_syscall(SYS_execve, arg(g_shell),
                         arg(plan.script_argvs + i * plan.script_stride),
                         arg(plan.envp));
    }
    if (!try_next_candidate(err)) break;
  }
  if (plan.shell_argv != nullptr) {
    raw_syscall(SYS_execve, arg(plan.shell_argv[0]), arg(plan.shell_argv),
                arg(plan.envp));
  }
  raw_syscall(SYS_exit_group, 127);
  __builtin_unreachable();
}

}  // namespace

std::optional<SpawnedChild> clone_vm_spawn(SpawnImage& image, void* stack_top) {
  // Every signal stays blocked in the child until it has reset the caught
  // handlers. Raw, so glibc's internal signals are blocked too.
  unsigned long all = ~0UL;
  unsigned long saved = 0;
  raw_syscall(SYS_rt_sigprocmask, SIG_BLOCK, arg(&all), arg(&saved), kSigsetBytes);
  int pidfd = -1;  // the kernel stores it here (parent_tid) before clone returns
  pid_t pid = ::clone(child_main, stack_top, CLONE_VM | CLONE_PIDFD | SIGCHLD,
                      &image.plan, &pidfd);
  int clone_errno = errno;
  raw_syscall(SYS_rt_sigprocmask, SIG_SETMASK, arg(&saved), 0, kSigsetBytes);
  if (pid < 0) {
    if (clone_errno == ENOSYS || clone_errno == EPERM || clone_errno == EINVAL) {
      return std::nullopt;
    }
    throw util::SystemError("clone", clone_errno);
  }
  return SpawnedChild{pid, pidfd};
}

#else

std::optional<SpawnedChild> clone_vm_spawn(SpawnImage&, void*) { return std::nullopt; }

#endif

}  // namespace parcl::exec
