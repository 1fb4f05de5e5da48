#include "core/signal_coordinator.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace parcl::core {

namespace {

// The handler can only reach process-global state; install() enforces that
// a single coordinator owns these at a time.
std::atomic<int> g_signal_pipe_write{-1};

void termination_handler(int sig) {
  int fd = g_signal_pipe_write.load(std::memory_order_relaxed);
  if (fd < 0) return;
  int saved_errno = errno;
  unsigned char byte = static_cast<unsigned char>(sig);
  [[maybe_unused]] ssize_t n = write(fd, &byte, 1);
  errno = saved_errno;
}

int signal_by_name(const std::string& name) {
  std::string upper;
  upper.reserve(name.size());
  for (char c : name) upper += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  if (util::starts_with(upper, "SIG")) upper = upper.substr(3);
  if (upper == "TERM") return SIGTERM;
  if (upper == "KILL") return SIGKILL;
  if (upper == "INT") return SIGINT;
  if (upper == "HUP") return SIGHUP;
  if (upper == "QUIT") return SIGQUIT;
  if (upper == "USR1") return SIGUSR1;
  if (upper == "USR2") return SIGUSR2;
  return -1;
}

}  // namespace

std::vector<TermStage> parse_termseq(const std::string& spec) {
  if (spec.empty()) throw util::ParseError("--termseq: empty spec");
  std::vector<TermStage> stages;
  bool expect_signal = true;
  for (const std::string& token : util::split(spec, ',')) {
    if (token.empty()) throw util::ParseError("--termseq: empty field in '" + spec + "'");
    if (expect_signal) {
      int sig = signal_by_name(token);
      if (sig < 0) {
        // Numeric signals are accepted too (parallel allows e.g. "9").
        bool numeric = true;
        for (char c : token) numeric = numeric && std::isdigit(static_cast<unsigned char>(c)) != 0;
        if (!numeric) throw util::ParseError("--termseq: unknown signal '" + token + "'");
        sig = static_cast<int>(util::parse_long(token));
        if (sig <= 0 || sig >= 64) throw util::ParseError("--termseq: signal out of range '" + token + "'");
      }
      stages.push_back({sig, 0.0});
    } else {
      double ms = util::parse_double(token);
      if (ms < 0.0) throw util::ParseError("--termseq: negative delay '" + token + "'");
      stages.back().delay_ms = ms;
    }
    expect_signal = !expect_signal;
  }
  if (expect_signal) {
    throw util::ParseError("--termseq: spec '" + spec + "' ends with a delay, expected a signal");
  }
  return stages;
}

SignalCoordinator::SignalCoordinator() {
  if (pipe2(pipe_fds_, O_NONBLOCK | O_CLOEXEC) != 0) {
    throw util::SystemError("signal self-pipe", errno);
  }
}

SignalCoordinator::~SignalCoordinator() {
  if (installed_) {
    sigaction(SIGINT, &saved_int_, nullptr);
    sigaction(SIGTERM, &saved_term_, nullptr);
    g_signal_pipe_write.store(-1, std::memory_order_relaxed);
  }
  close(pipe_fds_[0]);
  close(pipe_fds_[1]);
}

void SignalCoordinator::install() {
  if (installed_) return;
  int expected = -1;
  if (!g_signal_pipe_write.compare_exchange_strong(expected, pipe_fds_[1])) {
    throw util::ConfigError("a SignalCoordinator is already installed");
  }
  struct sigaction action {};
  action.sa_handler = termination_handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: interrupt blocking waits promptly
  if (sigaction(SIGINT, &action, &saved_int_) != 0 ||
      sigaction(SIGTERM, &action, &saved_term_) != 0) {
    g_signal_pipe_write.store(-1, std::memory_order_relaxed);
    throw util::SystemError("sigaction", errno);
  }
  installed_ = true;
}

void SignalCoordinator::notify(int sig) noexcept {
  unsigned char byte = static_cast<unsigned char>(sig);
  [[maybe_unused]] ssize_t n = write(pipe_fds_[1], &byte, 1);
}

int SignalCoordinator::poll() noexcept {
  unsigned char buffer[64];
  while (true) {
    ssize_t n = read(pipe_fds_[0], buffer, sizeof(buffer));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    for (ssize_t i = 0; i < n; ++i) {
      ++count_;
      if (first_signal_ == 0) first_signal_ = static_cast<int>(buffer[i]);
    }
  }
  return count_;
}

}  // namespace parcl::core
