// SignalCoordinator: graceful-interruption plumbing for the engine.
//
// GNU Parallel's Ctrl-C contract: the first SIGINT/SIGTERM stops starting
// new jobs and drains the ones already running; a second one escalates
// through --termseq (e.g. TERM,200,KILL) to every live process group. The
// coordinator implements the async-signal-safe half of that contract with a
// self-pipe: the handler only writes the signal number to a non-blocking
// pipe, and the engine's wait loop calls poll() to observe what arrived (a
// loop that polls fds can wait on fd() and call poll() when it is readable).
// Tests drive the same path synthetically through notify(), so drain and
// escalation semantics are exercised without delivering real signals.
#pragma once

#include <csignal>
#include <string>
#include <vector>

namespace parcl::core {

/// One stage of a --termseq escalation: send `signal`, then wait `delay_ms`
/// before the next stage (the delay of the last stage is unused).
struct TermStage {
  int signal = SIGTERM;
  double delay_ms = 0.0;
};

/// Parses GNU Parallel's --termseq format: a comma-separated alternation of
/// signal names (with or without the SIG prefix) or numbers and millisecond
/// delays, e.g. "TERM,200,TERM,100,KILL". Throws ParseError on malformed
/// specs (empty, unknown signal, trailing delay, negative delay).
std::vector<TermStage> parse_termseq(const std::string& spec);

class SignalCoordinator {
 public:
  SignalCoordinator();
  /// Restores the previous SIGINT/SIGTERM dispositions when installed.
  ~SignalCoordinator();
  SignalCoordinator(const SignalCoordinator&) = delete;
  SignalCoordinator& operator=(const SignalCoordinator&) = delete;

  /// Installs SIGINT and SIGTERM handlers routing into this coordinator.
  /// Handlers are installed without SA_RESTART so a blocked wait loop's
  /// poll/read returns EINTR promptly. At most one coordinator may be
  /// installed per process at a time; a second install() throws ConfigError.
  void install();

  /// Records one delivered signal. Async-signal-safe (one pipe write); also
  /// the test entry point for synthetic interrupts.
  void notify(int sig) noexcept;

  /// Drains the self-pipe and returns the total number of termination
  /// signals observed so far. Called from the engine's wait loop.
  int poll() noexcept;

  /// The self-pipe's read end: polls readable once a signal has arrived
  /// that poll() has not read yet, so a loop that polls its own fds can
  /// wait on it too.
  int fd() const noexcept { return pipe_fds_[0]; }

  /// Signals observed so far (as of the last poll()).
  int count() const noexcept { return count_; }

  /// The first signal received (0 when none) — the N of the 128+N exit.
  int first_signal() const noexcept { return first_signal_; }

 private:
  int pipe_fds_[2] = {-1, -1};
  int count_ = 0;
  int first_signal_ = 0;
  bool installed_ = false;
  struct sigaction saved_int_ {};
  struct sigaction saved_term_ {};
};

}  // namespace parcl::core
