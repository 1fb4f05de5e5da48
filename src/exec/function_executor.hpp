// FunctionExecutor: runs jobs as in-process C++ callables on a thread pool.
//
// Two uses: (1) tests drive the engine with microsecond-scale fake tasks and
// scripted failures; (2) workloads (FORGE curation, Darshan parsing) run
// real C++ task bodies under the same engine that launches shell commands —
// the "last-mile parallelizing driver" pattern from the paper's conclusion.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>

#include "core/executor.hpp"
#include "util/thread_pool.hpp"

namespace parcl::exec {

/// What a task body reports back.
struct TaskOutcome {
  int exit_code = 0;
  std::string stdout_data;
  std::string stderr_data;
};

/// The task body. Receives the fully composed request (command string, env,
/// slot). Exceptions escaping the body become exit code 70 (EX_SOFTWARE)
/// with the message on stderr.
using TaskFn = std::function<TaskOutcome(const core::ExecRequest&)>;

class FunctionExecutor final : public core::Executor {
 public:
  /// `threads` workers execute task bodies concurrently.
  FunctionExecutor(TaskFn task, std::size_t threads);
  ~FunctionExecutor() override;

  void start(const core::ExecRequest& request) override;
  std::optional<core::ExecResult> wait_any(double timeout_seconds) override;
  /// Cooperative kill: the task body keeps running, but its result is
  /// reported as SIGTERM/SIGKILL. (In-process tasks cannot be pre-empted.)
  void kill(std::uint64_t job_id, bool force) override;
  std::size_t active_count() const override;
  double now() const override;
  /// An eventfd (EFD_SEMAPHORE) holding one count per queued completion.
  /// A worker queues and counts under one lock, and wait_any() takes both
  /// under it, so the fd polls readable exactly while wait_any(0) would
  /// return a completion.
  int readiness_fd() const override { return ready_fd_; }

 private:
  TaskFn task_;
  mutable std::mutex mutex_;
  std::condition_variable completed_;
  std::deque<core::ExecResult> completions_;   // guarded by mutex_
  std::map<std::uint64_t, int> kill_signals_;  // job_id -> pending signal
  std::size_t active_ = 0;
  double epoch_;
  int ready_fd_ = -1;
  util::ThreadPool pool_;  // last: its workers stop before the state they use
};

}  // namespace parcl::exec
