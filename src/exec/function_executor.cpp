#include "exec/function_executor.hpp"

#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>

#include "util/error.hpp"

namespace parcl::exec {

namespace {
double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

FunctionExecutor::FunctionExecutor(TaskFn task, std::size_t threads)
    : task_(std::move(task)), pool_(threads), epoch_(monotonic_seconds()) {
  ready_fd_ = eventfd(0, EFD_SEMAPHORE | EFD_NONBLOCK | EFD_CLOEXEC);
  if (ready_fd_ < 0) throw util::SystemError("eventfd", errno);
}

FunctionExecutor::~FunctionExecutor() {
  pool_.wait_idle();
  close(ready_fd_);
}

double FunctionExecutor::now() const { return monotonic_seconds() - epoch_; }

std::size_t FunctionExecutor::active_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_;
}

void FunctionExecutor::start(const core::ExecRequest& request) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++active_;
  }
  pool_.submit([this, request] {
    core::ExecResult result;
    result.job_id = request.job_id;
    result.start_time = now();
    try {
      TaskOutcome outcome = task_(request);
      result.exit_code = outcome.exit_code;
      result.stdout_data = std::move(outcome.stdout_data);
      result.stderr_data = std::move(outcome.stderr_data);
    } catch (const std::exception& error) {
      result.exit_code = 70;  // EX_SOFTWARE
      result.stderr_data = error.what();
    }
    result.end_time = now();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = kill_signals_.find(request.job_id);
      if (it != kill_signals_.end()) {
        result.term_signal = it->second;
        result.exit_code = 128 + it->second;
        kill_signals_.erase(it);
      }
    }
    // Count before queueing, so a pop always finds its count to take.
    eventfd_write(ready_fd_, 1);
    completions_.push(std::move(result));
  });
}

std::optional<core::ExecResult> FunctionExecutor::wait_any(double timeout_seconds) {
  std::optional<core::ExecResult> result;
  if (timeout_seconds < 0.0) {
    bool anything_active;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      anything_active = active_ > 0;
    }
    if (!anything_active) return std::nullopt;
    result = completions_.pop();
  } else {
    result = completions_.pop_for(timeout_seconds);
  }
  if (result) {
    eventfd_t count = 0;
    eventfd_read(ready_fd_, &count);  // takes one: EFD_SEMAPHORE
    std::lock_guard<std::mutex> lock(mutex_);
    --active_;
  }
  return result;
}

void FunctionExecutor::kill(std::uint64_t job_id, bool force) {
  std::lock_guard<std::mutex> lock(mutex_);
  kill_signals_[job_id] = force ? SIGKILL : SIGTERM;
}

}  // namespace parcl::exec
