#include "exec/sim_executor.hpp"

#include <algorithm>
#include <csignal>
#include <utility>

#include "util/error.hpp"

namespace parcl::exec {

SimExecutor::SimExecutor(sim::Simulation& sim, TaskModel model, double dispatch_cost,
                         sim::Resource* gate, double gate_hold)
    : sim_(sim),
      model_(std::move(model)),
      dispatch_cost_(dispatch_cost),
      gate_(gate),
      gate_hold_(gate_hold) {
  if (!model_) throw util::ConfigError("sim executor needs a task model");
  if (dispatch_cost < 0.0) throw util::ConfigError("dispatch cost must be >= 0");
  if (gate_hold < 0.0) throw util::ConfigError("gate hold must be >= 0");
  if (gate_hold > 0.0 && gate == nullptr) {
    throw util::ConfigError("gate hold set without a launch gate");
  }
}

SimExecutor::~SimExecutor() { sim_.cancel(wake_); }

void SimExecutor::start(const core::ExecRequest& request) {
  ++active_;
  launches_.push_back(request);
  if (launches_.size() == 1) dispatch_next();  // the dispatcher was idle
  // Solo, start() blocks like a real fork+exec until the job has begun.
  while (!notify_ && !launches_.empty() && sim_.step()) {
  }
}

void SimExecutor::dispatch_next() {
  if (launches_.empty()) return;
  if (dispatch_cost_ > 0.0) {
    sim_.schedule(dispatch_cost_, [this] { pass_gate(); });
  } else {
    pass_gate();
  }
}

void SimExecutor::pass_gate() {
  auto launch = [this] {
    begin(launches_.front());
    launches_.pop_front();
    dispatch_next();
  };
  if (gate_ == nullptr) {
    launch();
    return;
  }
  // The dispatcher blocks in the launch while another launch holds the gate.
  gate_->acquire([this, launch] {
    sim_.schedule(gate_hold_, [this, launch] {
      gate_->release();
      launch();
    });
  });
}

void SimExecutor::begin(const core::ExecRequest& request) {
  const std::uint64_t id = request.job_id;
  auto [it, fresh] = jobs_.try_emplace(id);
  Job& job = it->second;
  job.result.job_id = id;
  job.result.start_time = sim_.now();
  if (!fresh) {
    // Only a kill while its launch was under way makes the record early;
    // the job then never begins.
    util::require(job.kill_signal != 0 && !job.ready,
                  "duplicate job id in SimExecutor::start");
    end(job);
    return;
  }
  SimOutcome outcome = model_(request);
  util::require(outcome.duration >= 0.0, "task model produced negative duration");
  core::ExecResult& result = job.result;
  result.exit_code = outcome.exit_code;
  result.term_signal = outcome.term_signal;
  if (outcome.term_signal != 0) result.exit_code = 128 + outcome.term_signal;
  result.stdout_data = std::move(outcome.stdout_data);
  result.host = std::move(outcome.host);
  result.host_failure = outcome.host_failure;
  job.body = std::move(outcome.body);
  // A kill within the duration cancels the timer, so `job` outlives it.
  job.timer = sim_.schedule(outcome.duration, [this, &job] {
    job.timer = {};
    if (auto body = std::exchange(job.body, nullptr)) {
      body([this, id = job.result.job_id] {
        auto it = jobs_.find(id);
        if (it != jobs_.end()) end(it->second);
      });
    } else {
      end(job);
    }
  });
}

void SimExecutor::end(Job& job) {
  if (job.ready) return;  // finished twice
  job.ready = true;
  job.result.end_time = sim_.now();
  if (job.kill_signal != 0) {
    job.result.term_signal = job.kill_signal;
    job.result.exit_code = 128 + job.kill_signal;
  }
  --active_;
  ready_.push_back(job.result.job_id);
  std::push_heap(ready_.begin(), ready_.end(), std::greater<>{});
  if (notify_) notify_();
}

std::optional<core::ExecResult> SimExecutor::take_ready() {
  if (ready_.empty()) return std::nullopt;
  std::pop_heap(ready_.begin(), ready_.end(), std::greater<>{});
  auto it = jobs_.find(ready_.back());
  ready_.pop_back();
  core::ExecResult result = std::move(it->second.result);
  jobs_.erase(it);
  return result;
}

std::optional<core::ExecResult> SimExecutor::wait_any(double timeout_seconds) {
  if (notify_) {
    // The driver owns the clock: the latest wait replaces any armed wake.
    sim_.cancel(wake_);
    wake_ = {};
    if (auto result = take_ready()) return result;
    if (timeout_seconds >= 0.0) {
      wake_ = sim_.schedule(timeout_seconds, [this] {
        wake_ = {};
        notify_();
      });
    }
    return std::nullopt;
  }

  if (auto result = take_ready()) return result;

  // Contract: a negative timeout with nothing in flight returns nullopt
  // immediately. Without this guard a shared simulation holding unrelated
  // events (node churn, other instances) would have its timeline burned down here
  // even though no completion can ever arrive.
  if (timeout_seconds < 0.0 && active_ == 0) return std::nullopt;

  double deadline = timeout_seconds < 0.0 ? -1.0 : sim_.now() + timeout_seconds;
  while (ready_.empty()) {
    sim::SimTime next = sim_.next_event_time();
    if (next < 0.0) {
      // Event queue exhausted: advance to the deadline if one exists.
      if (deadline >= 0.0 && deadline > sim_.now()) sim_.run_until(deadline);
      return std::nullopt;
    }
    if (deadline >= 0.0 && next > deadline) {
      // The next event lies beyond the timeout: honour the timeout first so
      // the engine can act (e.g. kill the job) at the right sim time.
      sim_.run_until(deadline);
      return std::nullopt;
    }
    sim_.step();
  }
  return take_ready();
}

void SimExecutor::kill(std::uint64_t job_id, bool force) {
  kill_signal(job_id, force ? SIGKILL : SIGTERM);
}

void SimExecutor::kill_signal(std::uint64_t job_id, int sig) {
  auto queued =
      std::find_if(launches_.begin(), launches_.end(),
                   [job_id](const core::ExecRequest& r) { return r.job_id == job_id; });
  auto it = jobs_.find(job_id);
  if (queued != launches_.end()) {
    it = jobs_.try_emplace(job_id).first;
  } else if (it == jobs_.end() || it->second.ready) {
    return;
  }
  Job& job = it->second;
  if (job.kill_signal != 0) return;  // already dying by an earlier signal
  job.kill_signal = sig;
  if (queued != launches_.end() && queued != launches_.begin()) {
    launches_.erase(queued);  // never launched; the front ends as its launch does
    job.result.job_id = job_id;
    job.result.start_time = sim_.now();
    end(job);
  } else if (job.timer.valid()) {
    // Within its duration it dies now, and its body never runs; a body
    // already running runs on, and the job ends with it.
    sim_.cancel(job.timer);
    job.body = nullptr;
    end(job);
  }
}

core::ResourcePressure SimExecutor::pressure() const {
  if (!pressure_model_) return {};
  return pressure_model_();
}

}  // namespace parcl::exec
