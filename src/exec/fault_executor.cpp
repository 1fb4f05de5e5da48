#include "exec/fault_executor.hpp"

#include <cerrno>
#include <csignal>
#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace parcl::exec {

namespace {

/// SplitMix64 finalizer: decorrelates nearby inputs into seed material.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a over the command string: stable across runs and platforms.
std::uint64_t hash_command(const std::string& command) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : command) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

bool FaultPlan::inert() const noexcept {
  return spawn_failure_prob <= 0.0 && kill_prob <= 0.0 && fail_prob <= 0.0 &&
         truncate_prob <= 0.0 && straggler_prob <= 0.0;
}

FaultInjectingExecutor::FaultInjectingExecutor(core::Executor& inner, FaultPlan plan)
    : inner_(&inner), plan_(plan) {
  auto check = [](double p, const char* name) {
    if (p < 0.0 || p > 1.0) {
      throw util::ConfigError(std::string("fault probability out of range: ") + name);
    }
  };
  check(plan.spawn_failure_prob, "spawn_failure_prob");
  check(plan.kill_prob, "kill_prob");
  check(plan.fail_prob, "fail_prob");
  check(plan.truncate_prob, "truncate_prob");
  check(plan.straggler_prob, "straggler_prob");
  if (plan.straggler_delay_min < 0.0 ||
      plan.straggler_delay_max < plan.straggler_delay_min) {
    throw util::ConfigError("straggler delay range is invalid");
  }
  if (plan.fail_exit_code == 0) {
    throw util::ConfigError("fail_exit_code must be nonzero");
  }
}

FaultInjectingExecutor::FaultInjectingExecutor(std::unique_ptr<core::Executor> inner,
                                               FaultPlan plan)
    : FaultInjectingExecutor(*inner, plan) {
  owned_ = std::move(inner);
}

FaultInjectingExecutor::Decision FaultInjectingExecutor::decide(
    const std::string& command) {
  std::uint64_t attempt = attempt_index_[command]++;
  util::Rng rng(mix64(plan_.seed) ^ mix64(hash_command(command) + attempt));
  // Fixed draw order: every class consumes its draws whether or not it
  // fires, so plans with different probabilities stay stream-compatible.
  Decision decision;
  decision.spawn_fail = rng.bernoulli(plan_.spawn_failure_prob);
  decision.kill = rng.bernoulli(plan_.kill_prob);
  decision.fail = rng.bernoulli(plan_.fail_prob);
  decision.truncate = rng.bernoulli(plan_.truncate_prob);
  decision.truncate_fraction = rng.next_double();
  bool straggle = rng.bernoulli(plan_.straggler_prob);
  decision.delay =
      straggle ? rng.uniform(plan_.straggler_delay_min, plan_.straggler_delay_max)
               : 0.0;
  return decision;
}

void FaultInjectingExecutor::start(const core::ExecRequest& request) {
  Decision decision = decide(request.command);
  if (decision.spawn_fail) {
    ++counters_.spawn_failures;
    throw util::SystemError("injected spawn failure", EAGAIN);
  }
  pending_.emplace(request.job_id, decision);
  try {
    inner_->start(request);
  } catch (...) {
    pending_.erase(request.job_id);
    throw;
  }
  ++counters_.started;
}

void FaultInjectingExecutor::apply(const Decision& decision,
                                   core::ExecResult& result) {
  if (decision.kill) {
    ++counters_.kills;
    result.term_signal = SIGKILL;
    result.exit_code = 128 + SIGKILL;
  } else if (decision.fail && result.term_signal == 0 && result.exit_code == 0) {
    ++counters_.exit_rewrites;
    result.exit_code = plan_.fail_exit_code;
  }
  if (decision.truncate) {
    ++counters_.truncations;
    auto keep = static_cast<std::size_t>(
        decision.truncate_fraction * static_cast<double>(result.stdout_data.size()));
    result.stdout_data.resize(std::min(keep, result.stdout_data.size()));
    // Torn output accompanies a dying task, never a success.
    if (result.term_signal == 0 && result.exit_code == 0) {
      result.exit_code = plan_.fail_exit_code;
    }
  }
}

std::optional<core::ExecResult> FaultInjectingExecutor::take_due_held() {
  double now = inner_->now();
  auto due = held_.end();
  for (auto it = held_.begin(); it != held_.end(); ++it) {
    if (it->release_time > now) continue;
    if (due == held_.end() || it->release_time < due->release_time ||
        (it->release_time == due->release_time &&
         it->result.job_id < due->result.job_id)) {
      due = it;
    }
  }
  if (due == held_.end()) return std::nullopt;
  core::ExecResult result = std::move(due->result);
  held_.erase(due);
  return result;
}

std::optional<core::ExecResult> FaultInjectingExecutor::wait_any(
    double timeout_seconds) {
  const double deadline =
      timeout_seconds < 0.0 ? -1.0 : inner_->now() + timeout_seconds;
  while (true) {
    if (auto due = take_due_held()) {
      ++counters_.delivered;
      return due;
    }

    double now = inner_->now();
    // Wait on the backend until the caller's deadline or the next straggler
    // release, whichever comes first.
    double inner_wait;
    if (!held_.empty()) {
      double next_release = std::numeric_limits<double>::infinity();
      for (const Held& held : held_) {
        next_release = std::min(next_release, held.release_time);
      }
      inner_wait = std::max(0.0, next_release - now);
      if (deadline >= 0.0) inner_wait = std::min(inner_wait, std::max(0.0, deadline - now));
    } else if (deadline < 0.0) {
      inner_wait = -1.0;
    } else {
      inner_wait = std::max(0.0, deadline - now);
    }

    std::optional<core::ExecResult> completion = inner_->wait_any(inner_wait);
    if (completion) {
      auto it = pending_.find(completion->job_id);
      Decision decision = it == pending_.end() ? Decision{} : it->second;
      if (it != pending_.end()) pending_.erase(it);
      apply(decision, *completion);
      if (decision.delay > 0.0) {
        ++counters_.stragglers;
        double release = completion->end_time + decision.delay;
        held_.push_back(Held{std::move(*completion), release});
        continue;  // the loop re-checks for due releases
      }
      ++counters_.delivered;
      return completion;
    }

    // Backend timed out. Surface any straggler that just came due; else
    // honour the caller's deadline.
    if (auto due = take_due_held()) {
      ++counters_.delivered;
      return due;
    }
    now = inner_->now();
    if (deadline < 0.0) {
      // Indefinite wait: keep waiting only while something can still
      // complete (backend jobs or held results).
      if (inner_->active_count() == 0 && held_.empty()) return std::nullopt;
      continue;
    }
    if (now >= deadline) return std::nullopt;
  }
}

void FaultInjectingExecutor::kill(std::uint64_t job_id, bool force) {
  // A held result is already dead inside the backend; the kill is a no-op
  // and the single held completion still surfaces through wait_any().
  inner_->kill(job_id, force);
}

std::size_t FaultInjectingExecutor::active_count() const {
  return inner_->active_count() + held_.size();
}

TaskModel churn_task_model(sim::Simulation& sim, sim::DurationModel& durations,
                           sim::NodeChurnModel& churn, util::Rng& rng) {
  return [&sim, &durations, &churn, &rng](const core::ExecRequest& request) {
    SimOutcome outcome;
    outcome.host = "node" + std::to_string(churn.node_of_slot(request.slot));
    double duration = durations.sample(rng);
    double start = sim.now();
    if (auto failed_at = churn.failure_within(request.slot, start, duration)) {
      // The node died under the job: it ends early, killed. Flagging
      // host_failure lets the engine requeue the attempt free of --retries.
      outcome.duration = *failed_at - start;
      outcome.exit_code = 128 + SIGKILL;
      outcome.host_failure = true;
      return outcome;
    }
    outcome.duration = duration;
    outcome.stdout_data = request.command + "\n";
    return outcome;
  };
}

std::function<std::unique_ptr<core::Executor>(const HostSpec&)>
per_host_fault_factory(
    std::function<std::unique_ptr<core::Executor>(const HostSpec&)> base,
    std::map<std::string, FaultPlan> plans,
    std::map<std::string, FaultInjectingExecutor*>* taps) {
  // The returned factory is called once per host at MultiExecutor
  // construction; copies of `plans` and `base` live inside the closure.
  return [base = std::move(base), plans = std::move(plans),
          taps](const HostSpec& spec) -> std::unique_ptr<core::Executor> {
    std::unique_ptr<core::Executor> backend = base(spec);
    auto it = plans.find(spec.name);
    if (it == plans.end()) return backend;
    auto injector =
        std::make_unique<FaultInjectingExecutor>(std::move(backend), it->second);
    if (taps != nullptr) (*taps)[spec.name] = injector.get();
    return injector;
  };
}

}  // namespace parcl::exec
