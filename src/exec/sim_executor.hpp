// SimExecutor: runs the engine against a discrete-event simulation.
//
// Jobs do not execute; a TaskModel decides each job's simulated duration and
// outcome as the job begins. This lets the *same* engine logic be measured
// at cluster scale: 128 slots, a million jobs, zero real seconds per job.
//
// Launches queue behind the instance's one dispatcher, as in a real
// `parallel` process: each pays `dispatch_cost`, then passes an optional
// node-wide launch gate (a sim::Resource held for `gate_hold` seconds),
// and only then does the job begin. start() itself never advances the
// clock while a driver (exec::SimDriver) owns it; a solo executor runs the
// clock until the launch begins, as a blocking fork+exec would.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/executor.hpp"
#include "sim/resource.hpp"
#include "sim/simulation.hpp"

namespace parcl::exec {

/// Simulated outcome of a job.
struct SimOutcome {
  double duration = 0.0;  // service time in sim seconds
  int exit_code = 0;
  std::string stdout_data;
  int term_signal = 0;  // non-zero: the job dies by this signal instead
  /// Simulated host/node label ("" = none). Churn task models stamp the
  /// node so the joblog Host column shows where the attempt ran.
  std::string host;
  /// The simulated node died under the job (node churn): the engine
  /// requeues the attempt without charging --retries.
  bool host_failure = false;
  /// When set, runs once `duration` has passed, and the job ends when the
  /// body calls `finish`: e.g. after writing its stdout through a
  /// sim::SharedBandwidth, or after holding a sim::Resource. A kill does
  /// not cut a running body short; the job ends, as killed, with it.
  std::function<void(std::function<void()> finish)> body;
};

/// Decides the fate of a simulated job as it begins. May inspect
/// command/env/slot.
using TaskModel = std::function<SimOutcome(const core::ExecRequest&)>;

class SimExecutor final : public core::Executor {
 public:
  /// `dispatch_cost`: sim seconds the dispatcher spends on each launch
  /// (Fig 3: ~1/470 s). `gate`, when set, is passed after that cost and
  /// held for `gate_hold` seconds, capping the launch rate of every
  /// instance that shares it (the node's fork path or container runtime).
  SimExecutor(sim::Simulation& sim, TaskModel model, double dispatch_cost = 0.0,
              sim::Resource* gate = nullptr, double gate_hold = 0.0);
  ~SimExecutor() override;
  SimExecutor(const SimExecutor&) = delete;  // sim events hold its address
  SimExecutor& operator=(const SimExecutor&) = delete;

  void start(const core::ExecRequest& request) override;
  /// Solo: runs the clock to the next completion or the timeout. Under a
  /// driver: fires no event; returns a ready completion, or arms a wake at
  /// the timeout (none when negative) and returns nullopt.
  std::optional<core::ExecResult> wait_any(double timeout_seconds) override;
  void kill(std::uint64_t job_id, bool force) override;
  /// Simulated jobs die by exactly the signal sent (--termseq stages show
  /// up verbatim in the joblog Signal column).
  void kill_signal(std::uint64_t job_id, int sig) override;
  core::ResourcePressure pressure() const override;
  std::size_t active_count() const override { return active_; }
  double now() const override { return sim_.now(); }

  /// Hands the clock to a driver: from now on start() and wait_any() fire
  /// no event, and `notify` runs whenever a completion becomes ready or an
  /// armed wake fires.
  void attach(std::function<void()> notify) { notify_ = std::move(notify); }

  /// Models node pressure for --memfree/--load studies; called on every
  /// engine probe. Unset, pressure() reports "unknown" (guards inert).
  void set_pressure_model(std::function<core::ResourcePressure()> model) {
    pressure_model_ = std::move(model);
  }

  /// Maps a slot to its simulated failure domain (node id), enabling
  /// --hedge placement studies in sim time. Unset, every slot shares one
  /// domain and hedging stays inert.
  void set_slot_domain_model(std::function<std::size_t(std::size_t)> model) {
    slot_domain_ = std::move(model);
  }
  bool same_failure_domain(std::size_t a, std::size_t b) const override {
    if (!slot_domain_) return true;
    return slot_domain_(a) == slot_domain_(b);
  }

 private:
  // A job that has begun, or was killed before it could.
  struct Job {
    core::ExecResult result;
    std::function<void(std::function<void()>)> body;  // runs after duration
    sim::EventHandle timer;  // pending while the job is within its duration
    int kill_signal = 0;
    bool ready = false;  // ended; waits in ready_
  };

  void dispatch_next();
  void pass_gate();
  void begin(const core::ExecRequest& request);
  void end(Job& job);
  std::optional<core::ExecResult> take_ready();

  sim::Simulation& sim_;
  TaskModel model_;
  double dispatch_cost_;
  sim::Resource* gate_;
  double gate_hold_;

  std::deque<core::ExecRequest> launches_;  // the dispatcher is on the front
  std::unordered_map<std::uint64_t, Job> jobs_;
  std::vector<std::uint64_t> ready_;  // min-heap: lowest id first
  std::size_t active_ = 0;            // started, not yet ready

  std::function<void()> notify_;  // set: a driver owns the clock
  sim::EventHandle wake_;
  std::function<core::ResourcePressure()> pressure_model_;
  std::function<std::size_t(std::size_t)> slot_domain_;
};

}  // namespace parcl::exec
