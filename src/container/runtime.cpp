#include "container/runtime.hpp"

#include <limits>

#include "util/error.hpp"

namespace parcl::container {

RuntimeProfile RuntimeProfile::bare_metal() {
  RuntimeProfile profile;
  profile.name = "bare-metal";
  profile.node_gate_hold = 1.0 / 6400.0;
  profile.startup_median = 0.0;  // plain fork/exec, no extra entry cost
  return profile;
}

RuntimeProfile RuntimeProfile::shifter() {
  RuntimeProfile profile;
  profile.name = "shifter";
  profile.node_gate_hold = 1.0 / 5200.0;
  // Slot-billed container entry: loop mount + chroot. The 19% figure in the
  // paper is the launch-rate gap; the entry cost shows up in short-task
  // utilization.
  profile.startup_median = 0.010;
  profile.startup_sigma = 0.2;
  return profile;
}

RuntimeProfile RuntimeProfile::podman_hpc() {
  RuntimeProfile profile;
  profile.name = "podman-hpc";
  profile.node_gate_hold = 1.0 / 65.0;
  profile.startup_median = 0.350;  // userns + storage driver setup
  profile.startup_sigma = 0.4;
  profile.failure_base = 0.002;        // occasional setgid/tmp-dir errors
  profile.failure_per_inflight = 0.0004;  // db locking under concurrency
  return profile;
}

ContainerHost::ContainerHost(sim::Simulation& sim, RuntimeProfile profile)
    : sim_(sim), profile_(std::move(profile)) {
  if (profile_.node_gate_hold < 0.0) {
    throw util::ConfigError("gate hold must be >= 0");
  }
  if (profile_.node_gate_hold > 0.0) {
    gate_ = std::make_unique<sim::Resource>(sim, profile_.name + ":launch-gate", 1);
  }
  if (profile_.startup_median > 0.0) {
    startup_ = std::make_unique<sim::LognormalDuration>(profile_.startup_median,
                                                        profile_.startup_sigma);
  }
}

std::unique_ptr<exec::SimExecutor> ContainerHost::executor(double dispatch_cost,
                                                           double payload_seconds,
                                                           util::Rng rng) {
  auto running = std::make_shared<std::size_t>(0);  // containers this instance runs
  exec::TaskModel model = [this, running, rng,
                           payload_seconds](const core::ExecRequest&) mutable {
    bool fails = rng.bernoulli(profile_.failure_base + profile_.failure_per_inflight *
                                                           static_cast<double>(*running));
    exec::SimOutcome outcome;
    outcome.duration = startup_ != nullptr ? startup_->sample(rng) : 0.0;
    if (!fails) outcome.duration += payload_seconds;
    outcome.exit_code = fails ? 125 : 0;
    ++*running;
    outcome.body = [running = running.get()](std::function<void()> finish) {
      --*running;
      finish();
    };
    return outcome;
  };
  return std::make_unique<exec::SimExecutor>(sim_, std::move(model), dispatch_cost,
                                             gate_.get(), profile_.node_gate_hold);
}

double ContainerHost::launch_rate_ceiling() const noexcept {
  if (profile_.node_gate_hold <= 0.0) return std::numeric_limits<double>::infinity();
  return 1.0 / profile_.node_gate_hold;
}

}  // namespace parcl::container
