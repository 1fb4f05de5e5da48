// Container runtime models: bare metal, Shifter, Podman-HPC.
//
// Calibrated to Figs 3-5 on a Perlmutter CPU node:
//   bare metal: single `parallel` dispatches ~470 procs/s; many instances
//               saturate the node fork path at ~6,400 procs/s.
//   Shifter:    node ceiling ~5,200 launches/s (19% startup overhead over
//               bare metal); per-launch image-mount cost billed to the slot.
//   Podman-HPC: node ceiling ~65 launches/s (runtime daemon + sqlite db
//               locking serialize hard), plus reliability failures that
//               worsen with concurrency (user namespaces, setgid, tmp dirs).
//
// A ContainerHost owns the node-wide launch gate and the startup-overhead
// distribution, and makes the SimExecutor under each `parallel` instance
// that runs "inside" the runtime; the launch overhead and the launch
// failures are that executor's task model.
#pragma once

#include <cmath>
#include <memory>
#include <string>

#include "exec/sim_executor.hpp"
#include "sim/duration_model.hpp"
#include "sim/resource.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace parcl::container {

struct RuntimeProfile {
  std::string name;
  /// Seconds each launch holds the node-wide gate; 1/hold is the aggregate
  /// launches-per-second ceiling.
  double node_gate_hold = 0.0;
  /// Slot-billed startup overhead (container entry), lognormal.
  double startup_median = 0.0;
  double startup_sigma = 0.3;
  /// Launch failure model.
  double failure_base = 0.0;
  double failure_per_inflight = 0.0;

  static RuntimeProfile bare_metal();
  static RuntimeProfile shifter();
  static RuntimeProfile podman_hpc();
};

class ContainerHost {
 public:
  ContainerHost(sim::Simulation& sim, RuntimeProfile profile);
  ContainerHost(const ContainerHost&) = delete;  // its executors hold its address
  ContainerHost& operator=(const ContainerHost&) = delete;

  const RuntimeProfile& profile() const noexcept { return profile_; }

  /// The executor for one `parallel` instance inside this runtime. Each
  /// launch costs `dispatch_cost`, then passes the node gate. Each task
  /// pays the runtime's startup and then runs `payload_seconds`, unless
  /// its launch fails (exit 125, startup paid, no payload) with the
  /// profile's probability: the base plus `failure_per_inflight` per
  /// container the instance already runs. `rng` draws both, in that
  /// order. The host must outlive the executor.
  std::unique_ptr<exec::SimExecutor> executor(double dispatch_cost,
                                              double payload_seconds, util::Rng rng);

  /// Aggregate launch ceiling in launches/second (infinite when ungated).
  double launch_rate_ceiling() const noexcept;

 private:
  sim::Simulation& sim_;
  RuntimeProfile profile_;
  std::unique_ptr<sim::Resource> gate_;
  std::unique_ptr<sim::DurationModel> startup_;
};

}  // namespace parcl::container
