#include "wms/weak_scaling.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "cluster/machine.hpp"
#include "exec/sim_driver.hpp"
#include "sim/duration_model.hpp"
#include "util/error.hpp"

namespace parcl::wms {

WeakScalingResult run_weak_scaling(const WeakScalingConfig& config) {
  if (config.nodes == 0) throw util::ConfigError("weak scaling needs nodes > 0");

  sim::Simulation sim;
  cluster::Machine machine = cluster::Machine::frontier(sim, config.nodes);
  util::Rng rng(config.seed);
  slurm::SlurmSim slurm(sim, config.slurm, rng.fork());

  double copy_bytes = config.final_copy_bytes > 0.0
                          ? config.final_copy_bytes
                          : config.stdout_bytes * static_cast<double>(config.tasks_per_node);

  WeakScalingResult result;
  result.nodes = config.nodes;
  result.total_tasks = config.nodes * config.tasks_per_node;
  result.node_spans.assign(config.nodes, 0.0);

  std::vector<double> alloc_delays = slurm.sample_allocation_delays(config.nodes);

  core::Options options;
  options.jobs = config.jobs;
  exec::SimDriver driver(sim, options);

  std::size_t nodes_done = 0;
  for (std::size_t n = 0; n < config.nodes; ++n) {
    util::Rng node_rng = rng.fork();
    util::Rng task_rng = node_rng.fork();

    // Each task runs the payload, then writes its stdout to the node's
    // NVMe; it ends when the write does.
    auto build = [&sim, &config, nvme = &machine.node(n).nvme(), task_rng] {
      sim::LognormalDuration payload(config.payload_median, config.payload_sigma);
      double bytes = config.stdout_bytes;
      exec::TaskModel model = [payload, rng = task_rng, nvme,
                               bytes](const core::ExecRequest&) mutable {
        exec::SimOutcome outcome;
        outcome.duration = payload.sample(rng);
        if (bytes > 0.0) {
          outcome.body = [nvme, bytes](auto finish) { nvme->transfer(bytes, finish); };
        }
        return outcome;
      };
      return std::make_unique<exec::SimExecutor>(sim, model, config.dispatch_cost);
    };

    // Node timeline: allocation wave -> setup -> instance -> Lustre copy.
    double setup = node_rng.lognormal(std::log(config.node_setup_median),
                                      config.node_setup_sigma);
    double start_delay = alloc_delays[n] + setup;
    driver.add(start_delay, config.tasks_per_node, std::move(build),
               [&sim, &machine, &result, &nodes_done, copy_bytes,
                n](const core::RunSummary&) {
                 if (copy_bytes > 0.0) {
                   machine.lustre_io(copy_bytes, [&sim, &result, &nodes_done, n] {
                     result.node_spans[n] = sim.now();
                     ++nodes_done;
                   });
                 } else {
                   result.node_spans[n] = sim.now();
                   ++nodes_done;
                 }
               });
  }

  driver.run();
  util::require(nodes_done == config.nodes, "weak scaling run did not drain");

  double latest = 0.0;
  for (double span : result.node_spans) latest = std::max(latest, span);
  result.makespan = latest;  // job starts at t=0
  return result;
}

WeakScalingConfig gpu_scaling_config(std::size_t nodes, double task_median_seconds,
                                     double task_sigma) {
  WeakScalingConfig config;
  config.nodes = nodes;
  config.tasks_per_node = 8;  // one per schedulable GPU
  config.jobs = 8;
  config.payload_median = task_median_seconds;
  config.payload_sigma = task_sigma;
  config.node_setup_median = 5.0;  // no module zoo for the GPU runs
  config.node_setup_sigma = 0.05;
  config.stdout_bytes = 65536.0;   // celer-sim JSON output
  config.final_copy_bytes = 0.0;
  // GPU-node allocation is the same wave; NVMe stragglers are not in play.
  config.slurm.straggler_probability = 0.0;
  return config;
}

}  // namespace parcl::wms
