#include "wms/srun_loop.hpp"

#include <algorithm>
#include <memory>

#include "util/error.hpp"

namespace parcl::wms {

SrunLoopResult run_srun_loop(sim::Simulation& sim, slurm::SlurmSim& slurm,
                             SrunLoopConfig config, util::Rng rng) {
  if (config.duration == nullptr) throw util::ConfigError("srun loop needs a duration model");

  auto result = std::make_shared<SrunLoopResult>();
  auto completed = std::make_shared<std::size_t>(0);
  auto last_end = std::make_shared<double>(0.0);
  auto rng_ptr = std::make_shared<util::Rng>(rng);
  auto config_ptr = std::make_shared<SrunLoopConfig>(config);

  // The bash loop body, one iteration per task. The next iteration's event
  // holds the body weakly: a strong self-reference would keep the body, and
  // everything it captures, alive after the loop ends.
  auto submit = std::make_shared<std::function<void(std::size_t)>>();
  std::weak_ptr<std::function<void(std::size_t)>> next = submit;
  *submit = [&sim, &slurm, result, completed, last_end, rng_ptr, config_ptr,
             next](std::size_t index) {
    slurm.srun([&sim, result, completed, last_end, rng_ptr, config_ptr, index] {
      // Task launched: it now runs for its sampled duration.
      result->submission_window = sim.now();
      ++result->sruns_issued;
      double duration = config_ptr->duration->sample(*rng_ptr);
      sim.schedule(duration, [&sim, result, completed, last_end, config_ptr] {
        *last_end = std::max(*last_end, sim.now());
        if (++*completed == config_ptr->tasks) result->makespan = *last_end;
      });
    });
    // The loop sleeps, then submits the next task (submission does not wait
    // for the srun to finish: Listing 4 backgrounds each srun with `&`).
    if (index + 1 < config_ptr->tasks) {
      sim.schedule(config_ptr->sleep_between, [next, index] {
        if (auto body = next.lock()) (*body)(index + 1);
      });
    }
  };

  SrunLoopResult final_result;
  if (config.tasks > 0) {
    (*submit)(0);
    sim.run();
    final_result = *result;
  }
  return final_result;
}

}  // namespace parcl::wms
