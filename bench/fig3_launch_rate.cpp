// Fig 3: maximum tasks launched per second on a Perlmutter CPU node with
// multiple concurrent GNU Parallel instances.
//
// Paper anchors: a single instance launches ~470 processes/second; the
// aggregate ceiling with many instances is ~6,400/second; full 256-thread
// utilization needs tasks >= 545 ms with one instance, or as short as 40 ms
// at the aggregate rate.
//
// Two measurements:
//   (a) REAL: this machine — the parcl engine + LocalExecutor launching
//       /bin/true through /bin/sh, single instance (absolute rate depends on
//       this host; the paper's Perlmutter value is the reference).
//   (b) SIM: the Perlmutter node model, sweeping instance count.
#include <sys/resource.h>

#include <algorithm>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "cluster/parallel_instance.hpp"
#include "container/runtime.hpp"
#include "core/engine.hpp"
#include "exec/local_executor.hpp"
#include "sim/duration_model.hpp"

namespace {

struct RealMeasurement {
  double rate = 0.0;  // launches/s over the dispatch window
  parcl::core::DispatchCounters counters;
};

/// Real measurement: dispatch `n` no-op commands through the engine and
/// LocalExecutor, return launches/s plus the executor's hot-path counters.
/// `command` defaults to the bypass-eligible "/bin/true {}"; appending a
/// shell metacharacter (" ;") forces the /bin/sh path for comparison.
/// `zygote` forks the children from a preforked helper (--zygote).
RealMeasurement measure_real_rate(std::size_t n, std::size_t jobs,
                                  const std::string& command = "/bin/true {}",
                                  bool zygote = false) {
  using namespace parcl;
  core::Options options;
  options.jobs = jobs;
  options.zygote = zygote;
  options.output_mode = core::OutputMode::kUngroup;  // no pipes: pure spawn cost
  exec::SpawnTuning tuning;
  tuning.zygote = zygote;
  exec::LocalExecutor executor{tuning};
  std::ostringstream sink_out, sink_err;
  core::Engine engine(options, executor, sink_out, sink_err);
  std::vector<core::ArgVector> inputs;
  inputs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) inputs.push_back({std::to_string(i)});
  core::RunSummary summary = engine.run(command, std::move(inputs));
  return RealMeasurement{summary.dispatch_rate(), executor.counters()};
}

/// Completion-to-wakeup latency: a child of known lifetime, no capture pipes
/// (the configuration that used to ride the 100 ms waitpid sweep), observed
/// through wait_any(). Returns the mean extra seconds past the nominal
/// child lifetime — spawn cost plus the reaper's wakeup latency.
double measure_wakeup_latency(std::size_t samples) {
  using namespace parcl;
  exec::LocalExecutor executor;
  const double lifetime = 0.05;
  double total = 0.0;
  for (std::size_t i = 0; i < samples; ++i) {
    core::ExecRequest request;
    request.job_id = i + 1;
    request.command = "/bin/sleep 0.05";
    request.use_shell = false;
    request.capture_output = false;
    double t0 = executor.now();
    executor.start(request);
    auto result = executor.wait_any(5.0);
    double elapsed = executor.now() - t0;
    if (result) total += std::max(0.0, elapsed - lifetime);
  }
  return total / static_cast<double>(samples);
}

/// Sim measurement: `instances` parallel instances of zero-length tasks
/// through the bare-metal node gate; returns aggregate launches/s.
double measure_sim_rate(std::size_t instances, std::size_t tasks_each) {
  using namespace parcl;
  sim::Simulation sim;
  container::ContainerHost host(sim, container::RuntimeProfile::bare_metal());
  sim::FixedDuration duration(0.0);
  std::vector<std::unique_ptr<cluster::ParallelInstance>> pool;
  for (std::size_t i = 0; i < instances; ++i) {
    cluster::InstanceConfig config;
    config.jobs = 256 / instances > 0 ? 256 / instances : 1;
    config.task_count = tasks_each;
    config.duration = &duration;
    host.configure(config);
    config.launch_overhead = nullptr;
    // The paper's 470/s is the observed single-instance rate, i.e. the
    // instance's own serial path plus its share of the node fork path.
    config.dispatch_cost = 1.0 / 470.0 - config.launch_gate_hold;
    pool.push_back(std::make_unique<cluster::ParallelInstance>(
        sim, config, parcl::util::Rng(41 + i)));
    pool.back()->run(0.0, [](const cluster::InstanceStats&) {});
  }
  sim.run();
  return static_cast<double>(instances * tasks_each) / sim.now();
}

}  // namespace

int main() {
  using namespace parcl;
  bench::print_header("Fig 3", "maximum launch rate, multiple parallel instances");

  std::cout << "(a) real engine on this host (single instance, /bin/true):\n";
  util::Table real_table({"jobs", "tasks", "path", "launches_per_s", "spawn_us"});
  double real_single = 0.0;
  double real_shell = 0.0;
  double mean_spawn_us = 0.0;
  bench::BenchJson json("BENCH_dispatch.json");
  for (std::size_t jobs : {16u, 64u, 128u}) {
    RealMeasurement m = measure_real_rate(600, jobs);
    real_single = std::max(real_single, m.rate);
    mean_spawn_us = m.counters.mean_spawn_us();
    real_table.add_row({std::to_string(jobs), "600", "fast",
                        util::format_double(m.rate, 0),
                        util::format_double(mean_spawn_us, 0)});
    json.set("fig3_launch_rate", "launches_per_s_j" + std::to_string(jobs),
             m.rate);
  }
  {
    // Same workload through a forced /bin/sh -c for comparison: a trailing
    // ";" defeats the metacharacter-free direct-exec bypass.
    RealMeasurement m = measure_real_rate(600, 64, "/bin/true {} ;");
    real_shell = m.rate;
    real_table.add_row({"64", "600", "sh -c", util::format_double(m.rate, 0),
                        util::format_double(m.counters.mean_spawn_us(), 0)});
  }
  std::cout << real_table.render() << '\n';

  double wakeup_latency_s = measure_wakeup_latency(10);
  std::cout << "completion-to-wakeup (incl. spawn, no pipes): "
            << util::format_double(wakeup_latency_s * 1e3, 2) << " ms mean\n\n";

  // The one dispatch loop with and without the --zygote spawn helper on the
  // same workload; the BENCH_throughput numbers carry `cores` so a guard can
  // judge them in context.
  std::size_t cores = std::thread::hardware_concurrency();
  if (cores == 0) cores = 1;
  std::cout << "(a2) spawn path (" << cores << " cores):\n";
  util::Table spawn_table({"spawn", "launches_per_s", "vs_direct"});
  RealMeasurement serial = measure_real_rate(600, 64);
  spawn_table.add_row({"direct", util::format_double(serial.rate, 0), "1.00"});
  RealMeasurement zygote = measure_real_rate(600, 64, "/bin/true {}", /*zygote=*/true);
  spawn_table.add_row({"zygote", util::format_double(zygote.rate, 0),
                       util::format_double(
                           serial.rate > 0.0 ? zygote.rate / serial.rate : 0.0, 2)});
  std::cout << spawn_table.render() << '\n';

  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  bench::BenchJson throughput("BENCH_throughput.json");
  throughput.set("fig3_throughput", "cores", static_cast<double>(cores));
  throughput.set("fig3_throughput", "launches_per_s_serial", serial.rate);
  throughput.set("fig3_throughput", "launches_per_s_zygote", zygote.rate);
  throughput.set("fig3_throughput", "max_rss_kb",
                 static_cast<double>(usage.ru_maxrss));
  bench::stamp_provenance(throughput);
  throughput.write();
  std::cout << "wrote BENCH_throughput.json\n\n";

  std::cout << "(b) simulated Perlmutter CPU node, sweeping instances:\n";
  util::Table sim_table({"instances", "aggregate_per_s", "per_instance_per_s"});
  double single_rate = 0.0, peak_rate = 0.0;
  for (std::size_t instances : {1u, 2u, 4u, 8u, 16u, 24u, 32u}) {
    double rate = measure_sim_rate(instances, 2000);
    if (instances == 1) single_rate = rate;
    peak_rate = std::max(peak_rate, rate);
    sim_table.add_row({std::to_string(instances), util::format_double(rate, 0),
                       util::format_double(rate / instances, 0)});
  }
  std::cout << sim_table.render() << '\n';

  // Utilization crossover: a 256-thread node stays saturated when task
  // duration >= threads / launch_rate.
  double single_crossover_ms = 256.0 / single_rate * 1e3;
  double aggregate_crossover_ms = 256.0 / peak_rate * 1e3;

  bench::CheckTable check;
  check.add("single-instance rate (procs/s)", "470", single_rate, 0,
            single_rate > 400.0 && single_rate <= 470.0);
  check.add("aggregate ceiling (procs/s)", "6,400", peak_rate, 0,
            peak_rate > 5800.0 && peak_rate <= 6400.0);
  check.add("min task for full node, 1 instance (ms)", "545", single_crossover_ms, 0,
            single_crossover_ms > 500.0 && single_crossover_ms < 650.0);
  check.add("min task at aggregate rate (ms)", "40", aggregate_crossover_ms, 0,
            aggregate_crossover_ms > 35.0 && aggregate_crossover_ms < 50.0);
  check.add("real single-instance rate here (procs/s)", "(host-dependent)",
            real_single, 0, real_single > 0.0);
  check.print();

  json.set("fig3_launch_rate", "launches_per_s", real_single);
  json.set("fig3_launch_rate", "launches_per_s_shell", real_shell);
  json.set("fig3_launch_rate", "mean_spawn_us", mean_spawn_us);
  json.set("fig3_launch_rate", "mean_completion_to_wakeup_us",
           wakeup_latency_s * 1e6);
  bench::stamp_provenance(json);
  json.write();
  std::cout << "wrote BENCH_dispatch.json\n";
  return 0;
}
