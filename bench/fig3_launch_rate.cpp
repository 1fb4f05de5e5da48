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
//       /bin/true, single instance (absolute rate depends on this host; the
//       paper's Perlmutter value is the reference), a bare command name
//       (`basename {}`) beside its forced-shell form, and the start-up cost
//       of the `parcl` binary itself beside `/bin/true`'s (each instance
//       of Listing 1's per-node script, each `sem` call and each --client
//       submit starts parcl once).
//   (b) SIM: the Perlmutter node model, sweeping instance count.
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "container/runtime.hpp"
#include "core/engine.hpp"
#include "exec/local_executor.hpp"
#include "exec/sim_driver.hpp"

#ifndef PARCL_BINARY_PATH
#error "PARCL_BINARY_PATH must be defined by the build"
#endif

namespace {

struct RealMeasurement {
  double rate = 0.0;  // launches/s over the dispatch window
  parcl::core::DispatchCounters counters;
};

/// Real measurement: dispatch `n` short commands through the engine and
/// LocalExecutor, return launches/s plus the executor's hot-path counters.
/// `command` defaults to the bypass-eligible "/bin/true {}"; appending a
/// shell metacharacter (" ;") forces the /bin/sh path for comparison. The
/// default -u skips the capture files (pure spawn cost); a command that
/// prints is measured with its output captured.
RealMeasurement measure_real_rate(
    std::size_t n, std::size_t jobs, const std::string& command = "/bin/true {}",
    parcl::core::OutputMode output_mode = parcl::core::OutputMode::kUngroup) {
  using namespace parcl;
  core::Options options;
  options.jobs = jobs;
  options.output_mode = output_mode;
  exec::LocalExecutor executor;
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

/// Seconds to fork, exec and reap `argv` with stdin, stdout and stderr on
/// /dev/null; throws unless it exits 0.
double time_one_start(char* const argv[]) {
  auto t0 = std::chrono::steady_clock::now();
  pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    int null = open("/dev/null", O_RDWR);
    for (int fd : {0, 1, 2}) dup2(null, fd);
    execv(argv[0], argv);
    _exit(127);
  }
  int status = 0;
  pid_t reaped;
  do {
    reaped = wait4(pid, &status, 0, nullptr);
  } while (reaped < 0 && errno == EINTR);
  auto t1 = std::chrono::steady_clock::now();
  if (reaped != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error(std::string(argv[0]) + " did not exit 0");
  }
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Start-up rates (starts/s) of `parcl -j1 /bin/true` on empty stdin and of
/// `/bin/true`, interleaved in rounds so a drift in host speed hits both.
std::pair<double, double> measure_start_rates(int rounds, int per_round) {
  char parcl_path[] = PARCL_BINARY_PATH;
  char jobs[] = "-j1";
  char true_path[] = "/bin/true";
  char* const parcl_argv[] = {parcl_path, jobs, true_path, nullptr};
  char* const true_argv[] = {true_path, nullptr};
  double parcl_s = 0.0, true_s = 0.0;
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < per_round; ++i) parcl_s += time_one_start(parcl_argv);
    for (int i = 0; i < per_round; ++i) true_s += time_one_start(true_argv);
  }
  const double starts = static_cast<double>(rounds) * per_round;
  return {starts / parcl_s, starts / true_s};
}

/// Sim measurement: `instances` parallel instances of zero-length tasks
/// through the bare-metal node gate; returns aggregate launches/s.
double measure_sim_rate(std::size_t instances, std::size_t tasks_each) {
  using namespace parcl;
  sim::Simulation sim;
  container::ContainerHost host(sim, container::RuntimeProfile::bare_metal());
  core::Options options;
  options.jobs = 256 / instances > 0 ? 256 / instances : 1;
  exec::SimDriver driver(sim, options);
  // The paper's 470/s is the observed single-instance rate, i.e. the
  // instance's own serial path plus its share of the node fork path.
  double dispatch_cost = 1.0 / 470.0 - host.profile().node_gate_hold;
  for (std::size_t i = 0; i < instances; ++i) {
    driver.add(0.0, tasks_each, [&host, dispatch_cost, i] {
      return host.executor(dispatch_cost, 0.0, util::Rng(41 + i));
    });
  }
  driver.run();
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
  // A bare command name that is no shell built-in execs directly from PATH;
  // its forced-shell form runs the same binary through /bin/sh -c.
  double real_bare = 0.0;
  double real_bare_shell = 0.0;
  for (bool forced : {false, true}) {
    RealMeasurement m = measure_real_rate(600, 64, forced ? "basename {} ;" : "basename {}",
                                          core::OutputMode::kGroup);
    (forced ? real_bare_shell : real_bare) = m.rate;
    real_table.add_row({"64", "600", forced ? "basename, sh -c" : "basename, bare",
                        util::format_double(m.rate, 0),
                        util::format_double(m.counters.mean_spawn_us(), 0)});
  }
  std::cout << real_table.render() << '\n';

  double wakeup_latency_s = measure_wakeup_latency(10);
  std::cout << "completion-to-wakeup (incl. spawn, no pipes): "
            << util::format_double(wakeup_latency_s * 1e3, 2) << " ms mean\n\n";

  // The one dispatch loop on the direct-exec workload; the BENCH_throughput
  // numbers carry `cores` so a guard can judge them in context.
  std::size_t cores = std::thread::hardware_concurrency();
  if (cores == 0) cores = 1;
  RealMeasurement serial = measure_real_rate(600, 64);
  std::cout << "(a2) direct-exec launch rate (" << cores << " cores): "
            << util::format_double(serial.rate, 0) << "/s\n\n";

  auto [parcl_starts, true_starts] = measure_start_rates(4, 100);
  std::cout << "(a3) start-up, fork/exec/wait4 on empty stdin: `parcl -j1 /bin/true` "
            << util::format_double(parcl_starts, 0) << "/s ("
            << util::format_double(1e3 / parcl_starts, 2) << " ms), `/bin/true` "
            << util::format_double(true_starts, 0) << "/s ("
            << util::format_double(1e3 / true_starts, 2) << " ms)\n\n";

  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  bench::BenchJson throughput("BENCH_throughput.json");
  throughput.set("fig3_throughput", "cores", static_cast<double>(cores));
  throughput.set("fig3_throughput", "launches_per_s_serial", serial.rate);
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
  check.add("parcl starts / /bin/true starts here", "(host-dependent)",
            parcl_starts / true_starts, 2, parcl_starts > 0.0);
  check.print();

  json.set("fig3_launch_rate", "launches_per_s", real_single);
  json.set("fig3_launch_rate", "launches_per_s_shell", real_shell);
  json.set("fig3_launch_rate", "launches_per_s_bare", real_bare);
  json.set("fig3_launch_rate", "launches_per_s_bare_shell", real_bare_shell);
  json.set("fig3_launch_rate", "mean_spawn_us", mean_spawn_us);
  json.set("fig3_launch_rate", "parcl_starts_per_s", parcl_starts);
  json.set("fig3_launch_rate", "true_starts_per_s", true_starts);
  json.set("fig3_launch_rate", "mean_completion_to_wakeup_us",
           wakeup_latency_s * 1e6);
  bench::stamp_provenance(json);
  json.write();
  std::cout << "wrote BENCH_dispatch.json\n";
  return check.exit_status();
}
