// parcl — a GNU-Parallel-compatible parallel job launcher.
//
// The runnable analog of every `parallel ...` invocation in the paper, e.g.
//   parcl -j128 ./payload.sh {} :::: inputs.txt
//   parcl -j8 --env 'HIP_VISIBLE_DEVICES={%}' celer-sim {} ::: *.inp.json
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "core/cli.hpp"
#include "core/client.hpp"
#include "core/engine.hpp"
#include "core/pipe.hpp"
#include "core/semaphore.hpp"
#include "core/server.hpp"
#include "core/signal_coordinator.hpp"
#include "exec/host_set.hpp"
#include "exec/local_executor.hpp"
#include "exec/multi_executor.hpp"
#include "exec/worker_agent.hpp"
#include "util/error.hpp"

namespace {

/// ":" runs on this machine; anything else rides an "ssh <host>" wrapper.
parcl::exec::HostSpec spec_for_entry(const parcl::exec::SshLoginEntry& entry) {
  parcl::exec::HostSpec spec;
  spec.jobs = entry.jobs;
  if (entry.host == ":") {
    spec.name = "localhost";
  } else {
    spec.name = entry.host;
    spec.wrapper = "ssh " + entry.host;
  }
  return spec;
}

/// The startup read of --sshlogin-file. With --watch, later edits flow in
/// through the cluster's HostSetController instead of this path.
std::vector<parcl::exec::SshLoginEntry> read_sshlogin_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw parcl::util::ConfigError("cannot read --sshlogin-file '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parcl::exec::parse_sshlogin_text(text.str());
}

/// Builds the --sshlogin fan-out: each remote host gets an "ssh <host>"
/// wrapper around a local backend; ":" runs directly on this machine. The
/// engine's slot count becomes the sum of per-host budgets.
std::unique_ptr<parcl::exec::MultiExecutor> make_cluster(parcl::core::RunPlan& plan) {
  using namespace parcl;
  std::vector<exec::HostSpec> hosts;
  hosts.reserve(plan.sshlogins.size());
  for (const core::SshLogin& login : plan.sshlogins) {
    exec::SshLoginEntry entry;
    entry.host = login.host;
    entry.jobs = login.jobs;
    hosts.push_back(spec_for_entry(entry));
  }
  if (!plan.options.sshlogin_file.empty()) {
    for (const exec::SshLoginEntry& entry :
         read_sshlogin_file(plan.options.sshlogin_file)) {
      exec::HostSpec spec = spec_for_entry(entry);
      // Tag the file's hosts with their entry identity: a --watch diff only
      // ever drains hosts the file contributed, never the -S ones above.
      spec.file_key = spec.name;
      hosts.push_back(std::move(spec));
    }
  }
  if (hosts.empty()) {
    throw util::ConfigError("--sshlogin-file '" + plan.options.sshlogin_file +
                            "' names no hosts (add one, or start with -S)");
  }
  exec::HealthPolicy policy;
  policy.quarantine_after = plan.options.quarantine_after;
  policy.probe_interval = plan.options.probe_interval_seconds;
  std::unique_ptr<exec::MultiExecutor> multi;
  if (plan.options.pilot) {
    // One persistent worker agent per host over a single framed connection;
    // remote agents ride one ssh each, the local host re-execs this binary.
    exec::PilotSettings settings;
    settings.heartbeat_interval = plan.options.heartbeat_interval_seconds;
    settings.reconnect_max = plan.options.reconnect_max;
    const std::string heartbeat =
        std::to_string(plan.options.heartbeat_interval_seconds);
    multi = exec::MultiExecutor::pilot_cluster(
        std::move(hosts),
        [heartbeat](const exec::HostSpec& spec) -> std::vector<std::string> {
          if (spec.wrapper.empty()) {
            return {"/proc/self/exe", "--worker", "--heartbeat-interval",
                    heartbeat};
          }
          return {"ssh", spec.name, "parcl", "--worker",
                  "--heartbeat-interval", heartbeat};
        },
        settings, policy);
  } else {
    multi = exec::MultiExecutor::local_cluster(std::move(hosts), policy);
  }
  plan.options.jobs = multi->total_slots();
  return multi;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace parcl;
  std::vector<std::string> args(argv + 1, argv + argc);
  try {
    core::RunPlan plan = core::parse_cli(args);
    if (plan.show_help) {
      std::cout << core::usage_text();
      return 0;
    }
    if (plan.show_version) {
      std::cout << core::version_text() << '\n';
      return 0;
    }
    if (plan.worker_mode) {
      // Pilot worker agent: serve the framed protocol on stdin/stdout until
      // the pilot drains us or the connection dies. Jobs run on a local
      // executor; the journal keeps results exactly-once across reconnects.
      exec::WorkerConfig config;
      config.heartbeat_interval = plan.options.heartbeat_interval_seconds;
      return exec::worker_agent_main(config);
    }
    if (plan.service.server) {
      // Job-service daemon: journaled intake, fair-share dispatch, two-phase
      // drain. Runs until signaled; queued work checkpoints in --state-dir.
      return core::run_server(plan);
    }
    if (plan.service.client) {
      // Submit this command line to a running --server instead of executing
      // locally; results collate back here.
      return core::run_client(plan, std::cin, std::cout, std::cerr);
    }
    if (plan.command_template.empty() && !plan.read_stdin &&
        plan.graph_file.empty()) {
      std::cerr << "parcl: no command given (try --help)\n";
      return 255;
    }
    // The CLI streams: per-job results are delivered through the collator
    // and the joblog, so keeping them all in the summary would reintroduce
    // the O(jobs) memory the streaming pipeline removes.
    plan.options.collect_results = false;
    exec::LocalExecutor executor;
    std::unique_ptr<exec::MultiExecutor> cluster;
    if (!plan.sshlogins.empty() || !plan.options.sshlogin_file.empty()) {
      cluster = make_cluster(plan);
      if (plan.options.watch_sshlogin_file) {
        exec::WatchSettings watch;
        watch.drain_grace = plan.options.drain_grace_seconds;
        watch.probe_new_hosts = plan.options.filter_hosts;
        cluster->watch_sshlogin_file(plan.options.sshlogin_file, spec_for_entry,
                                     watch);
      }
      if (plan.options.filter_hosts) {
        for (const std::string& name : cluster->filter_hosts()) {
          std::cerr << "parcl: --filter-hosts: dropping unreachable host '"
                    << name << "'\n";
        }
        bool any_usable = false;
        for (std::size_t slot = 1; slot <= cluster->total_slots(); ++slot) {
          if (cluster->slot_usable(slot)) {
            any_usable = true;
            break;
          }
        }
        if (!any_usable) {
          std::cerr << "parcl: --filter-hosts: no usable hosts remain\n";
          return 255;
        }
      }
    }
    core::Engine engine(plan.options,
                        cluster ? static_cast<core::Executor&>(*cluster) : executor);
    // First SIGINT/SIGTERM drains, second escalates --termseq; the CLI then
    // exits 128+N with the joblog and collated output intact.
    core::SignalCoordinator signals;
    signals.install();
    engine.set_signal_coordinator(&signals);
    core::RunSummary summary;
    if (plan.semaphore) {
      // sem mode: hold a slot of the named semaphore while the command runs.
      core::FileSemaphore semaphore(plan.semaphore_id, plan.options.effective_jobs());
      core::SemaphoreSlot slot =
          semaphore.acquire(plan.options.timeout_seconds > 0.0
                                ? plan.options.timeout_seconds
                                : -1.0);
      if (!slot.held()) {
        std::cerr << "parcl: timed out waiting for semaphore '"
                  << plan.semaphore_id << "'\n";
        return 255;
      }
      core::Options sem_options = plan.options;
      sem_options.jobs = 1;
      sem_options.output_mode = core::OutputMode::kUngroup;
      sem_options.timeout_seconds = 0.0;  // timeout applied to acquisition
      core::Engine sem_engine(sem_options, executor);
      sem_engine.set_signal_coordinator(&signals);
      summary = sem_engine.run_raw(plan.command_template);
      if (summary.interrupt_signal != 0) return 128 + summary.interrupt_signal;
      return summary.exit_status();
    }
    if (plan.options.pipe_mode) {
      core::PipeOptions pipe_options;
      pipe_options.block_bytes = plan.options.block_bytes;
      pipe_options.record_separator = plan.input_sep;
      core::PipeBlockSource blocks(std::cin, pipe_options);
      summary = engine.run_pipe_source(plan.command_template, blocks);
    } else {
      std::unique_ptr<core::JobSource> source = core::make_job_source(plan, std::cin);
      summary = engine.run_source(plan.command_template, *source);
    }
    if (summary.interrupt_signal != 0) return 128 + summary.interrupt_signal;
    return summary.exit_status();
  } catch (const util::Error& error) {
    std::cerr << "parcl: " << error.what() << '\n';
    return 255;
  }
}
