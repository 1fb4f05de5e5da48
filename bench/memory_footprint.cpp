// Peak-RSS footprint of the streaming job pipeline.
//
// The refactor's memory claim: the engine pulls jobs from a JobSource one at
// a time, so peak RSS is bounded by the window of in-flight work — not by
// the total job count. Each measurement forks a child that drives the engine
// from a lazily generated FunctionSource through a zero-cost SimExecutor,
// then reads the child's ru_maxrss via wait4. Scales 10k / 100k / 1M items;
// a materialized (vector-of-args) run at the small scales shows the O(jobs)
// baseline the streaming path removes, and a two-stage --then chain over the
// same stream shows that a chain keeps only its live items. A halted chain
// (stage 2 fails under --halt now,fail=1) shows that the end of a run skips
// the unread input without holding it. A pilot run drives the same stream
// through a PilotExecutor, its worker agent on a thread (ThreadWorkerTransport)
// with a zero-cost FunctionExecutor inside, at 10k and 1M items: what the
// pilot keeps per delivered job would show here.
//
// Self-asserts sub-linear growth — peak RSS at 1M items must stay within 2x
// of the 10k-item run, flat, chained, halted and through the pilot — and
// records everything in BENCH_dispatch.json for the CI regression guard.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/dag_source.hpp"
#include "core/engine.hpp"
#include "core/job_source.hpp"
#include "exec/function_executor.hpp"
#include "exec/pilot_executor.hpp"
#include "exec/sim_executor.hpp"
#include "util/table.hpp"

namespace {

using namespace parcl;

enum class Shape { kStreamed, kMaterialized, kChain, kHaltedChain, kPilot };
const char* const kShapeNames[] = {"streamed", "materialized", "chain", "halted_chain",
                                   "pilot"};

/// Runs N zero-cost items through the engine in the current process (two
/// jobs each for a chain). Returns true when every job succeeded or, for
/// the halted chain, when one stage-2 job failed, the run halted, and every
/// other job ran or was skipped.
bool drive_engine(std::size_t total_jobs, Shape shape) {
  sim::Simulation sim;
  exec::SimExecutor sim_executor(sim, [](const core::ExecRequest& request) {
    exec::SimOutcome outcome;
    if (request.command.rfind("fail", 0) == 0) outcome.exit_code = 1;
    return outcome;
  });
  std::unique_ptr<exec::PilotExecutor> pilot;
  if (shape == Shape::kPilot) {
    exec::WorkerConfig worker;
    worker.make_inner = [] {
      return std::make_unique<exec::FunctionExecutor>(
          [](const core::ExecRequest&) { return exec::TaskOutcome{}; }, 1);
    };
    pilot = std::make_unique<exec::PilotExecutor>(
        std::make_unique<exec::ThreadWorkerTransport>(std::move(worker)));
  }
  core::Executor& executor =
      pilot ? static_cast<core::Executor&>(*pilot) : sim_executor;
  core::Options options;
  options.jobs = shape == Shape::kPilot ? 64 : 128;
  if (shape == Shape::kHaltedChain) options.halt = core::HaltPolicy::parse("now,fail=1");
  // The CLI's configuration: stream results through the collator, do not
  // retain per-job records in the summary.
  options.collect_results = false;
  std::ostringstream out, err;
  core::Engine engine(options, executor, out, err);
  core::RunSummary summary;
  std::size_t next = 0;
  core::FunctionSource source([&]() -> std::optional<core::JobInput> {
    if (next >= total_jobs) return std::nullopt;
    core::JobInput job;
    job.args = {std::to_string(next++)};
    return job;
  });
  if (shape == Shape::kStreamed || shape == Shape::kPilot) {
    summary = engine.run_source("noop {}", source);
  } else if (shape == Shape::kChain || shape == Shape::kHaltedChain) {
    std::vector<core::StageSpec> stages(2);
    stages[0].command = "fetch {}";
    stages[1].command = shape == Shape::kChain ? "process {}" : "fail {}";
    core::StageChainSource chain(source, std::move(stages));
    summary = engine.run_source("", chain);
  } else {
    std::vector<core::ArgVector> inputs;
    inputs.reserve(total_jobs);
    for (std::size_t i = 0; i < total_jobs; ++i) {
      inputs.push_back({std::to_string(i)});
    }
    summary = engine.run("noop {}", std::move(inputs));
  }
  if (shape == Shape::kHaltedChain) {
    return summary.halted && summary.failed == 1 &&
           summary.succeeded + summary.failed + summary.killed + summary.skipped ==
               2 * total_jobs;
  }
  const std::size_t jobs_per_item = shape == Shape::kChain ? 2 : 1;
  return summary.succeeded == jobs_per_item * total_jobs && summary.failed == 0;
}

/// Forks, runs drive_engine in the child, and returns the child's peak RSS
/// in KiB (Linux ru_maxrss units). Returns 0 on any failure.
long measure_peak_rss_kib(std::size_t total_jobs, Shape shape) {
  pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return 0;
  }
  if (pid == 0) {
    bool ok = drive_engine(total_jobs, shape);
    _exit(ok ? 0 : 1);
  }
  int status = 0;
  struct rusage usage {};
  if (wait4(pid, &status, 0, &usage) != pid) {
    std::perror("wait4");
    return 0;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::cerr << "memory_footprint: child for " << total_jobs << " items ("
              << kShapeNames[static_cast<int>(shape)]
              << ") failed with status " << status << "\n";
    return 0;
  }
  return usage.ru_maxrss;
}

std::string format_kib(long kib) { return std::to_string(kib) + " KiB"; }

}  // namespace

int main() {
  bench::print_header("memory", "peak RSS vs job count (streaming pipeline)");

  struct Scale {
    const char* label;
    std::size_t jobs;
    bool materialized_too;
    bool pilot_too;  // the pilot's per-job cost makes 100k add little but time
  };
  const Scale scales[] = {
      {"10k", 10'000, true, true},
      {"100k", 100'000, true, false},
      {"1m", 1'000'000, false, true},  // materialized at 1M would be the O(jobs)
                                       // blow-up this bench exists to rule out
  };

  bench::BenchJson json("BENCH_dispatch.json");
  util::Table table({"items", "streamed_rss", "materialized_rss", "chain_rss",
                     "halted_chain_rss", "pilot_rss"});
  long streamed_10k = 0, streamed_1m = 0;
  long chain_10k = 0, chain_1m = 0;
  long halted_10k = 0, halted_1m = 0;
  long pilot_10k = 0, pilot_1m = 0;
  bool measured_all = true;
  for (const Scale& scale : scales) {
    long streamed = measure_peak_rss_kib(scale.jobs, Shape::kStreamed);
    long materialized =
        scale.materialized_too
            ? measure_peak_rss_kib(scale.jobs, Shape::kMaterialized)
            : 0;
    long chain = measure_peak_rss_kib(scale.jobs, Shape::kChain);
    long halted = measure_peak_rss_kib(scale.jobs, Shape::kHaltedChain);
    long pilot = scale.pilot_too ? measure_peak_rss_kib(scale.jobs, Shape::kPilot) : 0;
    if (streamed == 0 || chain == 0 || halted == 0 || (scale.pilot_too && pilot == 0)) {
      measured_all = false;
    }
    if (scale.jobs == 10'000) {
      streamed_10k = streamed;
      chain_10k = chain;
      halted_10k = halted;
      pilot_10k = pilot;
    }
    if (scale.jobs == 1'000'000) {
      streamed_1m = streamed;
      chain_1m = chain;
      halted_1m = halted;
      pilot_1m = pilot;
    }
    table.add_row({scale.label, format_kib(streamed),
                   scale.materialized_too ? format_kib(materialized) : "-",
                   format_kib(chain), format_kib(halted),
                   scale.pilot_too ? format_kib(pilot) : "-"});
    json.set("memory_footprint",
             std::string("peak_rss_kib_streamed_") + scale.label,
             static_cast<double>(streamed));
    if (scale.materialized_too) {
      json.set("memory_footprint",
               std::string("peak_rss_kib_materialized_") + scale.label,
               static_cast<double>(materialized));
    }
    json.set("memory_footprint",
             std::string("peak_rss_kib_chain_") + scale.label,
             static_cast<double>(chain));
    json.set("memory_footprint",
             std::string("peak_rss_kib_halted_chain_") + scale.label,
             static_cast<double>(halted));
    if (scale.pilot_too) {
      json.set("memory_footprint", std::string("peak_rss_kib_pilot_") + scale.label,
               static_cast<double>(pilot));
    }
  }
  std::cout << table.render() << '\n';

  auto growth = [](long small, long large) {
    return small > 0 ? static_cast<double>(large) / static_cast<double>(small)
                     : 0.0;
  };
  bool flat = measured_all && streamed_10k > 0 &&
              streamed_1m <= 2 * streamed_10k;
  bool chain_flat = measured_all && chain_10k > 0 && chain_1m <= 2 * chain_10k;
  bool halted_flat = measured_all && halted_10k > 0 && halted_1m <= 2 * halted_10k;
  bool pilot_flat = measured_all && pilot_10k > 0 && pilot_1m <= 2 * pilot_10k;
  json.set("memory_footprint", "rss_growth_10k_to_1m",
           growth(streamed_10k, streamed_1m));
  json.set("memory_footprint", "rss_growth_chain_10k_to_1m",
           growth(chain_10k, chain_1m));
  json.set("memory_footprint", "rss_growth_halted_chain_10k_to_1m",
           growth(halted_10k, halted_1m));
  json.set("memory_footprint", "rss_growth_pilot_10k_to_1m", growth(pilot_10k, pilot_1m));
  bench::stamp_provenance(json);
  json.write();
  std::cout << "wrote BENCH_dispatch.json (memory_footprint section)\n";

  bench::CheckTable check;
  check.add_text("peak RSS flat 10k -> 1M jobs", "<= 2x",
                 format_kib(streamed_10k) + " -> " + format_kib(streamed_1m),
                 flat);
  check.add_text("peak RSS of a 2-stage chain 10k -> 1M items", "<= 2x",
                 format_kib(chain_10k) + " -> " + format_kib(chain_1m),
                 chain_flat);
  check.add_text("peak RSS of a halted 2-stage chain 10k -> 1M items", "<= 2x",
                 format_kib(halted_10k) + " -> " + format_kib(halted_1m),
                 halted_flat);
  check.add_text("peak RSS through the pilot transport 10k -> 1M jobs", "<= 2x",
                 format_kib(pilot_10k) + " -> " + format_kib(pilot_1m), pilot_flat);
  check.print();
  if (!flat || !chain_flat || !halted_flat || !pilot_flat) {
    std::cerr << "memory_footprint: FAIL — peak RSS grew more than 2x from "
                 "10k to 1M items (streaming regression)\n";
    return 1;
  }
  return 0;
}
