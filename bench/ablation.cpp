// Ablations for the design choices DESIGN.md calls out:
//   A1  slot free-list vs round-robin under unequal task durations
//        (GPU isolation: does {%} reuse matter?)
//   A2  keep-order (-k) output cost in the real engine
//   A3  striped (Listing 1) vs block input distribution under skewed costs
//   A4  pipeline prefetch depth 1 vs 2 (Fig 7's design point)
#include <algorithm>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_common.hpp"
#include "cluster/node.hpp"
#include "core/engine.hpp"
#include "exec/function_executor.hpp"
#include "exec/sim_driver.hpp"
#include "slurm/driver.hpp"
#include "storage/pipeline.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace {

using namespace parcl;

// A1: with a free-list, a long job parks on one slot and short jobs recycle
// the rest; round-robin would block a whole GPU behind the long job's slot.
void ablation_slots() {
  std::cout << "A1: slot reuse under a straggler (8 slots, 1 long job + 63 short)\n";
  sim::Simulation sim;
  std::vector<std::size_t> slot_use(9, 0);
  exec::SimExecutor executor(sim, [&](const core::ExecRequest& request) {
    ++slot_use[request.slot];
    bool long_job = util::ends_with(request.command, " 0");  // job #1 is long
    return exec::SimOutcome{long_job ? 64.0 : 1.0, 0, ""};
  });
  core::Options options;
  options.jobs = 8;
  std::ostringstream out, err;
  core::Engine engine(options, executor, out, err);
  std::vector<core::ArgVector> inputs;
  for (int i = 0; i < 64; ++i) inputs.push_back({std::to_string(i)});
  core::RunSummary summary = engine.run("t {}", std::move(inputs));

  util::Table table({"policy", "makespan_s", "slots_used"});
  std::size_t used = 0;
  for (std::size_t s = 1; s <= 8; ++s) {
    if (slot_use[s] > 0) ++used;
  }
  table.add_row({"free-list (parcl)", util::format_double(summary.makespan, 1),
                 std::to_string(used)});
  // Round-robin reference: job j is pinned to slot j % 8, so seven short
  // jobs queue behind the long one on its lane: 64 + 7 x 1 s.
  table.add_row({"round-robin (reference)", util::format_double(64.0 + 7.0, 1),
                 "8"});
  std::cout << table.render();
  std::cout << "  free-list keeps all short lanes busy; {%} stays within 1..8\n\n";
}

// A2: -k buffering cost in the real engine with in-process tasks.
void ablation_keep_order() {
  std::cout << "A2: keep-order (-k) overhead, 2000 in-process tasks, 8 slots\n";
  auto run_mode = [](core::OutputMode mode) {
    auto task = [](const core::ExecRequest& request) {
      exec::TaskOutcome outcome;
      outcome.stdout_data = request.command + "\n";
      return outcome;
    };
    core::Options options;
    options.jobs = 8;
    options.output_mode = mode;
    exec::FunctionExecutor executor(task, 8);
    std::ostringstream out, err;
    core::Engine engine(options, executor, out, err);
    std::vector<core::ArgVector> inputs;
    for (int i = 0; i < 2000; ++i) inputs.push_back({std::to_string(i)});
    util::Stopwatch watch;
    engine.run("echo {}", std::move(inputs));
    return watch.elapsed_seconds();
  };
  double grouped = run_mode(core::OutputMode::kGroup);
  double keep_order = run_mode(core::OutputMode::kKeepOrder);
  util::Table table({"mode", "wall_s", "per_task_us"});
  table.add_row({"--group", util::format_double(grouped, 3),
                 util::format_double(grouped / 2000 * 1e6, 1)});
  table.add_row({"-k", util::format_double(keep_order, 3),
                 util::format_double(keep_order / 2000 * 1e6, 1)});
  std::cout << table.render() << "  -k costs only buffering, not throughput\n\n";
}

// A3: striped vs block distribution when task cost grows with line index
// (e.g. later files are bigger). Each node runs one engine over its share of
// the lines, and the slowest node sets the makespan.
void ablation_striping() {
  std::cout << "A3: striped (NR % NNODE) vs block distribution, skewed costs\n";
  const std::size_t lines = 1024, nodes = 8;
  std::vector<std::string> input_lines;
  for (std::size_t i = 0; i < lines; ++i) input_lines.push_back(std::to_string(i));
  // Every node's engine at -j`jobs` on one sim clock; line i costs
  // 1 + 0.01 i seconds (linear skew).
  auto makespan_of = [](const std::vector<std::vector<std::string>>& shards,
                        std::size_t jobs) {
    sim::Simulation sim;
    core::Options options;
    options.jobs = jobs;
    exec::SimDriver driver(sim, options);
    double worst = 0.0;
    for (const auto& shard : shards) {
      auto build = [&sim, &shard] {
        return std::make_unique<exec::SimExecutor>(
            sim, [&shard](const core::ExecRequest& request) {
              const std::string& command = request.command;  // "task {#}"
              std::size_t seq = std::stoul(command.substr(command.rfind(' ') + 1));
              exec::SimOutcome outcome;
              outcome.duration = 1.0 + 0.01 * std::stod(shard[seq - 1]);
              return outcome;
            });
      };
      driver.add(0.0, shard.size(), build, [&worst](const core::RunSummary& summary) {
        worst = std::max(worst, summary.makespan);
      });
    }
    driver.run();
    return worst;
  };
  util::Table table({"-j", "striped_s", "block_s", "block/striped"});
  for (std::size_t jobs : {128u, 16u}) {
    double striped = makespan_of(slurm::stripe_all(input_lines, nodes), jobs);
    double blocked = makespan_of(slurm::block_partition(input_lines, nodes), jobs);
    table.add_row({std::to_string(jobs), util::format_double(striped, 3),
                   util::format_double(blocked, 3),
                   util::format_double(blocked / striped, 2) + "x"});
  }
  std::cout << table.render()
            << "  striping pays only when a node has more lines than slots ("
            << lines / nodes << " lines per node)\n\n";
}

// A4: prefetch depth. Depth 2 only helps when copies outlast a stage.
void ablation_pipeline_depth() {
  std::cout << "A4: pipeline prefetch depth (slow copies: 70 min per dataset)\n";
  auto run_depth = [](std::size_t depth) {
    sim::Simulation sim;
    storage::FilesystemSpec slow_lustre = storage::FilesystemSpec::lustre();
    slow_lustre.per_flow_cap = 1.0e6;  // cripple streams: copy ~ 70 min
    storage::SimFilesystem lustre(sim, slow_lustre);
    storage::SimFilesystem nvme(sim, storage::FilesystemSpec::nvme());
    storage::PipelineConfig config;
    config.process_from_lustre = 86.0 * 60.0;
    config.process_from_nvme = 68.0 * 60.0;
    config.staging.parallel_streams = 32;
    config.staging.per_file_overhead = 0.01;
    config.prefetch_depth = depth;
    util::Rng rng(77);
    for (int d = 0; d < 5; ++d) {
      config.datasets.push_back(
          storage::Dataset::uniform("ds" + std::to_string(d), 1000, 1.34e8));
    }
    storage::PipelineRunner runner(sim, lustre, nvme, config);
    return runner.run().makespan / 60.0;
  };
  util::Table table({"prefetch_depth", "makespan_min"});
  for (std::size_t depth : {1u, 2u}) {
    table.add_row({std::to_string(depth), util::format_double(run_depth(depth), 1)});
  }
  std::cout << table.render()
            << "  deeper prefetch trades NVMe footprint for copy slack\n\n";
}

// A5: the -j setting for GPU nodes. Fig 2 uses -j8 for 8 GPUs; fewer slots
// idle hardware, more slots just queue behind the GPU resource.
void ablation_gpu_jobs() {
  std::cout << "A5: -j for 8 GPUs, 64 x 10 min Celeritas-shaped tasks\n";
  auto run_with_jobs = [](std::size_t jobs) {
    sim::Simulation sim;
    cluster::Node node(sim, cluster::NodeSpec::frontier(), 0);
    core::Options options;
    options.jobs = jobs;
    exec::SimDriver driver(sim, options);
    // Each task holds one GPU for its whole 10 minutes.
    driver.add(0.0, 64, [&sim, &node] {
      return std::make_unique<exec::SimExecutor>(
          sim,
          [&sim, &node](const core::ExecRequest&) {
            exec::SimOutcome outcome;
            outcome.body = [&sim, &node](std::function<void()> finish) {
              node.gpu().acquire([&sim, &node, finish = std::move(finish)] {
                sim.schedule(600.0, [&node, finish] {
                  node.gpu().release();
                  finish();
                });
              });
            };
            return outcome;
          },
          1.0 / 470.0);
    });
    driver.run();
    return sim.now();
  };
  util::Table table({"-j", "makespan_min", "note"});
  table.add_row({"4", util::format_double(run_with_jobs(4) / 60.0, 1),
                 "undersubscribed: half the GPUs idle"});
  table.add_row({"8", util::format_double(run_with_jobs(8) / 60.0, 1),
                 "paper's 1-1 process-GPU mapping"});
  table.add_row({"16", util::format_double(run_with_jobs(16) / 60.0, 1),
                 "oversubscribed: queues, no gain"});
  std::cout << table.render() << '\n';
}

}  // namespace

int main() {
  bench::print_header("Ablations", "design-choice studies from DESIGN.md");
  ablation_slots();
  ablation_keep_order();
  ablation_striping();
  ablation_pipeline_depth();
  ablation_gpu_jobs();
  return 0;
}
