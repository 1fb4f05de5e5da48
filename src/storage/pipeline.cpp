#include "storage/pipeline.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace parcl::storage {

namespace {

core::Options fanout_options(std::size_t streams) {
  core::Options options;
  options.jobs = streams;
  return options;
}

}  // namespace

PipelineRunner::PipelineRunner(sim::Simulation& sim, SimFilesystem& lustre,
                               SimFilesystem& nvme, PipelineConfig config)
    : sim_(sim),
      lustre_(lustre),
      nvme_(nvme),
      config_(std::move(config)),
      driver_(sim, fanout_options(config_.staging.parallel_streams)) {
  if (config_.datasets.empty()) throw util::ConfigError("pipeline needs datasets");
  if (config_.prefetch_depth == 0) {
    throw util::ConfigError("prefetch depth must be >= 1 (0 = use the lustre-only baseline)");
  }
  if (config_.process_from_lustre <= 0.0 || config_.process_from_nvme <= 0.0) {
    throw util::ConfigError("processing times must be positive");
  }
  // -j0 would mean one stream per CPU of the host running the simulation.
  if (config_.staging.parallel_streams == 0) {
    throw util::ConfigError("staging needs at least one stream");
  }
  if (config_.staging.per_file_overhead < 0.0) {
    throw util::ConfigError("per-file overhead must be >= 0");
  }
  build_graph();
}

std::size_t PipelineRunner::launch_stage(std::size_t k) const {
  return k <= config_.prefetch_depth ? 0 : k - config_.prefetch_depth;
}

void PipelineRunner::build_graph() {
  const std::size_t total = config_.datasets.size();
  // Stage membership mirrors the bespoke orchestration: stage s runs its
  // processing step, every prefetch whose window opened at s, and (s >= 2)
  // the eviction of dataset s-1.
  std::vector<std::vector<std::uint64_t>> members(total);
  for (std::size_t s = 0; s < total; ++s) members[s].push_back(process_id(s));
  for (std::size_t k = 1; k < total; ++k) members[launch_stage(k)].push_back(copy_id(k));
  for (std::size_t k = 1; k + 1 < total; ++k) members[k + 1].push_back(evict_id(k));
  for (std::size_t s = 0; s < total; ++s) {
    for (std::uint64_t id : members[s]) stage_of_[id] = s;
  }

  if (!config_.overlap) {
    // Barrier edges: every stage-s node waits for every stage-(s-1) node —
    // exactly the workflow sync the paper's Fig 7 numbers assume.
    for (std::size_t s = 0; s < total; ++s) {
      for (std::uint64_t id : members[s]) {
        tracker_.add_node(id, s == 0 ? std::vector<std::uint64_t>{} : members[s - 1]);
      }
    }
    tracker_.seal();
    return;
  }

  // Overlap edges: each node depends only on what it actually consumes.
  for (std::size_t s = 0; s < total; ++s) {
    std::vector<std::uint64_t> deps;
    if (s > 0) {
      // The compute resource is reused serially; the data must have landed,
      // and copy s ends the instant its last file does.
      deps = {process_id(s - 1), copy_id(s)};
    }
    tracker_.add_node(process_id(s), std::move(deps));
  }
  for (std::size_t k = 1; k < total; ++k) {
    std::vector<std::uint64_t> deps;
    // One rsync fan-out at a time (the streams within it are the
    // parallelism), free to run ahead of the stage boundary...
    if (k >= 2) deps.push_back(copy_id(k - 1));
    // ...but never further than eviction allows: dataset k may land only
    // once dataset k-1-depth is gone, bounding the NVMe footprint to
    // depth+1 datasets — the same bound the barrier pipeline enforces.
    std::size_t evicted = k - 1 >= config_.prefetch_depth ? k - 1 - config_.prefetch_depth : 0;
    if (evicted >= 1 && evicted + 1 < total) deps.push_back(evict_id(evicted));
    tracker_.add_node(copy_id(k), std::move(deps));
  }
  for (std::size_t k = 1; k + 1 < total; ++k) {
    // Evict as soon as the dataset's own processing is done.
    tracker_.add_node(evict_id(k), {process_id(k)});
  }
  tracker_.seal();
}

PipelineReport PipelineRunner::run() {
  const std::size_t total = config_.datasets.size();
  report_.lustre_only_estimate =
      config_.process_from_lustre * static_cast<double>(total);
  // Pre-size the reports: in overlap mode a prefetch can finish before its
  // nominal stage's processing has even started.
  report_.stages.resize(total);
  for (std::size_t s = 0; s < total; ++s) {
    report_.stages[s].stage = s + 1;  // 1-based like the paper's figure
    report_.stages[s].processed_from = s == 0 ? "lustre" : "nvme";
    report_.stages[s].process_seconds =
        s == 0 ? config_.process_from_lustre : config_.process_from_nvme;
  }
  pump();
  driver_.run();
  util::require(tracker_.pending() == 0, "pipeline did not drain");
  return report_;
}

void PipelineRunner::pump() {
  while (auto id = tracker_.pop_ready()) start_node(*id);
  if (tracker_.pending() == 0) report_.makespan = sim_.now();
}

void PipelineRunner::start_node(std::uint64_t id) {
  switch ((id - 1) % 3) {
    case 0: {
      std::size_t s = static_cast<std::size_t>((id - 1) / 3);
      report_.stages[s].start_time = sim_.now();
      start_process(s);
      return;
    }
    case 1:
      start_copy(static_cast<std::size_t>((id - 2) / 3));
      return;
    default:
      start_evict(static_cast<std::size_t>((id - 3) / 3));
      return;
  }
}

void PipelineRunner::node_done(std::uint64_t id) {
  // Barrier mode: the stage ends when its last part ends, and the tracker
  // releases the next stage's nodes at that same instant, so consecutive
  // stage reports stay exactly contiguous. Overlap mode: stage boundaries
  // blur, so a stage's report spans just its processing step.
  if (!config_.overlap) {
    report_.stages[stage_of_.at(id)].end_time = sim_.now();
  } else if ((id - 1) % 3 == 0) {
    report_.stages[(id - 1) / 3].end_time = sim_.now();
  }
  tracker_.complete(id, true);
  pump();
}

void PipelineRunner::start_process(std::size_t s) {
  sim_.schedule(report_.stages[s].process_seconds,
                [this, s] { node_done(process_id(s)); });
}

void PipelineRunner::start_copy(std::size_t k) {
  const std::vector<FileEntry>& files = config_.datasets[k].files;
  auto build = [this, &files] {
    return rsync_executor(sim_, files, config_.staging.per_file_overhead,
                          {&lustre_.data(), &nvme_.data()}, [this](const FileEntry& file) {
                            // rsync stats the source and creates the
                            // destination: the latency is in the per-file
                            // overhead, but the pressure counters see both.
                            lustre_.note_metadata_op();
                            nvme_.note_metadata_op();
                            nvme_.account_store(file.bytes);
                          });
  };
  std::size_t report_to = launch_stage(k);
  driver_.add(0.0, files.size(), build,
              [this, k, report_to](const core::RunSummary& summary) {
                double& copy_seconds = report_.stages[report_to].copy_seconds;
                copy_seconds = std::max(copy_seconds, summary.makespan);
                node_done(copy_id(k));
              });
}

void PipelineRunner::start_evict(std::size_t k) {
  delete_files(nvme_, config_.datasets[k].files,
               [this, k] { node_done(evict_id(k)); });
}

}  // namespace parcl::storage
