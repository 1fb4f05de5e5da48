// The Fig 7 Darshan pipeline: staged prefetching from Lustre to NVMe.
//
// Stage 1: process dataset 1 straight from Lustre while prefetching dataset
// 2 to NVMe. Stages 2..N: process dataset k from NVMe, prefetch dataset k+1,
// evict dataset k-1. The paper's numbers: Lustre processing 86 min/stage,
// NVMe processing 68 min/stage, 5 datasets -> 358 min pipelined vs 430 min
// Lustre-only, a 17% improvement.
//
// The runner is a dataflow graph over core::DependencyTracker — the same
// machinery that schedules `parcl --graph`. Each stage contributes up to
// three nodes (process, prefetch-copy, evict) and the edges pick the mode:
//   - barrier (default): every stage-k node depends on every stage-(k-1)
//     node, reproducing the paper's workflow-sync semantics and its exact
//     arithmetic;
//   - overlap (PipelineConfig::overlap): each node depends only on its real
//     inputs — processing k waits for processing k-1 and for copy k, whose
//     fan-out ends the instant dataset k's last file lands on NVMe;
//     prefetches chain ahead of stage boundaries, bounded by eviction so
//     the NVMe footprint stays within prefetch_depth + 1 datasets.
//
// Each prefetch is an rsync fan-out (storage/staging.hpp): one instance on
// the runner's exec::SimDriver, so the copies run on real engines.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/dag.hpp"
#include "exec/sim_driver.hpp"
#include "storage/dataset.hpp"
#include "storage/filesystem.hpp"
#include "storage/staging.hpp"

namespace parcl::storage {

struct PipelineConfig {
  /// Wall time to process one dataset reading from Lustre / from NVMe.
  double process_from_lustre = 86.0 * 60.0;
  double process_from_nvme = 68.0 * 60.0;
  /// Prefetch configuration (rsync fan-out).
  StagingConfig staging;
  /// Datasets to run, in order.
  std::vector<Dataset> datasets;
  /// Pipeline depth: how many datasets may be prefetched ahead (>= 1).
  std::size_t prefetch_depth = 1;
  /// false = barrier-equivalent scheduling (the paper's stage syncs, exact
  /// arithmetic); true = storage-overlap dataflow (see file comment).
  bool overlap = false;
};

struct StageReport {
  std::size_t stage = 0;
  std::string processed_from;  // "lustre" or "nvme"
  double start_time = 0.0;
  double end_time = 0.0;
  double process_seconds = 0.0;
  double copy_seconds = 0.0;  // 0 when nothing was prefetched this stage
  double duration() const noexcept { return end_time - start_time; }
};

struct PipelineReport {
  std::vector<StageReport> stages;
  double makespan = 0.0;
  /// What the run would have cost processing every stage from Lustre.
  double lustre_only_estimate = 0.0;
  double improvement_percent() const noexcept {
    if (lustre_only_estimate <= 0.0) return 0.0;
    return 100.0 * (1.0 - makespan / lustre_only_estimate);
  }
};

/// Simulates the pipelined workflow. `lustre` and `nvme` carry the actual
/// prefetch traffic, so contention and file-size distributions matter.
class PipelineRunner {
 public:
  PipelineRunner(sim::Simulation& sim, SimFilesystem& lustre, SimFilesystem& nvme,
                 PipelineConfig config);

  /// Runs the pipeline to its end on the simulation and returns the report.
  /// Call once.
  PipelineReport run();

 private:
  // Node ids, three per stage: kind = (id - 1) % 3.
  //   process_id(s): run dataset s's processing step (every stage);
  //   copy_id(k):    prefetch dataset k to NVMe (k >= 1);
  //   evict_id(k):   delete dataset k from NVMe (1 <= k <= N-2; the last
  //                  dataset stays, dataset 0 never left Lustre).
  static std::uint64_t process_id(std::size_t s) { return 3 * s + 1; }
  static std::uint64_t copy_id(std::size_t k) { return 3 * k + 2; }
  static std::uint64_t evict_id(std::size_t k) { return 3 * k + 3; }

  /// The stage whose window first covers prefetching dataset k (the stage
  /// that launched C_k in the bespoke orchestration): 0 for the initial
  /// fill, k - depth once the window slides.
  std::size_t launch_stage(std::size_t k) const;

  void build_graph();
  void pump();
  void start_node(std::uint64_t id);
  void node_done(std::uint64_t id);
  void start_process(std::size_t s);
  void start_copy(std::size_t k);
  void start_evict(std::size_t k);

  sim::Simulation& sim_;
  SimFilesystem& lustre_;
  SimFilesystem& nvme_;
  PipelineConfig config_;
  exec::SimDriver driver_;  // runs the prefetch fan-outs
  PipelineReport report_;
  core::DependencyTracker tracker_;
  /// Barrier-mode stage membership: node id -> the stage it runs in.
  std::map<std::uint64_t, std::size_t> stage_of_;
};

}  // namespace parcl::storage
