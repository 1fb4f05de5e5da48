// Staging: rsync-style parallel file copies between filesystems.
//
// Models `parallel -jN rsync` (the Fig 7 prefetch step and Sec IV-E's data
// motion) the way GNU Parallel runs it: one exec::SimDriver instance at -jN,
// a real core::Engine, whose job i copies file i. Each copy costs a per-file
// rsync overhead (process spawn + delta scan + metadata on both ends), then
// moves the file's bytes through every channel it crosses at once (source
// filesystem, node NIC, destination filesystem) and completes when the
// slowest drains: the fluid approximation of a streaming copy.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "exec/sim_executor.hpp"
#include "sim/shared_bandwidth.hpp"
#include "storage/dataset.hpp"
#include "storage/filesystem.hpp"

namespace parcl::storage {

struct StagingConfig {
  std::size_t parallel_streams = 32;  // -j for the rsync fan-out
  double per_file_overhead = 0.05;    // rsync spawn + handshake, seconds
};

/// The executor for one rsync fan-out over `files`: run it as one SimDriver
/// instance of files.size() tasks. Job i (its `{#}`) copies files[i-1]. It
/// takes `per_file_overhead`, then moves the file's bytes through all of
/// `channels` at once and ends when the slowest drains. `landed`, when set,
/// runs as each file lands, just before its job ends.
std::unique_ptr<exec::SimExecutor> rsync_executor(
    sim::Simulation& sim, std::vector<FileEntry> files, double per_file_overhead,
    std::vector<sim::SharedBandwidth*> channels,
    std::function<void(const FileEntry&)> landed = {});

/// Deletes `files` from `fs` (the pipeline's evict step), releasing their
/// space; `done` fires when all unlinks finish.
void delete_files(SimFilesystem& fs, const std::vector<FileEntry>& files,
                  std::function<void()> done);

}  // namespace parcl::storage
