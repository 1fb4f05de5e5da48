#include "storage/staging.hpp"

#include <memory>
#include <string>

namespace parcl::storage {

std::unique_ptr<exec::SimExecutor> rsync_executor(
    sim::Simulation& sim, std::vector<FileEntry> files, double per_file_overhead,
    std::vector<sim::SharedBandwidth*> channels,
    std::function<void(const FileEntry&)> landed) {
  // The model lives in the executor, which outlives every job and so every
  // body and transfer callback below: they may hold references into it.
  exec::TaskModel model = [files = std::move(files), per_file_overhead,
                           channels = std::move(channels),
                           landed = std::move(landed)](const core::ExecRequest& request) {
    const std::string& command = request.command;  // "task {#}"
    const FileEntry& file = files.at(std::stoul(command.substr(command.rfind(' ') + 1)) - 1);
    exec::SimOutcome outcome;
    outcome.duration = per_file_overhead;
    outcome.body = [&file, &channels, &landed](std::function<void()> finish) {
      auto remaining = std::make_shared<std::size_t>(channels.size());
      auto drained = [&file, &landed, remaining, finish = std::move(finish)] {
        if (--*remaining > 0) return;
        if (landed) landed(file);
        finish();
      };
      for (sim::SharedBandwidth* channel : channels) channel->transfer(file.bytes, drained);
    };
    return outcome;
  };
  return std::make_unique<exec::SimExecutor>(sim, std::move(model));
}

void delete_files(SimFilesystem& fs, const std::vector<FileEntry>& files,
                  std::function<void()> done) {
  if (files.empty()) {
    done();
    return;
  }
  auto remaining = std::make_shared<std::size_t>(files.size());
  for (const FileEntry& file : files) {
    double bytes = file.bytes;
    fs.unlink_file([&fs, bytes, remaining, done] {
      fs.account_free(bytes);
      if (--*remaining == 0) done();
    });
  }
}

}  // namespace parcl::storage
