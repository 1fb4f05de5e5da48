// The paper's motivating use case (Sec IV-A, Listings 2-3): a data
// fetch-process workflow where downloads and processing run concurrently,
// coupled by a queue.
//
// getdata:  every "30 seconds" (scaled down here), fetch 8 GOES sector
//           images in parallel and append the batch timestamp to a queue.
// procdata: tail the queue; for each timestamp, compute the mean
//           brightness of the 8 sector images with `parallel -k -j8`.
//
//   $ ./examples/fetch_process
#include <unistd.h>

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "core/engine.hpp"
#include "exec/function_executor.hpp"
#include "util/strings.hpp"
#include "workloads/goes.hpp"

int main() {
  using namespace parcl;

  constexpr std::size_t kBatches = 4;
  constexpr std::size_t kSize = 200;  // px; listing uses 1200x1200

  // The q.proc queue file, as a pipe: getdata appends one timestamp line
  // per batch and procdata reads each as it lands (`tail -f q.proc`).
  int queue[2];
  if (pipe(queue) != 0) {
    std::perror("pipe");
    return 1;
  }

  // getdata: fetch batches and enqueue timestamps.
  std::thread getdata([fd = queue[1]] {
    for (std::size_t b = 0; b < kBatches; ++b) {
      std::uint64_t ts = 1718000000 + 30 * b;
      // parallel -j8 curl ... ::: cgl ne nr se sp sr pr pnw
      std::this_thread::sleep_for(std::chrono::milliseconds(80));  // network
      std::cout << "[getdata] batch " << ts << " downloaded (8 regions)\n";
      const std::string line = std::to_string(ts) + "\n";
      if (write(fd, line.data(), line.size()) < 0) std::perror("write q.proc");
    }
    close(fd);  // the queue ends: procdata sees end of file
  });

  // procdata: tail -f q.proc | parallel -k -j8 'convert ... info:'
  auto convert = [](const core::ExecRequest& request) {
    // The command is "convert <region> <timestamp>".
    auto words = util::split_ws(request.command);
    const std::string& region = words[1];
    std::uint64_t ts = static_cast<std::uint64_t>(util::parse_long(words[2]));
    workloads::SectorImage image = workloads::fetch_sector_image(region, ts, kSize, kSize);
    exec::TaskOutcome outcome;
    outcome.stdout_data = region + " mean=" +
                          util::format_double(workloads::mean_brightness_percent(image), 2) +
                          " cloud=" +
                          util::format_double(workloads::cloud_fraction_percent(image), 1) +
                          "%\n";
    return outcome;
  };

  core::Options options;
  options.jobs = 8;
  options.output_mode = core::OutputMode::kKeepOrder;  // -k
  exec::FunctionExecutor executor(convert, 8);
  core::Engine engine(options, executor);

  std::FILE* procdata = fdopen(queue[0], "r");
  unsigned long long ts = 0;
  std::size_t failed = 0;
  while (failed == 0 && std::fscanf(procdata, "%llu", &ts) == 1) {
    std::cout << "Timestamp:" << ts << '\n';
    std::vector<core::ArgVector> regions;
    for (const char* region : workloads::kGoesRegions) {
      regions.push_back({region, std::to_string(ts)});
    }
    core::RunSummary summary = engine.run("convert {1} {2}", std::move(regions));
    failed = summary.failed;
    if (failed != 0) std::cerr << "batch " << ts << ": " << failed << " failures\n";
  }
  getdata.join();
  std::fclose(procdata);
  if (failed != 0) return 1;
  std::cout << "all batches processed while downloads were still arriving\n";
  return 0;
}
