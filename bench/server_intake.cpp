// Service-mode intake under load: 64 tenants pushing 100k+ jobs through
// ServerCore's journal-then-ack admission path and the deficit-round-robin
// queue feeding the engine's loop. Reports journaled intake rate, the
// in-process job rate (FunctionExecutor jobs, not processes: perfbench's
// service_open_loop is the end-to-end measure), queue latency percentiles,
// and the Jain fairness index over per-tenant service counts at a mid-run
// snapshot — written to BENCH_server.json (the release CI tier guards
// Jain >= 0.95 and the presence of p99).
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/server.hpp"
#include "exec/function_executor.hpp"
#include "util/logging.hpp"

namespace {

using namespace parcl;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kTenants = 64;
constexpr std::size_t kJobsPerTenant = 1600;  // 64 * 1600 = 102,400 jobs
constexpr std::size_t kSlots = 64;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string make_state_dir() {
  char templ[] = "/tmp/parcl_bench_server_XXXXXX";
  char* dir = mkdtemp(templ);
  if (dir == nullptr) {
    std::cerr << "mkdtemp failed\n";
    std::exit(1);
  }
  return dir;
}

void remove_state_dir(const std::string& dir) {
  std::remove(core::ServerCore::journal_path(dir).c_str());
  std::remove(core::ServerCore::ledger_path(dir).c_str());
  for (std::size_t i = 0; i < kTenants; ++i) {
    std::remove(
        core::ServerCore::tenant_joblog_path(dir, "t" + std::to_string(i)).c_str());
  }
  ::rmdir(dir.c_str());
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  std::size_t index = static_cast<std::size_t>(p * static_cast<double>(samples.size() - 1));
  return samples[index];
}

/// Jain fairness index over per-tenant service counts: (sum x)^2 / (n*sum x^2).
/// 1.0 = perfectly even; 1/n = one tenant got everything.
double jain_index(const std::map<std::string, std::uint64_t>& served) {
  if (served.empty()) return 1.0;
  double sum = 0.0, sum_sq = 0.0;
  for (const auto& [tenant, count] : served) {
    double x = static_cast<double>(count);
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(served.size()) * sum_sq);
}

/// Pure admission: how fast submit() journals and acks with dispatch held
/// off (bounds wide open, nothing stepping). This is the floor a client
/// burst sees — one O_APPEND write per job.
double measure_intake_rate(std::size_t jobs) {
  const std::string dir = make_state_dir();
  exec::FunctionExecutor executor(
      [](const core::ExecRequest&) { return exec::TaskOutcome{}; }, 2);
  core::ServerConfig config;
  config.state_dir = dir;
  config.slots = 1;
  config.limits.max_queue_per_tenant = jobs + 1;
  config.limits.max_queue_global = jobs + 1;
  core::ServerCore core(config, executor);
  if (!core.attach_tenant("t0").accepted) std::exit(1);
  Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < jobs; ++i) {
    if (!core.submit("t0", i + 1, "noop").accepted) std::exit(1);
  }
  double rate = static_cast<double>(jobs) / seconds_since(t0);
  remove_state_dir(dir);
  return rate;
}

struct RunResult {
  double wall_s = 0.0;
  double jain_midrun = 1.0;
  double jain_final = 1.0;
  std::vector<double> queue_latency;
};

/// The in-process pipeline: 64 tenants submitting in interleaved bursts
/// against bounded queues (backpressure respected the way a client would),
/// DRR order into the engine's loop, trivial in-process jobs.
RunResult measure_full_run() {
  const std::string dir = make_state_dir();
  exec::FunctionExecutor executor(
      [](const core::ExecRequest&) { return exec::TaskOutcome{}; }, 8);
  core::ServerConfig config;
  config.state_dir = dir;
  config.slots = kSlots;
  core::ServerCore core(config, executor);
  std::vector<std::string> tenants;
  std::vector<std::uint64_t> next_seq(kTenants, 1);
  for (std::size_t i = 0; i < kTenants; ++i) {
    tenants.push_back("t" + std::to_string(i));
    if (!core.attach_tenant(tenants.back()).accepted) std::exit(1);
  }

  const std::size_t total = kTenants * kJobsPerTenant;
  const std::uint64_t half = total / 2;
  RunResult result;
  Clock::time_point t0 = Clock::now();
  bool submissions_done = false;
  while (!submissions_done || !core.idle()) {
    submissions_done = true;
    for (std::size_t i = 0; i < kTenants; ++i) {
      std::size_t burst = 64;
      while (burst > 0 && next_seq[i] <= kJobsPerTenant) {
        core::Admission admission =
            core.submit(tenants[i], next_seq[i], "noop");
        if (!admission.accepted) break;  // backpressure: come back next round
        ++next_seq[i];
        --burst;
      }
      if (next_seq[i] <= kJobsPerTenant) submissions_done = false;
    }
    core.step(0.001);
    core.take_events();
    if (result.jain_midrun == 1.0 && core.stats().completed >= half &&
        core.stats().completed < total) {
      result.jain_midrun = jain_index(core.stats().served_by_tenant);
    }
  }
  result.wall_s = seconds_since(t0);
  result.jain_final = jain_index(core.stats().served_by_tenant);
  result.queue_latency = core.stats().queue_latency_seconds;
  if (core.stats().completed != total) {
    std::cerr << "completed " << core.stats().completed << " of " << total << "\n";
    std::exit(1);
  }
  remove_state_dir(dir);
  return result;
}

}  // namespace

int main() {
  util::Logger::global().set_level(util::LogLevel::kError);
  bench::print_header("server intake",
                      "journaled admission, DRR fairness, queue latency");

  double intake_per_s = measure_intake_rate(100000);
  std::cout << "journaled intake (submit->ack, no dispatch): "
            << static_cast<long>(intake_per_s) << " jobs/s\n";

  RunResult run = measure_full_run();
  const std::size_t total = kTenants * kJobsPerTenant;
  double inprocess_jobs_per_s = static_cast<double>(total) / run.wall_s;
  double p50 = percentile(run.queue_latency, 0.50);
  double p99 = percentile(run.queue_latency, 0.99);
  std::cout << kTenants << " tenants x " << kJobsPerTenant << " jobs = "
            << total << " in-process jobs in " << run.wall_s << " s ("
            << static_cast<long>(inprocess_jobs_per_s) << " in-process jobs/s)\n"
            << "queue latency p50 " << p50 * 1e3 << " ms, p99 " << p99 * 1e3
            << " ms\n"
            << "Jain fairness: midrun " << run.jain_midrun << ", final "
            << run.jain_final << "\n";

  bench::BenchJson json("BENCH_server.json");
  json.set("server_intake", "tenants", static_cast<double>(kTenants));
  json.set("server_intake", "jobs", static_cast<double>(total));
  json.set("server_intake", "slots", static_cast<double>(kSlots));
  json.set("server_intake", "intake_per_s", intake_per_s);
  json.set("server_intake", "run_wall_s", run.wall_s);
  json.set("server_intake", "inprocess_jobs_per_s", inprocess_jobs_per_s);
  json.set("server_intake", "queue_latency_p50_s", p50);
  json.set("server_intake", "queue_latency_p99_s", p99);
  json.set("server_intake", "jain_fairness_midrun", run.jain_midrun);
  json.set("server_intake", "jain_fairness_final", run.jain_final);
  bench::stamp_provenance(json);
  json.write();
  std::cout << "wrote BENCH_server.json\n";
  return 0;
}
