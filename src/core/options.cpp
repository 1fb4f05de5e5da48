#include "core/options.hpp"

#include <thread>

#include "core/signal_coordinator.hpp"
#include "util/error.hpp"

namespace parcl::core {

void Options::validate() const {
  if (retries == 0) throw util::ConfigError("--retries must be >= 1");
  if (timeout_seconds < 0.0) throw util::ConfigError("--timeout must be >= 0");
  if (timeout_percent < 0.0) throw util::ConfigError("--timeout percent must be >= 0");
  if (timeout_seconds > 0.0 && timeout_percent > 0.0) {
    throw util::ConfigError("--timeout takes either seconds or a percentage, not both");
  }
  if (retry_delay_seconds < 0.0) {
    throw util::ConfigError("--retry-delay must be >= 0");
  }
  if (load_max < 0.0) throw util::ConfigError("--load must be >= 0");
  if (hedge_multiplier != 0.0 && hedge_multiplier < 1.0) {
    throw util::ConfigError("--hedge must be >= 1 (0 disables hedging)");
  }
  if (probe_interval_seconds <= 0.0) {
    throw util::ConfigError("--probe-interval must be > 0");
  }
  if (heartbeat_interval_seconds <= 0.0) {
    throw util::ConfigError("--heartbeat-interval must be > 0");
  }
  if (reconnect_max == 0) throw util::ConfigError("--reconnect must be >= 1");
  if (drain_grace_seconds < 0.0) {
    throw util::ConfigError("--drain-grace must be >= 0");
  }
  if (min_hosts_grace_seconds < 0.0) {
    throw util::ConfigError("--min-hosts-grace must be >= 0");
  }
  if (watch_sshlogin_file && sshlogin_file.empty()) {
    throw util::ConfigError("--watch requires --sshlogin-file");
  }
  parse_termseq(term_seq);  // throws ParseError on a malformed sequence
  if (joblog_fsync && joblog_path.empty()) {
    throw util::ConfigError("--joblog-fsync requires --joblog");
  }
  if (delay_seconds < 0.0) throw util::ConfigError("--delay must be >= 0");
  if (resume && joblog_path.empty()) {
    throw util::ConfigError("--resume requires --joblog");
  }
  if (resume_failed && joblog_path.empty()) {
    throw util::ConfigError("--resume-failed requires --joblog");
  }
  if (resume && resume_failed) {
    throw util::ConfigError("--resume and --resume-failed are exclusive");
  }
  if (xargs && max_chars == 0) throw util::ConfigError("-X requires --max-chars > 0");
  if (pipe_mode && (max_args > 1 || xargs)) {
    throw util::ConfigError("--pipe cannot be combined with -n/-X packing");
  }
  if (block_bytes == 0) throw util::ConfigError("--block must be > 0");
  if (shuffle && pipe_mode) {
    throw util::ConfigError(
        "--shuf cannot be combined with --pipe: shuffling requires buffering "
        "every stdin block in memory");
  }
  if (!trim_mode.empty() && trim_mode != "l" && trim_mode != "r" && trim_mode != "lr" &&
      trim_mode != "rl" && trim_mode != "n") {
    throw util::ConfigError("--trim expects n|l|r|lr|rl");
  }
  if (!colsep.empty() && (max_args > 1 || xargs)) {
    throw util::ConfigError("--colsep cannot be combined with -n/-X packing");
  }
}

std::size_t Options::effective_jobs() const {
  if (jobs != 0) return jobs;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace parcl::core
