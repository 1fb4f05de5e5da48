// --halt policy: when to stop a run early, mirroring GNU Parallel's
// `--halt now|soon,fail|success|done=N|N%` grammar.
#pragma once

#include <cstddef>
#include <string>

namespace parcl::core {

enum class HaltWhen {
  kNever,  // run everything regardless of failures
  kSoon,   // stop starting new jobs; let running jobs finish
  kNow,    // additionally kill running jobs
};

enum class HaltOn {
  kFail,     // count non-zero exits
  kSuccess,  // count zero exits
  kDone,     // count completions of either kind
};

struct HaltPolicy {
  HaltWhen when = HaltWhen::kNever;
  HaltOn on = HaltOn::kFail;
  /// Threshold: either an absolute count...
  std::size_t count = 1;
  /// ...or a percentage of total jobs (activated when percent > 0).
  double percent = 0.0;

  /// Parses "never", "now,fail=1", "soon,success=3", "now,fail=30%", ...
  /// Throws ParseError on bad grammar.
  static HaltPolicy parse(const std::string& spec);

  /// True once the run should halt given the tallies so far.
  bool triggered(std::size_t failed, std::size_t succeeded, std::size_t done,
                 std::size_t total_jobs) const noexcept;

  /// True for an absolute `fail=1` policy (now or soon): the run then exits
  /// with the failing job's Exitval, not with the count of failed jobs.
  bool exits_with_job_status() const noexcept;

  std::string to_string() const;
};

}  // namespace parcl::core
