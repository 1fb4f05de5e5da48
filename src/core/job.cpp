#include "core/job.hpp"

#include <algorithm>

namespace parcl::core {

const char* to_string(JobStatus status) noexcept {
  switch (status) {
    case JobStatus::kSuccess: return "success";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kSignaled: return "signaled";
    case JobStatus::kTimedOut: return "timed-out";
    case JobStatus::kKilled: return "killed";
    case JobStatus::kSkipped: return "skipped";
    case JobStatus::kDepSkipped: return "dep-skipped";
  }
  return "?";
}

double RunSummary::dispatch_rate() const noexcept {
  if (start_times.size() < 2) return 0.0;
  auto [lo, hi] = std::minmax_element(start_times.begin(), start_times.end());
  double window = *hi - *lo;
  if (window <= 0.0) return 0.0;
  return static_cast<double>(start_times.size() - 1) / window;
}

int RunSummary::exit_status() const noexcept {
  if (halt_exitval != 0) return halt_exitval;
  // A starved give-up (--min-hosts-grace) abandoned a tail of queued work;
  // that must surface in the exit status like any other unfinished work.
  // Only the abandoned tail, though — `skipped` also counts --resume skips
  // (jobs a prior run already completed), which are not failures.
  // Dependency-skipped jobs bill too: their predecessor's failure left
  // downstream work undone.
  std::size_t bad = failed + killed + starved_skipped + dep_skipped;
  if (bad == 0) return 0;
  return static_cast<int>(std::min<std::size_t>(bad, 101));
}

}  // namespace parcl::core
