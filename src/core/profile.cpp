#include "core/profile.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace parcl::core {

void DispatchCounters::merge(const DispatchCounters& other) noexcept {
  spawns += other.spawns;
  direct_execs += other.direct_execs;
  clone_vm_spawns += other.clone_vm_spawns;
  spawn_seconds += other.spawn_seconds;
  reaps += other.reaps;
  reap_sweeps += other.reap_sweeps;
  polls += other.polls;
  poll_events += other.poll_events;
  exit_wakeups += other.exit_wakeups;
  poll_wait_seconds += other.poll_wait_seconds;
  deferred += other.deferred;
  drained += other.drained;
  escalated += other.escalated;
  host_failures += other.host_failures;
  rescheduled += other.rescheduled;
  hedges_launched += other.hedges_launched;
  hedges_won += other.hedges_won;
  hedges_lost += other.hedges_lost;
  quarantines += other.quarantines;
}

double DispatchCounters::mean_spawn_us() const noexcept {
  if (spawns == 0) return 0.0;
  return spawn_seconds / static_cast<double>(spawns) * 1e6;
}

double DispatchCounters::events_per_poll() const noexcept {
  if (polls == 0) return 0.0;
  return static_cast<double>(poll_events) / static_cast<double>(polls);
}

std::string DispatchCounters::render() const {
  std::ostringstream out;
  out << "spawns           " << spawns << " (" << direct_execs
      << " direct-exec, " << clone_vm_spawns << " CLONE_VM), mean "
      << util::format_double(mean_spawn_us(), 1)
      << " us\n"
      << "reaps            " << reaps << " (" << reap_sweeps << " sweeps)\n"
      << "polls            " << polls << ", " << poll_events << " events ("
      << util::format_double(events_per_poll(), 2) << "/poll), "
      << exit_wakeups << " exit wakeups\n"
      << "poll wait        " << util::format_double(poll_wait_seconds, 3)
      << " s\n";
  if (deferred != 0 || drained != 0 || escalated != 0) {
    out << "pressure/drain   " << deferred << " deferred, " << drained
        << " drained, " << escalated << " escalated\n";
  }
  if (host_failures != 0 || rescheduled != 0 || quarantines != 0) {
    out << "host health      " << host_failures << " host failures, "
        << rescheduled << " rescheduled, " << quarantines << " quarantines\n";
  }
  if (hedges_launched != 0) {
    out << "hedging          " << hedges_launched << " launched, " << hedges_won
        << " won, " << hedges_lost << " lost\n";
  }
  return out.str();
}

double ParallelProfile::utilization(std::size_t slots) const noexcept {
  if (slots == 0 || span <= 0.0) return 0.0;
  return total_busy / (static_cast<double>(slots) * span);
}

std::string ParallelProfile::render(std::size_t bins, std::size_t width) const {
  if (times.empty() || span <= 0.0 || bins == 0) return "(empty profile)\n";
  double origin = times.front();
  double bin_width = span / static_cast<double>(bins);
  std::ostringstream out;
  for (std::size_t b = 0; b < bins; ++b) {
    double t = origin + bin_width * (static_cast<double>(b) + 0.5);
    // Level in effect at time t: the last change not after t.
    std::size_t level = 0;
    for (std::size_t i = 0; i < times.size(); ++i) {
      if (times[i] <= t) level = levels[i];
      else break;
    }
    std::size_t bar = peak_concurrency == 0
                          ? 0
                          : level * width / peak_concurrency;
    out << util::format_double(t - origin, 1) << "s\t" << level << "\t"
        << std::string(bar, '#') << '\n';
  }
  return out.str();
}

ParallelProfile profile_intervals(std::vector<Interval> intervals) {
  ParallelProfile profile;
  if (intervals.empty()) return profile;

  struct Edge {
    double time;
    int delta;
  };
  std::vector<Edge> edges;
  edges.reserve(intervals.size() * 2);
  for (const Interval& interval : intervals) {
    if (interval.end < interval.start) {
      throw util::ConfigError("interval with end < start");
    }
    profile.total_busy += interval.end - interval.start;
    edges.push_back({interval.start, +1});
    edges.push_back({interval.end, -1});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.delta < b.delta;  // close before open at the same instant
  });

  profile.jobs = intervals.size();
  double first = edges.front().time;
  double last = edges.back().time;
  profile.span = last - first;

  std::size_t level = 0;
  double serial_time = 0.0;
  double previous_time = first;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    double t = edges[i].time;
    if (t > previous_time && level == 1) serial_time += t - previous_time;
    previous_time = t;
    level = static_cast<std::size_t>(static_cast<long>(level) + edges[i].delta);
    profile.peak_concurrency = std::max(profile.peak_concurrency, level);
    // Coalesce simultaneous edges into one step.
    if (i + 1 < edges.size() && edges[i + 1].time == t) continue;
    profile.times.push_back(t);
    profile.levels.push_back(level);
  }
  profile.average_concurrency = profile.span > 0.0 ? profile.total_busy / profile.span : 0.0;
  profile.serial_fraction = profile.span > 0.0 ? serial_time / profile.span : 0.0;
  return profile;
}

ParallelProfile profile_run(const RunSummary& summary) {
  std::vector<Interval> intervals;
  intervals.reserve(summary.results.size());
  for (const JobResult& result : summary.results) {
    if (result.status == JobStatus::kSkipped) continue;
    intervals.push_back({result.start_time, result.end_time});
  }
  return profile_intervals(std::move(intervals));
}

ParallelProfile profile_joblog(const std::vector<JoblogEntry>& entries) {
  std::vector<Interval> intervals;
  intervals.reserve(entries.size());
  for (const JoblogEntry& entry : entries) {
    // On the joblog's millisecond grid, one job's end and the next one's
    // start printed as the same decimal compare equal.
    intervals.push_back(
        {round_to_ms(entry.start_time), round_to_ms(entry.start_time + entry.runtime)});
  }
  return profile_intervals(std::move(intervals));
}

}  // namespace parcl::core
