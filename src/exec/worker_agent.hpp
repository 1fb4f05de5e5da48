// WorkerAgent: the per-host persistent agent behind `parcl --worker`.
//
// One agent serves one pilot connection (stdin/stdout when ssh-spawned, a
// socketpair locally), speaking the exec/transport framed protocol: it
// receives SUBMIT batches, runs them through an inner Executor (a real
// LocalExecutor in production; tests inject FunctionExecutors), streams
// seq-tagged STDOUT/STDERR chunks, and reports RESULT frames. Completed
// results stay in the agent's journal until the pilot ACKs them and are
// retransmitted with the heartbeat cadence, so a dropped or reordered
// frame never loses a completion — the pilot dedupes instead. Between
// frames the agent sleeps in one poll over its channel and the inner
// executor's readiness fd, so a job's exit wakes it at once (with an inner
// executor that has no such fd, the next heartbeat does).
//
// The journal is also what makes reconnect-and-reconcile exact: when the
// link dies, serve() returns with the journal (and running children)
// intact, and the next serve() call announces both in its HELLO so the
// pilot can replay unacked completions and keep waiting on survivors. A
// crashed agent, by contrast, comes back empty-handed — its HELLO declares
// nothing, and the pilot reschedules everything unacked, uncharged.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "core/executor.hpp"
#include "exec/transport.hpp"

namespace parcl::exec {

/// Deterministic agent-side fault hooks for the chaos rig. Thresholds count
/// jobs *started* by this agent since construction (0 = never), so a seeded
/// schedule trips at the same point on every replay.
struct WorkerFaults {
  /// Crash: kill every running child, wipe the journal, drop the link —
  /// models the agent process dying with its host.
  std::uint64_t crash_after_starts = 0;
  /// Hang: stop reading, responding, and heartbeating (children keep
  /// running and completions keep journaling) until the pilot gives up and
  /// closes the link — models a wedged but live agent.
  std::uint64_t hang_after_starts = 0;
};

struct WorkerConfig {
  double heartbeat_interval = 1.0;  // seconds between HEARTBEAT frames
  /// Unacked journal entries are retransmitted when older than this many
  /// heartbeat intervals (lost-frame recovery without flooding).
  double resend_after_beats = 2.0;
  /// Builds the executor jobs actually run on. Default: a LocalExecutor.
  std::function<std::unique_ptr<core::Executor>()> make_inner;
  /// Version stamped into HELLO; tests override to exercise the pilot's
  /// version-mismatch rejection.
  std::uint32_t version = transport::kProtocolVersion;
  WorkerFaults faults;
};

class WorkerAgent {
 public:
  enum class ServeOutcome {
    kDrained,        // DRAIN honoured, BYE sent
    kConnectionLost, // EOF/EPIPE from the pilot; journal + children intact
    kProtocolError,  // malformed inbound stream; link unusable
    kCrashed,        // WorkerFaults crash tripped; journal wiped
  };

  explicit WorkerAgent(WorkerConfig config = {});
  ~WorkerAgent();
  WorkerAgent(const WorkerAgent&) = delete;
  WorkerAgent& operator=(const WorkerAgent&) = delete;

  /// Serves one pilot connection on the given descriptors (they may be the
  /// same fd, e.g. one end of a socketpair) until drain, disconnect, or a
  /// scripted fault. Reattach = call serve() again with fresh fds: the
  /// journal and running children carry over.
  ServeOutcome serve(int read_fd, int write_fd);

  /// Jobs started over the agent's lifetime (fault-threshold bookkeeping
  /// and test assertions). This and journal_size() are published for
  /// readers on other threads while serve() runs.
  std::uint64_t total_starts() const noexcept { return total_starts_.load(); }
  std::size_t journal_size() const noexcept { return journal_size_.load(); }

 private:
  struct JournalEntry {
    transport::ResultFrame result;  // carried in HELLO as well
    std::string frames;             // the chunk frames and RESULT, as sent
    double last_sent = 0.0;  // agent clock; 0 = never sent on this link
  };

  /// transport::write_all until a write fails; false from then on.
  bool write_frames(int fd, const std::string& bytes);
  bool send_hello(int fd);
  bool send_unacked(int fd, bool force);
  /// Seconds until the next heartbeat or journal resend is due (0: now).
  double seconds_until_due(double last_beat_at) const;
  void handle_submit(const transport::Frame& frame);
  void handle_kill(const transport::Frame& frame);
  void handle_ack(const transport::Frame& frame);
  /// Drains inner completions into the journal.
  void pump_inner();
  void journal_completion(core::ExecResult&& result);
  /// Publishes journal_.size() after every change to journal_.
  void publish_journal_size() noexcept;
  void crash_now();
  double now() const;

  WorkerConfig config_;
  std::unique_ptr<core::Executor> inner_;
  std::set<std::uint64_t> running_;
  std::map<std::uint64_t, JournalEntry> journal_;  // completed, unacked
  std::atomic<std::size_t> journal_size_{0};
  std::atomic<std::uint64_t> total_starts_{0};
  std::uint64_t beat_ = 0;
  bool draining_ = false;
  bool broken_pipe_ = false;
};

/// Entry point for `parcl --worker`: serves the pilot on stdin/stdout until
/// drain or disconnect. Returns the process exit code.
int worker_agent_main(const WorkerConfig& config);

}  // namespace parcl::exec
