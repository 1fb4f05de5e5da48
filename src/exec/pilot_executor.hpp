// PilotExecutor: one persistent worker agent, driven over one multiplexed
// framed connection — the per-host half of the pilot transport that
// replaces per-job ssh spawn in multi-host dispatch.
//
// The engine sees an ordinary Executor: start() queues the job into a
// SUBMIT batch, wait_any() pumps the connection and surfaces RESULT frames
// as completions. Underneath, the channel runs a small state machine:
//
//    Detached ──connect──▶ Handshaking ──HELLO ok──▶ Attached
//       ▲                      │  ▲                      │
//       │   version mismatch   │  │     link loss /      │
//       │   → Dead (permanent) │  │   heartbeat stall    │
//       │                      ▼  │                      ▼
//       └──── reconnect_max ── reconnect ◀───────────────┘
//             exhausted → Dead      (reconcile on every reattach)
//
// Reconnect-and-reconcile: the worker's HELLO carries its journal (running
// seqs + completed-but-unacked results). Submitted jobs absent from both
// sets died with the link — they surface as host_failure completions (exit
// 255) so the engine reschedules them without charging --retries. Journal
// replays and chaotic links mean frames arrive duplicated or out of order;
// the pilot drops any frame for a seq no longer in flight (a job id names
// one attempt, so a delivered seq never returns) and dedupes chunks by
// (seq, stream, chunk index), so the joblog stays exactly-once and -k
// output byte-identical. RESULT and HEARTBEAT times are on the worker's
// inner executor's clock; the pilot moves them onto its own by the offset
// of the last HELLO or HEARTBEAT.
//
// A Dead channel refuses start() with SystemError (MultiExecutor turns that
// into a host-failure signal and quarantines the host); probe_transport()
// is the reinstatement path — it retries the connection in place of the
// synthetic probe jobs that wrapper hosts use.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <sys/types.h>

#include "core/executor.hpp"
#include "exec/transport.hpp"
#include "exec/worker_agent.hpp"

namespace parcl::exec {

/// How the pilot reaches — and re-reaches — its worker agent. connect()
/// returns a blocking full-duplex fd the transport no longer owns for
/// reading/writing (the pilot closes it); disconnect() is the hook where
/// process transports reap/respawn and thread transports recycle.
class WorkerTransport {
 public:
  virtual ~WorkerTransport() = default;
  /// Establishes a fresh connection. Throws util::SystemError when the
  /// worker cannot be spawned/reached at all.
  virtual int connect() = 0;
  virtual void disconnect() = 0;
};

/// Spawns the worker as a child process over a socketpair dup'd to its
/// stdin/stdout: locally `<self> --worker`, remotely `ssh host parcl
/// --worker`. Every connect() replaces the previous child, so a process
/// worker never survives its link — reconcile after a kill finds an empty
/// journal and reschedules, which is exactly what losing an ssh-spawned
/// agent means.
class ProcessWorkerTransport final : public WorkerTransport {
 public:
  explicit ProcessWorkerTransport(std::vector<std::string> argv);
  ~ProcessWorkerTransport() override;

  int connect() override;
  void disconnect() override;

 private:
  void reap_child();

  std::vector<std::string> argv_;
  pid_t child_ = -1;
};

/// Runs the WorkerAgent on an in-process thread over a socketpair — the
/// local-host fast path (no fork per connection) and the chaos rig's
/// scriptable worker. The agent object survives reconnects, so its journal
/// models a persistent per-host agent outliving link failures; WorkerFaults
/// in the config script crashes (journal wiped) and hangs, and
/// script_attach() can make a given connect() attempt play dead.
class ThreadWorkerTransport final : public WorkerTransport {
 public:
  /// Behaviour of one connect() attempt.
  enum class Attach {
    kResume,   // serve with the surviving agent (journal intact)
    kRespawn,  // fresh agent first: models a crashed-and-restarted worker
    kHang,     // accept the link but never serve it (handshake times out)
  };

  explicit ThreadWorkerTransport(WorkerConfig config = {});
  ~ThreadWorkerTransport() override;

  int connect() override;
  void disconnect() override;

  /// Scripts successive connect() attempts; entries are consumed in order
  /// and attempts beyond the script resume normally.
  void script_attach(std::vector<Attach> script);

  /// Agent introspection for tests. The agent publishes both counts, so
  /// they may be read while its thread serves.
  std::uint64_t agent_total_starts() const;
  std::size_t agent_journal_size() const;

 private:
  struct State;
  std::shared_ptr<State> state_;
};

struct PilotSettings {
  /// Worker heartbeat cadence this pilot expects (the worker's own config
  /// sets what it actually sends; keep them aligned).
  double heartbeat_interval = 1.0;
  /// Silence longer than this declares the link stalled and forces a
  /// reconnect. 0 = auto: 5 x heartbeat_interval.
  double stall_after = 0.0;
  /// How long to wait for HELLO after a connect before giving up on the
  /// attempt.
  double handshake_timeout = 5.0;
  /// Consecutive failed connection attempts before the channel goes Dead
  /// (submitted jobs surface as host failures; start() refuses).
  std::size_t reconnect_max = 3;
  /// start() flushes a SUBMIT batch once this many jobs are queued (the
  /// batch also flushes on every wait_any entry).
  std::size_t submit_batch_max = 64;
  /// Chaos rig: seeded fault schedule over inbound frames + scheduled
  /// mid-run connection kills. Inert by default.
  transport::TransportFaultPlan faults;
};

struct TransportCounters {
  std::uint64_t frames_received = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t batches_sent = 0;
  std::uint64_t jobs_submitted = 0;
  std::uint64_t results_received = 0;
  std::uint64_t duplicate_results = 0;   // RESULTs for a seq not in flight
  std::uint64_t duplicate_chunks = 0;    // chunk overwrites, chunks for such a seq
  std::uint64_t reconnects = 0;          // successful re-attaches
  std::uint64_t connect_failures = 0;
  std::uint64_t stalls = 0;              // heartbeat-stall forced reconnects
  std::uint64_t jobs_reconciled_lost = 0;
  std::uint64_t protocol_errors = 0;
};

class PilotExecutor final : public core::Executor {
 public:
  PilotExecutor(std::unique_ptr<WorkerTransport> transport,
                PilotSettings settings = {});
  ~PilotExecutor() override;
  PilotExecutor(const PilotExecutor&) = delete;
  PilotExecutor& operator=(const PilotExecutor&) = delete;

  /// Queues the job into the next SUBMIT batch. Throws util::SystemError
  /// when the channel is Dead (treat like a spawn failure).
  void start(const core::ExecRequest& request) override;
  std::optional<core::ExecResult> wait_any(double timeout_seconds) override;
  /// Safe no-op for unknown or already-surfaced jobs.
  void kill(std::uint64_t job_id, bool force) override;
  void kill_signal(std::uint64_t job_id, int sig) override;
  std::size_t active_count() const override;
  double now() const override;

  // ---- Transport introspection (MultiExecutor's health feed) --------------

  bool attached() const noexcept { return attached_; }
  bool dead() const noexcept { return dead_; }
  /// Seconds since the last inbound frame (since construction before the
  /// first attach). Keeps growing across a detach so one silence episode
  /// reads as one gap.
  double heartbeat_age() const;
  /// The stall threshold actually in force (settings.stall_after resolved).
  double stall_threshold() const noexcept { return stall_after_; }
  /// Processes inbound frames, heartbeats, reconnects, and fault-schedule
  /// releases without blocking or surfacing completions. Safe when idle.
  void pump();
  /// Reinstatement probe: try to (re)establish the link, clearing a Dead
  /// verdict first. True when the channel is attached afterwards. Replaces
  /// synthetic probe jobs on pilot hosts.
  bool probe_transport();

  const TransportCounters& counters() const noexcept { return counters_; }
  const transport::TransportFaultCounters& fault_counters() const noexcept {
    return fault_filter_.counters();
  }

 private:
  struct Inflight {
    transport::JobSpec spec;  // retained until sent (batch flush)
    bool sent = false;
    std::optional<transport::ResultFrame> result;
  };

  bool write_frame(const std::string& bytes);
  void flush_submits();
  /// One connect + handshake attempt. Returns true when attached.
  bool attach_once();
  /// Reconnect loop honouring reconnect_max; on exhaustion the channel goes
  /// Dead and every in-flight job surfaces as a host failure.
  void reconnect();
  void detach();
  void mark_dead();
  /// Journal reconciliation against a fresh HELLO.
  void reconcile(const transport::HelloFrame& hello);
  void surface_lost(std::uint64_t seq);
  void process_frame(const transport::Frame& frame);
  void handle_chunk(const transport::Frame& frame);
  void handle_result(const transport::Frame& frame);
  void try_deliver(std::uint64_t seq);
  void send_ack(std::uint64_t seq);
  /// Reads whatever is available (bounded poll) and processes it; detects
  /// loss, stalls, and scheduled connection kills.
  void pump_once(double poll_seconds);

  std::unique_ptr<WorkerTransport> transport_;
  PilotSettings settings_;
  double stall_after_ = 0.0;

  int fd_ = -1;
  bool attached_ = false;
  bool dead_ = false;
  bool version_rejected_ = false;  // permanent: reconnects cannot fix it
  transport::FrameDecoder decoder_;
  transport::FrameFaultFilter fault_filter_;

  std::map<std::uint64_t, Inflight> inflight_;
  transport::OutputAssembler assembler_;  // in-flight jobs' chunks
  std::deque<std::uint64_t> unsent_;  // seqs queued for the next SUBMIT batch
  std::deque<core::ExecResult> completed_;

  double last_inbound_ = 0.0;
  double clock_offset_ = 0.0;  // now() - worker_now, refreshed per beat
  std::size_t consecutive_connect_failures_ = 0;
  bool ever_attached_ = false;   // distinguishes reconnects from first attach
  bool bye_received_ = false;    // worker drained gracefully

  TransportCounters counters_;
};

}  // namespace parcl::exec
