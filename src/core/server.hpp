// Service mode: `parcl --server` — a crash-tolerant, multi-tenant job
// service. Concurrent `parcl --client` processes submit framed jobs over a
// unix socket (or --listen TCP); the server schedules them on one shared
// slot pool with per-tenant deficit-round-robin fair share, and journals
// every accepted job to a crash-safe intake log BEFORE acking it.
//
// The robustness contract, in dependency order:
//
//   submit --> journal append (one O_APPEND write) --> ACK --> dispatch
//
// Because the journal write precedes the ack, `kill -9` at ANY instant
// loses nothing a client was told was accepted: restart replays the intake
// journal, subtracts the server ledger (a joblog keyed by intake id — the
// exactly-once record of what already ran), and re-runs exactly the
// unfinished remainder. Both files use the joblog's one-write()-per-record
// + torn-tail-truncation discipline, so a crash can tear at most a final
// record that was by construction never acked.
//
// Admission control is explicit, not implicit: per-tenant and global intake
// queues are bounded, the --memfree/--load pressure probe gates the edge,
// and every refusal is a REJECT frame with a retry hint — a flooding
// tenant is throttled (and eventually evicted) without disturbing others,
// and a well-behaved client never sees unbounded buffering.
//
// Dispatch is the engine's: its step-driven loop (Engine::step) takes one
// queued job per free slot, and its result callback writes the ledger, the
// tenant joblog and the event. Service jobs thus get --retries,
// --retry-delay, --timeout, --delay and --memfree/--load from that loop.
//
// ServerCore is the socket-free heart (deterministic tests and the bench
// drive it directly, against a FunctionExecutor); the epoll-based socket
// front end lives in server.cpp behind serve(), which run_server() calls
// with a LocalExecutor. That loop keeps one epoll set for its lifetime:
// the listeners, the connections, the signal pipe and the executor's
// readiness fd (an epoll set itself, nested). It sleeps there until a
// frame, a signal, a job exit or the engine's next deadline, and pays one
// wait per wake: it asks the executor for exits only when that fd fired
// or the executor holds completions it took off the fd earlier, and
// otherwise only fills free slots.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/executor.hpp"
#include "core/job.hpp"
#include "core/joblog.hpp"
#include "core/scheduler.hpp"
#include "exec/transport.hpp"

namespace parcl::core {

struct RunPlan;

/// One accepted job as journaled at intake (and as reconstructed by
/// replay). `intake_id` is the server-global monotonic id; `client_seq` is
/// the submitting tenant's own numbering (what its -k collation orders by).
struct IntakeRecord {
  std::uint64_t intake_id = 0;
  std::string tenant;
  std::uint64_t client_seq = 0;
  std::string command;
  bool has_stdin = false;
  std::string stdin_data;
};

/// What a restart takes from the journal, in one streaming pass.
struct JournalReplay {
  /// Accepted records neither cancelled nor finished, in journal order.
  std::vector<IntakeRecord> pending;
  /// The highest intake id any record carries, cancels included (0: none):
  /// the restart floor for the server's id counter.
  std::uint64_t max_intake_id = 0;
};

/// Crash-safe intake journal: an append-only text log with one record per
/// line, each written with a single write() to an O_APPEND fd (the
/// JoblogWriter discipline — records never tear under SIGKILL; a torn
/// final line only models power loss and is truncated away on reopen).
///
///   A <intake_id> <tenant> <client_seq> <flags> <command> <stdin>   accept
///   C <intake_id>                                                   cancel
///
/// Fields are TAB-separated; command/stdin bytes are escaped (\\, \t, \n)
/// so arbitrary payloads stay one line. scan() folds the file into the
/// accepted-minus-cancelled set in journal order.
class IntakeJournal {
 public:
  /// Opens `path` for appending, truncating a torn tail first. With
  /// `fsync_each`, every record is fsync'd (power-loss durability).
  explicit IntakeJournal(const std::string& path, bool fsync_each = false);
  ~IntakeJournal();
  IntakeJournal(const IntakeJournal&) = delete;
  IntakeJournal& operator=(const IntakeJournal&) = delete;

  /// Appends an accept record. The record is on disk (one write(), and an
  /// fsync with `fsync_each`) when this returns — the caller may ack. A
  /// failed write or fsync throws SystemError, so no ack goes out.
  void append_accept(const IntakeRecord& record);

  /// Appends a cancel record (orphan-cancel, drain-abandon).
  void append_cancel(std::uint64_t intake_id);

  /// Reads a journal file once, line by line: the accepted records that
  /// are neither cancelled nor in `finished` (sorted intake ids, such as
  /// the ledger's), and the highest id. A finished record is checked for
  /// its kind and id only, and never kept. Missing file = empty.
  /// Unparseable interior lines throw ParseError; a torn final line is
  /// skipped (it was never acked).
  static JournalReplay scan(const std::string& path,
                            const std::vector<std::uint64_t>& finished = {});

 private:
  void append(const std::string& line);

  int fd_ = -1;
  bool fsync_each_ = false;
  std::string line_;  // the record being written; keeps its capacity
};

/// What to do with a tenant's pending jobs when its client disconnects
/// without a BYE handshake.
enum class OrphanPolicy {
  kKeep,    // jobs keep running; results land in the tenant joblog
  kCancel,  // queued jobs are journal-cancelled, running ones killed
};

struct ServerLimits {
  std::size_t max_queue_per_tenant = 1024;
  std::size_t max_queue_global = 8192;
  /// Submissions with a longer command are rejected kBadRequest.
  std::size_t max_command_bytes = 1 << 20;
  /// Backoff hint carried in retryable REJECT frames, seconds.
  double retry_after_seconds = 0.25;
  /// Consecutive rejected submits (no accept in between) before a tenant
  /// is evicted as a flooder. 0 disables eviction.
  std::size_t evict_after_strikes = 64;
};

struct ServerConfig {
  /// Journal, ledger, and per-tenant joblogs live here (must exist).
  std::string state_dir;
  /// Shared slot pool width (the server's -j).
  std::size_t slots = 1;
  ServerLimits limits;
  OrphanPolicy orphans = OrphanPolicy::kKeep;
  /// Run options service jobs honour: --retries, --retry-delay, --timeout,
  /// --delay, --memfree/--load (also gating admission) and --joblog-fsync
  /// (covering the journal and ledgers). `slots` overrides options.jobs.
  Options options;
};

/// Outcome of one submit() (or attach): accepted-with-id, or rejected with
/// the code/retry hint that becomes the REJECT frame.
struct Admission {
  bool accepted = false;
  std::uint64_t intake_id = 0;
  exec::transport::RejectCode code = exec::transport::RejectCode::kBadRequest;
  double retry_after = 0.0;
  std::string message;

  static Admission accept(std::uint64_t id) {
    Admission a;
    a.accepted = true;
    a.intake_id = id;
    return a;
  }
  static Admission reject(exec::transport::RejectCode code, double retry_after,
                          std::string message) {
    Admission a;
    a.code = code;
    a.retry_after = retry_after;
    a.message = std::move(message);
    return a;
  }
};

/// A finished job addressed to its tenant. The result carries the CLIENT
/// seq, the status, exit code, signal, attempts, times, command and output;
/// not the args, slot or host. The socket front end turns these into RESULT
/// frames for connected tenants; for orphaned tenants the joblog row is the
/// delivery.
struct TenantEvent {
  std::string tenant;
  JobResult result;
};

struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_server_full = 0;
  std::uint64_t rejected_pressure = 0;
  std::uint64_t rejected_draining = 0;
  std::uint64_t rejected_bad_request = 0;
  std::uint64_t rejected_evicted = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t replayed = 0;  // jobs requeued from the journal at startup
  std::uint64_t evictions = 0;
  /// Jobs dispatched per tenant (the fairness series the bench feeds into
  /// the Jain index).
  std::map<std::string, std::uint64_t> served_by_tenant;
  /// Accept-to-dispatch queue latency samples, seconds (executor clock):
  /// the last kQueueLatencyWindow jobs served, in no particular order.
  std::vector<double> queue_latency_seconds;
  static constexpr std::size_t kQueueLatencyWindow = std::size_t{1} << 17;
};

/// The socket-free job service: admission, journaling, fair-share
/// dispatch, completion ledgering. Single-threaded by design (the same
/// contract as Executor — one thread calls everything); the socket front
/// end and the tests/bench are that thread.
///
/// ServerCore is its loop's job source (privately a LiveSource): a job
/// leaves the fair-share queue only when the loop starts it, is counted
/// served at that instant, and runs with its intake id as seq and its
/// command as the one argument the loop's "{}" template leaves verbatim.
class ServerCore : private LiveSource {
 public:
  /// Opens (or re-opens after a crash) the state directory: trims torn
  /// tails, replays the journal minus the ledger, and requeues the
  /// unfinished remainder under their original tenants (weight 1 until
  /// the tenant reconnects and re-states its weight).
  ServerCore(ServerConfig config, Executor& executor);
  ServerCore(const ServerCore&) = delete;
  ServerCore& operator=(const ServerCore&) = delete;

  /// Admits a tenant connection: validates the name (it becomes a joblog
  /// filename component), registers its fair-share weight, and marks it
  /// connected. Rejected while draining or when evicted.
  Admission attach_tenant(const std::string& tenant, double weight = 1.0);

  /// Client gone. With `orphaned` (connection lost without a BYE) the
  /// orphan policy applies: kKeep leaves its pending jobs running/queued,
  /// kCancel journal-cancels queued jobs and kills running ones (their
  /// deaths are still ledgered exactly-once). A clean BYE (`orphaned` =
  /// false) always keeps — the client explicitly handed its jobs over.
  void detach_tenant(const std::string& tenant, bool orphaned = true);

  bool tenant_connected(const std::string& tenant) const;
  bool tenant_evicted(const std::string& tenant) const;

  /// Admission control + journal-then-ack intake. Checks, in order:
  /// draining, evicted/attached, request sanity, pressure gate, per-tenant
  /// bound, global bound. On acceptance the record is journaled before
  /// this returns — the caller may ack immediately.
  Admission submit(const std::string& tenant, std::uint64_t client_seq,
                   const std::string& command, const std::string& stdin_data = "",
                   bool has_stdin = false);

  /// One service iteration: passes of the engine's loop, which start
  /// queued jobs on free slots in DRR order. The first pass waits up to
  /// `timeout_seconds` (0 = poll) for a completion; later ones take the
  /// completions the executor already holds (Executor::holds_completion),
  /// and the last starts jobs on the freed slots without a wait. Returns
  /// the number of completions reaped. Never blocks when nothing is
  /// running.
  std::size_t step(double timeout_seconds);

  /// Starts queued jobs on free slots and fires due deadlines without
  /// asking the executor for completions (Engine::fill): for a caller whose
  /// wait on the executor's fd says none is there, and that the executor
  /// holds none (Executor::holds_completion).
  void fill();

  /// Drains finished-job events accumulated by step().
  std::vector<TenantEvent> take_events();

  /// For a caller that polls its own fds, the executor's readiness fd
  /// among them, instead of waiting in step(): the seconds until step()
  /// must run again (Engine::wait_seconds; < 0: only when that fd polls
  /// readable or a submit arrives).
  double wait_seconds() const { return engine_.wait_seconds(); }

  /// Phase 1 of the two-phase drain: stop admitting (submits reject
  /// kDraining), keep finishing in-flight work. Queued-but-unstarted jobs
  /// are left journaled — they are the checkpoint the next start replays.
  void begin_drain();
  bool draining() const noexcept { return draining_; }

  /// Phase 2: kill in-flight jobs for good (no retry; their deaths still
  /// ledger through step(), keeping the exactly-once record intact).
  void kill_running(bool force) { engine_.kill_running(force); }

  /// Jobs out of the queue and not yet ledgered: attempts in flight plus
  /// retries the loop will still start.
  std::size_t running_count() const noexcept { return engine_.running(); }
  std::size_t queued_count() const noexcept { return queue_.total_queued(); }
  /// Nothing running and nothing queued.
  bool idle() const noexcept;

  /// Does nothing: every ledger and tenant-joblog row is written when its
  /// job finishes. It stays only because the benchmark's traced run
  /// (perfbench/trace.cpp) still calls it; drop it once that call is gone.
  void flush() {}

  const ServerStats& stats() const noexcept { return stats_; }

  /// What a restart takes from `state_dir`: the unfinished set it requeues
  /// (journal accepts minus cancels minus ledgered intake ids) and the id
  /// floor. One pass over the ledger's ids, then one over the journal.
  static JournalReplay replay_state(const std::string& state_dir);

  static std::string journal_path(const std::string& state_dir);
  /// The server-wide joblog keyed by intake id (host column = tenant):
  /// the exactly-once ledger replay subtracts.
  static std::string ledger_path(const std::string& state_dir);
  /// Per-tenant joblog keyed by the tenant's own client seq.
  static std::string tenant_joblog_path(const std::string& state_dir,
                                        const std::string& tenant);

  /// A tenant name is a protocol input that becomes a filename component:
  /// [A-Za-z0-9._-]+, no leading dot, at most 64 bytes.
  static bool valid_tenant_name(const std::string& tenant);

 private:
  struct Tenant {
    double weight = 1.0;
    bool connected = false;
    std::size_t strikes = 0;  // consecutive rejects (flood detector)
    std::size_t pending = 0;  // its jobs queued or in the loop
  };
  struct Pending {
    IntakeRecord record;
    double accept_time = 0.0;
  };

  bool ready() const override;
  std::optional<JobInput> next() override;
  Tenant& ensure_tenant(const std::string& tenant, double weight, bool connected);
  Admission note_reject(const std::string& tenant, Admission rejection);
  /// Moves the output and command out of `result` into the tenant's event.
  void record_result(JobResult& result);
  JoblogWriter& tenant_joblog(const std::string& tenant);
  /// Closes the joblog of a tenant that is detached and has nothing
  /// pending, so the server holds no fd for each name it ever served. A
  /// later row reopens it in append mode.
  void close_idle_joblog(const std::string& tenant, const Tenant& state);

  ServerConfig config_;
  Executor& executor_;
  FairShareQueue queue_;
  IntakeJournal journal_;
  JoblogWriter ledger_;
  std::map<std::string, Tenant> tenants_;
  std::set<std::string> evicted_;
  std::map<std::uint64_t, Pending> pending_;  // queued + in the loop, by intake id
  std::uint64_t next_intake_id_ = 1;
  std::map<std::string, std::unique_ptr<JoblogWriter>> tenant_joblogs_;
  std::vector<TenantEvent> events_;
  std::string row_tail_;  // the joblog columns a result's two rows share
  ServerStats stats_;
  std::size_t next_latency_slot_ = 0;  // the oldest sample, once the window is full
  bool draining_ = false;
  // No stream buffer: the loop collates nothing, and record_result sends
  // each result's output to its client.
  std::ostream discard_{nullptr};
  Engine engine_;
};

class SignalCoordinator;

/// The epoll-based socket front end: serves the listening, non-blocking
/// sockets in `listeners` (it takes them over and closes them) until the
/// two-phase drain that `signals` starts has finished, and returns the
/// process exit code. `token`, when not empty, is the admission secret a
/// CLIENT_HELLO must carry. It sleeps on `executor`'s readiness fd, so an
/// executor without one throws InternalError, and it takes
/// Executor::holds_completion() at its word: while that is true it does
/// not sleep.
int serve(ServerCore& core, const Executor& executor, std::vector<int> listeners,
          const std::string& token, SignalCoordinator& signals);

/// The `parcl --server` entry point: LocalExecutor + ServerCore + serve()
/// over the unix socket and the optional --listen TCP one.
int run_server(const RunPlan& plan);

}  // namespace parcl::core
