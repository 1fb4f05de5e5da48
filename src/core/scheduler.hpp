// Dispatch gating, carved out of the engine loop: slot ownership, --delay
// spacing, --memfree/--load pressure deferral, and the --halt trigger. The
// engine asks the Scheduler *whether and when* the next job may start; what
// runs stays with the engine (timeouts, retries, collation).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "core/options.hpp"
#include "core/retry_ledger.hpp"
#include "core/slot_pool.hpp"

namespace parcl::core {

/// In-flight attempt bookkeeping (one entry per started attempt): the job
/// it runs, whose `attempts` counts this attempt, and what only an attempt
/// has. A retry or a host-failure requeue moves `job` back to the ledger.
struct ActiveAttempt {
  PendingJob job;
  std::size_t slot = 0;
  std::string command;      // job.command (the template) expanded for `slot`
  double start_time = 0.0;  // dispatch instant (for adaptive timeouts)
  double deadline = 0.0;    // 0 = no timeout
  bool kill_sent = false;   // timeout SIGTERM sent
  bool force_sent = false;  // timeout SIGKILL sent
  bool killed_for_timeout = false;
  bool killed_for_good = false;  // halt now or Engine::kill: final, kKilled
  /// --hedge pairing: job id of the racing duplicate/primary (0 = unpaired).
  std::uint64_t hedge_partner = 0;
  bool is_hedge = false;  // this attempt IS the speculative duplicate
  /// The pair already produced the job's result; this completion is dropped
  /// (slot released, nothing recorded) to keep the joblog exactly-once.
  bool discard_on_completion = false;
};

class Scheduler {
 public:
  Scheduler(const Options& options, Executor& executor);

  // Slot ownership ({%} numbering; lowest free slot first). Both honour
  // Executor::slot_usable(): slots on quarantined hosts are passed over as
  // if occupied until the host is reinstated.
  std::size_t acquire_slot();
  void release_slot(std::size_t slot) { slots_.release(slot); }
  bool slot_free() const;
  /// A free slot exists at all, usable or not. When this is true but
  /// slot_free() is false, all remaining capacity sits on quarantined
  /// hosts — the engine naps (driving reinstatement probes) instead of
  /// spinning.
  bool any_slot_free() const noexcept { return slots_.any_free(); }
  /// Lowest free usable slot in a different failure domain than `other`
  /// (--hedge placement), or nullopt when none is available right now.
  std::optional<std::size_t> acquire_slot_distinct(std::size_t other);

  /// Elastic backends (Executor::slot_capacity() != 0) can grow their slot
  /// space at runtime; the engine calls this every loop iteration to widen
  /// the pool to match. Returns true when new slots appeared (the engine
  /// then re-enters its fill phase). Shrinking never happens here: lost
  /// hosts keep their slot ids as slot_usable()-vetoed tombstones.
  bool sync_capacity();

  /// True once dispatching is over: halt engaged or a signal drain started.
  bool stopped() const noexcept { return stop_starting_; }
  void stop() noexcept { stop_starting_ = true; }

  /// Earliest instant the next start is allowed under --delay (now when
  /// --delay is off).
  double next_start_time() const;
  /// The raw --delay gate (last start + delay), for phase-2 wait math.
  double delay_gate() const noexcept {
    return last_start_ + options_.delay_seconds;
  }
  void note_start(double now) noexcept { last_start_ = now; }

  /// --memfree/--load admission probe, re-checking the backend at most
  /// every kPressureRecheck seconds. Always true when neither gate is set.
  bool pressure_allows_start();
  bool pressure_blocked() const noexcept { return pressure_blocked_; }
  static constexpr double kPressureRecheck = 0.25;

  /// --halt evaluation after a final result. Fires at most once; kNone
  /// thereafter (and while stopped). kKillRunning additionally asks the
  /// engine to kill in-flight attempts (halt "now").
  enum class HaltAction { kNone, kStopStarting, kKillRunning };
  HaltAction evaluate_halt(std::size_t failed, std::size_t succeeded, std::size_t done,
                           std::size_t total_jobs);

  // Per-stage concurrency caps (DAG mode: a `stage NAME jobs=N` directive
  // or --stage-jobs). Stage 0 — flat streams, unstaged graph nodes — is
  // never capped. The gate composes with slots: a start must clear both.
  void set_stage_limit(std::size_t stage, std::size_t cap);
  /// True when `stage` may start one more job (uncapped or below its cap).
  bool stage_allows(std::size_t stage) const noexcept;
  void note_stage_start(std::size_t stage);
  void note_stage_end(std::size_t stage);

 private:
  struct StageGate {
    std::size_t cap = 0;  // 0 = unlimited
    std::size_t in_flight = 0;
  };
  const Options& options_;
  Executor& executor_;
  SlotPool slots_;
  bool stop_starting_ = false;
  double last_start_ = -std::numeric_limits<double>::infinity();
  bool pressure_gated_;
  double pressure_checked_at_ = -1.0;
  bool pressure_blocked_ = false;
  std::map<std::size_t, StageGate> stages_by_id_;
};

/// Deficit round-robin fair-share over per-tenant FIFO queues (the job
/// service's scheduling hook). Every job costs one unit; a tenant's weight
/// is the quantum credited each time the round-robin cursor reaches it, so
/// over a contended interval tenants are served proportionally to weight
/// regardless of how fast each one submits. A tenant whose queue empties
/// forfeits its remaining credit — deficit must never be hoarded while
/// idle, or a burst after a quiet spell would lock everyone else out.
/// Within a tenant, order is strict FIFO (client seq order is preserved).
///
/// Items are opaque u64 ids (the server's intake ids); the caller owns the
/// id -> job mapping. Not thread-safe: the service loop is single-threaded
/// by design (same contract as Executor).
class FairShareQueue {
 public:
  struct Popped {
    std::string tenant;
    std::uint64_t id = 0;
  };

  /// Registers (or re-registers, updating the weight of) a tenant. Weight
  /// must be > 0. Re-attach preserves queued items.
  void attach(const std::string& tenant, double weight = 1.0);

  /// Removes a tenant, returning its still-queued ids in FIFO order (the
  /// orphan-cancel path journals them as cancelled). Unknown tenant: empty.
  std::vector<std::uint64_t> detach(const std::string& tenant);

  bool attached(const std::string& tenant) const;

  /// Queues one item. Returns false when the tenant is unknown — the
  /// caller treats that as a protocol error, not a crash.
  bool push(const std::string& tenant, std::uint64_t id);

  /// Next item under DRR, or nullopt when every queue is empty.
  std::optional<Popped> pop();

  std::size_t queued(const std::string& tenant) const;
  std::size_t total_queued() const noexcept { return total_queued_; }

 private:
  struct Tenant {
    double weight = 1.0;
    double credit = 0.0;
    bool credited_this_visit = false;
    std::deque<std::uint64_t> queue;
  };
  void advance();

  std::map<std::string, Tenant> tenants_;
  std::vector<std::string> order_;  // round-robin visiting order
  std::size_t cursor_ = 0;
  std::size_t total_queued_ = 0;
};

}  // namespace parcl::core
