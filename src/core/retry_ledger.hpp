// Attempt and backoff bookkeeping for failed attempts awaiting re-dispatch,
// carved out of the engine loop. Two structures:
//   - a ready deque: completion failures re-enter at the front (newest
//     first, the order the engine has always produced); spawn failures at
//     the back,
//   - a backoff min-heap for --retry-delay, keyed on the release instant.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <queue>
#include <vector>

#include "core/executor.hpp"
#include "core/job_source.hpp"
#include "core/options.hpp"

namespace parcl::core {

/// A job that is not currently running: fresh from the source, or a failed
/// attempt parked for retry. It is the JobInput it was pulled as (with its
/// seq assigned) plus its retry bookkeeping; the same record rides in its
/// ActiveAttempt while it runs and moves back here for a retry.
struct PendingJob : JobInput {
  std::size_t attempts = 0;  // completed attempts (0 for fresh jobs)
  double not_before = 0.0;   // --retry-delay backoff gate (executor clock)
  /// Host-failure requeues so far. Unlike `attempts`, these never count
  /// against --retries: losing a node is not the job's fault.
  std::size_t reschedules = 0;
};

class RetryLedger {
 public:
  RetryLedger(const Options& options, Executor& executor);

  /// True when a job with this many completed attempts still has budget
  /// under --retries.
  bool retryable(std::size_t attempts) const noexcept {
    return attempts < options_.retries;
  }

  /// Parks a failed attempt for re-dispatch. Computes the --retry-delay
  /// backoff gate; a gated job goes to the backoff heap, an ungated one to
  /// the ready deque (front = ahead of other parked retries, the
  /// completion-failure path; back = spawn failures).
  void park(PendingJob job, bool front);

  /// Requeues an attempt lost to a host failure, ahead of parked retries
  /// and with no backoff: the job is healthy, only its host was not. The
  /// caller leaves `attempts` at its pre-loss value so --retries budget is
  /// untouched; `reschedules` tracks the loss count instead.
  void reschedule(PendingJob job);

  /// Moves backoff'd retries whose release instant has passed into the
  /// ready deque.
  void release_due();

  bool ready() const noexcept { return !retries_.empty(); }
  bool has_delayed() const noexcept { return !delayed_.empty(); }
  bool idle() const noexcept { return retries_.empty() && delayed_.empty(); }
  std::size_t size() const noexcept { return retries_.size() + delayed_.size(); }

  PendingJob pop_ready();

  /// Front of the ready deque without popping (only valid when ready()).
  /// The engine peeks to honour per-stage caps: a retry whose stage is at
  /// its limit stays parked while fresh work from other stages proceeds.
  const PendingJob& peek_ready() const { return retries_.front(); }

  /// Earliest backoff release instant; only meaningful when has_delayed().
  double next_release() const { return delayed_.top().not_before; }

  /// Empties the ledger, returning everything still parked (ready first,
  /// then backoff'd in release order) — the halt path marks them skipped.
  std::vector<PendingJob> drain();

 private:
  /// Attempt k re-runs after base * 2^(k-1) seconds with seeded +/-25%
  /// jitter, so correlated failures (a full disk, a dead node) don't retry
  /// in lockstep. Returns 0 when --retry-delay is off (immediate requeue).
  double retry_ready_at(std::uint64_t seq, std::size_t completed_attempts) const;

  struct LaterFirst {
    bool operator()(const PendingJob& a, const PendingJob& b) const {
      if (a.not_before != b.not_before) return a.not_before > b.not_before;
      return a.seq > b.seq;
    }
  };

  const Options& options_;
  Executor& executor_;
  std::deque<PendingJob> retries_;
  std::priority_queue<PendingJob, std::vector<PendingJob>, LaterFirst> delayed_;
};

}  // namespace parcl::core
