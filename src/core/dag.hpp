// Dependency tracking for a static dataflow graph: the core under the
// engine's --graph source and the storage pipeline runner.
//
// A DependencyTracker holds a DAG of nodes (arbitrary nonzero uint64 ids)
// declared up front and sealed once: node B lists node A, and B becomes
// ready only after complete(A, ok=true). This mirrors Parsl's dataflow
// model (futures gating task launch): a completion event is the future
// resolving.
//
// Failure propagates strictly: a node whose final completion is not ok —
// or that was itself skipped — skips every transitive descendant. Skipped
// nodes are reported through take_skipped() so the caller can account for
// them honestly (RunSummary::dep_skipped, the joblog's dep-skip rows)
// instead of silently dropping them.
//
// The tracker is single-threaded and event-driven: it never calls back.
// Callers pump it — pop_ready() / complete() / take_skipped() — from their
// own loop (the engine's serial loop, the storage sim's event loop).
// `--then` chains stream an unbounded input and keep their own per-item
// state instead (StageChainSource).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

namespace parcl::core {

class DependencyTracker {
 public:
  /// Declares node `id` (nonzero, unique) with its predecessors. Forward
  /// references are allowed: a dep may name a node declared later. Throws
  /// ConfigError on id 0 or a duplicate declaration, and InternalError
  /// after seal().
  void add_node(std::uint64_t id, std::vector<std::uint64_t> deps = {});

  /// Seals the graph: resolves deps (throwing ConfigError on an unknown
  /// id), rejects cycles via Kahn's algorithm, and moves dependency-free
  /// nodes to the ready set. Must be called once before pop/complete.
  void seal();

  /// Lowest-id ready node, or nullopt. A popped node is "emitted": the
  /// caller owns it until complete().
  std::optional<std::uint64_t> pop_ready();

  /// Like pop_ready(), but only considers nodes `allow` accepts (per-stage
  /// concurrency caps). Nodes rejected this call stay ready for the next.
  std::optional<std::uint64_t> pop_ready_if(
      const std::function<bool(std::uint64_t)>& allow);

  bool has_ready() const noexcept { return !ready_.empty(); }

  /// Final completion of an emitted node. ok=false skips every transitive
  /// descendant (drain them with take_skipped()). Completing a node twice,
  /// or one never popped, throws InternalError — exactly-once is part of
  /// the scheduling contract the chaos soak asserts.
  void complete(std::uint64_t id, bool ok);

  /// Nodes skipped by failure propagation since the last call, in id order.
  std::vector<std::uint64_t> take_skipped();

  /// Declared nodes not yet completed or skipped (waiting + ready +
  /// emitted). The run is over when this reaches zero.
  std::size_t pending() const noexcept { return pending_; }

  /// No waiting or ready nodes remain — everything declared was emitted,
  /// completed, or skipped. Unlike blocked(), this ignores the gate a
  /// caller may be applying through pop_ready_if: a ready-but-gate-denied
  /// node keeps this false, so a source can distinguish "temporarily
  /// capped" from "truly dry".
  bool all_emitted() const noexcept { return pending_ == emitted_; }

  /// Nodes are waiting on future complete() events and none are ready: the
  /// caller must not treat an empty pop as end-of-stream. (Undrained
  /// take_skipped() reports are orthogonal — skipped nodes are already
  /// terminal and excluded from pending().)
  bool blocked() const noexcept { return pending_ > 0 && ready_.empty(); }

  /// Waiting/ready (not yet emitted) node ids, in id order — the never-ran
  /// tail a halted run drains into skip accounting.
  std::vector<std::uint64_t> drain_unemitted();

 private:
  enum class State { kWaiting, kReady, kEmitted, kDoneOk, kFailed, kSkipped };

  struct Node {
    std::vector<std::uint64_t> deps;
    std::vector<std::uint64_t> dependents;
    std::size_t unmet = 0;  // node deps still outstanding
    State state = State::kWaiting;
  };

  void make_ready(std::uint64_t id);
  void skip_descendants(std::uint64_t id);

  std::map<std::uint64_t, Node> nodes_;
  std::set<std::uint64_t> ready_;
  std::vector<std::uint64_t> skipped_;  // pending take_skipped() drain
  std::size_t pending_ = 0;
  std::size_t emitted_ = 0;  // popped, not yet completed
  bool sealed_ = false;
};

}  // namespace parcl::core
