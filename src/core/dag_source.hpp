// Dependency-aware job sources: the dataflow front half of the engine.
//
// A DagSource is a JobSource whose next() is gated on completion events:
// jobs materialize as their predecessors complete, never up front. The
// engine detects a DagSource (a dynamic_cast in Engine::Run's member
// set-up), feeds final completions back via note_complete(), and drains
// dependency-skipped descendants via take_dep_skips() so they land in the
// joblog and RunSummary instead of vanishing.
//
// Two concrete sources:
//   GraphSource       an explicit DAG from `parcl --graph FILE` — named
//                     nodes, per-node commands, after=/needs=/out= edges,
//                     optional named stages with concurrency caps
//   StageChainSource  `--then`-style chained stages over a streaming input:
//                     every input value runs stage 1, then stage 2 as *its*
//                     stage-1 job completes (element-wise), or after the
//                     whole previous stage drains (--then-all barrier)
//
// Both declare their own seqs (JobInput::seq) so `-k` collation, the
// joblog, and --resume key on declaration order while dispatch follows
// readiness order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/dag.hpp"
#include "core/job_source.hpp"

namespace parcl::core {

/// A job cancelled by failure propagation (its predecessor failed and
/// exhausted retries), or never emitted by a run that ended early: it must
/// never start. It is the JobInput the source would have emitted, which
/// carries everything the engine needs to write an honest joblog row.
using DepSkippedJob = JobInput;

/// JobSource with a completion-event back-channel.
class DagSource : public JobSource {
 public:
  /// Like next(), but only emits jobs whose stage `allow` accepts — the
  /// engine passes its per-stage in-flight gate so a stage at its
  /// concurrency cap doesn't head-of-line block other ready stages.
  virtual std::optional<JobInput> next_gated(
      const std::function<bool(std::size_t)>& allow) = 0;

  std::optional<JobInput> next() override {
    return next_gated([](std::size_t) { return true; });
  }

  /// Final outcome of job `seq` — fired once per job, after retries are
  /// exhausted (descendants wait out predecessor retries) and never for
  /// hedge duplicates. ok=true unblocks successors; ok=false cancels them.
  virtual void note_complete(std::uint64_t seq, bool ok) = 0;

  /// Jobs cancelled by failure propagation since the last call, seq order.
  virtual std::vector<DepSkippedJob> take_dep_skips() = 0;

  /// Jobs never emitted when the run ends early (--halt, signal drain).
  virtual std::vector<DepSkippedJob> drain_unemitted() = 0;

  /// The engine will never start job `seq`, which next_gated() emitted: a
  /// run that ended early skips the rest of its input this way. Returns
  /// the jobs that wait on it and so will never start either, seq order,
  /// and may forget them and the job. The default returns none and leaves
  /// them to drain_unemitted().
  virtual std::vector<DepSkippedJob> abandon(std::uint64_t seq) {
    (void)seq;
    return {};
  }

  /// True when next() returned nullopt but completions can still unblock
  /// jobs — the stream is waiting, not exhausted.
  virtual bool blocked() const = 0;

  /// True only when next_gated can never return another job: every
  /// declared job was emitted (or skipped) and no more can appear. NOT the
  /// negation of blocked(): a ready job denied by the caller's stage gate
  /// leaves both false — the engine must keep pulling once the stage
  /// drains rather than treat the nullopt as end-of-stream.
  virtual bool exhausted() const = 0;

  /// Number of declared stages. Stage ids are 1-based; 0 on an emitted job
  /// means "unstaged" (a graph with no stage directives) — no cap, no
  /// per-stage progress line.
  virtual std::size_t stage_count() const = 0;
  /// Display name for --progress ("" = unnamed).
  virtual std::string stage_name(std::size_t stage) const = 0;
  /// Exact job count for the stage, or nullopt while still unknown (a
  /// streaming head not yet exhausted) — progress renders `N/?` until the
  /// total firms up.
  virtual std::optional<std::size_t> stage_total(std::size_t stage) const = 0;
  /// Per-stage concurrency cap (0 = unlimited, bounded only by -j slots).
  virtual std::size_t stage_limit(std::size_t stage) const = 0;
};

/// One node of a parsed graph file.
struct GraphNode {
  std::string name;
  std::string command;              // run verbatim ({} expands to the name)
  std::vector<std::string> after;   // predecessor node names
  std::vector<std::string> needs;   // input files (must be some node's out=)
  std::vector<std::string> outs;    // declared output files
  std::string stage;                // stage name ("" = none declared)
};

/// A `stage NAME [jobs=N]` directive.
struct GraphStage {
  std::string name;
  std::size_t jobs = 0;  // 0 = unlimited
};

/// Parsed `--graph FILE` contents. Grammar (one entry per line, `#`
/// comments, blank lines ignored):
///   stage NAME [jobs=N]
///   NODE [after=A,B] [needs=PATH,...] [out=PATH,...] [stage=NAME] :: COMMAND
/// Edges come from after= (by node name) and needs= (resolved to the node
/// declaring the matching out=). Parse errors, unknown names, duplicate
/// nodes/outs, and cycles all throw ConfigError with the offending line.
struct GraphSpec {
  std::vector<GraphNode> nodes;
  std::vector<GraphStage> stages;

  static GraphSpec parse(std::istream& in, const std::string& origin);
  static GraphSpec parse_file(const std::string& path);
};

/// DagSource over an explicit GraphSpec. Seqs are declaration order
/// (1-based), so `-k` output and the joblog follow the file's order and a
/// serial run (-j1) is the topological baseline. args = {node name}.
class GraphSource : public DagSource {
 public:
  explicit GraphSource(GraphSpec spec);

  std::optional<JobInput> next_gated(
      const std::function<bool(std::size_t)>& allow) override;
  void note_complete(std::uint64_t seq, bool ok) override;
  std::vector<DepSkippedJob> take_dep_skips() override;
  std::vector<DepSkippedJob> drain_unemitted() override;
  bool blocked() const override { return tracker_.blocked(); }
  bool exhausted() const override { return tracker_.all_emitted(); }

  std::size_t stage_count() const override { return spec_.stages.size(); }
  std::string stage_name(std::size_t stage) const override;
  std::optional<std::size_t> stage_total(std::size_t stage) const override;
  std::size_t stage_limit(std::size_t stage) const override;

  std::size_t node_count() const noexcept { return spec_.nodes.size(); }

 private:
  /// Node `seq`'s job, as emitted or as skipped.
  JobInput describe(std::uint64_t seq) const;

  GraphSpec spec_;
  DependencyTracker tracker_;
  std::vector<std::size_t> node_stage_;   // per node, 1-based (0 = none)
  std::vector<std::size_t> stage_totals_; // per stage id (index 0 = unstaged)
};

/// One stage of a --then chain.
struct StageSpec {
  std::string command;   // stage command template
  std::string name;      // --progress label ("" = "stage N")
  std::size_t jobs = 0;  // per-stage in-flight cap (0 = unlimited)
  /// Barrier stage: waits for the ENTIRE previous stage to drain before
  /// any of its jobs start (--then-all). Element-wise otherwise.
  bool barrier = false;
};

/// DagSource chaining S stages over a streaming upstream (non-owning, like
/// the decorator sources). Input item i (1-based pull order) yields jobs
/// seq (i-1)*S + s for stage s, all sharing the item's args; stage s waits
/// for the item's stage s-1 job to succeed and, on a barrier stage, for the
/// whole previous stage to resolve. Items are pulled lazily — one per
/// next() when stage 1 has capacity — so the upstream is never
/// materialized up front, and an item is forgotten once its last job
/// resolves: memory follows the live window, not the input length.
class StageChainSource : public DagSource {
 public:
  StageChainSource(JobSource& upstream, std::vector<StageSpec> stages);
  /// Owning variant (the CLI hands over its composed source stack).
  StageChainSource(std::unique_ptr<JobSource> upstream,
                   std::vector<StageSpec> stages);

  std::optional<JobInput> next_gated(
      const std::function<bool(std::size_t)>& allow) override;
  void note_complete(std::uint64_t seq, bool ok) override;
  std::vector<DepSkippedJob> take_dep_skips() override;
  std::vector<DepSkippedJob> drain_unemitted() override;
  /// Forgets the item at once, so a halted run that skips the unread
  /// input holds one item at a time.
  std::vector<DepSkippedJob> abandon(std::uint64_t seq) override;
  bool blocked() const override {
    return !head_exhausted_ || (!live_.empty() && ready_.empty());
  }
  bool exhausted() const override {
    return head_exhausted_ && unemitted_ == 0;
  }

  std::size_t stage_count() const override { return stages_.size(); }
  std::string stage_name(std::size_t stage) const override;
  std::optional<std::size_t> stage_total(std::size_t stage) const override;
  std::size_t stage_limit(std::size_t stage) const override;

 private:
  /// An item whose chain has not resolved: its args and its cursor, the
  /// lowest stage whose job has not resolved. Every later stage waits.
  struct Item {
    ArgVector args;
    std::size_t stage = 1;
    bool running = false;  // the cursor stage's job was emitted
  };

  std::size_t stage_of(std::uint64_t seq) const {
    return static_cast<std::size_t>((seq - 1) % stages_.size()) + 1;
  }
  std::uint64_t item_of(std::uint64_t seq) const {
    return (seq - 1) / stages_.size() + 1;
  }
  std::uint64_t seq_of(std::uint64_t item, std::size_t stage) const {
    return (item - 1) * stages_.size() + stage;
  }
  /// Every item is known and each one's stage-`stage` job completed or was
  /// skipped: a barrier on the next stage lifts.
  bool stage_resolved(std::size_t stage) const {
    return head_exhausted_ && resolved_[stage] == items_;
  }
  /// Job `seq` of the item whose args are `args`, as emitted or skipped.
  JobInput job(std::uint64_t seq, const ArgVector& args) const;
  bool pull_item();  // take the next input item; false when dry
  void lift(std::size_t stage);  // ready a barrier stage's jobs once due
  void note_resolved(std::size_t stage);
  /// Appends the item's jobs from `stage` on to `out` as skipped.
  void skip_from(std::uint64_t item, const ArgVector& args, std::size_t stage,
                 std::vector<DepSkippedJob>& out);

  std::unique_ptr<JobSource> owned_upstream_;  // owning-ctor storage only
  JobSource& upstream_;
  std::vector<StageSpec> stages_;
  bool head_exhausted_ = false;
  bool closed_ = false;  // drain_unemitted() ran: completions only retire
  std::uint64_t items_ = 0;          // input values pulled so far
  std::map<std::uint64_t, Item> live_;  // by item number
  std::set<std::uint64_t> ready_;       // seqs, lowest popped first
  std::vector<DepSkippedJob> skipped_;  // until take_dep_skips()
  std::vector<std::size_t> resolved_;   // per stage, jobs done or skipped
  std::size_t unemitted_ = 0;  // live jobs neither emitted nor resolved
};

}  // namespace parcl::core
