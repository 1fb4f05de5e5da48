// Output collation: GNU Parallel's --group / -k / --tag behaviour.
//
// Group mode emits a job's buffered output when it finishes; keep-order
// buffers out-of-order finishers and releases them in sequence order, so
// `parallel -k` output equals sequential output. Tag mode prefixes every
// line with the job's first argument and a TAB. Each stream of a job goes
// out in one write (two when an untagged last line lacks its '\n').
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>

#include "core/job.hpp"
#include "core/options.hpp"

namespace parcl::core {

class OutputCollator {
 public:
  /// Computes the per-line prefix for a job ("" = no prefix). Used by
  /// --tag (first argument) and --tagstring (arbitrary template).
  using TagFn = std::function<std::string(const JobResult&)>;

  OutputCollator(OutputMode mode, bool tag, std::ostream& out, std::ostream& err);
  OutputCollator(OutputMode mode, TagFn tag, std::ostream& out, std::ostream& err);

  /// Delivers a finished job's output: written now, or held under -k until
  /// every earlier seq is written or absent. A held result's bytes are
  /// copied out of `result`; the rvalue overload moves them out instead and
  /// leaves its other fields as they are.
  void deliver(const JobResult& result);
  void deliver(JobResult&& result);

  /// Tells -k mode that `seq` will never arrive (skipped / killed before
  /// producing output is still delivered via deliver()).
  void mark_absent(std::uint64_t seq);

  /// Flushes anything still buffered (call at end of run).
  void finish();

  /// Finished jobs buffered out-of-order under -k (the collation window
  /// the engine bounds via Options::keep_order_window).
  std::size_t held_count() const noexcept { return held_.size(); }
  /// Whether -k still holds `seq`'s output, waiting on an earlier seq.
  bool holds(std::uint64_t seq) const { return held_.count(seq) != 0; }

 private:
  // A finished job's output waiting for its turn under -k.
  struct Held {
    std::string prefix;  // each line's --tag prefix with its TAB ("" = none)
    std::string out;
    std::string err;
  };

  std::string prefix_for(const JobResult& result) const;
  /// Writes `result` unless -k must hold it; returns whether it was written.
  bool write_if_due(const JobResult& result);
  void emit(const std::string& prefix, const std::string& out, const std::string& err);
  void advance();

  OutputMode mode_;
  TagFn tag_;
  std::ostream& out_;
  std::ostream& err_;
  std::uint64_t next_seq_ = 1;
  std::map<std::uint64_t, Held> held_;  // -k: finished but not yet due
  std::map<std::uint64_t, bool> absent_;
};

}  // namespace parcl::core
