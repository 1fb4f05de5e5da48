// Output collation: GNU Parallel's --group / -k / --tag behaviour.
//
// Group mode emits a job's buffered output when it finishes; keep-order
// buffers out-of-order finishers and releases them in sequence order, so
// `parallel -k` output equals sequential output. Tag mode prefixes every
// line with the job's first argument and a TAB.
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

  /// Delivers a finished job's output (possibly buffering under -k).
  void deliver(const JobResult& result);

  /// Tells -k mode that `seq` will never arrive (skipped / killed before
  /// producing output is still delivered via deliver()).
  void mark_absent(std::uint64_t seq);

  /// Flushes anything still buffered (call at end of run).
  void finish();

  /// Finished jobs buffered out-of-order under -k (the collation window
  /// the engine bounds via Options::keep_order_window).
  std::size_t held_count() const noexcept { return held_.size(); }

 private:
  void emit(const JobResult& result);
  void advance();

  OutputMode mode_;
  TagFn tag_;
  std::ostream& out_;
  std::ostream& err_;
  std::uint64_t next_seq_ = 1;
  std::map<std::uint64_t, JobResult> held_;  // -k: finished but not yet due
  std::map<std::uint64_t, bool> absent_;
};

}  // namespace parcl::core
