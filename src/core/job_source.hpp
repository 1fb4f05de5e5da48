// Streaming job input: the pull side of the engine's pipeline.
//
// GNU Parallel never materializes the job list — it reads input sources
// incrementally and composes the next job on demand, which is what lets it
// sustain millions of tasks in constant memory (paper §IV, Fig 3). This
// header provides that architecture for parcl:
//
//   ValueSource   one input source, pulled one value at a time
//                 (a literal ::: list, a file/stdin via LineSource)
//   JobSource     the job stream the engine consumes: each next() yields
//                 the argument vector (and optional stdin block) of one job
//
// Combinators (CartesianSource, LinkedSource) and decorators (TrimSource,
// ColsepSource, MaxArgsPacker, MaxCharsPacker) compose ValueSources into a
// JobSource lazily; only combinators that semantically require buffering
// (cartesian tail sources, --link recycling) hold values, and never the
// head/longest stream. The eager helpers in core/input remain as thin
// materializing wrappers for call sites that want whole vectors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/input.hpp"

namespace parcl::core {

/// One job's worth of input, produced by a JobSource pull.
struct JobInput {
  ArgVector args;          // input arguments ({}, {n})
  std::string stdin_data;  // --pipe block
  bool has_stdin = false;
  /// Source-assigned seq. 0 (the default) means "engine assigns the next
  /// seq in pull order" — the flat-stream behavior. DAG sources emit jobs
  /// out of declaration order (whichever became ready first), so they
  /// declare each job's stable seq themselves; `-k` collation, the joblog,
  /// and --resume then key on declaration order, not completion order.
  std::uint64_t seq = 0;
  /// 1-based stage id for multi-stage sources (0 = flat stream). Drives
  /// per-stage --progress rendering and per-stage concurrency caps.
  std::size_t stage = 0;
  /// Per-job command template overriding the engine's base template
  /// ("" = use the base). Lets one run mix stage commands (--then) or
  /// per-node commands (--graph) without one engine run per stage.
  std::string command;
};

/// A pull-based stream of jobs. next() returns the next job or nullopt when
/// the stream is exhausted (further calls keep returning nullopt) — except
/// for DagSource streams, where nullopt may also mean "blocked until a
/// completion event"; the engine distinguishes via DagSource::blocked().
class JobSource {
 public:
  virtual ~JobSource() = default;
  virtual std::optional<JobInput> next() = 0;
};

/// A source that runs dry between arrivals without ending: the job
/// service's fair-share queue. The engine asks ready() whether work waits,
/// pulls only to start a job at once, and never ends a run on its nullopt;
/// the caller steps the run (Engine::step) for as long as it serves.
class LiveSource : public JobSource {
 public:
  /// Whether next() would return a job now.
  virtual bool ready() const = 0;
};

/// A pull-based stream of single input values (one ::: / :::: / -a source).
class ValueSource {
 public:
  virtual ~ValueSource() = default;
  virtual std::optional<std::string> next() = 0;
};

/// In-memory value list (::: literals, tests).
class VectorValueSource : public ValueSource {
 public:
  explicit VectorValueSource(std::vector<std::string> values)
      : values_(std::move(values)) {}
  std::optional<std::string> next() override;

 private:
  std::vector<std::string> values_;
  std::size_t index_ = 0;
};

/// Incremental line reader over a stream or file, honoring -0 via `sep`.
/// Values are separator-delimited; a final value without a trailing
/// separator is still yielded, and a trailing separator does not produce an
/// empty value (matching InputSource::from_stream).
class LineSource : public ValueSource {
 public:
  /// Borrows `in` (e.g. std::cin); the stream must outlive the source.
  explicit LineSource(std::istream& in, char sep = '\n');

  /// Opens `path` for incremental reading; throws SystemError when
  /// unreadable.
  static std::unique_ptr<LineSource> open(const std::string& path, char sep = '\n');

  std::optional<std::string> next() override;

 private:
  LineSource(std::unique_ptr<std::istream> owned, char sep);

  std::unique_ptr<std::istream> owned_;  // when opened from a path
  std::istream* in_;
  char sep_;
};

/// Cartesian product of sources, first varying slowest (parallel's :::
/// order). The first source streams — only one of its values is resident at
/// a time — while the tail sources are drained lazily on the first pull
/// (each full tail pass needs them again, so they must be buffered).
class CartesianSource : public JobSource {
 public:
  explicit CartesianSource(std::vector<std::unique_ptr<ValueSource>> sources)
      : sources_(std::move(sources)) {}
  std::optional<JobInput> next() override;

 private:
  std::vector<std::unique_ptr<ValueSource>> sources_;
  bool primed_ = false;
  bool done_ = false;
  std::string head_value_;
  std::vector<std::vector<std::string>> tails_;  // sources[1..] materialized
  std::vector<std::size_t> index_;               // odometer over tails_
};

/// --link: element-wise zip; shorter sources recycle until the longest is
/// exhausted. Values already pulled are buffered per source (recycling may
/// need any of them again); any empty source empties the whole stream.
class LinkedSource : public JobSource {
 public:
  explicit LinkedSource(std::vector<std::unique_ptr<ValueSource>> sources)
      : sources_(std::move(sources)),
        seen_(sources_.size()),
        exhausted_(sources_.size(), false) {}
  std::optional<JobInput> next() override;

 private:
  std::vector<std::unique_ptr<ValueSource>> sources_;
  std::vector<std::vector<std::string>> seen_;
  std::vector<bool> exhausted_;
  std::size_t row_ = 0;
  bool done_ = false;
};

/// Pre-materialized argument vectors (the vector-taking Engine::run
/// adapters, tests).
class VectorSource : public JobSource {
 public:
  explicit VectorSource(std::vector<ArgVector> inputs) : inputs_(std::move(inputs)) {}
  std::optional<JobInput> next() override;

 private:
  std::vector<ArgVector> inputs_;
  std::size_t index_ = 0;
};

/// Pre-split --pipe blocks: each block becomes one job's stdin.
class BlockVectorSource : public JobSource {
 public:
  explicit BlockVectorSource(std::vector<std::string> blocks)
      : blocks_(std::move(blocks)) {}
  std::optional<JobInput> next() override;

 private:
  std::vector<std::string> blocks_;
  std::size_t index_ = 0;
};

/// `count` argument-less jobs (run_raw / --semaphore wrapping).
class CountSource : public JobSource {
 public:
  explicit CountSource(std::size_t count) : remaining_(count) {}
  std::optional<JobInput> next() override;

 private:
  std::size_t remaining_;
};

/// Adapts a generator lambda (benches, synthetic workloads) into a
/// JobSource. The function returns nullopt to end the stream.
class FunctionSource : public JobSource {
 public:
  explicit FunctionSource(std::function<std::optional<JobInput>()> fn)
      : fn_(std::move(fn)) {}
  std::optional<JobInput> next() override { return fn_(); }

 private:
  std::function<std::optional<JobInput>()> fn_;
};

/// --trim decorator: strips whitespace from every value as jobs stream by.
/// `mode` is parallel's n|l|r|lr|rl.
class TrimSource : public JobSource {
 public:
  TrimSource(JobSource& upstream, const std::string& mode);
  std::optional<JobInput> next() override;

 private:
  JobSource& upstream_;
  bool left_ = false;
  bool right_ = false;
};

/// --colsep decorator: splits each single-valued job into positional
/// columns. Throws ConfigError when a job carries more than one value
/// (multiple input sources).
class ColsepSource : public JobSource {
 public:
  ColsepSource(JobSource& upstream, std::string colsep)
      : upstream_(upstream), colsep_(std::move(colsep)) {}
  std::optional<JobInput> next() override;

 private:
  JobSource& upstream_;
  std::string colsep_;
};

/// -n packing decorator: groups `max_args` consecutive single values into
/// one job (last group may be short). Pass-through when max_args <= 1.
class MaxArgsPacker : public JobSource {
 public:
  MaxArgsPacker(JobSource& upstream, std::size_t max_args)
      : upstream_(upstream), max_args_(max_args) {}
  std::optional<JobInput> next() override;

 private:
  JobSource& upstream_;
  std::size_t max_args_;
};

/// -X packing decorator: greedily packs values while the estimated command
/// length (base + quoted args + separators) stays within max_chars; always
/// at least one value per job. The one value that overflows a group is
/// carried into the next — the only lookahead the packer needs.
class MaxCharsPacker : public JobSource {
 public:
  MaxCharsPacker(JobSource& upstream, std::size_t base_chars, std::size_t max_chars)
      : upstream_(upstream), base_chars_(base_chars), max_chars_(max_chars) {}
  std::optional<JobInput> next() override;

 private:
  JobSource& upstream_;
  std::size_t base_chars_;
  std::size_t max_chars_;
  std::optional<std::pair<std::string, std::size_t>> carry_;  // value, cost
};

}  // namespace parcl::core
