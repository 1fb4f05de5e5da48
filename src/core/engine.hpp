// The parcl engine: GNU Parallel's job-control loop.
//
// Single-threaded orchestrator over a pull-based job stream. Given a
// command template, a JobSource, and an Executor, it:
//   - pulls jobs on demand (constant memory in the job count: at most the
//     slot pool, the retry ledger, and the -k collation window are live),
//   - keeps at most `jobs` slots busy, assigning {%} from a free-list,
//   - spaces starts by --delay and enforces per-attempt --timeout,
//   - retries failures up to --retries attempts,
//   - applies the --halt policy (soon = stop starting, now = also kill),
//   - collates output per --group/-k/--tag and appends --joblog rows,
//   - honours --resume / --resume-failed against an existing joblog,
//   - records every dispatch instant so benches can measure launch rates.
//
// The engine is layered over three components, each in its own file:
//   core/job_source    input streaming (sources, combinators, packers)
//   core/scheduler     slot / --delay / pressure / --halt decisions
//   core/retry_ledger  attempt + --retry-delay backoff bookkeeping
//   core/output        --group/-k/--tag collation (bounded -k window)
// The vector-taking run()/run_pipe() overloads remain as thin adapters over
// VectorSource / BlockVectorSource, so existing call sites keep compiling.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <vector>

#include "core/executor.hpp"
#include "core/input.hpp"
#include "core/job.hpp"
#include "core/job_source.hpp"
#include "core/options.hpp"
#include "core/replacement.hpp"

namespace parcl::core {

class SignalCoordinator;

class Engine {
 public:
  /// Streams for collated job output (defaults: std::cout / std::cerr).
  Engine(Options options, Executor& executor);
  Engine(Options options, Executor& executor, std::ostream& out, std::ostream& err);

  /// Optional per-job completion hook (runs after retries are exhausted).
  void set_result_callback(std::function<void(const JobResult&)> callback);

  /// Wires graceful interruption into the run loop: the first signal stops
  /// dispatching and drains running jobs, the second escalates --termseq.
  /// The coordinator must outlive run(); nullptr (default) disables
  /// interruption handling. RunSummary::interrupt_signal reports the drain.
  void set_signal_coordinator(SignalCoordinator* coordinator);

  /// Streaming core: pulls jobs from `source` until it is exhausted (or a
  /// halt engages), applying --trim/--colsep/-n/-X as streaming decorator
  /// stages. Seq numbers are assigned in pull order, so a streamed source
  /// and its materialized equivalent number (and -k order) identically.
  /// Throws ConfigError/ParseError on bad configuration; job failures are
  /// reported in the summary, not thrown.
  RunSummary run_source(const CommandTemplate& command, JobSource& source);
  RunSummary run_source(const std::string& command_template, JobSource& source);

  /// Adapter: runs pre-materialized inputs through a VectorSource.
  RunSummary run(const CommandTemplate& command, std::vector<ArgVector> inputs);
  RunSummary run(const std::string& command_template, std::vector<ArgVector> inputs);

  /// --pipe mode: each job pulled from `blocks` feeds its stdin_data to the
  /// child's stdin; the command template gets no appended arguments. {#}
  /// and {%} still expand.
  RunSummary run_pipe_source(const CommandTemplate& command, JobSource& blocks);
  RunSummary run_pipe_source(const std::string& command_template, JobSource& blocks);

  /// Adapter: runs pre-split blocks through a BlockVectorSource.
  RunSummary run_pipe(const CommandTemplate& command, std::vector<std::string> blocks);
  RunSummary run_pipe(const std::string& command_template, std::vector<std::string> blocks);

  /// Runs the command verbatim `count` times: no arguments appended, no
  /// stdin. {#}/{%} still expand. Used by --semaphore wrapping and replica
  /// smoke jobs.
  RunSummary run_raw(const CommandTemplate& command, std::size_t count = 1);
  RunSummary run_raw(const std::string& command_template, std::size_t count = 1);

 private:
  RunSummary execute(const CommandTemplate& tmpl, JobSource& source);

  Options options_;
  Executor& executor_;
  std::ostream& out_;
  std::ostream& err_;
  std::function<void(const JobResult&)> on_result_;
  SignalCoordinator* signals_ = nullptr;
};

}  // namespace parcl::core
