#include "core/engine.hpp"

#include <algorithm>
#include <deque>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <set>
#include <unordered_map>
#include <utility>

#include <filesystem>
#include <fstream>

#include "core/dag_source.hpp"
#include "core/joblog.hpp"
#include "core/output.hpp"
#include "core/retry_ledger.hpp"
#include "core/scheduler.hpp"
#include "core/signal_coordinator.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/shell.hpp"
#include "util/strings.hpp"

namespace parcl::core {

Engine::Engine(Options options, Executor& executor)
    : Engine(std::move(options), executor, std::cout, std::cerr) {}

Engine::Engine(Options options, Executor& executor, std::ostream& out, std::ostream& err)
    : options_(std::move(options)), executor_(executor), out_(out), err_(err) {
  options_.validate();
}

void Engine::set_result_callback(std::function<void(JobResult&)> callback) {
  on_result_ = std::move(callback);
}

void Engine::set_signal_coordinator(SignalCoordinator* coordinator) {
  signals_ = coordinator;
}

RunSummary Engine::run_source(const std::string& command_template, JobSource& source) {
  return run_source(CommandTemplate::parse(command_template), source);
}

RunSummary Engine::run_source(const CommandTemplate& command, JobSource& source) {
  CommandTemplate tmpl = command;
  tmpl.ensure_input_placeholder();

  // Dependency sources bypass the decorator stack: their jobs carry
  // per-job commands and source-assigned seqs that trim/colsep/packing
  // would destroy (and a wrapped DagSource would lose its completion
  // back-channel). The CLI rejects those flag combinations up front.
  if (dynamic_cast<DagSource*>(&source) != nullptr) {
    return execute(tmpl, source);
  }

  // Input decorators compose as streaming stages in the fixed order the
  // materializing path always applied: --trim, then --colsep, then -n/-X
  // packing. Each stage pulls from the one below it on demand.
  JobSource* top = &source;
  std::vector<std::unique_ptr<JobSource>> stages;
  auto push_stage = [&](std::unique_ptr<JobSource> stage) {
    stages.push_back(std::move(stage));
    top = stages.back().get();
  };
  if (!options_.trim_mode.empty() && options_.trim_mode != "n") {
    push_stage(std::make_unique<TrimSource>(*top, options_.trim_mode));
  }
  if (!options_.colsep.empty()) {
    push_stage(std::make_unique<ColsepSource>(*top, options_.colsep));
  }
  if (options_.xargs) {
    push_stage(std::make_unique<MaxCharsPacker>(*top, tmpl.source().size(),
                                                options_.max_chars));
  } else if (options_.max_args > 1) {
    push_stage(std::make_unique<MaxArgsPacker>(*top, options_.max_args));
  }
  return execute(tmpl, *top);
}

RunSummary Engine::run(const std::string& command_template, std::vector<ArgVector> inputs) {
  return run(CommandTemplate::parse(command_template), std::move(inputs));
}

RunSummary Engine::run(const CommandTemplate& command, std::vector<ArgVector> inputs) {
  VectorSource source(std::move(inputs));
  return run_source(command, source);
}

RunSummary Engine::run_pipe_source(const std::string& command_template,
                                   JobSource& blocks) {
  return run_pipe_source(CommandTemplate::parse(command_template), blocks);
}

RunSummary Engine::run_pipe_source(const CommandTemplate& command, JobSource& blocks) {
  // Deliberately no ensure_input_placeholder(): pipe jobs read stdin.
  return execute(command, blocks);
}

RunSummary Engine::run_pipe(const std::string& command_template,
                            std::vector<std::string> blocks) {
  return run_pipe(CommandTemplate::parse(command_template), std::move(blocks));
}

RunSummary Engine::run_pipe(const CommandTemplate& command,
                            std::vector<std::string> blocks) {
  BlockVectorSource source(std::move(blocks));
  return run_pipe_source(command, source);
}

RunSummary Engine::run_raw(const std::string& command_template, std::size_t count) {
  return run_raw(CommandTemplate::parse(command_template), count);
}

RunSummary Engine::run_raw(const CommandTemplate& command, std::size_t count) {
  CountSource source(count);
  return execute(command, source);
}

Engine::~Engine() = default;

// One run of the loop: the constructor is the set-up, step() one pass of
// the phases, finish() the end-of-run tail. The members are the run's
// state; the *_ ones are the engine's configuration.
struct Engine::Run {
  Run(Engine& owner, const CommandTemplate& command, JobSource& input);

  // --tagstring: each line's prefix expands the template for its job.
  static OutputCollator::TagFn tagstring(const std::string& text) {
    auto tag_tmpl = std::make_shared<CommandTemplate>(CommandTemplate::parse(text));
    return [tag_tmpl](const JobResult& result) {
      CommandTemplate::Context context{result.seq, result.slot};
      return tag_tmpl->expand(result.args, context, /*quote=*/false);
    };
  }

  Engine& engine;
  const Options& options_ = engine.options_;
  Executor& executor_ = engine.executor_;
  std::ostream& out_ = engine.out_;
  std::ostream& err_ = engine.err_;
  const std::function<void(JobResult&)>& on_result_ = engine.on_result_;
  SignalCoordinator* const signals_ = engine.signals_;
  const CommandTemplate tmpl;
  JobSource& source;

  // Dependency-aware sources gate their own next(): jobs materialize as
  // predecessors complete, and the engine feeds completion events back.
  DagSource* const dag = dynamic_cast<DagSource*>(&source);
  // A live source (the job service's queue) runs dry between arrivals:
  // the loop asks ready() instead of pulling, and never ends on it.
  LiveSource* const live = dynamic_cast<LiveSource*>(&source);

  RunSummary summary;
  const bool collect = options_.collect_results;

  std::vector<std::pair<std::string, CommandTemplate>> env_templates;
  // --resume: each seq the joblog already holds -> its latest row succeeded.
  std::map<std::uint64_t, bool> logged;
  // --resume skips every logged seq, --resume-failed only the successes.
  bool resumed(std::uint64_t seq) const {
    if (logged.empty()) return false;
    auto it = logged.find(seq);
    return it != logged.end() && (it->second || !options_.resume_failed);
  }
  std::unique_ptr<JoblogWriter> joblog;
  // An `out` without a stream buffer (the job service's) takes no output:
  // nothing is collated, and results reach only the result callback.
  const bool collate = out_.rdbuf() != nullptr;
  OutputCollator collator =
      options_.tag_template.empty()
          ? OutputCollator(options_.output_mode, options_.tag, out_, err_)
          : OutputCollator(options_.output_mode, tagstring(options_.tag_template),
                           out_, err_);
  // --joblog rows wait here until their job's output is written: a row
  // commits once the collator no longer holds its seq, so under -k rows
  // follow output order and a logged seq always has its output on disk.
  std::map<std::uint64_t, std::string> unlogged_rows;
  // Commits, in seq order, the rows whose output the caller has flushed.
  void commit_rows() {
    for (auto row = unlogged_rows.begin();
         row != unlogged_rows.end() && !collator.holds(row->first);
         row = unlogged_rows.erase(row)) {
      joblog->append(row->second);
    }
  }
  // A seq with no output to write. Under -k it may release held results,
  // whose rows then commit.
  void note_absent(std::uint64_t seq) {
    if (!collate) return;
    collator.mark_absent(seq);
    if (unlogged_rows.empty()) return;
    out_.flush();
    commit_rows();
  }

  // Per-job command overrides (--graph node commands, --then stage
  // commands) parse once into this cache — O(stages + graph nodes)
  // distinct templates, looked up by source text on every start.
  std::unordered_map<std::string, CommandTemplate> override_templates;
  const CommandTemplate& template_for(const std::string& text) {
    if (text.empty()) return tmpl;
    auto it = override_templates.find(text);
    if (it == override_templates.end()) {
      it = override_templates.emplace(text, CommandTemplate::parse(text)).first;
    }
    return it->second;
  }

  // ---- Streaming pull machinery -------------------------------------------
  // Seqs are assigned in pull order (1-based), so a streamed source and its
  // materialized equivalent number jobs — and order -k output — identically.
  // DAG sources instead declare their own seqs (dispatch follows readiness
  // order, not declaration order); max_seq tracks the densely-numbered
  // total either way.
  std::uint64_t next_seq = 1;
  std::uint64_t max_seq = 0;
  bool exhausted = false;

  // Per-stage completion tallies for multi-stage --progress (index = stage
  // id; [0] is the flat/unstaged bucket).
  std::vector<std::size_t> stage_done =
      std::vector<std::size_t>(dag != nullptr ? dag->stage_count() + 1 : 1, 0);
  void note_stage_done(std::size_t stage) {
    if (stage < stage_done.size()) ++stage_done[stage];
  }

  // The one place a result joins summary.results, when the run collects.
  void keep(JobResult&& result) {
    if (!collect) return;
    if (summary.results.size() < result.seq) summary.results.resize(result.seq);
    summary.results[result.seq - 1] = std::move(result);
  }

  // A job that will never run, accounted as skipped; returns its result.
  // `abandoned` marks queued work the run gave up on (the end-of-run drain
  // after a halt or starved stop), as opposed to --resume skips of jobs a
  // prior run already completed. Only the abandoned tail of a *starved*
  // stop bills exit_status().
  JobResult skipped(JobInput& job, bool abandoned) {
    max_seq = std::max(max_seq, job.seq);
    ++summary.skipped;
    if (abandoned && summary.starved) ++summary.starved_skipped;
    note_stage_done(job.stage);
    note_absent(job.seq);
    JobResult result;
    result.seq = job.seq;
    result.stage = job.stage;
    result.args = std::move(job.args);
    result.status = JobStatus::kSkipped;
    return result;
  }
  void note_skip(JobInput job, bool abandoned = false) { keep(skipped(job, abandoned)); }

  // Per-stage dispatch gate: the scheduler's stage caps.
  const std::function<bool(std::size_t)> stage_gate = [this](std::size_t stage) {
    return scheduler.stage_allows(stage);
  };

  std::optional<PendingJob> pull_raw() {
    if (exhausted) return std::nullopt;
    std::optional<JobInput> item =
        dag != nullptr ? dag->next_gated(stage_gate) : source.next();
    if (!item) {
      // A DAG source is only dry when it says so: a nullopt can also mean
      // "waiting on completions" or "every ready job's stage is at its
      // cap", and both resolve without new input. A live source is never
      // dry.
      if (live == nullptr && (dag == nullptr || dag->exhausted())) exhausted = true;
      return std::nullopt;
    }
    PendingJob job{std::move(*item)};
    if (job.seq == 0) job.seq = next_seq++;
    max_seq = std::max(max_seq, job.seq);
    return job;
  }

  // A dependency-skipped job gets a real joblog row (Seq/Host filled,
  // Exitval = kDepSkippedExitval) so --resume never re-runs it, and honest
  // RunSummary accounting (dep_skipped bills exit_status). A seq --resume
  // skips keeps its existing row and is accounted as a plain resume skip
  // instead — not billed twice across restarts.
  void record_dep_skip(DepSkippedJob& job) {
    JobResult result = skipped(job, /*abandoned=*/false);
    ++summary.dep_skipped;
    result.status = JobStatus::kDepSkipped;
    result.exit_code = kDepSkippedExitval;
    CommandTemplate::Context context{result.seq, 0};
    result.command =
        template_for(job.command).expand(result.args, context, options_.quote_args);
    if (joblog && !options_.dry_run) {
      joblog->record(result, kLocalHost);
    }
    if (on_result_) on_result_(result);
    keep(std::move(result));
  }

  void drain_dep_skips() {
    if (dag == nullptr) return;
    for (DepSkippedJob& job : dag->take_dep_skips()) {
      if (resumed(job.seq)) {
        note_skip(std::move(job));
      } else {
        record_dep_skip(job);
      }
    }
  }

  // --shuf must see the whole job list to permute it, and a percent --halt
  // needs the true total before the first completion: both force the
  // buffered (O(jobs) memory) path. Everything else streams.
  const bool buffer_all = options_.shuffle || options_.halt.percent > 0.0;
  std::deque<PendingJob> buffered;

  // Next job from the source that --resume does not skip; skips are
  // recorded as they stream past.
  std::optional<PendingJob> pull_unlogged() {
    while (auto job = pull_raw()) {
      if (!resumed(job->seq)) return job;
      const std::uint64_t seq = job->seq;
      note_skip(std::move(*job));
      if (dag != nullptr) {
        // Replay the logged outcome as a completion event: a completed
        // predecessor in the joblog is satisfied on restart; a failed one
        // re-propagates its skip (the descendants' rows already exist, so
        // drain_dep_skips re-accounts without re-logging them).
        dag->note_complete(seq, logged.at(seq));
        drain_dep_skips();
      }
    }
    return std::nullopt;
  }

  // Next runnable job: the buffered list's front, or the source's next.
  std::optional<PendingJob> pull_runnable() {
    if (!buffer_all) return pull_unlogged();
    if (buffered.empty()) return std::nullopt;
    PendingJob job = std::move(buffered.front());
    buffered.pop_front();
    return job;
  }

  // --dry-run: compose and print, never execute. A DAG dry run assumes
  // every job succeeds, so it prints one valid topological schedule.
  RunSummary dry_run() {
    while (auto job = pull_runnable()) {
      CommandTemplate::Context context{job->seq, 1};
      JobResult result;
      result.command =
          template_for(job->command).expand(job->args, context, options_.quote_args);
      out_ << result.command << '\n';
      ++summary.succeeded;
      result.seq = job->seq;
      result.stage = job->stage;
      result.args = std::move(job->args);
      result.status = JobStatus::kSuccess;
      keep(std::move(result));
      if (dag != nullptr) {
        dag->note_complete(job->seq, /*ok=*/true);
        drain_dep_skips();
      }
    }
    summary.total = dag != nullptr ? max_seq : next_seq - 1;
    if (collect) summary.results.resize(summary.total);
    return std::move(summary);
  }

  Scheduler scheduler{options_, executor_};
  RetryLedger ledger{options_, executor_};
  std::unordered_map<std::uint64_t, ActiveAttempt> active;  // job_id -> attempt
  std::uint64_t next_job_id = 1;

  // One-job lookahead over the source: phase 1 needs to know whether fresh
  // work exists before committing a slot, without pulling twice. A live
  // source is pulled only to start a job at once.
  std::optional<PendingJob> lookahead;
  bool have_fresh() {
    if (!lookahead) lookahead = pull_runnable();
    return lookahead.has_value();
  }
  bool queued_work() {
    return ledger.ready() || ledger.has_delayed() ||
           (live != nullptr ? live->ready() : have_fresh()) ||
           (dag != nullptr && !dag->exhausted());
  }

  // Bounded -k out-of-order window: once the collator holds `window`
  // finished jobs waiting on an earlier seq, fresh dispatch pauses. The gap
  // seq was pulled before every held one (pull order == seq order when not
  // shuffled), so it is active, retrying, or backoff-parked — all paths
  // that progress without new dispatch, which is why gating cannot wedge.
  // DAG runs leave the window unbounded: seqs follow declaration order, not
  // pull order, so the gap seq may be a job that still needs fresh dispatch
  // — gating fresh starts on held output could then wedge. In-flight work
  // stays bounded by slots and stage caps regardless.
  const std::size_t window =
      (dag == nullptr && options_.output_mode == OutputMode::kKeepOrder &&
       !options_.shuffle)
          ? (options_.keep_order_window != 0
                 ? options_.keep_order_window
                 : std::max<std::size_t>(256, 8 * options_.effective_jobs()))
          : 0;
  bool window_open() const { return window == 0 || collator.held_count() < window; }

  // Timeout deadlines as a lazy min-heap: one entry per pending SIGTERM or
  // SIGKILL escalation, discarded when the attempt already completed. This
  // replaces scanning every in-flight attempt each loop iteration.
  struct DeadlineEvent {
    double time = 0.0;
    std::uint64_t job_id = 0;
    bool escalation = false;  // false: send SIGTERM; true: send SIGKILL
    bool operator>(const DeadlineEvent& other) const { return time > other.time; }
  };
  std::priority_queue<DeadlineEvent, std::vector<DeadlineEvent>, std::greater<>>
      deadlines;

  // --timeout N% and --hedge share a streaming median of successful
  // runtimes, kept as two balanced multiset halves (max-half / min-half)
  // for O(log n) insert and O(1) median. Consumers arm only after
  // kAdaptiveMinSamples successes.
  std::multiset<double> runtime_lower, runtime_upper;
  void add_runtime_sample(double v) {
    if (runtime_lower.empty() || v <= *runtime_lower.rbegin()) {
      runtime_lower.insert(v);
    } else {
      runtime_upper.insert(v);
    }
    if (runtime_lower.size() > runtime_upper.size() + 1) {
      auto it = std::prev(runtime_lower.end());
      runtime_upper.insert(*it);
      runtime_lower.erase(it);
    } else if (runtime_upper.size() > runtime_lower.size()) {
      auto it = runtime_upper.begin();
      runtime_lower.insert(*it);
      runtime_upper.erase(it);
    }
  }
  static constexpr std::size_t kAdaptiveMinSamples = 3;
  double running_median() const {
    std::size_t n = runtime_lower.size() + runtime_upper.size();
    if (n < kAdaptiveMinSamples) return 0.0;
    return runtime_lower.size() > runtime_upper.size()
               ? *runtime_lower.rbegin()
               : (*runtime_lower.rbegin() + *runtime_upper.begin()) / 2.0;
  }
  double adaptive_limit() const {
    if (options_.timeout_percent <= 0.0) return 0.0;
    double median = running_median();
    return median * options_.timeout_percent / 100.0;
  }
  // --hedge: the runtime past which an attempt is a straggler; 0 while
  // hedging is off, the median unarmed, or the run draining or stopped.
  double hedge_threshold() const {
    if (options_.hedge_multiplier <= 0.0 || drain_stage != 0 || scheduler.stopped()) {
      return 0.0;
    }
    return running_median() * options_.hedge_multiplier;
  }
  // An attempt --hedge may still duplicate: an unpaired primary that no
  // timeout kill or partner's win has touched.
  static bool hedgeable(const ActiveAttempt& attempt) {
    return !attempt.is_hedge && attempt.hedge_partner == 0 && !attempt.kill_sent &&
           !attempt.discard_on_completion;
  }

  // Signal drain/escalation state (set_signal_coordinator).
  const std::vector<TermStage> term_stages = parse_termseq(options_.term_seq);
  int drain_stage = 0;         // 0 normal, 1 draining, 2 escalating
  std::size_t term_index = 0;  // current --termseq stage while escalating
  double next_stage_at = 0.0;
  // Sends --termseq stage `term_index` to every running attempt and times
  // the next stage.
  void signal_term_stage() {
    for (const auto& entry : active) {
      executor_.kill_signal(entry.first, term_stages[term_index].signal);
      ++summary.dispatch.escalated;
    }
    next_stage_at = executor_.now() + term_stages[term_index].delay_ms / 1000.0;
  }
  static constexpr double kSignalPollInterval = 0.1;

  double first_start = std::numeric_limits<double>::infinity();
  double last_end = -std::numeric_limits<double>::infinity();
  std::size_t done = 0;

  // --min-hosts: instant the live host set fell below the floor, or < 0
  // while at/above it. While starved the run parks — fresh dispatch and
  // hedging are gated off (phases 1a/1 check starved_since), in-flight
  // jobs finish, nothing is failed or skipped — and a return of capacity
  // resumes it. Only a grace window (--min-hosts-grace) can turn a park
  // into giving up.
  double starved_since = -1.0;
  bool starvation_reported = false;

  const bool capture = options_.output_mode != OutputMode::kUngroup;
  static constexpr double kTimeoutGrace = 1.0;  // SIGTERM -> SIGKILL escalation
  // A host-failure completion requeues its job without charging --retries,
  // but only this many times: a job that somehow kills every host it lands
  // on must not circulate forever.
  static constexpr std::size_t kMaxReschedules = 16;
  // Wait cap when queued work exists but every free slot is vetoed
  // (quarantined host): short executor waits keep health probes pumping so
  // reinstatement can unblock dispatch.
  static constexpr double kQuarantinePoll = 0.05;

  void print_progress() {
    if (!options_.progress) return;
    if (dag != nullptr && dag->stage_count() > 0) {
      // One counter per stage, each making its own `N/?` -> exact-total
      // transition: a stage's denominator firms up as soon as the source
      // can bound it (graph files immediately, streamed chains once the
      // head runs dry) instead of one global count that jumps when a
      // downstream stage materializes.
      err_ << "\rparcl:";
      for (std::size_t s = 1; s <= dag->stage_count(); ++s) {
        if (s != 1) err_ << " |";
        err_ << ' ' << dag->stage_name(s) << ' ' << stage_done[s] << '/';
        if (auto total = dag->stage_total(s)) {
          err_ << *total;
        } else {
          err_ << '?';
        }
      }
      err_ << ", " << summary.failed << " failed, " << active.size()
           << " running " << std::flush;
      return;
    }
    // The denominator is unknowable until the source runs dry: show "?"
    // while streaming, the real total (and an ETA) once exhausted.
    err_ << "\rparcl: " << done << "/";
    if (exhausted) {
      err_ << (next_seq - 1);
    } else {
      err_ << '?';
    }
    err_ << " done, " << summary.failed << " failed, " << active.size() << " running";
    if (exhausted) {
      std::size_t total = next_seq - 1;
      if (done > 0 && done < total && summary.total_busy > 0.0) {
        // ETA from the mean runtime so far spread over the slot pool.
        double mean_runtime = summary.total_busy / static_cast<double>(done);
        double eta = mean_runtime * static_cast<double>(total - done) /
                     static_cast<double>(options_.effective_jobs());
        err_ << ", ETA " << util::format_duration(eta);
      }
    }
    err_ << ' ' << std::flush;
  }

  void save_results_tree(const JobResult& result) {
    if (options_.results_dir.empty() || result.status == JobStatus::kSkipped) return;
    namespace fs = std::filesystem;
    fs::path dir = fs::path(options_.results_dir) / std::to_string(result.seq);
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
      PARCL_WARN() << "--results: cannot create " << dir.string() << ": " << ec.message();
      return;
    }
    std::ofstream(dir / "stdout", std::ios::binary) << result.stdout_data;
    std::ofstream(dir / "stderr", std::ios::binary) << result.stderr_data;
    std::ofstream meta(dir / "meta");
    meta << "seq\t" << result.seq << "\nargs\t" << util::shell_quote_join(result.args)
         << "\ncommand\t" << result.command << "\nstatus\t" << to_string(result.status)
         << "\nexitval\t" << result.exit_code << "\nsignal\t" << result.term_signal
         << "\nruntime\t" << result.runtime() << '\n';
  }

  void record_final(JobResult result) {
    ++done;
    note_stage_done(result.stage);
    const std::uint64_t final_seq = result.seq;
    const bool final_ok = result.status == JobStatus::kSuccess;
    switch (result.status) {
      case JobStatus::kSuccess: ++summary.succeeded; break;
      case JobStatus::kKilled: ++summary.killed; break;
      case JobStatus::kSkipped: ++summary.skipped; break;
      default: ++summary.failed; break;
    }
    if (result.status != JobStatus::kSkipped) {
      first_start = std::min(first_start, result.start_time);
      last_end = std::max(last_end, result.end_time);
      summary.total_busy += result.runtime();
      // Write-ahead ordering for crash-safe --resume: --results and the
      // output land (and flush) before the joblog row commits, so a logged
      // seq always has its output on disk — a crash between the two re-runs
      // the job instead of losing its output. Under -k the row waits in
      // `unlogged_rows` for as long as the collator holds the output.
      save_results_tree(result);
      // The Host column records where the attempt *actually* ran: a
      // rescheduled or hedged job logs the host that produced its final
      // result, not the static label. The row (its Receive column) is made
      // before the collator may take the bytes.
      if (joblog) {
        unlogged_rows.emplace(
            final_seq,
            JoblogWriter::row(result, result.host.empty() ? kLocalHost : result.host));
      }
      if (collate) {
        // The collator moves held bytes out unless they are still read below.
        if (collect || on_result_) {
          collator.deliver(result);
        } else {
          collator.deliver(std::move(result));
        }
      }
      out_.flush();
      commit_rows();
    } else {
      note_absent(final_seq);
    }
    print_progress();
    if (on_result_) on_result_(result);
    keep(std::move(result));
    if (dag != nullptr) {
      // This is the job's FINAL outcome — retries were exhausted upstream
      // of record_final and hedge losers never reach it — so this is the
      // one place completion events feed the ready queue. Descendants of a
      // failure drain into dep-skip accounting immediately.
      dag->note_complete(final_seq, final_ok);
      drain_dep_skips();
    }
  }

  // Kills in-flight attempts for good: job `seq`'s, or all of them (0).
  void kill_active(bool force, std::uint64_t seq = 0) {
    for (auto& [id, running] : active) {
      if (seq != 0 && running.job.seq != seq) continue;
      running.killed_for_good = true;
      executor_.kill(id, force);
    }
  }

  // Halt trigger, shared by the completion path and the spawn-failure path
  // (an injected or real spawn error is a failure like any other and must
  // count toward --halt). The total passed for percent policies is exact:
  // halt.percent forces buffer_all, so the source is already exhausted.
  // `exitval` is the Exitval of the job just recorded: under fail=1 it is
  // the failure that trips the halt, and the run's exit status.
  void apply_halt_policy(int exitval) {
    Scheduler::HaltAction action = scheduler.evaluate_halt(
        summary.failed, summary.succeeded, done, next_seq - 1);
    if (action == Scheduler::HaltAction::kNone) return;
    summary.halted = true;
    if (options_.halt.exits_with_job_status()) summary.halt_exitval = exitval;
    if (action == Scheduler::HaltAction::kKillRunning) kill_active(/*force=*/false);
  }

  // The one place an attempt becomes its job's final result. `ended` is
  // the executor's completion, or the exit 127 made up for a spawn that
  // failed; its Exitval then goes to the --halt policy.
  void record_attempt(ActiveAttempt& attempt, JobStatus status, ExecResult& ended) {
    JobResult result;
    result.seq = attempt.job.seq;
    result.stage = attempt.job.stage;
    result.args = std::move(attempt.job.args);
    result.slot = attempt.slot;
    result.status = status;
    result.exit_code = ended.exit_code;
    result.term_signal = ended.term_signal;
    result.attempts = attempt.job.attempts;
    result.start_time = ended.start_time;
    result.end_time = ended.end_time;
    result.command = std::move(attempt.command);
    result.stdout_data = std::move(ended.stdout_data);
    result.stderr_data = std::move(ended.stderr_data);
    result.host = std::move(ended.host);
    record_final(std::move(result));
    apply_halt_policy(ended.exit_code);
  }

  // The one attempt-launch path, for starts and hedges alike: expands
  // the command for the attempt's slot, arms the fixed or adaptive
  // --timeout from `now`, starts the attempt and moves it into `active`.
  // Returns its job id. On a spawn failure it warns, releases the slot and
  // stage, and returns 0; `attempt` then stays with the caller.
  std::uint64_t launch(ActiveAttempt& attempt, double now) {
    const PendingJob& job = attempt.job;
    CommandTemplate::Context context{job.seq, attempt.slot};
    attempt.command =
        template_for(job.command).expand(job.args, context, options_.quote_args);

    ExecRequest request;
    request.job_id = next_job_id++;
    request.command = attempt.command;
    request.slot = attempt.slot;
    request.use_shell = options_.use_shell;
    request.capture_output = capture;
    request.stdin_data = job.stdin_data;
    request.has_stdin = job.has_stdin;
    for (const auto& [key, value_tmpl] : env_templates) {
      request.env[key] = value_tmpl.expand(job.args, context, /*quote=*/false);
    }

    attempt.start_time = now;
    if (options_.timeout_seconds > 0.0) {
      attempt.deadline = now + options_.timeout_seconds;
      deadlines.push({attempt.deadline, request.job_id, /*escalation=*/false});
    } else if (double limit = adaptive_limit(); limit > 0.0) {
      attempt.deadline = now + limit;
      deadlines.push({attempt.deadline, request.job_id, /*escalation=*/false});
    }
    if (collect) summary.start_times.push_back(now);
    try {
      executor_.start(request);
    } catch (const util::SystemError& error) {
      PARCL_WARN() << (attempt.is_hedge ? "hedge spawn failed" : "spawn failed")
                   << " for seq " << job.seq << ": " << error.what();
      scheduler.release_slot(attempt.slot);
      scheduler.note_stage_end(job.stage);
      return 0;
    }
    active.emplace(request.job_id, std::move(attempt));
    return request.job_id;
  }

  void start_one(PendingJob job) {
    ActiveAttempt attempt;
    attempt.job = std::move(job);
    ++attempt.job.attempts;  // counts this attempt while it runs
    attempt.slot = scheduler.acquire_slot();
    scheduler.note_stage_start(attempt.job.stage);
    const double now = executor_.now();
    scheduler.note_start(now);
    if (launch(attempt, now) != 0) return;
    // Spawn failure counts as a failed attempt with exit code 127. It
    // flows through the same retry budget and halt accounting as a
    // nonzero exit: only an exhausted job becomes a final result.
    if (ledger.retryable(attempt.job.attempts) && !scheduler.stopped()) {
      ledger.park(std::move(attempt.job), /*front=*/false);
      return;
    }
    ExecResult spawn_failed;
    spawn_failed.exit_code = 127;
    spawn_failed.start_time = spawn_failed.end_time = now;
    record_attempt(attempt, JobStatus::kFailed, spawn_failed);
  }

  // --hedge: launch a speculative duplicate of a straggling attempt on a
  // slot in a *different* failure domain (another host). First completion
  // to succeed wins; the loser is killed and its completion discarded, so
  // the joblog stays exactly-once. Returns false when no distinct-domain
  // slot is free — the candidate is retried on a later pass.
  bool launch_hedge(std::uint64_t primary_id) {
    auto pit = active.find(primary_id);
    if (pit == active.end()) return false;
    ActiveAttempt& primary = pit->second;
    std::optional<std::size_t> slot = scheduler.acquire_slot_distinct(primary.slot);
    if (!slot) return false;
    scheduler.note_stage_start(primary.job.stage);

    ActiveAttempt hedge;
    hedge.job = primary.job;
    hedge.slot = *slot;
    hedge.is_hedge = true;
    hedge.hedge_partner = primary_id;
    // Hedges bypass the --delay gate: the primary already paid it for this
    // job. A hedge is pure speculation: on spawn failure it is dropped and
    // the primary runs out on its own.
    const std::uint64_t hedge_id = launch(hedge, executor_.now());
    if (hedge_id == 0) return false;
    primary.hedge_partner = hedge_id;
    ++summary.dispatch.hedges_launched;
    return true;
  }

  // Executor-clock instant by which the loop must step again; < 0 when only
  // a completion or new work can give it something to do.
  double wake_at = -1.0;

  // The earliest pending timeout deadline (< 0: none). Entries of attempts
  // that completed, or whose signal was already sent, are dropped.
  double next_deadline() {
    while (!deadlines.empty()) {
      const DeadlineEvent& next = deadlines.top();
      auto it = active.find(next.job_id);
      bool stale = it == active.end() ||
                   (next.escalation ? it->second.force_sent : it->second.kill_sent);
      if (!stale) return next.time;
      deadlines.pop();
    }
    return -1.0;
  }

  // `reap` false: no wait and no completion, only the pass's other phases.
  Step step(double max_wait, bool reap) {
    wake_at = -1.0;
    // Phase 0: observe termination signals and drive --termseq escalation.
    if (signals_ != nullptr) {
      signals_->poll();
      int seen = signals_->count();
      if (seen >= 1 && drain_stage == 0) {
        drain_stage = 1;
        scheduler.stop();
        summary.interrupt_signal = signals_->first_signal();
        summary.dispatch.drained += active.size();
        err_ << "parcl: received signal " << summary.interrupt_signal
             << "; no new jobs will be started, draining " << active.size()
             << " running (interrupt again to escalate via --termseq)\n";
      }
      if (seen >= 2 && drain_stage == 1) {
        drain_stage = 2;
        term_index = 0;
        err_ << "parcl: second interrupt; escalating --termseq " << options_.term_seq
             << " to " << active.size() << " running job(s)\n";
        signal_term_stage();
      }
    }
    if (drain_stage == 2 && term_index + 1 < term_stages.size() && !active.empty() &&
        executor_.now() >= next_stage_at) {
      ++term_index;
      signal_term_stage();
    }

    // Release backoff'd retries whose delay has elapsed.
    ledger.release_due();

    // Elastic backends can grow their slot space between iterations (a
    // watched sshlogin file adding hosts); widen the pool before filling.
    scheduler.sync_capacity();

    // --min-hosts floor: park while starved, give up only after the grace.
    if (options_.min_hosts > 0 && !scheduler.stopped() &&
        (queued_work() || !active.empty())) {
      if (executor_.live_host_count() < options_.min_hosts) {
        double t = executor_.now();
        if (starved_since < 0.0) starved_since = t;
        if (!starvation_reported) {
          starvation_reported = true;
          err_ << "parcl: live hosts below --min-hosts " << options_.min_hosts
               << "; parking until capacity returns"
               << (options_.min_hosts_grace_seconds > 0.0
                       ? " (grace " +
                             std::to_string(options_.min_hosts_grace_seconds) +
                             "s)"
                       : "")
               << '\n';
        }
        if (options_.min_hosts_grace_seconds > 0.0 &&
            t - starved_since >= options_.min_hosts_grace_seconds) {
          err_ << "parcl: --min-hosts grace expired; skipping remaining jobs\n";
          summary.starved = true;
          scheduler.stop();
        }
      } else {
        if (starved_since >= 0.0 && starvation_reported) {
          err_ << "parcl: host capacity restored; resuming dispatch\n";
        }
        starved_since = -1.0;
        starvation_reported = false;
      }
    }

    // Phase 1a: hedge stragglers. An unpaired primary running longer than
    // hedge_multiplier x the running median gets a speculative duplicate on
    // a different failure domain. This runs BEFORE the fresh fill so a
    // straggler's duplicate outranks one more fresh start — speculation
    // that only ever uses leftover capacity cannot cut the tail until the
    // input is drained. Bounded: at most one hedge per running straggler.
    // Candidate ids are collected first: launch_hedge inserts into
    // `active`, which would invalidate a live iteration.
    if (double threshold = hedge_threshold(); threshold > 0.0 && starved_since < 0.0) {
      const double now_hedge = executor_.now();
      std::vector<std::uint64_t> candidates;
      for (const auto& [id, running] : active) {
        if (hedgeable(running) && now_hedge - running.start_time > threshold) {
          candidates.push_back(id);
        }
      }
      for (std::uint64_t id : candidates) {
        if (!launch_hedge(id)) break;  // no distinct-domain slot free
      }
    }

    // Phase 1: fill free slots (retries first, then fresh pending work).
    // Parked (--min-hosts starved) means parked: no dispatch at all, even
    // to hosts still live below the floor — the documented contract is
    // "hold queued work until capacity returns or the grace gives up".
    while (!scheduler.stopped() && starved_since < 0.0 && scheduler.slot_free() &&
           queued_work()) {
      double ready_at = scheduler.next_start_time();
      if (ready_at > executor_.now()) break;  // wait out --delay below
      if (!scheduler.pressure_allows_start()) {
        ++summary.dispatch.deferred;  // one deferral per blocked fill round
        break;
      }
      if (ledger.ready() && scheduler.stage_allows(ledger.peek_ready().stage)) {
        start_one(ledger.pop_ready());
      } else if (window_open() && have_fresh() &&
                 scheduler.stage_allows(lookahead->stage)) {
        start_one(std::move(*lookahead));
        lookahead.reset();
      } else {
        // Only backoff'd retries remain, the -k window is full, or every
        // startable job's stage is at its cap; phase 2 waits out the
        // release / the gap seq's completion / a capped stage draining.
        break;
      }
    }

    if (active.empty()) {
      if (scheduler.stopped() || !queued_work()) return Step::kIdle;  // drained
      if (dag != nullptr && ledger.idle() && !have_fresh()) {
        // queued_work() is true only because the DAG is not exhausted, yet
        // nothing is running, parked, or ready — the completions the
        // remaining nodes wait on can never arrive. A well-formed tracker
        // cannot reach this state; bail out honestly (the unemitted tail
        // drains into skip accounting below) instead of spinning.
        PARCL_WARN() << "dependency graph wedged with nothing in flight; "
                        "abandoning remaining jobs";
        return Step::kIdle;
      }
      // Only --delay, backoff, or a --min-hosts park can leave us idle
      // here; wait in phase 2 (the park caps its wait so the executor
      // keeps pumping the sshlogin-file watcher).
    }

    // Phase 2: wait for a completion, a timeout deadline, or the delay gate.
    double wait = -1.0;  // indefinitely
    double now = executor_.now();
    if (!scheduler.stopped() && queued_work() && options_.delay_seconds > 0.0) {
      double gate = scheduler.delay_gate();
      if (scheduler.slot_free() && gate > now) wait = gate - now;
    }
    auto cap_wait = [&](double until) {
      until = std::max(0.0, until);
      wait = wait < 0.0 ? until : std::min(wait, until);
    };
    if (!scheduler.stopped() && ledger.has_delayed() && scheduler.slot_free()) {
      cap_wait(ledger.next_release() - now);  // wake when backoff expires
    }
    if (!scheduler.stopped() && scheduler.pressure_blocked() && queued_work() &&
        scheduler.slot_free()) {
      cap_wait(Scheduler::kPressureRecheck);  // re-probe --memfree/--load
    }
    if (drain_stage == 2 && term_index + 1 < term_stages.size()) {
      cap_wait(next_stage_at - now);  // next --termseq stage
    }
    if (!scheduler.stopped() && queued_work() && !scheduler.slot_free() &&
        scheduler.any_slot_free()) {
      // Free slots exist but all sit on quarantined/drained hosts: poll so
      // the executor keeps pumping probes, drains, and the sshlogin-file
      // watcher, and dispatch resumes on reinstatement or a grown host set.
      cap_wait(kQuarantinePoll);
    }
    if (starved_since >= 0.0 && !scheduler.stopped()) {
      // Parked below --min-hosts: dispatch is gated even though live hosts
      // may hold free, usable slots, so nothing above capped the wait.
      // Poll so the executor keeps pumping probes/drains/the watcher and
      // live_host_count() is re-read promptly when capacity returns.
      cap_wait(kQuarantinePoll);
      if (options_.min_hosts_grace_seconds > 0.0) {
        // Wake at the --min-hosts give-up instant even with nothing running.
        cap_wait(starved_since + options_.min_hosts_grace_seconds - now);
      }
    }
    if (double threshold = hedge_threshold(); threshold > 0.0) {
      // Wake when the earliest unpaired primary crosses the hedge
      // threshold. Overdue candidates (blocked on slots) deliberately do
      // not cap the wait — they retry when a completion frees a slot.
      for (const auto& [id, running] : active) {
        double due = running.start_time + threshold;
        if (hedgeable(running) && due > now) cap_wait(due - now);
      }
    }
    if (signals_ != nullptr && !active.empty()) {
      // Real executors swallow EINTR inside wait_any, so cap the block to
      // observe delivered signals promptly.
      cap_wait(kSignalPollInterval);
    }
    // Every gate but the timeout deadlines, as an instant (< 0: none).
    const double gates_at = wait >= 0.0 ? now + wait : -1.0;
    if (double due = next_deadline(); due >= 0.0) cap_wait(due - now);
    if (active.empty() && wait < 0.0) {
      // Nothing running and nothing gating: step again to start more.
      return Step::kWaited;
    }
    if (max_wait >= 0.0) cap_wait(max_wait);

    std::optional<ExecResult> completion;
    if (reap) completion = executor_.wait_any(wait);
    now = executor_.now();

    // Phase 3: enforce due timeouts (heap-ordered, O(log n) per event).
    while (!deadlines.empty() && deadlines.top().time <= now) {
      DeadlineEvent event = deadlines.top();
      deadlines.pop();
      auto it = active.find(event.job_id);
      if (it == active.end()) continue;  // attempt already completed
      ActiveAttempt& attempt = it->second;
      if (!event.escalation) {
        if (attempt.kill_sent) continue;
        attempt.kill_sent = true;
        attempt.killed_for_timeout = true;
        executor_.kill(event.job_id, /*force=*/false);
        deadlines.push({event.time + kTimeoutGrace, event.job_id,
                        /*escalation=*/true});
      } else if (attempt.kill_sent && !attempt.force_sent) {
        attempt.force_sent = true;
        executor_.kill(event.job_id, /*force=*/true);
      }
    }
    // The next wake, taken after phase 3 so that it sees the deadlines
    // still pending (a SIGTERM sent above leaves its SIGKILL escalation).
    wake_at = gates_at;
    if (double due = next_deadline(); due >= 0.0 && (wake_at < 0.0 || due < wake_at)) {
      wake_at = due;
    }

    if (!completion) return Step::kWaited;

    // Phase 4: process the completed attempt.
    auto it = active.find(completion->job_id);
    util::require(it != active.end(), "executor returned unknown job id");
    ActiveAttempt attempt = std::move(it->second);
    active.erase(it);
    scheduler.release_slot(attempt.slot);
    scheduler.note_stage_end(attempt.job.stage);

    // Killed for good ends kKilled only when the kill ended it; an exit that
    // beat the kill keeps its status. Neither is retried or requeued.
    JobStatus status;
    if (attempt.killed_for_good && completion->term_signal != 0) {
      status = JobStatus::kKilled;
    } else if (attempt.killed_for_timeout) {
      status = JobStatus::kTimedOut;
    } else if (completion->term_signal != 0) {
      status = JobStatus::kSignaled;
    } else if (completion->exit_code == 0) {
      status = JobStatus::kSuccess;
    } else {
      status = JobStatus::kFailed;
    }

    // A hedge loser's completion was already superseded by its partner's
    // recorded result: drop it. Its slot was released above; nothing else
    // to account.
    if (attempt.discard_on_completion) return Step::kReaped;

    // Hedge pair resolution: first success wins and kills the partner; a
    // member that fails while its partner still runs is dropped silently so
    // the survivor alone decides the job's fate.
    if (attempt.hedge_partner != 0) {
      auto partner_it = active.find(attempt.hedge_partner);
      attempt.hedge_partner = 0;
      if (partner_it != active.end()) {
        ActiveAttempt& partner = partner_it->second;
        partner.hedge_partner = 0;
        if (status == JobStatus::kSuccess) {
          partner.discard_on_completion = true;
          if (!partner.kill_sent) {
            partner.kill_sent = true;
            executor_.kill(partner_it->first, /*force=*/true);
          }
          if (attempt.is_hedge) {
            ++summary.dispatch.hedges_won;
          } else {
            ++summary.dispatch.hedges_lost;
          }
        } else {
          return Step::kReaped;  // survivor carries the job; discard this completion
        }
      }
    }

    if (status == JobStatus::kSuccess &&
        (options_.timeout_percent > 0.0 || options_.hedge_multiplier > 0.0)) {
      add_runtime_sample(completion->end_time - completion->start_time);
      if (double limit = adaptive_limit(); limit > 0.0) {
        // Arm attempts that started before the median existed; a running
        // attempt already past the limit gets killed on the next pass.
        for (auto& [id, running] : active) {
          if (running.deadline == 0.0) {
            running.deadline = running.start_time + limit;
            deadlines.push({running.deadline, id, /*escalation=*/false});
          }
        }
      }
    }

    // A host failure is not the job's fault: requeue the attempt without
    // charging --retries (capped by kMaxReschedules so a host-killing job
    // cannot circulate forever). Timeout/halt kills keep their meaning even
    // when the transport also died.
    if (completion->host_failure) {
      ++summary.dispatch.host_failures;
      if (!attempt.killed_for_timeout && !attempt.killed_for_good &&
          !scheduler.stopped() && attempt.job.reschedules < kMaxReschedules) {
        --attempt.job.attempts;  // the attempt never counted
        ledger.reschedule(std::move(attempt.job));
        ++summary.dispatch.rescheduled;
        return Step::kReaped;
      }
    }

    bool retryable = !attempt.killed_for_good &&
                     (status == JobStatus::kFailed || status == JobStatus::kSignaled ||
                      status == JobStatus::kTimedOut);
    if (retryable && ledger.retryable(attempt.job.attempts) && !scheduler.stopped()) {
      // Re-queue ahead of untouched pending work (newest first — the order
      // the engine has always produced), or into the backoff heap when
      // --retry-delay applies.
      ledger.park(std::move(attempt.job), /*front=*/true);
      return Step::kReaped;
    }

    // Phase 5: the final result, then the halt policy.
    record_attempt(attempt, status, *completion);
    return Step::kReaped;
  }

  RunSummary finish();
};

Engine::Run::Run(Engine& owner, const CommandTemplate& command, JobSource& input)
    : engine(owner), tmpl(command), source(input) {
  if (dag != nullptr) {
    if (options_.shuffle) {
      throw util::ConfigError("--shuf cannot reorder a dependency graph");
    }
    if (options_.halt.percent > 0.0) {
      throw util::ConfigError(
          "percent --halt needs the whole job list up front, which a "
          "dependency graph never materializes");
    }
  }

  // Pre-parse env value templates once.
  env_templates.reserve(options_.env.size());
  for (const auto& [key, value] : options_.env) {
    env_templates.emplace_back(key, CommandTemplate::parse(value));
  }

  // --resume: read each logged seq's outcome once, before opening the
  // joblog for append. The map is keyed on seq alone, so it needs no
  // knowledge of the (still unknown) total job count; a DAG run also
  // replays the outcomes as completion events (pull_unlogged).
  if (options_.resume || options_.resume_failed) {
    try {
      JoblogReadStats log_stats;
      logged = read_resume_status(options_.joblog_path, &log_stats);
      if (log_stats.torn_lines != 0) {
        PARCL_WARN() << "joblog '" << options_.joblog_path
                     << "': final line torn (crash mid-write); skipping it so "
                        "its job re-runs";
      }
    } catch (const util::SystemError&) {
      // No joblog yet: nothing to skip.
    }
  }
  if (!options_.joblog_path.empty()) {
    joblog = std::make_unique<JoblogWriter>(options_.joblog_path, options_.joblog_fsync);
  }

  if (buffer_all) {
    std::vector<PendingJob> all;
    while (auto job = pull_unlogged()) all.push_back(std::move(*job));
    if (options_.shuffle) {
      // Randomize execution order (seq numbers, and therefore -k output
      // order, stay bound to the original inputs).
      util::Rng rng(options_.shuffle_seed);
      rng.shuffle(all);
    }
    buffered.assign(std::make_move_iterator(all.begin()),
                    std::make_move_iterator(all.end()));
  }

  if (dag != nullptr) {
    // Per-stage concurrency caps gate both the scheduler's starts and the
    // source's pulls (a stage at its cap must not head-of-line block the
    // ready queue).
    for (std::size_t s = 1; s <= dag->stage_count(); ++s) {
      scheduler.set_stage_limit(s, dag->stage_limit(s));
    }
  }
  active.reserve(options_.effective_jobs() * 2);
}

RunSummary Engine::Run::finish() {
  // Work never started (halt or drain engaged) is skipped: parked retries,
  // the lookahead job, and everything still unread in the source. Draining
  // the source here keeps skip accounting exact while staying one job at a
  // time — the skipped tail never materializes.
  for (PendingJob& job : ledger.drain()) note_skip(std::move(job), /*abandoned=*/true);
  if (lookahead) {
    note_skip(std::move(*lookahead), /*abandoned=*/true);
    lookahead.reset();
  }
  // pull_runnable() notes --resume skips internally (not abandoned); only
  // the jobs it would have run count as given-up work. A DAG source hands
  // back each skipped job's successors at once, so a halted --then chain
  // skips its unread input one item at a time.
  while (auto job = pull_runnable()) {
    const std::uint64_t seq = job->seq;
    note_skip(std::move(*job), /*abandoned=*/true);
    if (dag != nullptr) {
      for (DepSkippedJob& successor : dag->abandon(seq)) {
        note_skip(std::move(successor), /*abandoned=*/true);
      }
    }
  }
  if (dag != nullptr) {
    // Failure propagation triggered by the tail above, plus nodes never
    // emitted at all (their predecessors were abandoned mid-graph): both
    // must surface in skip accounting, not silently vanish.
    drain_dep_skips();
    for (DepSkippedJob& never_ran : dag->drain_unemitted()) {
      note_skip(std::move(never_ran), /*abandoned=*/true);
    }
  }

  if (collate) collator.finish();
  out_.flush();
  commit_rows();
  if (options_.progress) {
    // Final flush: the source is exhausted now, so the total is accurate.
    print_progress();
    err_ << '\n';
  }
  if (last_end > first_start) summary.makespan = last_end - first_start;
  // DAG sources number jobs themselves (densely, by declaration order), so
  // the highest seq seen — pulled, dep-skipped, or drained — is the total.
  summary.total = dag != nullptr ? max_seq : next_seq - 1;
  if (collect) summary.results.resize(summary.total);
  return std::move(summary);
}

RunSummary Engine::execute(const CommandTemplate& tmpl, JobSource& source) {
  if (options_.dry_run) return Run(*this, tmpl, source).dry_run();
  begin(tmpl, source);
  while (step(-1.0) != Step::kIdle) {
  }
  return finish();
}

void Engine::begin(const CommandTemplate& command, JobSource& source) {
  util::require(!options_.dry_run, "--dry-run has no step-driven form");
  run_ = std::make_unique<Run>(*this, command, source);
}

Engine::Step Engine::step(double max_wait) { return run_->step(max_wait, /*reap=*/true); }

Engine::Step Engine::fill() { return run_->step(0.0, /*reap=*/false); }

RunSummary Engine::finish() { return std::exchange(run_, nullptr)->finish(); }

std::size_t Engine::running() const {
  if (!run_) return 0;
  return run_->active.size() + (run_->scheduler.stopped() ? 0 : run_->ledger.size());
}

void Engine::kill(std::uint64_t seq, bool force) { run_->kill_active(force, seq); }

void Engine::kill_running(bool force) {
  run_->scheduler.stop();
  run_->kill_active(force);
}

bool Engine::pressure_allows_start() { return run_->scheduler.pressure_allows_start(); }

double Engine::wait_seconds() const {
  if (!run_ || run_->wake_at < 0.0) return -1.0;
  return std::max(0.0, run_->wake_at - executor_.now());
}

}  // namespace parcl::core
