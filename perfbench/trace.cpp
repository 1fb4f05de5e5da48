// perfbench_trace: the traced rerun of one benchmark workload.
//
// Drives the same workload as the end-to-end run, but in-process through
// parcl's public API, so each layer boundary can be timed from the
// benchmark's own code:
//   - TimingExecutor decorates exec::LocalExecutor (and, through
//     make_shard(), every dispatcher shard): spawn and wait spans;
//   - TimingSource decorates the input JobSource, TimingDagSource the
//     --then chain (a forwarding DagSource, because the engine detects
//     dependency mode with dynamic_cast);
//   - CountingBuf is the collated-output stream;
//   - the service workload drives core::ServerCore on the load generator's
//     schedule.
// Spans stay in per-thread memory and are written when the run ends.
//
//   perfbench_trace --workload spawn_storm --input FILE --out DIR -- ARGV...
//   perfbench_trace --workload service_open_loop --out DIR --seed S
//                   --jobs N --rate R --tenants T -- SERVER_ARGV...
//
// ARGV is the parcl command line the end-to-end run uses (without the
// program name). Writes DIR/spans.txt (`layer thread start end` per span),
// DIR/facts.json (counts and samples) and, for CLI workloads, DIR/stdout.
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "core/cli.hpp"
#include "core/dag_source.hpp"
#include "core/engine.hpp"
#include "core/joblog.hpp"
#include "core/server.hpp"
#include "exec/local_executor.hpp"
#include "service_plan.hpp"
#include "util/error.hpp"

namespace core = parcl::core;

namespace {

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

enum Layer : unsigned char {
  kEngine,
  kExecStart,
  kExecWait,
  kSourceNext,
  kDagNext,
  kDagNote,
  kServerSubmit,
  kServerStep,
  kJournalAppend,
  kJoblogRecord,
  kIdle,
};

const char* const kLayerNames[] = {
    "engine",         "executor.start",    "executor.wait", "job_source.next",
    "dag.next_gated", "dag.note_complete", "server.submit", "server.step",
    "journal.append", "joblog.record",     "bench.idle",
};

double clock_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  Layer layer;
  double start;
  double end;
};

struct ThreadLog {
  int id = 0;
  std::vector<SpanRecord> spans;
};

/// Per-thread span buffers; the registry lock is taken once per thread.
class Tracer {
 public:
  ThreadLog& local() {
    thread_local ThreadLog* log = nullptr;
    if (log == nullptr) {
      std::lock_guard<std::mutex> lock(mutex_);
      logs_.push_back(std::make_unique<ThreadLog>());
      log = logs_.back().get();
      log->id = static_cast<int>(logs_.size()) - 1;
      log->spans.reserve(1 << 16);
    }
    return *log;
  }

  void write(const std::string& path) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) throw parcl::util::SystemError("open " + path, errno);
    for (const auto& log : logs_) {
      for (const SpanRecord& span : log->spans) {
        std::fprintf(out, "%s %d %.9f %.9f\n", kLayerNames[span.layer], log->id,
                     span.start, span.end);
      }
    }
    std::fclose(out);
  }

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

Tracer g_tracer;

class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer) : layer_(layer), start_(clock_now()) {}
  ~ScopedSpan() { g_tracer.local().spans.push_back({layer_, start_, clock_now()}); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Layer layer_;
  double start_;
};

// ---------------------------------------------------------------------------
// Executor decorator
// ---------------------------------------------------------------------------

/// Totals merged from every TimingExecutor (the root and each shard).
struct ExecTotals {
  std::mutex mutex;
  std::uint64_t jobs = 0;
  std::uint64_t wait_calls = 0;
  std::uint64_t captured_bytes = 0;
  std::vector<std::uint64_t> shard_jobs;
  core::DispatchCounters dispatch;
};

class TimingExecutor final : public core::Executor {
 public:
  TimingExecutor(core::Executor& inner, ExecTotals& totals)
      : inner_(inner), totals_(totals) {}
  TimingExecutor(std::unique_ptr<core::Executor> owned, ExecTotals& totals)
      : owned_(std::move(owned)), inner_(*owned_), totals_(totals), shard_(true) {}

  ~TimingExecutor() override {
    if (shard_) publish();
  }

  void start(const core::ExecRequest& request) override {
    note_thread();
    ScopedSpan span(kExecStart);
    inner_.start(request);
  }

  std::optional<core::ExecResult> wait_any(double timeout_seconds) override {
    note_thread();
    std::optional<core::ExecResult> result;
    {
      ScopedSpan span(kExecWait);
      result = inner_.wait_any(timeout_seconds);
    }
    ++wait_calls_;
    if (result) {
      ++jobs_;
      captured_bytes_ += result->stdout_data.size() + result->stderr_data.size();
    }
    last_end_ = clock_now();
    return result;
  }

  void kill(std::uint64_t job_id, bool force) override { inner_.kill(job_id, force); }
  void kill_signal(std::uint64_t job_id, int sig) override { inner_.kill_signal(job_id, sig); }
  core::ResourcePressure pressure() const override { return inner_.pressure(); }
  bool slot_usable(std::size_t slot) const override { return inner_.slot_usable(slot); }
  bool same_failure_domain(std::size_t a, std::size_t b) const override {
    return inner_.same_failure_domain(a, b);
  }
  std::size_t slot_capacity() const override { return inner_.slot_capacity(); }
  std::size_t live_host_count() const override { return inner_.live_host_count(); }
  std::size_t active_count() const override { return inner_.active_count(); }
  double now() const override { return inner_.now(); }
  const core::DispatchCounters* dispatch_counters() const override {
    return inner_.dispatch_counters();
  }

  std::unique_ptr<core::Executor> make_shard() override {
    std::unique_ptr<core::Executor> shard = inner_.make_shard();
    if (shard == nullptr) return nullptr;
    ++shards_made_;
    return std::make_unique<TimingExecutor>(std::move(shard), totals_);
  }

  std::size_t shards_made() const noexcept { return shards_made_; }

  /// Adds this executor's counts to the totals. A shard also records its
  /// dispatcher thread's active interval as that thread's engine span: the
  /// engine's own work there is whatever the executor calls do not cover.
  void publish() {
    std::lock_guard<std::mutex> lock(totals_.mutex);
    totals_.jobs += jobs_;
    totals_.wait_calls += wait_calls_;
    totals_.captured_bytes += captured_bytes_;
    if (const core::DispatchCounters* counters = inner_.dispatch_counters()) {
      totals_.dispatch.merge(*counters);
    }
    if (shard_) {
      totals_.shard_jobs.push_back(jobs_);
      if (log_ != nullptr) log_->spans.push_back({kEngine, first_start_, last_end_});
    }
  }

 private:
  void note_thread() {
    if (log_ == nullptr) {
      log_ = &g_tracer.local();
      first_start_ = clock_now();
    }
  }

  std::unique_ptr<core::Executor> owned_;
  core::Executor& inner_;
  ExecTotals& totals_;
  bool shard_ = false;
  std::size_t shards_made_ = 0;
  std::uint64_t jobs_ = 0;
  std::uint64_t wait_calls_ = 0;
  std::uint64_t captured_bytes_ = 0;
  ThreadLog* log_ = nullptr;  // the thread driving this executor
  double first_start_ = 0.0;
  double last_end_ = 0.0;
};

// ---------------------------------------------------------------------------
// Source decorators
// ---------------------------------------------------------------------------

class TimingSource final : public core::JobSource {
 public:
  explicit TimingSource(core::JobSource& inner) : inner_(inner) {}

  std::optional<core::JobInput> next() override {
    ScopedSpan span(kSourceNext);
    ++pulls_;
    return inner_.next();
  }

  std::uint64_t pulls() const noexcept { return pulls_; }

 private:
  core::JobSource& inner_;
  std::uint64_t pulls_ = 0;
};

/// Forwards every DagSource call to the --then chain, timing the two the
/// engine makes per job.
class TimingDagSource final : public core::DagSource {
 public:
  explicit TimingDagSource(core::DagSource& inner) : inner_(inner) {}

  std::optional<core::JobInput> next_gated(
      const std::function<bool(std::size_t)>& allow) override {
    std::optional<core::JobInput> job;
    {
      ScopedSpan span(kDagNext);
      job = inner_.next_gated(allow);
    }
    ++pulls_;
    if (!job && inner_.blocked()) ++blocked_pulls_;
    return job;
  }
  void note_complete(std::uint64_t seq, bool ok) override {
    ScopedSpan span(kDagNote);
    ++notes_;
    inner_.note_complete(seq, ok);
  }
  std::vector<core::DepSkippedJob> take_dep_skips() override {
    return inner_.take_dep_skips();
  }
  std::vector<core::DepSkippedJob> drain_unemitted() override {
    return inner_.drain_unemitted();
  }
  bool blocked() const override { return inner_.blocked(); }
  bool exhausted() const override { return inner_.exhausted(); }
  std::size_t stage_count() const override { return inner_.stage_count(); }
  std::string stage_name(std::size_t stage) const override {
    return inner_.stage_name(stage);
  }
  std::optional<std::size_t> stage_total(std::size_t stage) const override {
    return inner_.stage_total(stage);
  }
  std::size_t stage_limit(std::size_t stage) const override {
    return inner_.stage_limit(stage);
  }

  std::uint64_t pulls() const noexcept { return pulls_; }
  std::uint64_t blocked_pulls() const noexcept { return blocked_pulls_; }
  std::uint64_t notes() const noexcept { return notes_; }

 private:
  core::DagSource& inner_;
  std::uint64_t pulls_ = 0;
  std::uint64_t blocked_pulls_ = 0;
  std::uint64_t notes_ = 0;
};

// ---------------------------------------------------------------------------
// Output stream
// ---------------------------------------------------------------------------

/// Counts and times every write the collator makes, and stores the bytes in
/// a file so the run's output can be checked. Writes are too many and too
/// small for one span each, so their time is summed instead.
class CountingBuf final : public std::streambuf {
 public:
  explicit CountingBuf(const std::string& path)
      : fd_(::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644)) {
    if (fd_ < 0) throw parcl::util::SystemError("open " + path, errno);
  }
  ~CountingBuf() override {
    try {
      drain();
    } catch (const parcl::util::Error& error) {
      // The output check then fails on the missing bytes.
      std::cerr << "perfbench_trace: " << error.what() << "\n";
    }
    ::close(fd_);
  }

  std::uint64_t bytes() const noexcept { return bytes_; }
  std::uint64_t calls() const noexcept { return calls_; }
  double seconds() const noexcept { return seconds_; }

 protected:
  std::streamsize xsputn(const char* data, std::streamsize n) override {
    const double begin = clock_now();
    ++calls_;
    bytes_ += static_cast<std::uint64_t>(n);
    pending_.append(data, static_cast<std::size_t>(n));
    if (pending_.size() >= (1u << 16)) drain();
    seconds_ += clock_now() - begin;
    return n;
  }
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) return traits_type::not_eof(ch);
    char c = traits_type::to_char_type(ch);
    xsputn(&c, 1);
    return ch;
  }
  int sync() override {
    const double begin = clock_now();
    drain();
    seconds_ += clock_now() - begin;
    return 0;
  }

 private:
  void drain() {
    std::size_t done = 0;
    while (done < pending_.size()) {
      ssize_t n = ::write(fd_, pending_.data() + done, pending_.size() - done);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw parcl::util::SystemError("write collated output", errno);
      }
      done += static_cast<std::size_t>(n);
    }
    pending_.clear();
  }

  int fd_;
  std::string pending_;
  std::uint64_t bytes_ = 0;
  std::uint64_t calls_ = 0;
  double seconds_ = 0.0;
};

class NullBuf final : public std::streambuf {
 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
  int_type overflow(int_type ch) override { return traits_type::not_eof(ch); }
};

// ---------------------------------------------------------------------------
// Facts file
// ---------------------------------------------------------------------------

/// A flat JSON object of numbers and number arrays.
class Facts {
 public:
  void set(const std::string& key, double value) {
    std::ostringstream text;
    text.precision(17);
    text << value;
    fields_.emplace_back(key, text.str());
  }
  void set_list(const std::string& key, const std::vector<double>& values) {
    std::ostringstream text;
    text.precision(17);
    text << '[';
    for (std::size_t i = 0; i < values.size(); ++i) text << (i ? ", " : "") << values[i];
    text << ']';
    fields_.emplace_back(key, text.str());
  }
  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out << (i ? ",\n " : "") << '"' << fields_[i].first << "\": " << fields_[i].second;
    }
    out << "}\n";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

void record_exec_totals(Facts& facts, ExecTotals& totals) {
  facts.set("jobs", static_cast<double>(totals.jobs));
  facts.set("wait_calls", static_cast<double>(totals.wait_calls));
  facts.set("captured_bytes", static_cast<double>(totals.captured_bytes));
  std::vector<double> shard_jobs(totals.shard_jobs.begin(), totals.shard_jobs.end());
  facts.set_list("shard_jobs", shard_jobs);
  facts.set("dispatch_polls", static_cast<double>(totals.dispatch.polls));
  facts.set("dispatch_exit_wakeups", static_cast<double>(totals.dispatch.exit_wakeups));
}

/// Raw samples of parsing the workload's own command line.
std::vector<double> time_parse(const std::vector<std::string>& argv) {
  std::vector<double> samples;
  for (int i = 0; i < 400; ++i) {
    const double begin = clock_now();
    core::RunPlan plan = core::parse_cli(argv);
    samples.push_back(clock_now() - begin);
  }
  return samples;
}

std::uint64_t file_size(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size) : 0;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// The light part of a result the joblog replay needs.
struct ReplayRow {
  core::JobResult result;  // stdout/stderr emptied
  std::size_t stdout_bytes = 0;
};

/// Copies everything but the captured output: holding every job's bytes
/// would grow this process, and with it the cost of each fork.
ReplayRow replay_row(const core::JobResult& result) {
  ReplayRow row;
  row.result.seq = result.seq;
  row.result.slot = result.slot;
  row.result.stage = result.stage;
  row.result.status = result.status;
  row.result.exit_code = result.exit_code;
  row.result.term_signal = result.term_signal;
  row.result.attempts = result.attempts;
  row.result.start_time = result.start_time;
  row.result.end_time = result.end_time;
  row.result.command = result.command;
  row.result.host = result.host;
  row.stdout_bytes = result.stdout_data.size();
  return row;
}

/// Times JoblogWriter::record() over the run's own results in a fresh file.
void replay_joblog(const std::vector<ReplayRow>& rows, const std::string& path) {
  ::unlink(path.c_str());
  core::JoblogWriter writer(path);
  for (const ReplayRow& row : rows) {
    core::JobResult result = row.result;
    result.stdout_data.assign(row.stdout_bytes, 'x');
    ScopedSpan span(kJoblogRecord);
    writer.record(result, ":");
  }
}

int run_cli(const std::vector<std::string>& argv, const std::string& input_path,
            const std::string& out_dir, Facts& facts) {
  g_tracer.local();  // the main thread is thread 0
  facts.set_list("parse_s", time_parse(argv));
  core::RunPlan plan = core::parse_cli(argv);
  plan.options.collect_results = false;  // as the CLI streams

  std::ifstream input(input_path, std::ios::binary);
  if (!input) throw parcl::util::SystemError("open " + input_path, errno);

  CountingBuf out_buf(out_dir + "/stdout");
  std::ostream out(&out_buf);
  NullBuf null_buf;
  std::ostream err(&null_buf);

  parcl::exec::LocalExecutor local;
  ExecTotals totals;
  TimingExecutor executor(local, totals);
  core::Engine engine(plan.options, executor, out, err);
  std::vector<ReplayRow> rows;
  const bool keep_rows = !plan.options.joblog_path.empty();
  engine.set_result_callback([&](const core::JobResult& result) {
    if (keep_rows) rows.push_back(replay_row(result));
  });

  // The chain's stage 1 reads the input stream through TimingSource; the
  // --then stages are composed here exactly as make_job_source() does, so
  // the DAG layer can be wrapped separately.
  std::vector<core::StageSpec> then = plan.then_stages;
  plan.then_stages.clear();
  std::unique_ptr<core::JobSource> base = core::make_job_source(plan, input);
  TimingSource source(*base);
  std::unique_ptr<core::StageChainSource> chain;
  std::unique_ptr<TimingDagSource> dag;
  core::JobSource* engine_source = &source;
  if (!then.empty()) {
    std::vector<core::StageSpec> stages;
    core::StageSpec first;
    first.command = plan.command_template;
    stages.push_back(std::move(first));
    stages.insert(stages.end(), then.begin(), then.end());
    for (std::size_t s = 0; s < plan.stage_jobs.size() && s < stages.size(); ++s) {
      stages[s].jobs = plan.stage_jobs[s];
    }
    chain = std::make_unique<core::StageChainSource>(source, std::move(stages));
    dag = std::make_unique<TimingDagSource>(*chain);
    engine_source = dag.get();
  }

  const double begin = clock_now();
  core::RunSummary summary = engine.run_source(plan.command_template, *engine_source);
  const double end = clock_now();
  out.flush();
  // A serial run's engine span is the whole call; a sharded run's engine
  // time is recorded per dispatcher shard instead (the coordinator thread
  // mostly waits on the shards).
  if (executor.shards_made() == 0) g_tracer.local().spans.push_back({kEngine, begin, end});
  executor.publish();

  facts.set("wall_s", end - begin);
  facts.set("failed_jobs",
            static_cast<double>(summary.failed + summary.killed + summary.skipped));
  facts.set("shards", static_cast<double>(executor.shards_made()));
  record_exec_totals(facts, totals);
  facts.set("source_pulls", static_cast<double>(source.pulls()));
  facts.set("dag_pulls", dag ? static_cast<double>(dag->pulls()) : 0.0);
  facts.set("dag_blocked_pulls", dag ? static_cast<double>(dag->blocked_pulls()) : 0.0);
  facts.set("output_bytes", static_cast<double>(out_buf.bytes()));
  facts.set("output_calls", static_cast<double>(out_buf.calls()));
  facts.set("output_s", out_buf.seconds());
  if (keep_rows) {
    facts.set("joblog_rows", static_cast<double>(rows.size()));
    facts.set("joblog_bytes", static_cast<double>(file_size(plan.options.joblog_path)));
    replay_joblog(rows, out_dir + "/replay.joblog");
  }
  return 0;
}

struct ServiceArgs {
  std::uint64_t seed = 1;
  std::size_t jobs = 0;
  double rate = 1000.0;
  std::size_t tenants = 4;
};

int run_service(const std::vector<std::string>& argv, const ServiceArgs& args,
                const std::string& out_dir, Facts& facts) {
  g_tracer.local();
  facts.set_list("parse_s", time_parse(argv));
  core::RunPlan plan = core::parse_cli(argv);
  const std::string state_dir = plan.service.state_dir;
  if (::mkdir(state_dir.c_str(), 0755) < 0 && errno != EEXIST) {
    throw parcl::util::SystemError("mkdir " + state_dir, errno);
  }
  core::ServerConfig config;
  config.state_dir = state_dir;
  config.slots = plan.options.effective_jobs();
  config.limits.max_queue_per_tenant = plan.service.max_queue;
  config.limits.max_queue_global = plan.service.max_queue_global;

  parcl::exec::LocalExecutor local;
  ExecTotals totals;
  TimingExecutor executor(local, totals);
  std::vector<perfbench::PlannedJob> jobs =
      perfbench::service_plan(args.seed, args.jobs, args.tenants, args.rate);
  std::vector<ReplayRow> rows;
  std::size_t bad_output = 0;
  std::size_t failed = 0;
  std::size_t rejects = 0;
  std::size_t done = 0;
  double first_due = 0.0;
  double last_result = 0.0;
  core::ServerStats stats;
  {
    core::ServerCore server(config, executor);
    for (std::size_t t = 0; t < args.tenants; ++t) {
      server.attach_tenant(perfbench::tenant_name(t));
    }
    const double start = clock_now() + 0.02;
    first_due = start;
    auto due = [&](std::size_t i) { return start + jobs[i].offset; };
    const double deadline = (args.jobs ? due(args.jobs - 1) : start) + 30.0;
    std::size_t next = 0;
    while (done < args.jobs && clock_now() < deadline) {
      const double t = clock_now();
      while (next < args.jobs && due(next) <= t) {
        core::Admission admission;
        {
          ScopedSpan span(kServerSubmit);
          admission = server.submit(perfbench::tenant_name(jobs[next].tenant), next + 1,
                                    jobs[next].command());
        }
        if (!admission.accepted) ++rejects;
        ++next;
      }
      double wait = next < args.jobs ? due(next) - clock_now() : 0.05;
      if (wait < 0.0) wait = 0.0;
      if (server.running_count() == 0 && server.queued_count() == 0) {
        // Nothing to reap: sleep until the next job is due.
        ScopedSpan span(kIdle);
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      } else {
        ScopedSpan span(kServerStep);
        server.step(wait);
      }
      for (core::TenantEvent& event : server.take_events()) {
        const double arrived = clock_now();
        const core::JobResult& result = event.result;
        if (result.seq < 1 || result.seq > args.jobs) {
          ++bad_output;
          continue;
        }
        ++done;
        last_result = arrived;
        rows.push_back(replay_row(result));
        if (!result.ok()) ++failed;
        if (result.stdout_data != jobs[result.seq - 1].expected_stdout()) ++bad_output;
      }
    }
    server.flush();
    stats = server.stats();
  }
  executor.publish();

  // Journal cost, measured by appending the run's own intake records to a
  // fresh journal.
  {
    const std::string path = out_dir + "/replay.journal";
    ::unlink(path.c_str());
    core::IntakeJournal journal(path);
    for (std::size_t i = 0; i < args.jobs; ++i) {
      core::IntakeRecord record;
      record.intake_id = i + 1;
      record.tenant = perfbench::tenant_name(jobs[i].tenant);
      record.client_seq = i + 1;
      record.command = jobs[i].command();
      ScopedSpan span(kJournalAppend);
      journal.append_accept(record);
    }
  }

  facts.set("wall_s", last_result - first_due);
  facts.set("failed_jobs", static_cast<double>(failed + args.jobs - done));
  facts.set("bad_output", static_cast<double>(bad_output));
  facts.set("rejects", static_cast<double>(rejects));
  facts.set("shards", 0.0);
  record_exec_totals(facts, totals);
  facts.set_list("queue_latency_s", stats.queue_latency_seconds);
  const std::string ledger = core::ServerCore::ledger_path(state_dir);
  std::ifstream ledger_in(ledger);
  std::size_t ledger_rows = 0;
  for (std::string line; std::getline(ledger_in, line);) {
    if (!line.empty() && line.rfind("Seq\t", 0) != 0) ++ledger_rows;
  }
  facts.set("joblog_rows", static_cast<double>(ledger_rows));
  facts.set("joblog_bytes", static_cast<double>(file_size(ledger)));
  replay_joblog(rows, out_dir + "/replay.joblog");
  return 0;
}

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench_trace: " << message << "\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string input_path;
  std::string out_dir;
  ServiceArgs service;
  std::vector<std::string> parcl_argv;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--") {
      parcl_argv.assign(argv + i + 1, argv + argc);
      break;
    } else if (arg == "--workload") {
      workload = value();
    } else if (arg == "--input") {
      input_path = value();
    } else if (arg == "--out") {
      out_dir = value();
    } else if (arg == "--seed") {
      service.seed = std::stoull(value());
    } else if (arg == "--jobs") {
      service.jobs = std::stoul(value());
    } else if (arg == "--rate") {
      service.rate = std::stod(value());
    } else if (arg == "--tenants") {
      service.tenants = std::stoul(value());
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (workload.empty() || out_dir.empty() || parcl_argv.empty()) usage("bad arguments");

  Facts facts;
  try {
    int code = workload == "service_open_loop"
                   ? run_service(parcl_argv, service, out_dir, facts)
                   : run_cli(parcl_argv, input_path, out_dir, facts);
    facts.write(out_dir + "/facts.json");
    g_tracer.write(out_dir + "/spans.txt");
    return code;
  } catch (const parcl::util::Error& error) {
    std::cerr << "perfbench_trace: " << error.what() << "\n";
    return 1;
  }
}
