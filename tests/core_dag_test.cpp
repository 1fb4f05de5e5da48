// Dataflow scheduling tests: DependencyTracker semantics, --graph parsing,
// the two DagSources, and the engine's dependency-gated dispatch.
#include "core/dag.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "core/dag_source.hpp"
#include "core/engine.hpp"
#include "core/joblog.hpp"
#include "exec/function_executor.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace parcl::core {
namespace {

using exec::FunctionExecutor;
using exec::TaskOutcome;

// ---------------------------------------------------------------------------
// DependencyTracker

TEST(DependencyTracker, EmitsLowestReadyIdAndUnblocksOnCompletion) {
  DependencyTracker tracker;
  tracker.add_node(3);
  tracker.add_node(1);
  tracker.add_node(2, {1, 3});
  tracker.seal();

  EXPECT_EQ(tracker.pop_ready(), std::optional<std::uint64_t>(1));
  EXPECT_EQ(tracker.pop_ready(), std::optional<std::uint64_t>(3));
  EXPECT_EQ(tracker.pop_ready(), std::nullopt);
  EXPECT_TRUE(tracker.blocked());

  tracker.complete(1, true);
  EXPECT_EQ(tracker.pop_ready(), std::nullopt);  // 2 still waits on 3
  tracker.complete(3, true);
  EXPECT_EQ(tracker.pop_ready(), std::optional<std::uint64_t>(2));
  tracker.complete(2, true);
  EXPECT_EQ(tracker.pending(), 0u);
  EXPECT_TRUE(tracker.all_emitted());
}

TEST(DependencyTracker, ForwardReferencesResolveAtSeal) {
  DependencyTracker tracker;
  tracker.add_node(1, {2});  // 2 not declared yet
  tracker.add_node(2);
  tracker.seal();
  EXPECT_EQ(tracker.pop_ready(), std::optional<std::uint64_t>(2));
  tracker.complete(2, true);
  EXPECT_EQ(tracker.pop_ready(), std::optional<std::uint64_t>(1));
}

TEST(DependencyTracker, RejectsCyclesAndSelfDeps) {
  {
    DependencyTracker tracker;
    tracker.add_node(1, {2});
    tracker.add_node(2, {1});
    EXPECT_THROW(tracker.seal(), util::ConfigError);
  }
  {
    DependencyTracker tracker;
    tracker.add_node(1, {1});
    EXPECT_THROW(tracker.seal(), util::ConfigError);
  }
  {
    DependencyTracker tracker;
    tracker.add_node(1, {7});
    EXPECT_THROW(tracker.seal(), util::ConfigError);  // unknown dep
  }
}

TEST(DependencyTracker, AddAfterSealThrows) {
  DependencyTracker tracker;
  tracker.add_node(1);
  tracker.seal();
  EXPECT_THROW(tracker.add_node(2, {1}), util::InternalError);
  EXPECT_EQ(tracker.pending(), 1u);
}

TEST(DependencyTracker, CompletionIsExactlyOnce) {
  DependencyTracker tracker;
  tracker.add_node(1);
  tracker.add_node(2);
  tracker.seal();
  EXPECT_THROW(tracker.complete(2, true), util::InternalError);  // not popped
  ASSERT_EQ(tracker.pop_ready(), std::optional<std::uint64_t>(1));
  tracker.complete(1, true);
  EXPECT_THROW(tracker.complete(1, true), util::InternalError);  // twice
  EXPECT_THROW(tracker.complete(42, true), util::InternalError);  // unknown
}

TEST(DependencyTracker, FailureSkipsTransitiveDescendants) {
  DependencyTracker tracker;
  tracker.add_node(1);
  tracker.add_node(2, {1});
  tracker.add_node(3, {2});
  tracker.add_node(4, {3, 5});  // one dead input is enough
  tracker.add_node(5);
  tracker.seal();
  ASSERT_EQ(tracker.pop_ready(), std::optional<std::uint64_t>(1));
  tracker.complete(1, false);
  EXPECT_EQ(tracker.take_skipped(), (std::vector<std::uint64_t>{2, 3, 4}));
  ASSERT_EQ(tracker.pop_ready(), std::optional<std::uint64_t>(5));
  tracker.complete(5, true);
  EXPECT_EQ(tracker.pending(), 0u);
}

TEST(DependencyTracker, GateDeniedReadyIsNeitherBlockedNorAllEmitted) {
  DependencyTracker tracker;
  tracker.add_node(1);
  tracker.seal();
  auto denied = tracker.pop_ready_if([](std::uint64_t) { return false; });
  EXPECT_EQ(denied, std::nullopt);
  // The engine keys end-of-stream on these: a capped-but-ready node must
  // read as "more to come", not "waiting" and not "dry".
  EXPECT_FALSE(tracker.blocked());
  EXPECT_FALSE(tracker.all_emitted());
  EXPECT_TRUE(tracker.has_ready());
  EXPECT_EQ(tracker.pop_ready(), std::optional<std::uint64_t>(1));
}

TEST(DependencyTracker, DrainUnemittedReportsTheNeverRanTail) {
  DependencyTracker tracker;
  tracker.add_node(1);
  tracker.add_node(2, {1});
  tracker.add_node(3);
  tracker.seal();
  ASSERT_EQ(tracker.pop_ready(), std::optional<std::uint64_t>(1));
  EXPECT_EQ(tracker.drain_unemitted(), (std::vector<std::uint64_t>{2, 3}));
  tracker.complete(1, true);
  EXPECT_EQ(tracker.pending(), 0u);
}

// ---------------------------------------------------------------------------
// GraphSpec parsing

GraphSpec parse_text(const std::string& text) {
  std::istringstream in(text);
  return GraphSpec::parse(in, "test.graph");
}

TEST(GraphSpec, ParsesStagesNodesAndAttributes) {
  GraphSpec spec = parse_text(
      "# comment\n"
      "stage fetch jobs=2\n"
      "stage crunch\n"
      "\n"
      "a stage=fetch out=a.dat :: curl a\n"
      "b after=a needs=a.dat stage=crunch :: crunch {}\n");
  ASSERT_EQ(spec.stages.size(), 2u);
  EXPECT_EQ(spec.stages[0].name, "fetch");
  EXPECT_EQ(spec.stages[0].jobs, 2u);
  EXPECT_EQ(spec.stages[1].jobs, 0u);
  ASSERT_EQ(spec.nodes.size(), 2u);
  EXPECT_EQ(spec.nodes[0].outs, (std::vector<std::string>{"a.dat"}));
  EXPECT_EQ(spec.nodes[1].after, (std::vector<std::string>{"a"}));
  EXPECT_EQ(spec.nodes[1].needs, (std::vector<std::string>{"a.dat"}));
  EXPECT_EQ(spec.nodes[1].command, "crunch {}");
}

void expect_parse_error(const std::string& text, const std::string& fragment) {
  try {
    parse_text(text);
    FAIL() << "expected ConfigError for: " << text;
  } catch (const util::ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find(fragment), std::string::npos)
        << "message '" << error.what() << "' lacks '" << fragment << "'";
  }
}

TEST(GraphSpec, ErrorsNameTheOffendingLine) {
  expect_parse_error("a :: ok\nbroken line\n", "test.graph:2");
  expect_parse_error("a :: ok\nb ::   \n", "test.graph:2");
  expect_parse_error("stage\n", "stage directive needs a name");
  expect_parse_error("stage s\nstage s\n", "test.graph:2");
  expect_parse_error("a wat=1 :: ok\n", "unknown node attribute");
  expect_parse_error("stage s jobs=-2\na stage=s :: ok\n", "test.graph:1");
  expect_parse_error("a :: ok\nstage s jobs=abc\n", "test.graph:2");
  expect_parse_error("", "declares no nodes");
}

TEST(GraphSource, RejectsBadGraphs) {
  EXPECT_THROW(GraphSource(parse_text("a :: x\na :: y\n")), util::ConfigError);
  EXPECT_THROW(GraphSource(parse_text("a after=ghost :: x\n")),
               util::ConfigError);
  EXPECT_THROW(GraphSource(parse_text("a needs=missing.dat :: x\n")),
               util::ConfigError);
  EXPECT_THROW(GraphSource(parse_text("a out=f :: x\nb out=f :: y\n")),
               util::ConfigError);
  EXPECT_THROW(
      GraphSource(parse_text("a after=b :: x\nb after=a :: y\n")),
      util::ConfigError);
  EXPECT_THROW(GraphSource(parse_text("stage s\na :: x\n")),
               util::ConfigError);  // stages declared, node unstaged
}

// ---------------------------------------------------------------------------
// GraphSource

TEST(GraphSource, StreamsInDependencyOrderWithSeqsFromDeclaration) {
  GraphSource source(parse_text(
      "sink after=a,b :: join {}\n"
      "a out=a.dat :: make a\n"
      "b needs=a.dat :: make b\n"));
  ASSERT_EQ(source.node_count(), 3u);

  auto first = source.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->seq, 2u);  // declaration order: sink=1, a=2, b=3
  EXPECT_EQ(first->args, (ArgVector{"a"}));
  EXPECT_EQ(first->command, "make a");
  EXPECT_FALSE(source.exhausted());
  EXPECT_EQ(source.next(), std::nullopt);  // b needs a.dat, sink needs both
  EXPECT_TRUE(source.blocked());

  source.note_complete(2, true);
  auto second = source.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->seq, 3u);
  source.note_complete(3, true);
  auto third = source.next();
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->seq, 1u);
  source.note_complete(1, true);
  EXPECT_EQ(source.next(), std::nullopt);
  EXPECT_TRUE(source.exhausted());
}

TEST(GraphSource, GateDenialIsNotExhaustion) {
  GraphSource source(parse_text("stage s jobs=1\na stage=s :: x\n"));
  auto denied = source.next_gated([](std::size_t) { return false; });
  EXPECT_EQ(denied, std::nullopt);
  EXPECT_FALSE(source.exhausted());
  EXPECT_FALSE(source.blocked());
  auto allowed = source.next_gated([](std::size_t) { return true; });
  ASSERT_TRUE(allowed.has_value());
  EXPECT_EQ(allowed->seq, 1u);
}

TEST(GraphSource, FailurePropagatesThroughDataEdges) {
  GraphSource source(parse_text(
      "a out=a.dat :: make a\n"
      "b needs=a.dat :: make b\n"
      "c after=b :: make c\n"
      "d :: make d\n"));
  ASSERT_EQ(source.next()->seq, 1u);
  ASSERT_EQ(source.next()->seq, 4u);
  source.note_complete(1, false);
  auto skips = source.take_dep_skips();
  ASSERT_EQ(skips.size(), 2u);
  EXPECT_EQ(skips[0].seq, 2u);
  EXPECT_EQ(skips[0].args, (ArgVector{"b"}));
  EXPECT_EQ(skips[1].seq, 3u);
  source.note_complete(4, true);
  EXPECT_TRUE(source.exhausted());
}

TEST(GraphSource, ReportsStageNamesAndTotals) {
  GraphSource source(parse_text(
      "stage fetch jobs=3\n"
      "stage crunch\n"
      "a stage=fetch :: x\n"
      "b stage=fetch :: x\n"
      "c after=a,b stage=crunch :: y\n"));
  EXPECT_EQ(source.stage_count(), 2u);
  EXPECT_EQ(source.stage_name(1), "fetch");
  EXPECT_EQ(source.stage_total(1), std::optional<std::size_t>(2));
  EXPECT_EQ(source.stage_total(2), std::optional<std::size_t>(1));
  EXPECT_EQ(source.stage_limit(1), 3u);
  EXPECT_EQ(source.stage_limit(2), 0u);
}

// ---------------------------------------------------------------------------
// StageChainSource

std::vector<StageSpec> two_stages(bool barrier) {
  std::vector<StageSpec> stages(2);
  stages[0].command = "first {}";
  stages[1].command = "second {}";
  stages[1].barrier = barrier;
  return stages;
}

TEST(StageChainSource, ElementWiseChainRunsStageTwoPerCompletion) {
  VectorSource upstream({{"x"}, {"y"}});
  StageChainSource chain(upstream, two_stages(/*barrier=*/false));

  auto first = chain.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->seq, 1u);  // item 1, stage 1
  EXPECT_EQ(first->stage, 1u);
  EXPECT_EQ(first->command, "first {}");

  auto second = chain.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->seq, 3u);  // item 2, stage 1 — item-major seqs

  chain.note_complete(1, true);
  auto third = chain.next();
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->seq, 2u);  // x's stage 2 runs before y finishes stage 1
  EXPECT_EQ(third->stage, 2u);
  EXPECT_EQ(third->args, (ArgVector{"x"}));

  chain.note_complete(3, true);
  chain.note_complete(2, true);
  auto fourth = chain.next();
  ASSERT_TRUE(fourth.has_value());
  EXPECT_EQ(fourth->seq, 4u);
  chain.note_complete(4, true);
  EXPECT_EQ(chain.next(), std::nullopt);
  EXPECT_TRUE(chain.exhausted());
}

TEST(StageChainSource, BarrierLiftsEvenWhenHeadExhaustionIsDiscoveredLate) {
  // Regression: with stage 1 capped at one in-flight job, every stage-1
  // completion lands BEFORE the source learns the upstream is dry. The
  // barrier must still lift on the pull that discovers exhaustion, and
  // that same pull must surface the newly-ready stage-2 job.
  VectorSource upstream({{"x"}, {"y"}});
  StageChainSource chain(upstream, two_stages(/*barrier=*/true));

  std::size_t stage1_inflight = 0;
  auto gate = [&](std::size_t stage) {
    return stage != 1 || stage1_inflight == 0;
  };
  auto a = chain.next_gated(gate);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->seq, 1u);
  stage1_inflight = 1;
  EXPECT_EQ(chain.next_gated(gate), std::nullopt);
  chain.note_complete(1, true);
  stage1_inflight = 0;

  auto b = chain.next_gated(gate);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->seq, 3u);
  stage1_inflight = 1;
  chain.note_complete(3, true);  // last stage-1 job done; head still unknown
  stage1_inflight = 0;

  auto c = chain.next_gated(gate);  // discovers exhaustion AND lifts barrier
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->seq, 2u);
  auto d = chain.next_gated(gate);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->seq, 4u);
  chain.note_complete(2, true);
  chain.note_complete(4, true);
  EXPECT_TRUE(chain.exhausted());
}

TEST(StageChainSource, PullsUpstreamLazily) {
  std::size_t pulled = 0;
  FunctionSource upstream([&]() -> std::optional<JobInput> {
    if (pulled >= 100) return std::nullopt;
    JobInput job;
    job.args = {std::to_string(pulled++)};
    return job;
  });
  StageChainSource chain(upstream, two_stages(/*barrier=*/false));
  // A stage-1 gate at capacity stops item materialization entirely: the
  // upstream must never be buffered ahead of what can start.
  ASSERT_TRUE(chain.next().has_value());
  EXPECT_EQ(pulled, 1u);
  EXPECT_EQ(chain.next_gated([](std::size_t stage) { return stage != 1; }),
            std::nullopt);
  EXPECT_EQ(pulled, 1u);
  ASSERT_TRUE(chain.next().has_value());
  EXPECT_EQ(pulled, 2u);
}

TEST(StageChainSource, StageTotalsFirmUpWhenHeadExhausts) {
  VectorSource upstream({{"x"}, {"y"}, {"z"}});
  StageChainSource chain(upstream, two_stages(/*barrier=*/false));
  ASSERT_TRUE(chain.next().has_value());
  EXPECT_EQ(chain.stage_total(1), std::nullopt);  // still streaming: N/?
  while (chain.next().has_value()) {
  }
  EXPECT_EQ(chain.stage_total(1), std::optional<std::size_t>(3));
  EXPECT_EQ(chain.stage_total(2), std::optional<std::size_t>(3));
}

TEST(StageChainSource, FailureSkipsTheRestOfTheItemChainOnly) {
  VectorSource upstream({{"x"}, {"y"}});
  std::vector<StageSpec> stages(3);
  stages[0].command = "a {}";
  stages[1].command = "b {}";
  stages[2].command = "c {}";
  StageChainSource chain(upstream, std::move(stages));
  ASSERT_EQ(chain.next()->seq, 1u);
  ASSERT_EQ(chain.next()->seq, 4u);
  chain.note_complete(1, false);  // x's chain dies; y's is untouched
  auto skips = chain.take_dep_skips();
  ASSERT_EQ(skips.size(), 2u);
  EXPECT_EQ(skips[0].seq, 2u);
  EXPECT_EQ(skips[0].args, (ArgVector{"x"}));
  EXPECT_EQ(skips[1].seq, 3u);
  chain.note_complete(4, true);
  ASSERT_EQ(chain.next()->seq, 5u);
  chain.note_complete(5, true);
  ASSERT_EQ(chain.next()->seq, 6u);
  chain.note_complete(6, true);
  EXPECT_EQ(chain.next(), std::nullopt);  // discovers the upstream is dry
  EXPECT_TRUE(chain.exhausted());
}

TEST(StageChainSource, CompletionAfterDrainMakesNothingReady) {
  // A halted run drains the never-ran tail while a job still runs. Its
  // completion, ok or failed, must neither start a later stage nor report
  // that stage's skip a second time.
  for (bool ok : {true, false}) {
    VectorSource upstream({{"x"}, {"y"}});
    std::vector<StageSpec> stages(3);
    stages[0].command = "a {}";
    stages[1].command = "b {}";
    stages[2].command = "c {}";
    StageChainSource chain(upstream, std::move(stages));
    ASSERT_EQ(chain.next()->seq, 1u);
    ASSERT_EQ(chain.next()->seq, 4u);
    EXPECT_EQ(chain.next(), std::nullopt);  // discovers the upstream is dry
    chain.note_complete(4, true);           // y's stage 2 is now ready

    std::vector<std::uint64_t> drained;
    for (const DepSkippedJob& skip : chain.drain_unemitted())
      drained.push_back(skip.seq);
    EXPECT_EQ(drained, (std::vector<std::uint64_t>{2, 3, 5, 6}));

    chain.note_complete(1, ok);  // x's stage 1 ran through the drain
    EXPECT_TRUE(chain.take_dep_skips().empty()) << "ok=" << ok;
    EXPECT_EQ(chain.next(), std::nullopt);
    EXPECT_TRUE(chain.exhausted());
    EXPECT_THROW(chain.note_complete(1, true), util::InternalError);
    EXPECT_THROW(chain.note_complete(2, true), util::InternalError);
  }
}

TEST(StageChainSource, AbandonForgetsTheItemAndReturnsItsLaterStages) {
  VectorSource upstream({{"x"}, {"y"}});
  std::vector<StageSpec> stages(3);
  stages[0].command = "a {}";
  stages[1].command = "b {}";
  stages[2].command = "c {}";
  StageChainSource chain(upstream, std::move(stages));
  ASSERT_EQ(chain.next()->seq, 1u);
  std::vector<DepSkippedJob> later = chain.abandon(1);
  ASSERT_EQ(later.size(), 2u);
  EXPECT_EQ(later[0].seq, 2u);
  EXPECT_EQ(later[0].stage, 2u);
  EXPECT_EQ(later[0].args, (ArgVector{"x"}));
  EXPECT_EQ(later[0].command, "b {}");
  EXPECT_EQ(later[1].seq, 3u);
  EXPECT_THROW(chain.abandon(1), util::InternalError);
  EXPECT_THROW(chain.note_complete(1, true), util::InternalError);
  // y's chain is untouched, and nothing of x is left to drain.
  ASSERT_EQ(chain.next()->seq, 4u);
  std::vector<std::uint64_t> drained;
  for (const DepSkippedJob& skip : chain.drain_unemitted()) drained.push_back(skip.seq);
  EXPECT_EQ(drained, (std::vector<std::uint64_t>{5, 6}));
}

// ---------------------------------------------------------------------------
// Engine integration

std::string temp_path(const std::string& stem) {
  std::string path = ::testing::TempDir() + "dag_" + stem + ".tsv";
  std::remove(path.c_str());
  return path;
}

struct JoblogRow {
  std::uint64_t seq = 0;
  double start = 0.0;
  double runtime = 0.0;
  int exitval = 0;
};

std::vector<JoblogRow> read_joblog(const std::string& path) {
  std::ifstream in(path);
  std::vector<JoblogRow> rows;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    auto fields = util::split(line, '\t');
    if (fields.size() < 7) continue;
    JoblogRow row;
    row.seq = static_cast<std::uint64_t>(util::parse_long(fields[0]));
    row.start = std::stod(fields[2]);
    row.runtime = std::stod(fields[3]);
    row.exitval = static_cast<int>(util::parse_long(fields[6]));
    rows.push_back(row);
  }
  return rows;
}

/// A task body that records, under a lock, which nodes had finished when
/// each node started — the raw material for dependency assertions.
struct OrderRecorder {
  std::mutex mutex;
  std::set<std::string> finished;
  std::map<std::string, std::set<std::string>> finished_at_start;

  exec::TaskFn task(int fail_exit_for = -1) {
    return [this, fail_exit_for](const ExecRequest& request) {
      std::string name = request.command.substr(request.command.rfind(' ') + 1);
      {
        std::lock_guard<std::mutex> lock(mutex);
        finished_at_start[name] = finished;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      TaskOutcome outcome;
      outcome.stdout_data = name + "\n";
      if (!name.empty() && name.back() == '!') outcome.exit_code = 9;
      std::lock_guard<std::mutex> lock(mutex);
      finished.insert(name);
      return outcome;
    };
  }
};

TEST(EngineDag, GraphRunWaitsForPredecessors) {
  GraphSpec spec = parse_text(
      "a :: run a\n"
      "b after=a :: run b\n"
      "c after=a :: run c\n"
      "d after=b,c :: run d\n");
  OrderRecorder recorder;
  FunctionExecutor executor(recorder.task(), 8);
  Options options;
  options.jobs = 8;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  GraphSource source(std::move(spec));
  RunSummary summary = engine.run_source("", source);
  EXPECT_EQ(summary.succeeded, 4u);
  EXPECT_EQ(summary.failed, 0u);
  EXPECT_TRUE(recorder.finished_at_start["b"].count("a"));
  EXPECT_TRUE(recorder.finished_at_start["c"].count("a"));
  EXPECT_TRUE(recorder.finished_at_start["d"].count("b"));
  EXPECT_TRUE(recorder.finished_at_start["d"].count("c"));
}

TEST(EngineDag, RetriesComposeWithDependencies) {
  // b fails on its first attempt only; with --retries 2 the second attempt
  // succeeds and d must still run — descendants wait out predecessor
  // retries.
  std::atomic<int> b_attempts{0};
  auto task = [&](const ExecRequest& request) {
    std::string name = request.command.substr(request.command.rfind(' ') + 1);
    TaskOutcome outcome;
    outcome.stdout_data = name + "\n";
    if (name == "b" && b_attempts.fetch_add(1) == 0) outcome.exit_code = 3;
    return outcome;
  };
  FunctionExecutor executor(task, 4);
  Options options;
  options.jobs = 4;
  options.retries = 2;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  GraphSource source(parse_text(
      "a :: run a\n"
      "b after=a :: run b\n"
      "d after=b :: run d\n"));
  RunSummary summary = engine.run_source("", source);
  EXPECT_EQ(summary.succeeded, 3u);
  EXPECT_EQ(summary.failed, 0u);
  EXPECT_EQ(summary.dep_skipped, 0u);
  EXPECT_EQ(b_attempts.load(), 2);
}

TEST(EngineDag, DepSkipsGetJoblogRowsAndResumeHonoursThem) {
  const std::string joblog = temp_path("resume");
  GraphSpec spec = parse_text(
      "a :: run a\n"
      "bad :: run bad!\n"
      "child after=bad :: run child\n"
      "grand after=child :: run grand\n");

  OrderRecorder recorder;
  FunctionExecutor executor(recorder.task(), 4);
  Options options;
  options.jobs = 4;
  options.joblog_path = joblog;
  std::ostringstream out, err;
  {
    Engine engine(options, executor, out, err);
    GraphSource source(spec);
    RunSummary summary = engine.run_source("", source);
    EXPECT_EQ(summary.succeeded, 1u);  // a; 'bad' exits 9
    EXPECT_EQ(summary.failed, 1u);
    EXPECT_EQ(summary.dep_skipped, 2u);
    EXPECT_NE(summary.exit_status(), 0);
  }
  auto rows = read_joblog(joblog);
  ASSERT_EQ(rows.size(), 4u);
  std::map<std::uint64_t, int> exit_by_seq;
  for (const auto& row : rows) exit_by_seq[row.seq] = row.exitval;
  EXPECT_EQ(exit_by_seq.at(1), 0);
  EXPECT_EQ(exit_by_seq.at(2), 9);
  EXPECT_EQ(exit_by_seq.at(3), kDepSkippedExitval);
  EXPECT_EQ(exit_by_seq.at(4), kDepSkippedExitval);

  // --resume: the dep-skip rows count as done — nothing re-runs, including
  // the descendants of the logged failure.
  std::atomic<int> reruns{0};
  auto counting = [&](const ExecRequest&) {
    ++reruns;
    return TaskOutcome{};
  };
  FunctionExecutor executor2(counting, 4);
  Options resume_options = options;
  resume_options.resume = true;
  Engine engine(resume_options, executor2, out, err);
  GraphSource source(spec);
  RunSummary summary = engine.run_source("", source);
  EXPECT_EQ(reruns.load(), 0);
  EXPECT_EQ(summary.skipped, 4u);

  // --resume-failed: the failure and its dependency-skipped descendants
  // become eligible again.
  std::atomic<int> failed_reruns{0};
  auto failing = [&](const ExecRequest&) {
    ++failed_reruns;
    TaskOutcome outcome;
    outcome.exit_code = 9;
    return outcome;
  };
  FunctionExecutor executor3(failing, 4);
  Options retry_options = options;
  retry_options.resume_failed = true;
  Engine retry_engine(retry_options, executor3, out, err);
  GraphSource source2(spec);
  RunSummary retry_summary = retry_engine.run_source("", source2);
  EXPECT_EQ(failed_reruns.load(), 1);  // only 'bad' re-ran; children re-skip
  EXPECT_EQ(retry_summary.dep_skipped, 2u);
}

TEST(EngineDag, ResumedDepSkipsCountTowardTheTotal) {
  // The joblog holds the failure and its dep-skipped child: a --resume run
  // skips both, and the child, seen only as a dep-skip, still counts in
  // the total and keeps its collected result.
  const std::string joblog = temp_path("resume_total");
  GraphSpec spec = parse_text(
      "bad :: run bad!\n"
      "child after=bad :: run child\n");
  OrderRecorder recorder;
  FunctionExecutor executor(recorder.task(), 2);
  Options options;
  options.jobs = 2;
  options.joblog_path = joblog;
  std::ostringstream out, err;
  {
    Engine engine(options, executor, out, err);
    GraphSource source(spec);
    EXPECT_EQ(engine.run_source("", source).dep_skipped, 1u);
  }
  options.resume = true;
  Engine engine(options, executor, out, err);
  GraphSource source(spec);
  RunSummary summary = engine.run_source("", source);
  EXPECT_EQ(summary.skipped, 2u);
  EXPECT_EQ(summary.total, 2u);
  ASSERT_EQ(summary.results.size(), 2u);
  EXPECT_EQ(summary.results[1].seq, 2u);
  EXPECT_EQ(summary.results[1].status, JobStatus::kSkipped);
}

TEST(EngineDag, StageCapsBoundConcurrency) {
  std::atomic<int> fetch_inflight{0};
  std::atomic<int> fetch_peak{0};
  auto task = [&](const ExecRequest& request) {
    bool fetch = request.command.find("fetch") != std::string::npos;
    if (fetch) {
      int now = ++fetch_inflight;
      int peak = fetch_peak.load();
      while (now > peak && !fetch_peak.compare_exchange_weak(peak, now)) {
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    if (fetch) --fetch_inflight;
    return TaskOutcome{};
  };
  FunctionExecutor executor(task, 8);
  Options options;
  options.jobs = 8;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  std::string graph = "stage fetch jobs=2\nstage work\n";
  for (int i = 0; i < 6; ++i) {
    std::string n = std::to_string(i);
    graph += "f" + n + " stage=fetch :: fetch f" + n + "\n";
    graph += "w" + n + " after=f" + n + " stage=work :: work w" + n + "\n";
  }
  GraphSource source(parse_text(graph));
  RunSummary summary = engine.run_source("", source);
  EXPECT_EQ(summary.succeeded, 12u);
  EXPECT_LE(fetch_peak.load(), 2);
}

// A chain halted by its first failure skips the rest of its input: every
// job that never ran counts once, and the joblog holds the two that ran.
TEST(EngineDag, HaltedChainSkipsEachUnreadJobOnce) {
  const std::string joblog = temp_path("halted_chain");
  auto task = [](const ExecRequest& request) {
    TaskOutcome outcome;
    if (request.command.rfind("second", 0) == 0) outcome.exit_code = 4;
    return outcome;
  };
  FunctionExecutor executor(task, 1);
  Options options;
  options.jobs = 1;
  options.halt = HaltPolicy::parse("now,fail=1");
  options.joblog_path = joblog;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  constexpr std::size_t kItems = 500;
  std::size_t pulled = 0;
  FunctionSource upstream([&]() -> std::optional<JobInput> {
    if (pulled >= kItems) return std::nullopt;
    JobInput job;
    job.args = {std::to_string(pulled++)};
    return job;
  });
  StageChainSource chain(upstream, two_stages(/*barrier=*/false));
  RunSummary summary = engine.run_source("", chain);
  EXPECT_TRUE(summary.halted);
  // Item 0's first stage, then item 1's (pulled ahead while item 0 ran),
  // then item 0's second stage, which fails.
  EXPECT_EQ(summary.succeeded, 2u);
  EXPECT_EQ(summary.failed, 1u);
  EXPECT_EQ(summary.skipped, 2 * kItems - 3);
  EXPECT_EQ(summary.dep_skipped, 0u);
  EXPECT_EQ(summary.total, 2 * kItems);
  EXPECT_EQ(summary.exit_status(), 4);
  EXPECT_EQ(pulled, kItems);
  std::vector<JoblogRow> rows = read_joblog(joblog);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].seq, 1u);
  EXPECT_EQ(rows[1].seq, 3u);
  EXPECT_EQ(rows[2].seq, 2u);
  EXPECT_EQ(rows[2].exitval, 4);
}

TEST(EngineDag, KeepOrderOutputFollowsDeclarationOrder) {
  OrderRecorder recorder;
  FunctionExecutor executor(recorder.task(), 8);
  Options options;
  options.jobs = 8;
  options.output_mode = OutputMode::kKeepOrder;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  // sink is declared FIRST (seq 1) but runs last; -k output must still be
  // in declaration order, so sink's line leads.
  GraphSource source(parse_text(
      "sink after=p1,p2,p3 :: run sink\n"
      "p1 :: run p1\n"
      "p2 :: run p2\n"
      "p3 :: run p3\n"));
  RunSummary summary = engine.run_source("", source);
  EXPECT_EQ(summary.succeeded, 4u);
  EXPECT_EQ(out.str(), "sink\np1\np2\np3\n");
}

}  // namespace
}  // namespace parcl::core
