// Service mode, socket-free: FairShareQueue, IntakeJournal, and ServerCore
// driven directly — deterministic admission, fair-share, crash-replay, and
// orphan-policy coverage (the wire protocol rides cli_integration_test).
#include "core/server.hpp"

#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/cli.hpp"
#include "core/client.hpp"
#include "core/joblog.hpp"
#include "core/scheduler.hpp"
#include "core/signal_coordinator.hpp"
#include "exec/function_executor.hpp"
#include "exec/local_executor.hpp"
#include "util/error.hpp"
#include "util/net.hpp"

namespace parcl::core {
namespace {

using exec::transport::RejectCode;

// ---------------------------------------------------------------------------
// FairShareQueue
// ---------------------------------------------------------------------------

TEST(FairShareQueue, SingleTenantIsFifo) {
  FairShareQueue queue;
  queue.attach("a", 1.0);
  for (std::uint64_t id = 1; id <= 5; ++id) queue.push("a", id);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    auto popped = queue.pop();
    ASSERT_TRUE(popped.has_value());
    EXPECT_EQ(popped->tenant, "a");
    EXPECT_EQ(popped->id, id);
  }
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(FairShareQueue, WeightsDivideServiceProportionally) {
  FairShareQueue queue;
  queue.attach("heavy", 2.0);
  queue.attach("light", 1.0);
  for (std::uint64_t i = 1; i <= 30; ++i) {
    queue.push("heavy", 100 + i);
    queue.push("light", 200 + i);
  }
  std::map<std::string, int> first12;
  for (int i = 0; i < 12; ++i) {
    auto popped = queue.pop();
    ASSERT_TRUE(popped.has_value());
    ++first12[popped->tenant];
  }
  // Deficit round-robin: every full cycle serves 2 heavy + 1 light.
  EXPECT_EQ(first12["heavy"], 8);
  EXPECT_EQ(first12["light"], 4);
}

TEST(FairShareQueue, IdleTenantDoesNotHoardCredit) {
  FairShareQueue queue;
  queue.attach("a", 1.0);
  queue.attach("b", 1.0);
  // b sits idle while a is served many times; credit must not accumulate.
  for (std::uint64_t i = 1; i <= 6; ++i) queue.push("a", i);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(queue.pop().has_value());
  for (std::uint64_t i = 1; i <= 4; ++i) queue.push("b", 100 + i);
  // From here service alternates — b gets no catch-up burst.
  std::vector<std::string> order;
  while (auto popped = queue.pop()) order.push_back(popped->tenant);
  ASSERT_EQ(order.size(), 6u);
  int longest_b_run = 0, run = 0;
  for (const std::string& t : order) {
    run = (t == "b") ? run + 1 : 0;
    longest_b_run = std::max(longest_b_run, run);
  }
  EXPECT_LE(longest_b_run, 2);
}

TEST(FairShareQueue, DetachReturnsQueuedIdsAndKeepsOthersServable) {
  FairShareQueue queue;
  queue.attach("a", 1.0);
  queue.attach("b", 1.0);
  queue.push("a", 1);
  queue.push("a", 2);
  queue.push("b", 3);
  std::vector<std::uint64_t> dropped = queue.detach("a");
  EXPECT_EQ(dropped, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(queue.total_queued(), 1u);
  auto popped = queue.pop();
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(popped->id, 3u);
  EXPECT_FALSE(queue.attached("a"));
}

TEST(FairShareQueue, RejectsNonPositiveWeight) {
  FairShareQueue queue;
  EXPECT_THROW(queue.attach("a", 0.0), util::Error);
  EXPECT_THROW(queue.attach("a", -1.0), util::Error);
}

// ---------------------------------------------------------------------------
// IntakeJournal
// ---------------------------------------------------------------------------

class IntakeJournalTest : public ::testing::Test {
 protected:
  std::string path() {
    return ::testing::TempDir() + "intake_" + std::to_string(getpid()) + "_" +
           std::to_string(counter_) + ".journal";
  }
  void SetUp() override { ++counter_; std::remove(path().c_str()); }
  void TearDown() override { std::remove(path().c_str()); }
  static int counter_;
};
int IntakeJournalTest::counter_ = 0;

TEST_F(IntakeJournalTest, RoundTripsArbitraryBytes) {
  IntakeRecord record;
  record.intake_id = 7;
  record.tenant = "alice";
  record.client_seq = 3;
  record.command = "printf 'a\tb\nc' \\\\ end";
  record.has_stdin = true;
  record.stdin_data = std::string("line1\nline2\tmid\\slash\n", 22);
  {
    IntakeJournal journal(path());
    journal.append_accept(record);
  }
  std::vector<IntakeRecord> replayed = IntakeJournal::scan(path()).pending;
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].intake_id, 7u);
  EXPECT_EQ(replayed[0].tenant, "alice");
  EXPECT_EQ(replayed[0].client_seq, 3u);
  EXPECT_EQ(replayed[0].command, record.command);
  EXPECT_TRUE(replayed[0].has_stdin);
  EXPECT_EQ(replayed[0].stdin_data, record.stdin_data);
}

TEST_F(IntakeJournalTest, FsyncFailureThrowsSoNoAckGoesOut) {
  // fsync on /dev/null fails with EINVAL: with fsync_each, neither append
  // may return as if its record were durable.
  IntakeJournal journal("/dev/null", /*fsync_each=*/true);
  IntakeRecord record;
  record.intake_id = 1;
  record.tenant = "t";
  record.command = "true";
  EXPECT_THROW(journal.append_accept(record), util::SystemError);
  EXPECT_THROW(journal.append_cancel(1), util::SystemError);
}

TEST_F(IntakeJournalTest, CancelRecordsFoldOut) {
  {
    IntakeJournal journal(path());
    for (std::uint64_t id : {1, 2, 3}) {
      IntakeRecord record;
      record.intake_id = id;
      record.tenant = "t";
      record.command = "true";
      journal.append_accept(record);
    }
    journal.append_cancel(2);
  }
  std::vector<IntakeRecord> replayed = IntakeJournal::scan(path()).pending;
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].intake_id, 1u);
  EXPECT_EQ(replayed[1].intake_id, 3u);
  EXPECT_EQ(IntakeJournal::scan(path()).max_intake_id, 3u);
}

TEST_F(IntakeJournalTest, TornTailIsDroppedOnReplayAndTrimmedOnReopen) {
  {
    IntakeJournal journal(path());
    IntakeRecord record;
    record.intake_id = 1;
    record.tenant = "t";
    record.command = "true";
    journal.append_accept(record);
  }
  {
    // A SIGKILL mid-write can only tear the final, never-acked line.
    std::ofstream torn(path(), std::ios::app | std::ios::binary);
    torn << "A\t2\tt\t9\t0\ttruncated-in-fli";
  }
  std::vector<IntakeRecord> replayed = IntakeJournal::scan(path()).pending;
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].intake_id, 1u);
  {
    // Reopen repairs the tail so the next append starts a clean line.
    IntakeJournal journal(path());
    IntakeRecord record;
    record.intake_id = 3;
    record.tenant = "t";
    record.command = "echo after-crash";
    journal.append_accept(record);
  }
  replayed = IntakeJournal::scan(path()).pending;
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[1].intake_id, 3u);
  EXPECT_EQ(replayed[1].command, "echo after-crash");
}

// The records as they were built from a chain of temporary strings: the
// golden reference for append_accept and append_cancel.
std::string concatenated_escape(const std::string& raw) {
  std::string out;
  for (char c : raw) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string concatenated_accept(const IntakeRecord& record) {
  return "A\t" + std::to_string(record.intake_id) + "\t" + record.tenant + "\t" +
         std::to_string(record.client_seq) + "\t" + (record.has_stdin ? "1" : "0") +
         "\t" + concatenated_escape(record.command) + "\t" +
         concatenated_escape(record.stdin_data) + "\n";
}

TEST_F(IntakeJournalTest, RecordsMatchTheConcatenatedFormByteForByte) {
  std::vector<IntakeRecord> records(5);
  records[0].intake_id = 1;
  records[0].tenant = "t";
  records[0].client_seq = 1;
  records[0].command = "/bin/echo plain";
  records[1].intake_id = 1000000000000000ull;
  records[1].tenant = "tenant-with.dots_and-dashes";
  records[1].client_seq = 18446744073709551615ull;
  records[1].command = "printf 'a\tb\nc' \\\\ end\\";
  records[1].has_stdin = true;
  records[1].stdin_data = std::string("\\\\\t\t\n\nbin\0ary\n", 14);
  records[2].intake_id = 3;
  records[2].tenant = "t";
  records[2].command = "";
  records[2].has_stdin = true;  // stdin that is empty but present
  records[3].intake_id = 4;
  records[3].tenant = "t";
  records[3].command = std::string(70000, 'x') + "\t" + std::string(70000, '\\');
  records[4].intake_id = 5;
  records[4].tenant = "t";
  records[4].command = "\n";
  std::string expected;
  {
    IntakeJournal journal(path());
    for (const IntakeRecord& record : records) {
      journal.append_accept(record);
      expected += concatenated_accept(record);
    }
    for (std::uint64_t id : {std::uint64_t{0}, std::uint64_t{7}, std::uint64_t{1000000000000000ull}}) {
      journal.append_cancel(id);
      expected += "C\t" + std::to_string(id) + "\n";
    }
  }
  std::ifstream in(path(), std::ios::binary);
  std::string written((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_EQ(written, expected);
}

// The id floor a restart takes is the highest id on any record: a journal
// that ends on the cancel of its newest job still reserves that id.
TEST_F(IntakeJournalTest, HighestIdOnACancelRecordIsTheFloor) {
  {
    IntakeJournal journal(path());
    for (std::uint64_t id : {1, 2, 3}) {
      IntakeRecord record;
      record.intake_id = id;
      record.tenant = "t";
      record.command = "true";
      journal.append_accept(record);
    }
    journal.append_cancel(3);
    journal.append_cancel(9);  // no accept of its own in this file
  }
  JournalReplay replay = IntakeJournal::scan(path(), /*finished=*/{1});
  EXPECT_EQ(replay.max_intake_id, 9u);
  ASSERT_EQ(replay.pending.size(), 1u);
  EXPECT_EQ(replay.pending[0].intake_id, 2u);
  EXPECT_EQ(IntakeJournal::scan(path()).max_intake_id, 9u);
}

TEST_F(IntakeJournalTest, MissingFileReplaysEmpty) {
  EXPECT_TRUE(IntakeJournal::scan(path() + ".absent").pending.empty());
  EXPECT_EQ(IntakeJournal::scan(path() + ".absent").max_intake_id, 0u);
}

// ---------------------------------------------------------------------------
// ServerCore
// ---------------------------------------------------------------------------

/// Deterministic synchronous executor: start() computes the result at once
/// (echoing the command), wait_any() releases completions in dispatch
/// order. Makes fair-share order observable end-to-end and lets replay
/// tests model a crash as "destroy the core before stepping".
class InlineExecutor final : public Executor {
 public:
  void start(const ExecRequest& request) override {
    ++starts_[request.command];
    ExecResult result;
    result.job_id = request.job_id;
    result.start_time = clock_;
    result.end_time = clock_ += 0.001;
    if (killed_.count(request.job_id)) {
      result.term_signal = 15;
    } else if (request.command.rfind("fail", 0) == 0) {
      result.exit_code = 9;
    } else {
      result.stdout_data = "out:" + request.command + "\n";
    }
    done_.push_back(result);
  }
  std::optional<ExecResult> wait_any(double) override {
    if (hold_ || done_.empty() || release_budget_ == 0) return std::nullopt;
    if (release_budget_ > 0) --release_budget_;
    ExecResult result = done_.front();
    done_.pop_front();
    if (killed_.count(result.job_id)) result.term_signal = 15;
    return result;
  }
  void kill(std::uint64_t job_id, bool) override { killed_.insert(job_id); }
  std::size_t active_count() const override { return done_.size(); }
  double now() const override { return clock_; }
  ResourcePressure pressure() const override { return pressure_; }
  void advance(double seconds) { clock_ += seconds; }

  ResourcePressure pressure_;
  /// While set, started jobs stay "running" (wait_any yields nothing) —
  /// lets tests freeze the world between dispatch and completion.
  bool hold_ = false;
  /// Completions wait_any may still release (-1 = unlimited) — lets tests
  /// stop a run at an exact point of partial progress.
  int release_budget_ = -1;
  std::map<std::string, int> starts_;  // attempts started, per command

 private:
  std::deque<ExecResult> done_;
  std::set<std::uint64_t> killed_;
  double clock_ = 1.0;
};

class ServerCoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "server_core_" + std::to_string(getpid()) +
           "_" + std::to_string(counter_++);
    mkdir(dir_.c_str(), 0755);
  }
  void TearDown() override {
    // Tests create a handful of known files; remove what exists.
    for (const std::string& name :
         {std::string("intake.journal"), std::string("ledger.joblog")}) {
      std::remove((dir_ + "/" + name).c_str());
    }
    for (const std::string& tenant : {"default", "alice", "bob", "mallory"}) {
      std::remove(ServerCore::tenant_joblog_path(dir_, tenant).c_str());
    }
    rmdir(dir_.c_str());
  }

  ServerConfig config(std::size_t slots = 2) {
    ServerConfig config;
    config.state_dir = dir_;
    config.slots = slots;
    return config;
  }

  static void drain(ServerCore& core) {
    while (!core.idle()) core.step(0.0);
  }

  /// Starts one job under --retries 3, kills it with `kill`, and checks it
  /// ran once and was ledgered once.
  template <typename KillFn>
  void expect_final_kill(KillFn kill) {
    InlineExecutor executor;
    ServerConfig cfg = config(/*slots=*/1);
    cfg.orphans = OrphanPolicy::kCancel;
    cfg.options.retries = 3;
    ServerCore core(cfg, executor);
    ASSERT_TRUE(core.attach_tenant("alice").accepted);
    ASSERT_TRUE(core.submit("alice", 1, "sleepish").accepted);
    executor.hold_ = true;
    core.step(0.0);
    ASSERT_EQ(core.running_count(), 1u);
    kill(core);
    executor.hold_ = false;
    drain(core);
    EXPECT_EQ(executor.starts_["sleepish"], 1);
    EXPECT_EQ(core.stats().completed, 1u);
    EXPECT_EQ(joblog_rows(ServerCore::ledger_path(dir_)), 1u);
  }

  /// Data rows in a joblog (the header excluded).
  static std::size_t joblog_rows(const std::string& path) {
    std::ifstream in(path);
    std::size_t rows = 0;
    for (std::string line; std::getline(in, line);) {
      if (!line.empty() && line.rfind("Seq\t", 0) != 0) ++rows;
    }
    return rows;
  }

  std::string dir_;
  static int counter_;
};
int ServerCoreTest::counter_ = 0;

TEST_F(ServerCoreTest, AcceptsRunsAndLedgersExactlyOnce) {
  InlineExecutor executor;
  ServerCore core(config(), executor);
  ASSERT_TRUE(core.attach_tenant("alice").accepted);
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    Admission admission = core.submit("alice", seq, "echo " + std::to_string(seq));
    ASSERT_TRUE(admission.accepted);
    EXPECT_EQ(admission.intake_id, seq);
  }
  drain(core);

  std::vector<TenantEvent> events = core.take_events();
  ASSERT_EQ(events.size(), 3u);
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    EXPECT_EQ(events[seq - 1].tenant, "alice");
    EXPECT_EQ(events[seq - 1].result.seq, seq);  // client seq, not intake id
    EXPECT_EQ(events[seq - 1].result.stdout_data,
              "out:echo " + std::to_string(seq) + "\n");
  }
  EXPECT_EQ(core.stats().accepted, 3u);
  EXPECT_EQ(core.stats().completed, 3u);
  EXPECT_EQ(core.stats().served_by_tenant.at("alice"), 3u);
  EXPECT_TRUE(ServerCore::replay_state(dir_).pending.empty());

  // Ledger rows subtract from replay; tenant joblog is the delivery copy.
  EXPECT_EQ(read_resume_skip_set(ServerCore::ledger_path(dir_), false).size(), 3u);
  EXPECT_EQ(read_resume_skip_set(ServerCore::tenant_joblog_path(dir_, "alice"),
                                 false)
                .size(),
            3u);
}

TEST_F(ServerCoreTest, JournalWriteHappensBeforeAcceptReturns) {
  InlineExecutor executor;
  ServerCore core(config(), executor);
  ASSERT_TRUE(core.attach_tenant("alice").accepted);
  Admission admission = core.submit("alice", 1, "echo hi");
  ASSERT_TRUE(admission.accepted);
  // No step() yet — the record must already be durable.
  std::vector<IntakeRecord> journaled =
      IntakeJournal::scan(ServerCore::journal_path(dir_)).pending;
  ASSERT_EQ(journaled.size(), 1u);
  EXPECT_EQ(journaled[0].intake_id, admission.intake_id);
  EXPECT_EQ(journaled[0].command, "echo hi");
}

TEST_F(ServerCoreTest, SubmitRequiresAttachedTenant) {
  InlineExecutor executor;
  ServerCore core(config(), executor);
  Admission admission = core.submit("ghost", 1, "true");
  EXPECT_FALSE(admission.accepted);
  EXPECT_EQ(admission.code, RejectCode::kBadRequest);
}

TEST_F(ServerCoreTest, ValidatesTenantNamesAndWeightsAtAttach) {
  InlineExecutor executor;
  ServerCore core(config(), executor);
  EXPECT_FALSE(core.attach_tenant("../escape").accepted);
  EXPECT_FALSE(core.attach_tenant("").accepted);
  EXPECT_FALSE(core.attach_tenant(".hidden").accepted);
  EXPECT_FALSE(core.attach_tenant("sp ace").accepted);
  EXPECT_FALSE(core.attach_tenant(std::string(65, 'x')).accepted);
  EXPECT_FALSE(core.attach_tenant("alice", 0.0).accepted);
  EXPECT_FALSE(core.attach_tenant("alice", -2.0).accepted);
  EXPECT_TRUE(core.attach_tenant("A-ok_1.2").accepted);
  EXPECT_TRUE(ServerCore::valid_tenant_name("a"));
  EXPECT_FALSE(ServerCore::valid_tenant_name("a/b"));
}

TEST_F(ServerCoreTest, RejectsOversizedAndEmptyCommands) {
  InlineExecutor executor;
  ServerConfig cfg = config();
  cfg.limits.max_command_bytes = 16;
  ServerCore core(cfg, executor);
  ASSERT_TRUE(core.attach_tenant("alice").accepted);
  EXPECT_EQ(core.submit("alice", 1, "").code, RejectCode::kBadRequest);
  EXPECT_EQ(core.submit("alice", 2, std::string(17, 'x')).code,
            RejectCode::kBadRequest);
  EXPECT_TRUE(core.submit("alice", 3, "true").accepted);
}

TEST_F(ServerCoreTest, BoundsPerTenantAndGlobalQueues) {
  InlineExecutor executor;
  ServerConfig cfg = config(/*slots=*/1);
  cfg.limits.max_queue_per_tenant = 2;
  cfg.limits.max_queue_global = 3;
  ServerCore core(cfg, executor);
  ASSERT_TRUE(core.attach_tenant("alice").accepted);
  ASSERT_TRUE(core.attach_tenant("bob").accepted);

  ASSERT_TRUE(core.submit("alice", 1, "true").accepted);
  ASSERT_TRUE(core.submit("alice", 2, "true").accepted);
  Admission third = core.submit("alice", 3, "true");
  EXPECT_FALSE(third.accepted);
  EXPECT_EQ(third.code, RejectCode::kQueueFull);
  EXPECT_GT(third.retry_after, 0.0);

  ASSERT_TRUE(core.submit("bob", 1, "true").accepted);
  Admission fourth = core.submit("bob", 2, "true");
  EXPECT_FALSE(fourth.accepted);
  EXPECT_EQ(fourth.code, RejectCode::kServerFull);
  EXPECT_EQ(core.stats().rejected_queue_full, 1u);
  EXPECT_EQ(core.stats().rejected_server_full, 1u);
}

TEST_F(ServerCoreTest, PressureGateRejectsAtAdmissionEdge) {
  InlineExecutor executor;
  executor.pressure_.mem_free_bytes = 1000.0;
  ServerConfig cfg = config();
  cfg.options.memfree_bytes = 1 << 20;  // needs 1 MiB free; only 1000 B free
  ServerCore core(cfg, executor);
  ASSERT_TRUE(core.attach_tenant("alice").accepted);
  Admission admission = core.submit("alice", 1, "true");
  EXPECT_FALSE(admission.accepted);
  EXPECT_EQ(admission.code, RejectCode::kPressure);
  EXPECT_GT(admission.retry_after, 0.0);
  // Pressure rejects are the server's fault — never eviction strikes.
  EXPECT_FALSE(core.tenant_evicted("alice"));
}

// The admission probe is the loop's dispatch probe: an accepted job waits
// in the queue while pressure is high and starts once it clears.
TEST_F(ServerCoreTest, PressureDefersQueuedJobsUntilItClears) {
  InlineExecutor executor;
  ServerConfig cfg = config();
  cfg.options.memfree_bytes = 1 << 20;
  ServerCore core(cfg, executor);
  ASSERT_TRUE(core.attach_tenant("alice").accepted);
  ASSERT_TRUE(core.submit("alice", 1, "echo late").accepted);
  executor.pressure_.mem_free_bytes = 1000.0;
  executor.advance(Scheduler::kPressureRecheck);  // past the probe's cache
  core.step(0.0);
  EXPECT_EQ(core.running_count(), 0u);
  EXPECT_EQ(core.queued_count(), 1u);
  EXPECT_TRUE(core.take_events().empty());

  executor.pressure_.mem_free_bytes = -1.0;  // unknown: no longer gated
  executor.advance(Scheduler::kPressureRecheck);
  drain(core);
  std::vector<TenantEvent> events = core.take_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].result.stdout_data, "out:echo late\n");
}

TEST_F(ServerCoreTest, FloodingTenantIsEvictedOthersUnaffected) {
  InlineExecutor executor;
  ServerConfig cfg = config(/*slots=*/1);
  cfg.limits.max_queue_per_tenant = 1;
  cfg.limits.evict_after_strikes = 3;
  ServerCore core(cfg, executor);
  ASSERT_TRUE(core.attach_tenant("mallory").accepted);
  ASSERT_TRUE(core.attach_tenant("alice").accepted);
  ASSERT_TRUE(core.submit("mallory", 1, "true").accepted);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(core.submit("mallory", 2 + i, "true").code, RejectCode::kQueueFull);
  }
  EXPECT_TRUE(core.tenant_evicted("mallory"));
  EXPECT_EQ(core.stats().evictions, 1u);
  EXPECT_EQ(core.submit("mallory", 9, "true").code, RejectCode::kEvicted);
  EXPECT_FALSE(core.attach_tenant("mallory").accepted);
  // The neighbour keeps working, and mallory's already-accepted job runs.
  EXPECT_TRUE(core.submit("alice", 1, "true").accepted);
  drain(core);
  EXPECT_EQ(core.stats().completed, 2u);
}

TEST_F(ServerCoreTest, AcceptResetsFloodStrikes) {
  InlineExecutor executor;
  ServerConfig cfg = config(/*slots=*/1);
  cfg.limits.max_queue_per_tenant = 1;
  cfg.limits.evict_after_strikes = 3;
  ServerCore core(cfg, executor);
  ASSERT_TRUE(core.attach_tenant("alice").accepted);
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(core.submit("alice", round * 10, "true").accepted);
    // Two strikes, then drain the queue — the accept resets the count.
    EXPECT_FALSE(core.submit("alice", round * 10 + 1, "true").accepted);
    EXPECT_FALSE(core.submit("alice", round * 10 + 2, "true").accepted);
    drain(core);
  }
  EXPECT_FALSE(core.tenant_evicted("alice"));
}

TEST_F(ServerCoreTest, FairShareFollowsWeightsOnOneSlot) {
  InlineExecutor executor;
  ServerCore core(config(/*slots=*/1), executor);
  ASSERT_TRUE(core.attach_tenant("alice", 2.0).accepted);
  ASSERT_TRUE(core.attach_tenant("bob", 1.0).accepted);
  for (std::uint64_t seq = 1; seq <= 6; ++seq) {
    ASSERT_TRUE(core.submit("alice", seq, "true").accepted);
    ASSERT_TRUE(core.submit("bob", seq, "true").accepted);
  }
  drain(core);
  std::vector<TenantEvent> events = core.take_events();
  ASSERT_EQ(events.size(), 12u);
  // One slot + a synchronous executor make dispatch order the event order:
  // each DRR cycle is alice, alice, bob.
  std::map<std::string, int> first9;
  for (int i = 0; i < 9; ++i) ++first9[events[i].tenant];
  EXPECT_EQ(first9["alice"], 6);
  EXPECT_EQ(first9["bob"], 3);
  EXPECT_EQ(core.stats().served_by_tenant.at("alice"), 6u);
  EXPECT_EQ(core.stats().served_by_tenant.at("bob"), 6u);
  EXPECT_EQ(core.stats().queue_latency_seconds.size(), 12u);
}

TEST_F(ServerCoreTest, CrashBeforeDispatchReplaysEverythingAcked) {
  InlineExecutor executor;
  {
    ServerCore core(config(), executor);
    ASSERT_TRUE(core.attach_tenant("alice").accepted);
    for (std::uint64_t seq = 1; seq <= 5; ++seq) {
      ASSERT_TRUE(core.submit("alice", seq, "echo " + std::to_string(seq)).accepted);
    }
    // kill -9 here: the core is destroyed without ever stepping.
  }
  std::vector<IntakeRecord> pending = ServerCore::replay_state(dir_).pending;
  ASSERT_EQ(pending.size(), 5u);

  InlineExecutor executor2;
  ServerCore restarted(config(), executor2);
  EXPECT_EQ(restarted.stats().replayed, 5u);
  EXPECT_EQ(restarted.queued_count(), 5u);
  drain(restarted);
  EXPECT_EQ(restarted.stats().completed, 5u);
  EXPECT_TRUE(ServerCore::replay_state(dir_).pending.empty());

  // Intake ids never repeat across restarts.
  ASSERT_TRUE(restarted.attach_tenant("alice").accepted);
  Admission fresh = restarted.submit("alice", 6, "true");
  ASSERT_TRUE(fresh.accepted);
  EXPECT_EQ(fresh.intake_id, 6u);

  // A third incarnation sees a clean slate (minus the just-accepted job).
  std::vector<TenantEvent> events = restarted.take_events();
  ASSERT_EQ(events.size(), 5u);
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    EXPECT_EQ(events[seq - 1].result.seq, seq);
  }
}

TEST_F(ServerCoreTest, PartialCompletionReplaysOnlyTheRemainder) {
  InlineExecutor executor;
  {
    ServerCore core(config(/*slots=*/2), executor);
    ASSERT_TRUE(core.attach_tenant("alice").accepted);
    for (std::uint64_t seq = 1; seq <= 6; ++seq) {
      ASSERT_TRUE(core.submit("alice", seq, "true").accepted);
    }
    // Exactly two completions land in the ledger; the rest (some running,
    // some queued) die with the "process".
    executor.release_budget_ = 2;
    core.step(0.0);
    ASSERT_EQ(core.stats().completed, 2u);
  }
  std::vector<IntakeRecord> pending = ServerCore::replay_state(dir_).pending;
  std::set<std::uint64_t> ledgered =
      read_resume_skip_set(ServerCore::ledger_path(dir_), false);
  EXPECT_EQ(pending.size() + ledgered.size(), 6u);
  for (const IntakeRecord& record : pending) {
    EXPECT_FALSE(ledgered.count(record.intake_id))
        << "job " << record.intake_id << " would run twice";
  }
}

TEST_F(ServerCoreTest, DrainStopsAdmissionAndCheckpointsQueue) {
  InlineExecutor executor;
  ServerCore core(config(/*slots=*/1), executor);
  ASSERT_TRUE(core.attach_tenant("alice").accepted);
  for (std::uint64_t seq = 1; seq <= 4; ++seq) {
    ASSERT_TRUE(core.submit("alice", seq, "true").accepted);
  }
  core.begin_drain();
  EXPECT_TRUE(core.draining());
  Admission refused = core.submit("alice", 9, "true");
  EXPECT_FALSE(refused.accepted);
  EXPECT_EQ(refused.code, RejectCode::kDraining);
  // Nothing was running, so nothing dispatches during drain; all four stay
  // journaled as the restart checkpoint.
  core.step(0.0);
  EXPECT_EQ(core.running_count(), 0u);
  EXPECT_EQ(core.queued_count(), 4u);
  EXPECT_EQ(ServerCore::replay_state(dir_).pending.size(), 4u);
  EXPECT_FALSE(core.attach_tenant("bob").accepted);
}

TEST_F(ServerCoreTest, OrphanCancelDropsQueuedAndKillsRunning) {
  InlineExecutor executor;
  ServerConfig cfg = config(/*slots=*/1);
  cfg.orphans = OrphanPolicy::kCancel;
  ServerCore core(cfg, executor);
  ASSERT_TRUE(core.attach_tenant("alice").accepted);
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    ASSERT_TRUE(core.submit("alice", seq, "sleepish").accepted);
  }
  // Freeze completions so exactly one job occupies the slot while the
  // other two sit queued when the client vanishes.
  executor.hold_ = true;
  core.step(0.0);
  EXPECT_EQ(core.running_count(), 1u);
  EXPECT_EQ(core.queued_count(), 2u);
  core.detach_tenant("alice", /*orphaned=*/true);
  EXPECT_EQ(core.stats().cancelled, 2u);
  executor.hold_ = false;
  drain(core);
  // The killed running job still ledgered exactly once; cancels journaled.
  EXPECT_TRUE(ServerCore::replay_state(dir_).pending.empty());
  EXPECT_EQ(core.stats().completed, 1u);
}

TEST_F(ServerCoreTest, CleanByeKeepsPendingJobsEvenUnderCancelPolicy) {
  InlineExecutor executor;
  ServerConfig cfg = config(/*slots=*/1);
  cfg.orphans = OrphanPolicy::kCancel;
  ServerCore core(cfg, executor);
  ASSERT_TRUE(core.attach_tenant("alice").accepted);
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    ASSERT_TRUE(core.submit("alice", seq, "true").accepted);
  }
  core.detach_tenant("alice", /*orphaned=*/false);  // explicit BYE
  EXPECT_EQ(core.stats().cancelled, 0u);
  drain(core);
  EXPECT_EQ(core.stats().completed, 3u);
}

TEST_F(ServerCoreTest, ReplayedJobsRunWithoutTheirClient) {
  InlineExecutor executor;
  {
    ServerCore core(config(), executor);
    ASSERT_TRUE(core.attach_tenant("alice").accepted);
    ASSERT_TRUE(core.submit("alice", 1, "true").accepted);
  }
  InlineExecutor executor2;
  ServerCore restarted(config(), executor2);
  // alice never reconnects; the journal promise holds regardless.
  EXPECT_FALSE(restarted.tenant_connected("alice"));
  drain(restarted);
  EXPECT_EQ(restarted.stats().completed, 1u);
}

// Service jobs run through the engine's loop, so its policies apply to
// them: a failing job is retried, and only its final attempt is recorded.
TEST_F(ServerCoreTest, RetriesRerunAFailingJobAndLedgerItOnce) {
  InlineExecutor executor;
  ServerConfig cfg = config();
  cfg.options.retries = 2;
  ServerCore core(cfg, executor);
  ASSERT_TRUE(core.attach_tenant("alice").accepted);
  ASSERT_TRUE(core.submit("alice", 1, "fail always").accepted);
  drain(core);
  EXPECT_EQ(executor.starts_["fail always"], 2);
  std::vector<TenantEvent> events = core.take_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].result.attempts, 2u);
  EXPECT_EQ(events[0].result.exit_code, 9);
  EXPECT_EQ(joblog_rows(ServerCore::ledger_path(dir_)), 1u);
  EXPECT_EQ(joblog_rows(ServerCore::tenant_joblog_path(dir_, "alice")), 1u);
}

TEST_F(ServerCoreTest, TimeoutKillsAServiceJobAndLedgersItsSignal) {
  exec::LocalExecutor executor;
  ServerConfig cfg = config();
  cfg.options.timeout_seconds = 0.2;
  ServerCore core(cfg, executor);
  ASSERT_TRUE(core.attach_tenant("alice").accepted);
  ASSERT_TRUE(core.submit("alice", 1, "sleep 30").accepted);
  while (!core.idle()) core.step(0.05);
  std::vector<TenantEvent> events = core.take_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].result.status, JobStatus::kTimedOut);
  EXPECT_EQ(events[0].result.term_signal, SIGTERM);
  EXPECT_LT(events[0].result.runtime(), 5.0);
  std::vector<JoblogEntry> ledger = read_joblog(ServerCore::ledger_path(dir_));
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger[0].signal, SIGTERM);
}

// A restart whose journal ends on the cancel of its newest job, with every
// other job ledgered, requeues nothing and never hands that id out again.
TEST_F(ServerCoreTest, RestartSkipsTheCancelledHighestId) {
  InlineExecutor executor;
  {
    ServerConfig cfg = config(/*slots=*/1);
    cfg.orphans = OrphanPolicy::kCancel;
    ServerCore core(cfg, executor);
    ASSERT_TRUE(core.attach_tenant("alice").accepted);
    ASSERT_TRUE(core.submit("alice", 1, "true").accepted);
    ASSERT_TRUE(core.submit("alice", 2, "true").accepted);
    drain(core);
    ASSERT_TRUE(core.submit("alice", 3, "true").accepted);
    core.detach_tenant("alice", /*orphaned=*/true);  // cancels id 3, queued
    ASSERT_EQ(core.stats().cancelled, 1u);
  }
  InlineExecutor executor2;
  ServerCore restarted(config(), executor2);
  EXPECT_EQ(restarted.stats().replayed, 0u);
  EXPECT_TRUE(ServerCore::replay_state(dir_).pending.empty());
  ASSERT_TRUE(restarted.attach_tenant("alice").accepted);
  Admission admission = restarted.submit("alice", 4, "true");
  ASSERT_TRUE(admission.accepted);
  EXPECT_EQ(admission.intake_id, 4u);
}

// Each step the service makes waits on the executor once: after a reap it
// takes the completions the executor already holds and fills the freed
// slots without an epoll_wait that would come back empty.
TEST_F(ServerCoreTest, StepsWaitOnTheExecutorOnceForEachCompletion) {
  exec::LocalExecutor executor;
  ServerCore core(config(/*slots=*/2), executor);
  ASSERT_TRUE(core.attach_tenant("alice").accepted);
  constexpr std::uint64_t kJobs = 40;
  for (std::uint64_t seq = 1; seq <= kJobs; ++seq) {
    ASSERT_TRUE(core.submit("alice", seq, "/bin/true").accepted);
  }
  while (!core.idle()) core.step(5.0);
  EXPECT_EQ(core.stats().completed, kJobs);
  EXPECT_EQ(core.take_events().size(), kJobs);
  EXPECT_LE(executor.counters().polls, kJobs + 8) << executor.counters().render();
}

// serve() runs the socket loop. A wake that brings a SUBMIT starts the job
// without asking the executor for exits, and a wake from the executor's fd
// reaps without a second epoll_wait that comes back empty. The client sends
// one job per SUBMIT frame and waits for its ack, as an open-loop client
// does, so a loop that reaped on every wake would pay about two waits a job.
TEST_F(ServerCoreTest, ServeWaitsOnTheExecutorOnceForEachCompletion) {
  namespace transport = exec::transport;
  ::signal(SIGPIPE, SIG_IGN);  // the test harness does not ignore it
  exec::LocalExecutor executor;
  ServerCore core(config(/*slots=*/2), executor);
  const std::string socket_path = dir_ + "/parcl.sock";
  std::vector<int> listeners{util::unix_listen(socket_path)};
  util::set_nonblocking(listeners[0]);
  SignalCoordinator signals;
  constexpr std::uint64_t kJobs = 40;
  std::uint64_t acked = 0, results = 0, rejects = 0;
  std::thread client([&] {
    int fd = util::unix_connect(socket_path);
    transport::FrameDecoder decoder;
    auto read_frame = [&]() -> std::optional<transport::Frame> {
      while (true) {
        if (std::optional<transport::Frame> frame = decoder.next()) return frame;
        char buffer[4096];
        ssize_t n = ::read(fd, buffer, sizeof(buffer));
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return std::nullopt;
        decoder.feed(buffer, static_cast<std::size_t>(n));
      }
    };
    auto write_all = [&](const std::string& bytes) {
      for (std::size_t done = 0; done < bytes.size();) {
        ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return;
        done += static_cast<std::size_t>(n);
      }
    };
    auto take = [&](const transport::Frame& frame) {
      if (frame.type == transport::FrameType::kAck) {
        acked += transport::decode_ack(frame).seqs.size();
      } else if (frame.type == transport::FrameType::kResult) {
        ++results;
      } else if (frame.type == transport::FrameType::kReject) {
        ++rejects;
      }
    };
    transport::ClientHelloFrame hello;
    hello.tenant = "alice";
    write_all(transport::encode_client_hello(hello));
    std::optional<transport::Frame> frame = read_frame();  // HELLO_ACK
    for (std::uint64_t seq = 1; seq <= kJobs && frame; ++seq) {
      transport::SubmitFrame submit;
      transport::JobSpec& job = submit.jobs.emplace_back();
      job.seq = seq;
      job.command = "/bin/true";
      write_all(transport::encode_submit(submit));
      while (acked + rejects < seq && (frame = read_frame())) take(*frame);
    }
    while (results + rejects < kJobs && (frame = read_frame())) take(*frame);
    write_all(transport::encode_bye());
    while ((frame = read_frame()) && frame->type != transport::FrameType::kBye) {
    }
    ::close(fd);
    signals.notify(SIGTERM);  // the first signal drains the idle server
  });
  int code = serve(core, executor, std::move(listeners), "", signals);
  client.join();
  ::unlink(socket_path.c_str());
  EXPECT_EQ(code, 0);
  EXPECT_EQ(rejects, 0u);
  EXPECT_EQ(results, kJobs);
  EXPECT_EQ(core.stats().completed, kJobs);
  EXPECT_LE(executor.counters().polls, kJobs + 8) << executor.counters().render();
}

// serve() writes with the transport writer, which raises no SIGPIPE: a
// client that submits and closes at once costs the server that connection,
// not its life. Nothing here parks SIGPIPE at SIG_IGN for the server (a
// LocalExecutor would), and the first connection is closed before serve()
// accepts it, so the HELLO_ACK and ACK writes find its peer gone.
TEST_F(ServerCoreTest, ServeOutlivesAClientThatClosesAtOnce) {
  namespace transport = exec::transport;
  struct sigaction deflt {}, saved {};
  deflt.sa_handler = SIG_DFL;
  ASSERT_EQ(::sigaction(SIGPIPE, &deflt, &saved), 0);
  exec::FunctionExecutor executor(
      [](const ExecRequest& request) {
        exec::TaskOutcome outcome;
        outcome.stdout_data = "ran " + request.command + "\n";
        return outcome;
      },
      2);
  ServerCore core(config(), executor);
  const std::string socket_path = dir_ + "/parcl.sock";
  std::vector<int> listeners{util::unix_listen(socket_path)};
  util::set_nonblocking(listeners[0]);
  auto hello_and_submit = [](const std::string& tenant, const std::string& command) {
    transport::ClientHelloFrame hello;
    hello.tenant = tenant;
    transport::SubmitFrame submit;
    transport::JobSpec& job = submit.jobs.emplace_back();
    job.seq = 1;
    job.command = command;
    return transport::encode_client_hello(hello) + transport::encode_submit(submit);
  };
  int gone = util::unix_connect(socket_path);
  ASSERT_GE(gone, 0);
  ASSERT_TRUE(transport::write_all(gone, hello_and_submit("alice", "first")));
  ::close(gone);

  SignalCoordinator signals;
  std::optional<transport::JobOutput> output;
  std::thread client([&] {
    int fd = util::unix_connect(socket_path);
    transport::write_all(fd, hello_and_submit("bob", "second"));
    transport::FrameDecoder decoder;
    transport::OutputAssembler assembler;
    auto read_frame = [&]() -> std::optional<transport::Frame> {
      while (true) {
        if (std::optional<transport::Frame> frame = decoder.next()) return frame;
        if (transport::read_some(fd, decoder) != transport::ReadStatus::kData) {
          return std::nullopt;
        }
      }
    };
    while (std::optional<transport::Frame> frame = read_frame()) {
      if (frame->type == transport::FrameType::kStdout) {
        assembler.add(frame->type, transport::decode_chunk(*frame));
      } else if (frame->type == transport::FrameType::kResult) {
        output = assembler.take(transport::decode_result(*frame));
        break;
      }
    }
    transport::write_all(fd, transport::encode_bye());
    while (std::optional<transport::Frame> frame = read_frame()) {
      if (frame->type == transport::FrameType::kBye) break;
    }
    ::close(fd);
    signals.notify(SIGTERM);  // the first signal drains the idle server
  });
  int code = serve(core, executor, std::move(listeners), "", signals);
  client.join();
  ::unlink(socket_path.c_str());
  ::sigaction(SIGPIPE, &saved, nullptr);
  EXPECT_EQ(code, 0);
  ASSERT_TRUE(output) << "the second client got no RESULT";
  EXPECT_EQ(output->stdout_data, "ran second\n");
  EXPECT_EQ(core.stats().accepted, 2u);
  EXPECT_EQ(core.stats().completed, 2u) << "the first client's job still ran";
}

// The loop sleeps on the executor's readiness fd: an executor without one
// is refused, and the listeners it was handed are closed.
TEST_F(ServerCoreTest, ServeRefusesAnExecutorWithoutAReadinessFd) {
  InlineExecutor executor;
  ServerCore core(config(), executor);
  SignalCoordinator signals;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  EXPECT_THROW(serve(core, executor, {fds[0]}, "", signals), util::InternalError);
  EXPECT_EQ(::close(fds[0]), -1) << "the listener it was handed is still open";
  ::close(fds[1]);
}

// The socket loop sleeps in epoll_wait on the executor's readiness fd with
// wait_seconds() as its timeout; these two tests pin what that fd and
// wait_seconds() report.
TEST_F(ServerCoreTest, WaitFdPollsReadableWhenAJobExits) {
  exec::LocalExecutor executor;
  ServerCore core(config(), executor);
  ASSERT_TRUE(core.attach_tenant("alice").accepted);
  // Long enough that the step which starts it cannot also reap it.
  ASSERT_TRUE(core.submit("alice", 1, "sleep 0.1").accepted);
  core.step(0.0);
  ASSERT_EQ(core.running_count(), 1u);
  EXPECT_LT(core.wait_seconds(), 0.0) << "no deadline: only the exit wakes the loop";
  pollfd pfd{executor.readiness_fd(), POLLIN, 0};
  ASSERT_GE(pfd.fd, 0);
  ASSERT_EQ(poll(&pfd, 1, 5000), 1);
  core.step(0.0);
  std::vector<TenantEvent> events = core.take_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].result.exit_code, 0);
  EXPECT_EQ(poll(&pfd, 1, 0), 0) << "readable with nothing left to reap";
}

TEST_F(ServerCoreTest, TimeoutSetsTheNextWake) {
  exec::LocalExecutor executor;
  ServerConfig cfg = config();
  cfg.options.timeout_seconds = 0.2;
  ServerCore core(cfg, executor);
  ASSERT_TRUE(core.attach_tenant("alice").accepted);
  ASSERT_TRUE(core.submit("alice", 1, "sleep 5").accepted);
  core.step(0.0);
  ASSERT_EQ(core.running_count(), 1u);
  double wake = core.wait_seconds();
  EXPECT_GT(wake, 0.1);
  EXPECT_LE(wake, 0.2);
  // Sleep that long, as the socket loop does: no exit comes first, and the
  // step after it sends the timeout's SIGTERM.
  pollfd pfd{executor.readiness_fd(), POLLIN, 0};
  EXPECT_EQ(poll(&pfd, 1, static_cast<int>(std::ceil(wake * 1e3))), 0);
  core.step(0.0);
  // The next wake is the SIGKILL escalation 1 s on, not the deadline the
  // pass just fired.
  EXPECT_GT(core.wait_seconds(), 0.5);
  ASSERT_EQ(poll(&pfd, 1, 5000), 1) << "the SIGTERM'd job's exit";
  core.step(0.0);
  std::vector<TenantEvent> events = core.take_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].result.status, JobStatus::kTimedOut);
  EXPECT_EQ(events[0].result.term_signal, SIGTERM);
}

// Kills the service makes on purpose are final: --retries re-runs a job
// that failed, never one the server killed.
TEST_F(ServerCoreTest, OrphanCancelKillIsNeverRetried) {
  expect_final_kill([](ServerCore& core) {
    core.detach_tenant("alice", /*orphaned=*/true);
  });
}

TEST_F(ServerCoreTest, DrainPhaseTwoKillIsNeverRetried) {
  expect_final_kill([](ServerCore& core) {
    core.begin_drain();
    core.kill_running(/*force=*/true);
  });
}

/// Entries in /proc/self/fd: the fds this process holds open (plus the one
/// the listing itself opens, the same on every call).
std::size_t open_fds() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

// A tenant's joblog closes once the tenant is gone and nothing of it is
// pending, whichever comes last; the next row reopens it for appending.
TEST_F(ServerCoreTest, DetachedTenantsHoldNoJoblogOpen) {
  constexpr int kTenants = 50;
  constexpr std::uint64_t kJobs = 3;
  auto name = [](int i) { return "tenant" + std::to_string(i); };
  InlineExecutor executor;
  {
    ServerCore core(config(), executor);
    std::size_t baseline = open_fds();
    for (int i = 0; i < kTenants; ++i) {
      ASSERT_TRUE(core.attach_tenant(name(i)).accepted);
      for (std::uint64_t seq = 1; seq <= kJobs; ++seq) {
        ASSERT_TRUE(core.submit(name(i), seq, "echo " + std::to_string(seq)).accepted);
      }
      // Even tenants leave with their jobs done, odd ones before they run.
      if (i % 2 == 0) drain(core);
      core.detach_tenant(name(i), /*orphaned=*/false);
    }
    drain(core);
    EXPECT_EQ(open_fds(), baseline);
    for (int i = 0; i < kTenants; ++i) {
      EXPECT_EQ(joblog_rows(ServerCore::tenant_joblog_path(dir_, name(i))), kJobs)
          << name(i);
    }

    // A returning tenant appends below its old rows, under the one header.
    ASSERT_TRUE(core.attach_tenant(name(0)).accepted);
    ASSERT_TRUE(core.submit(name(0), kJobs + 1, "echo again").accepted);
    drain(core);
    core.detach_tenant(name(0), /*orphaned=*/false);
    EXPECT_EQ(open_fds(), baseline);
    std::ifstream in(ServerCore::tenant_joblog_path(dir_, name(0)));
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    ASSERT_EQ(lines.size(), kJobs + 2);
    EXPECT_EQ(lines.front().rfind("Seq\t", 0), 0u);
    EXPECT_EQ(lines.back().rfind(std::to_string(kJobs + 1) + "\t", 0), 0u);
  }
  for (int i = 0; i < kTenants; ++i) {
    std::remove(ServerCore::tenant_joblog_path(dir_, name(i)).c_str());
  }
}

// The queue-latency samples keep the last kQueueLatencyWindow jobs served,
// not one sample per job for the server's whole life.
TEST_F(ServerCoreTest, QueueLatencySamplesStayInTheirWindow) {
  constexpr std::size_t kWindow = ServerStats::kQueueLatencyWindow;
  constexpr std::size_t kBatch = 1000;
  constexpr std::size_t kLastBatch = 700;
  InlineExecutor executor;
  ServerCore core(config(), executor);
  ASSERT_TRUE(core.attach_tenant("alice").accepted);
  std::uint64_t seq = 0;
  while (seq < kWindow) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      ASSERT_TRUE(core.submit("alice", ++seq, "true").accepted);
    }
    drain(core);
  }
  EXPECT_EQ(core.stats().queue_latency_seconds.size(), kWindow);

  // The last batch waits 100 s in the queue: its samples replace the
  // oldest ones.
  for (std::size_t i = 0; i < kLastBatch; ++i) {
    ASSERT_TRUE(core.submit("alice", ++seq, "true").accepted);
  }
  executor.advance(100.0);
  drain(core);
  const std::vector<double>& samples = core.stats().queue_latency_seconds;
  EXPECT_EQ(samples.size(), kWindow);
  EXPECT_EQ(std::count_if(samples.begin(), samples.end(),
                          [](double s) { return s >= 100.0; }),
            static_cast<std::ptrdiff_t>(kLastBatch));
  EXPECT_EQ(core.stats().completed, seq);
}

// ---------------------------------------------------------------------------
// ServiceClient collation against a scripted in-process server (the one
// socket-using exception here: the scripted frame order below cannot be
// produced deterministically through the real server + CLI).
// ---------------------------------------------------------------------------

// A permanently rejected job must not wedge keep-order collation: seq 2 is
// rejected without a retry hint while seq 3 completes before seq 1, so the
// client has to emit 1, treat 2 as a gap, and still flush 3.
TEST(ServiceClient, KeepOrderFlushesPastPermanentRejection) {
  namespace transport = exec::transport;
  // The client may close its end before the scripted BYE reply lands; a
  // raw write would then SIGPIPE this process (parcl_main ignores it, the
  // test harness does not).
  ::signal(SIGPIPE, SIG_IGN);
  const std::string path = ::testing::TempDir() + "client_ko_" +
                           std::to_string(getpid()) + ".sock";
  int listener = util::unix_listen(path);
  ASSERT_GE(listener, 0);

  std::thread server([&] {
    int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    transport::FrameDecoder decoder;
    auto read_frame = [&]() -> std::optional<transport::Frame> {
      while (true) {
        if (std::optional<transport::Frame> frame = decoder.next()) return frame;
        char buffer[4096];
        ssize_t n = ::read(fd, buffer, sizeof(buffer));
        if (n <= 0) return std::nullopt;
        decoder.feed(buffer, static_cast<std::size_t>(n));
      }
    };
    auto write_all = [&](const std::string& bytes) {
      std::size_t done = 0;
      while (done < bytes.size()) {
        ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
        if (n < 0) {
          if (errno == EINTR) continue;
          return;
        }
        done += static_cast<std::size_t>(n);
      }
    };
    std::optional<transport::Frame> hello = read_frame();
    EXPECT_TRUE(hello && hello->type == transport::FrameType::kClientHello);
    write_all(transport::encode_hello_ack({}));
    std::optional<transport::Frame> submit = read_frame();
    if (submit) {
      EXPECT_EQ(transport::decode_submit(*submit).jobs.size(), 3u);
    }
    transport::AckFrame ack;
    ack.seqs = {1, 3};
    write_all(transport::encode_ack(ack));
    transport::RejectFrame reject;
    reject.seq = 2;
    reject.code = RejectCode::kBadRequest;
    reject.retry_after = 0.0;  // permanent: no backoff hint
    reject.message = "scripted rejection";
    write_all(transport::encode_reject(reject));
    auto finish_job = [&](std::uint64_t seq, const std::string& line) {
      transport::ChunkFrame chunk;
      chunk.seq = seq;
      chunk.data = line;
      write_all(transport::encode_chunk(transport::FrameType::kStdout, chunk));
      transport::ResultFrame result;
      result.seq = seq;
      result.stdout_chunks = 1;
      write_all(transport::encode_result(result));
    };
    finish_job(3, "third\n");  // completes first — -k must hold it
    finish_job(1, "first\n");
    read_frame();  // client BYE (or EOF)
    write_all(transport::encode_bye());
    ::close(fd);
  });

  RunPlan plan = parse_cli(
      {"--client", "--socket", path, "-k", "echo", "{}", ":::", "a", "b", "c"});
  std::istringstream in;
  std::ostringstream out, err;
  int code = run_client(plan, in, out, err);
  server.join();
  ::close(listener);
  ::unlink(path.c_str());

  // One rejected job = exit 1; both completions flushed in seq order with
  // the rejected seq treated as an output gap, not waited on forever.
  EXPECT_EQ(code, 1);
  EXPECT_EQ(out.str(), "first\nthird\n");
  EXPECT_NE(err.str().find("scripted rejection"), std::string::npos);
}

// What the server sends after HELLO_ACK decides the exit: a payload that
// does not decode, or a RESULT whose chunks never came (the server writes
// them first, on one stream), is a protocol error, 122.
TEST(ServiceClient, MalformedServerFramesExit122) {
  namespace transport = exec::transport;
  std::string bad_ack;  // an ACK claiming five seqs and carrying none
  bad_ack.append("\x04\x00\x00\x00", 4);
  bad_ack += static_cast<char>(transport::FrameType::kAck);
  bad_ack.append("\x05\x00\x00\x00", 4);
  transport::ResultFrame orphan;  // counts one stdout chunk, sent none
  orphan.seq = 1;
  orphan.stdout_chunks = 1;
  for (const std::string& reply : {bad_ack, transport::encode_result(orphan)}) {
    const std::string path = ::testing::TempDir() + "client_bad_" +
                             std::to_string(getpid()) + ".sock";
    int listener = util::unix_listen(path);
    ASSERT_GE(listener, 0);
    std::thread server([&] {
      int fd = ::accept(listener, nullptr, nullptr);
      if (fd < 0) return;
      transport::FrameDecoder decoder;
      while (!decoder.next() &&
             transport::read_some(fd, decoder) == transport::ReadStatus::kData) {
      }
      transport::write_all(fd, transport::encode_hello_ack({}) + reply);
      while (transport::read_some(fd, decoder) == transport::ReadStatus::kData) {
      }
      ::close(fd);
    });
    RunPlan plan = parse_cli({"--client", "--socket", path, "echo", ":::", "a"});
    std::istringstream in;
    std::ostringstream out, err;
    int code = run_client(plan, in, out, err);
    ::shutdown(listener, SHUT_RDWR);  // wakes the accept if the client never came
    server.join();
    ::close(listener);
    ::unlink(path.c_str());
    EXPECT_EQ(code, 122) << err.str();
    EXPECT_NE(err.str().find("protocol error"), std::string::npos) << err.str();
  }
}

}  // namespace
}  // namespace parcl::core
