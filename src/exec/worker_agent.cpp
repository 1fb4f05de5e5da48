#include "exec/worker_agent.hpp"

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>

#include "exec/local_executor.hpp"
#include "util/error.hpp"

namespace parcl::exec {

namespace {

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

WorkerAgent::WorkerAgent(WorkerConfig config) : config_(std::move(config)) {
  if (!config_.make_inner) {
    config_.make_inner = [] { return std::make_unique<LocalExecutor>(); };
  }
  util::require(config_.heartbeat_interval > 0.0, "heartbeat interval must be > 0");
  inner_ = config_.make_inner();
}

WorkerAgent::~WorkerAgent() = default;

double WorkerAgent::now() const { return monotonic_seconds(); }

bool WorkerAgent::write_frames(int fd, const std::string& bytes) {
  if (!broken_pipe_ && !transport::write_all(fd, bytes)) broken_pipe_ = true;
  return !broken_pipe_;
}

bool WorkerAgent::send_hello(int fd) {
  transport::HelloFrame hello;
  hello.version = config_.version;
  hello.worker_now = now();
  hello.running.assign(running_.begin(), running_.end());
  hello.completed_unacked.reserve(journal_.size());
  for (auto& [seq, entry] : journal_) {
    hello.completed_unacked.push_back(entry.result);
    entry.last_sent = 0.0;  // fresh link: replay everything after HELLO
  }
  return write_frames(fd, transport::encode_hello(hello));
}

bool WorkerAgent::send_unacked(int fd, bool force) {
  double resend_age = config_.resend_after_beats * config_.heartbeat_interval;
  for (auto& [seq, entry] : journal_) {
    bool due = entry.last_sent == 0.0 || force ||
               now() - entry.last_sent >= resend_age;
    if (!due) continue;
    entry.last_sent = now();
    if (!write_frames(fd, entry.frames)) return false;
  }
  return true;
}

double WorkerAgent::seconds_until_due(double last_beat_at) const {
  double due = last_beat_at + config_.heartbeat_interval;
  double resend_age = config_.resend_after_beats * config_.heartbeat_interval;
  for (const auto& [seq, entry] : journal_) {
    if (entry.last_sent > 0.0) due = std::min(due, entry.last_sent + resend_age);
  }
  return std::max(0.0, due - now());
}

void WorkerAgent::journal_completion(core::ExecResult&& result) {
  running_.erase(result.job_id);
  JournalEntry entry;
  entry.result.seq = result.job_id;
  entry.result.exit_code = result.exit_code;
  entry.result.term_signal = result.term_signal;
  entry.result.start_time = result.start_time;
  entry.result.end_time = result.end_time;
  transport::append_job_frames(entry.frames, entry.result, result.stdout_data,
                               result.stderr_data);
  journal_[entry.result.seq] = std::move(entry);
  publish_journal_size();
}

void WorkerAgent::publish_journal_size() noexcept {
  journal_size_.store(journal_.size());
}

void WorkerAgent::pump_inner() {
  while (std::optional<core::ExecResult> result = inner_->wait_any(0.0)) {
    journal_completion(std::move(*result));
  }
}

void WorkerAgent::handle_submit(const transport::Frame& frame) {
  transport::SubmitFrame submit = transport::decode_submit(frame);
  for (transport::JobSpec& job : submit.jobs) {
    // A replayed or duplicated SUBMIT must be idempotent: every seq runs
    // at most once per agent life.
    if (running_.count(job.seq) != 0 || journal_.count(job.seq) != 0) continue;
    core::ExecRequest request;
    request.job_id = job.seq;
    request.command = std::move(job.command);
    request.slot = job.slot;
    request.use_shell = job.use_shell;
    request.capture_output = job.capture_output;
    request.has_stdin = job.has_stdin;
    request.stdin_data = std::move(job.stdin_data);
    for (auto& [key, value] : job.env) request.env[key] = value;
    ++total_starts_;
    try {
      inner_->start(request);
      running_.insert(job.seq);
    } catch (const util::SystemError&) {
      // Worker-side spawn failure: report the engine's spawn-failure
      // convention (exit 127) as a normal RESULT; the pilot's engine
      // decides whether to retry or charge it.
      core::ExecResult failed;
      failed.job_id = job.seq;
      failed.exit_code = 127;
      failed.start_time = failed.end_time = now();
      journal_completion(std::move(failed));
    }
  }
}

void WorkerAgent::handle_kill(const transport::Frame& frame) {
  transport::KillFrame kill = transport::decode_kill(frame);
  if (running_.count(kill.seq) == 0) return;  // finished or never started
  if (kill.signal != 0) {
    inner_->kill_signal(kill.seq, kill.signal);
  } else {
    inner_->kill(kill.seq, kill.force);
  }
}

void WorkerAgent::handle_ack(const transport::Frame& frame) {
  transport::AckFrame ack = transport::decode_ack(frame);
  for (std::uint64_t seq : ack.seqs) journal_.erase(seq);
  publish_journal_size();
}

void WorkerAgent::crash_now() {
  // The inner executor's destructor kills and reaps every child; a crashed
  // agent leaves nothing behind but also remembers nothing.
  inner_.reset();
  inner_ = config_.make_inner();
  running_.clear();
  journal_.clear();
  publish_journal_size();
  config_.faults.crash_after_starts = 0;  // one-shot
}

WorkerAgent::ServeOutcome WorkerAgent::serve(int read_fd, int write_fd) {
  broken_pipe_ = false;
  draining_ = false;
  transport::FrameDecoder decoder;
  double last_beat_at = now();

  auto hung = [this] {
    return config_.faults.hang_after_starts != 0 &&
           total_starts_ >= config_.faults.hang_after_starts;
  };
  auto crash_due = [this] {
    return config_.faults.crash_after_starts != 0 &&
           total_starts_ >= config_.faults.crash_after_starts;
  };

  if (!hung() && !send_hello(write_fd)) return ServeOutcome::kConnectionLost;

  while (true) {
    pump_inner();
    if (crash_due()) {
      crash_now();
      return ServeOutcome::kCrashed;
    }
    if (!hung()) {
      if (!send_unacked(write_fd, /*force=*/false)) {
        return ServeOutcome::kConnectionLost;
      }
      if (now() - last_beat_at >= config_.heartbeat_interval) {
        transport::HeartbeatFrame beat;
        beat.beat = ++beat_;
        beat.worker_now = now();
        beat.running = running_.size();
        if (!write_frames(write_fd, transport::encode_heartbeat(beat))) {
          return ServeOutcome::kConnectionLost;
        }
        last_beat_at = now();
      }
      if (draining_ && running_.empty()) {
        // Final replay so nothing unacked is stranded, then farewell.
        if (!send_unacked(write_fd, /*force=*/true)) {
          return ServeOutcome::kConnectionLost;
        }
        write_frames(write_fd, transport::encode_bye());
        return ServeOutcome::kDrained;
      }
    }

    // Sleep until a frame, a job's completion (the inner executor's fd),
    // or the next heartbeat or journal resend; a wedged agent sends neither.
    double wait = hung() ? -1.0 : seconds_until_due(last_beat_at);
    struct pollfd fds[2] = {
        {read_fd, POLLIN, 0},
        {running_.empty() ? -1 : inner_->readiness_fd(), POLLIN, 0}};
    int timeout_ms =
        wait < 0.0 ? -1 : static_cast<int>(std::min(std::ceil(wait * 1e3), 3.6e6));
    int rc = ::poll(fds, 2, timeout_ms);
    if (rc < 0 && errno != EINTR) return ServeOutcome::kConnectionLost;
    if (rc <= 0 || (fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;

    try {
      transport::ReadStatus got = transport::read_some(read_fd, decoder);
      if (got == transport::ReadStatus::kWouldBlock) continue;
      if (got != transport::ReadStatus::kData) return ServeOutcome::kConnectionLost;
      if (hung()) continue;  // wedged agent: frames pile up unread
      while (std::optional<transport::Frame> frame = decoder.next()) {
        switch (frame->type) {
          case transport::FrameType::kHelloAck: {
            transport::HelloAckFrame ack = transport::decode_hello_ack(*frame);
            if (ack.version != config_.version) {
              return ServeOutcome::kProtocolError;
            }
            break;
          }
          case transport::FrameType::kSubmit:
            handle_submit(*frame);
            break;
          case transport::FrameType::kKill:
            handle_kill(*frame);
            break;
          case transport::FrameType::kAck:
            handle_ack(*frame);
            break;
          case transport::FrameType::kDrain:
            draining_ = true;
            break;
          default:
            // Worker-bound traffic only; anything else means the stream is
            // corrupt or the peer is confused.
            throw transport::ProtocolError(
                std::string("unexpected frame for worker: ") +
                transport::to_string(frame->type));
        }
      }
    } catch (const transport::ProtocolError&) {
      return ServeOutcome::kProtocolError;
    }
  }
}

int worker_agent_main(const WorkerConfig& config) {
  // The pilot may vanish mid-write (ssh death); EPIPE must surface as a
  // write error, not kill the agent before it can exit cleanly.
  ::signal(SIGPIPE, SIG_IGN);
  WorkerAgent agent(config);
  WorkerAgent::ServeOutcome outcome =
      agent.serve(STDIN_FILENO, STDOUT_FILENO);
  switch (outcome) {
    case WorkerAgent::ServeOutcome::kDrained: return 0;
    case WorkerAgent::ServeOutcome::kConnectionLost: return 0;  // pilot died
    default: return 1;
  }
}

}  // namespace parcl::exec
