#include "exec/pilot_executor.hpp"

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "util/error.hpp"

extern char** environ;

namespace parcl::exec {

namespace {

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void close_quiet(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace

// ---------------------------------------------------------------------------
// ProcessWorkerTransport
// ---------------------------------------------------------------------------

ProcessWorkerTransport::ProcessWorkerTransport(std::vector<std::string> argv)
    : argv_(std::move(argv)) {
  util::require(!argv_.empty(), "worker transport argv must not be empty");
}

ProcessWorkerTransport::~ProcessWorkerTransport() { disconnect(); }

int ProcessWorkerTransport::connect() {
  disconnect();  // a new link always means a new child
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    throw util::SystemError("socketpair", errno);
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, sv[1], STDIN_FILENO);
  posix_spawn_file_actions_adddup2(&actions, sv[1], STDOUT_FILENO);
  std::vector<char*> argv;
  argv.reserve(argv_.size() + 1);
  for (std::string& arg : argv_) argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  int rc = ::posix_spawnp(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close_quiet(sv[1]);
  if (rc != 0) {
    close_quiet(sv[0]);
    throw util::SystemError("posix_spawnp worker", rc);
  }
  child_ = pid;
  return sv[0];
}

void ProcessWorkerTransport::disconnect() { reap_child(); }

void ProcessWorkerTransport::reap_child() {
  if (child_ <= 0) return;
  // The pilot has already closed its end, so a healthy worker is exiting on
  // EOF; give it a moment before escalating to SIGKILL for the wedged case.
  for (int i = 0; i < 50; ++i) {
    pid_t done = ::waitpid(child_, nullptr, WNOHANG);
    if (done == child_ || (done < 0 && errno == ECHILD)) {
      child_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(child_, SIGKILL);
  ::waitpid(child_, nullptr, 0);
  child_ = -1;
}

// ---------------------------------------------------------------------------
// ThreadWorkerTransport
// ---------------------------------------------------------------------------

struct ThreadWorkerTransport::State {
  std::mutex mu;
  std::condition_variable cv;
  WorkerConfig config;
  std::unique_ptr<WorkerAgent> agent;
  std::deque<Attach> script;
  // One pending link at a time: connect() replaces any link the thread has
  // not yet picked up (the pilot abandoned it).
  int pending_fd = -1;
  Attach pending_mode = Attach::kResume;
  int hung_fd = -1;  // link accepted under kHang; closed on disconnect
  bool shutdown = false;
  std::thread thread;
};

ThreadWorkerTransport::ThreadWorkerTransport(WorkerConfig config)
    : state_(std::make_shared<State>()) {
  state_->config = std::move(config);
  state_->agent = std::make_unique<WorkerAgent>(state_->config);
  std::shared_ptr<State> state = state_;
  state_->thread = std::thread([state] {
    std::unique_lock<std::mutex> lock(state->mu);
    while (true) {
      state->cv.wait(lock, [&] { return state->shutdown || state->pending_fd >= 0; });
      if (state->shutdown) break;
      int fd = state->pending_fd;
      Attach mode = state->pending_mode;
      state->pending_fd = -1;
      if (mode == Attach::kHang) {
        // Hold the link open but never speak: the pilot's handshake times
        // out. disconnect() (or the next link) closes it.
        close_quiet(state->hung_fd);
        state->hung_fd = fd;
        continue;
      }
      if (mode == Attach::kRespawn) {
        state->agent = std::make_unique<WorkerAgent>(state->config);
      }
      WorkerAgent* agent = state->agent.get();
      lock.unlock();
      agent->serve(fd, fd);
      close_quiet(fd);
      lock.lock();
    }
    close_quiet(state->pending_fd);
    close_quiet(state->hung_fd);
  });
}

ThreadWorkerTransport::~ThreadWorkerTransport() {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->shutdown = true;
  }
  state_->cv.notify_all();
  state_->thread.join();
}

int ThreadWorkerTransport::connect() {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    throw util::SystemError("socketpair", errno);
  }
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    Attach mode = Attach::kResume;
    if (!state_->script.empty()) {
      mode = state_->script.front();
      state_->script.pop_front();
    }
    close_quiet(state_->pending_fd);  // pilot abandoned the previous attempt
    state_->pending_fd = sv[1];
    state_->pending_mode = mode;
  }
  state_->cv.notify_all();
  return sv[0];
}

void ThreadWorkerTransport::disconnect() {
  std::lock_guard<std::mutex> lock(state_->mu);
  close_quiet(state_->hung_fd);
  state_->hung_fd = -1;
}

void ThreadWorkerTransport::script_attach(std::vector<Attach> script) {
  std::lock_guard<std::mutex> lock(state_->mu);
  state_->script.assign(script.begin(), script.end());
}

std::uint64_t ThreadWorkerTransport::agent_total_starts() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->agent->total_starts();
}

std::size_t ThreadWorkerTransport::agent_journal_size() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->agent->journal_size();
}

// ---------------------------------------------------------------------------
// PilotExecutor
// ---------------------------------------------------------------------------

PilotExecutor::PilotExecutor(std::unique_ptr<WorkerTransport> transport,
                             PilotSettings settings)
    : transport_(std::move(transport)),
      settings_(std::move(settings)),
      fault_filter_(settings_.faults) {
  util::require(transport_ != nullptr, "pilot transport must not be null");
  util::require(settings_.heartbeat_interval > 0.0,
                "heartbeat interval must be > 0");
  stall_after_ = settings_.stall_after > 0.0
                     ? settings_.stall_after
                     : 5.0 * settings_.heartbeat_interval;
  last_inbound_ = now();
}

PilotExecutor::~PilotExecutor() {
  if (attached_) {
    // Graceful drain: let a process worker flush its journal and exit on
    // BYE instead of being killed mid-write. Bounded — a wedged worker is
    // simply cut off.
    write_frame(transport::encode_drain());
    double deadline = now() + 0.5;
    while (attached_ && !bye_received_ && now() < deadline) {
      pump_once(0.01);
    }
  }
  detach();
  transport_.reset();
}

double PilotExecutor::now() const { return monotonic_seconds(); }

double PilotExecutor::heartbeat_age() const {
  // Deliberately keeps growing across a detach: the silence that started on
  // the dying link is the same episode the health tracker is measuring.
  return now() - last_inbound_;
}

std::size_t PilotExecutor::active_count() const {
  return inflight_.size() + completed_.size();
}

void PilotExecutor::start(const core::ExecRequest& request) {
  if (dead_) {
    throw util::SystemError("pilot transport dead", EHOSTDOWN);
  }
  // A rescheduled attempt never reuses a job id (the engine allocates one
  // per attempt), but clear any stale dedupe entry defensively.
  delivered_.erase(request.job_id);
  transport::JobSpec spec;
  spec.seq = request.job_id;
  spec.command = request.command;
  spec.slot = request.slot;
  spec.use_shell = request.use_shell;
  spec.capture_output = request.capture_output;
  spec.has_stdin = request.has_stdin;
  spec.stdin_data = request.stdin_data;
  spec.env.assign(request.env.begin(), request.env.end());
  Inflight entry;
  entry.spec = std::move(spec);
  inflight_[request.job_id] = std::move(entry);
  unsent_.push_back(request.job_id);
  if (attached_ && unsent_.size() >= settings_.submit_batch_max) {
    flush_submits();
  }
}

bool PilotExecutor::write_frame(const std::string& bytes) {
  if (fd_ < 0) return false;
  if (!transport::write_all(fd_, bytes)) {
    detach();
    return false;
  }
  return true;
}

void PilotExecutor::flush_submits() {
  if (!attached_ || unsent_.empty()) return;
  transport::SubmitFrame submit;
  for (std::uint64_t seq : unsent_) {
    auto it = inflight_.find(seq);
    if (it == inflight_.end() || it->second.sent) continue;
    submit.jobs.push_back(it->second.spec);
    it->second.sent = true;
  }
  unsent_.clear();
  if (submit.jobs.empty()) return;
  ++counters_.batches_sent;
  counters_.jobs_submitted += submit.jobs.size();
  // On write failure the jobs stay marked sent: the worker may or may not
  // have seen the partial frame, and the next HELLO's journal settles it.
  write_frame(transport::encode_submit(submit));
}

bool PilotExecutor::attach_once() {
  int fd = -1;
  try {
    fd = transport_->connect();
  } catch (const util::SystemError&) {
    ++counters_.connect_failures;
    return false;
  }
  fd_ = fd;
  decoder_ = transport::FrameDecoder{};
  double deadline = now() + settings_.handshake_timeout;
  while (now() < deadline) {
    struct pollfd pfd{fd_, POLLIN, 0};
    int rc = ::poll(&pfd, 1, 10);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0 || (pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    try {
      transport::ReadStatus got = transport::read_some(fd_, decoder_);
      if (got == transport::ReadStatus::kWouldBlock) continue;
      if (got != transport::ReadStatus::kData) break;
      std::optional<transport::Frame> frame = decoder_.next();
      if (!frame) continue;  // HELLO still partial
      transport::HelloFrame hello = transport::decode_hello(*frame);  // or throws
      if (hello.version != transport::kProtocolVersion) {
        // Version skew cannot heal by reconnecting; poison the channel.
        version_rejected_ = true;
        break;
      }
      if (!transport::write_all(fd_, transport::encode_hello_ack({}))) break;
      attached_ = true;
      last_inbound_ = now();
      clock_offset_ = now() - hello.worker_now;
      consecutive_connect_failures_ = 0;
      if (ever_attached_) ++counters_.reconnects;
      ever_attached_ = true;
      bye_received_ = false;
      reconcile(hello);
      return true;
    } catch (const transport::ProtocolError&) {
      ++counters_.protocol_errors;
      break;
    }
  }
  detach();
  ++counters_.connect_failures;
  return false;
}

void PilotExecutor::reconnect() {
  // One attempt per call: a hung peer costs one handshake_timeout, and the
  // caller (the multi-host sweep, or wait_any's deadline loop) decides how
  // often to come back. Failure counting persists across calls.
  if (attached_ || dead_) return;
  if (attach_once()) return;
  ++consecutive_connect_failures_;
  if (version_rejected_ ||
      consecutive_connect_failures_ >= settings_.reconnect_max) {
    mark_dead();
  }
}

void PilotExecutor::detach() {
  close_quiet(fd_);
  fd_ = -1;
  attached_ = false;
  decoder_ = transport::FrameDecoder{};
  // Frames the chaos filter was holding die with the connection.
  fault_filter_.reset_connection();
  if (transport_) transport_->disconnect();
}

void PilotExecutor::mark_dead() {
  dead_ = true;
  detach();
  // Every queued or submitted job dies with the channel; the engine
  // reschedules them elsewhere without charging --retries.
  std::vector<std::uint64_t> seqs;
  seqs.reserve(inflight_.size());
  for (const auto& [seq, entry] : inflight_) seqs.push_back(seq);
  for (std::uint64_t seq : seqs) surface_lost(seq);
  unsent_.clear();
}

void PilotExecutor::reconcile(const transport::HelloFrame& hello) {
  std::set<std::uint64_t> alive(hello.running.begin(), hello.running.end());
  for (const transport::ResultFrame& result : hello.completed_unacked) {
    alive.insert(result.seq);
  }
  // Submitted jobs the worker does not know died with the old link (or the
  // old worker). Jobs never flushed are simply resubmitted on this link.
  std::vector<std::uint64_t> lost;
  for (const auto& [seq, entry] : inflight_) {
    if (entry.sent && alive.count(seq) == 0) lost.push_back(seq);
  }
  for (std::uint64_t seq : lost) surface_lost(seq);
  flush_submits();
}

void PilotExecutor::surface_lost(std::uint64_t seq) {
  core::ExecResult result;
  result.job_id = seq;
  result.exit_code = 255;
  result.host_failure = true;
  result.start_time = result.end_time = now();
  completed_.push_back(std::move(result));
  delivered_.insert(seq);
  inflight_.erase(seq);
  assembler_.forget(seq);
  unsent_.erase(std::remove(unsent_.begin(), unsent_.end(), seq), unsent_.end());
  ++counters_.jobs_reconciled_lost;
}

void PilotExecutor::send_ack(std::uint64_t seq) {
  if (!attached_) return;
  transport::AckFrame ack;
  ack.seqs.push_back(seq);
  write_frame(transport::encode_ack(ack));
}

void PilotExecutor::handle_chunk(const transport::Frame& frame) {
  transport::ChunkFrame chunk = transport::decode_chunk(frame);
  if (delivered_.count(chunk.seq) != 0) {
    ++counters_.duplicate_chunks;
    return;
  }
  if (inflight_.count(chunk.seq) == 0) return;  // alien seq: ignore defensively
  std::uint64_t seq = chunk.seq;
  if (!assembler_.add(frame.type, std::move(chunk))) ++counters_.duplicate_chunks;
  try_deliver(seq);
}

void PilotExecutor::handle_result(const transport::Frame& frame) {
  transport::ResultFrame result = transport::decode_result(frame);
  ++counters_.results_received;
  if (delivered_.count(result.seq) != 0) {
    // Already surfaced (our ACK was lost); re-ACK so the worker stops
    // retransmitting. Exactly-once holds because delivery is deduped here.
    ++counters_.duplicate_results;
    send_ack(result.seq);
    return;
  }
  auto it = inflight_.find(result.seq);
  if (it == inflight_.end()) {
    send_ack(result.seq);  // alien seq: silence the retransmit
    return;
  }
  if (it->second.result) {
    ++counters_.duplicate_results;
  } else {
    it->second.result = result;
  }
  try_deliver(result.seq);
}

void PilotExecutor::try_deliver(std::uint64_t seq) {
  auto it = inflight_.find(seq);
  if (it == inflight_.end() || !it->second.result) return;
  const transport::ResultFrame& rf = *it->second.result;
  std::optional<transport::JobOutput> output = assembler_.take(rf);
  if (!output) return;  // chunks still in flight; the journal retransmit closes gaps
  core::ExecResult result;
  result.job_id = seq;
  result.exit_code = rf.exit_code;
  result.term_signal = rf.term_signal;
  result.start_time = rf.start_time + clock_offset_;
  result.end_time = rf.end_time + clock_offset_;
  result.stdout_data = std::move(output->stdout_data);
  result.stderr_data = std::move(output->stderr_data);
  completed_.push_back(std::move(result));
  delivered_.insert(seq);
  inflight_.erase(it);
  send_ack(seq);
}

void PilotExecutor::process_frame(const transport::Frame& frame) {
  last_inbound_ = now();
  switch (frame.type) {
    case transport::FrameType::kHeartbeat: {
      transport::HeartbeatFrame beat = transport::decode_heartbeat(frame);
      ++counters_.heartbeats;
      clock_offset_ = now() - beat.worker_now;
      break;
    }
    case transport::FrameType::kStdout:
    case transport::FrameType::kStderr:
      handle_chunk(frame);
      break;
    case transport::FrameType::kResult:
      handle_result(frame);
      break;
    case transport::FrameType::kBye:
      bye_received_ = true;
      detach();
      break;
    default:
      // Pilot-bound traffic only; a HELLO mid-link or any worker-bound type
      // means the stream is corrupt.
      throw transport::ProtocolError(std::string("unexpected frame for pilot: ") +
                                     transport::to_string(frame.type));
  }
}

void PilotExecutor::pump_once(double poll_seconds) {
  if (!attached_) return;
  std::vector<transport::Frame> ready;
  fault_filter_.release_due(now(), ready);

  auto filter_decoded = [&] {
    while (std::optional<transport::Frame> frame = decoder_.next()) {
      ++counters_.frames_received;
      fault_filter_.filter(std::move(*frame), now(), ready);
    }
  };
  try {
    // Frames may already be buffered from the handshake read (journal
    // replay rides right behind HELLO): take them before deciding whether
    // to block.
    filter_decoded();
    struct pollfd pfd{fd_, POLLIN, 0};
    int timeout_ms = std::max(0, static_cast<int>(poll_seconds * 1000.0));
    // Held (delayed/reordered) frames need timely release even on a silent
    // link; never sleep long while the filter holds traffic.
    int rc = ::poll(&pfd, 1, ready.empty() ? timeout_ms : 0);
    if (rc < 0 && errno != EINTR) {
      detach();
      return;
    }
    if (rc > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      transport::ReadStatus got = transport::read_some(fd_, decoder_);
      if (got == transport::ReadStatus::kEnd || got == transport::ReadStatus::kError) {
        detach();
        return;
      }
      filter_decoded();
    }
    for (transport::Frame& frame : ready) {
      if (!attached_) break;  // a BYE or loss mid-batch ends processing
      process_frame(frame);
    }
  } catch (const transport::ProtocolError&) {
    ++counters_.protocol_errors;
    detach();
  }

  if (attached_ && fault_filter_.kill_due()) {
    // Scheduled mid-run connection kill: the link dies, jobs stay in
    // flight, and the next attach reconciles against the journal.
    detach();
  }
  if (attached_ && now() - last_inbound_ > stall_after_) {
    ++counters_.stalls;
    detach();
  }
}

void PilotExecutor::pump() {
  if (dead_) return;
  if (!attached_ && (!inflight_.empty() || !unsent_.empty())) reconnect();
  flush_submits();
  pump_once(0.0);
}

std::optional<core::ExecResult> PilotExecutor::wait_any(double timeout_seconds) {
  const double start = now();
  const double deadline =
      timeout_seconds < 0 ? -1.0 : start + timeout_seconds;
  while (true) {
    if (!completed_.empty()) {
      core::ExecResult result = std::move(completed_.front());
      completed_.pop_front();
      return result;
    }
    if (dead_) {
      // Nothing can complete any more (mark_dead flushed every in-flight
      // job into completed_, which is empty here).
      if (deadline < 0) return std::nullopt;
      double remaining = deadline - now();
      if (remaining <= 0) return std::nullopt;
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::min(remaining, 0.01)));
      continue;
    }
    bool have_jobs = !inflight_.empty() || !unsent_.empty();
    if (!attached_ && have_jobs) {
      reconnect();
      // Reconcile may have surfaced losses (or the channel died); if the
      // attempt merely failed, fall through to the deadline check so a
      // bounded wait stays bounded across repeated attempts.
      if (!completed_.empty() || attached_ || dead_) continue;
      if (deadline >= 0 && now() >= deadline) return std::nullopt;
      continue;
    }
    if (!have_jobs) {
      // No active jobs: honour the sleep-out contract, pumping heartbeats.
      if (deadline < 0) return std::nullopt;
      double remaining = deadline - now();
      if (remaining <= 0) return std::nullopt;
      if (attached_) {
        pump_once(std::min(remaining, 0.01));
      } else {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::min(remaining, 0.01)));
      }
      continue;
    }
    flush_submits();
    // Pump at least once even at timeout 0: the multi-host sweep relies on
    // wait_any(0.0) as its non-blocking per-host pump.
    double poll_for = 0.01;
    if (deadline >= 0) {
      poll_for = std::min(poll_for, std::max(deadline - now(), 0.0));
    }
    pump_once(poll_for);
    if (!completed_.empty()) continue;
    if (deadline >= 0 && now() >= deadline) return std::nullopt;
  }
}

void PilotExecutor::kill(std::uint64_t job_id, bool force) {
  kill_signal(job_id, force ? SIGKILL : 0);
}

void PilotExecutor::kill_signal(std::uint64_t job_id, int sig) {
  auto it = inflight_.find(job_id);
  if (it == inflight_.end()) return;  // unknown or already surfaced: no-op
  if (!it->second.sent) {
    // Never reached a worker: complete it locally as signal-killed.
    core::ExecResult result;
    result.job_id = job_id;
    result.term_signal = sig == 0 ? SIGTERM : sig;
    result.start_time = result.end_time = now();
    completed_.push_back(std::move(result));
    delivered_.insert(job_id);
    inflight_.erase(it);
    unsent_.erase(std::remove(unsent_.begin(), unsent_.end(), job_id),
                  unsent_.end());
    return;
  }
  if (!attached_) return;  // loss reconciliation will settle it
  transport::KillFrame frame;
  frame.seq = job_id;
  frame.signal = sig == SIGKILL ? 0 : sig;
  frame.force = sig == SIGKILL;
  write_frame(transport::encode_kill(frame));
}

bool PilotExecutor::probe_transport() {
  if (version_rejected_) return false;
  if (attached_) {
    pump_once(0.0);
    if (attached_ && heartbeat_age() <= stall_after_) return true;
  }
  dead_ = false;
  consecutive_connect_failures_ = 0;
  if (!attached_) attach_once();
  return attached_;
}

}  // namespace parcl::exec
