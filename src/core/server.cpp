#include "core/server.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>

#include "core/cli.hpp"
#include "core/signal_coordinator.hpp"
#include "exec/local_executor.hpp"
#include "util/error.hpp"
#include "util/net.hpp"
#include "util/strings.hpp"

namespace parcl::core {

namespace transport = exec::transport;
using transport::RejectCode;

namespace {

/// Journal field escaping: keeps arbitrary command/stdin bytes on one line.
void append_escaped(std::string& out, std::string_view raw) {
  while (!raw.empty()) {
    std::size_t special = raw.find_first_of("\\\t\n");
    out.append(raw.substr(0, special));
    if (special == std::string_view::npos) return;
    switch (raw[special]) {
      case '\\': out += "\\\\"; break;
      case '\t': out += "\\t"; break;
      default: out += "\\n"; break;
    }
    raw.remove_prefix(special + 1);
  }
}

std::string unescape_field(std::string_view escaped, std::size_t line_no) {
  std::string out;
  out.reserve(escaped.size());
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] != '\\') {
      out += escaped[i];
      continue;
    }
    if (i + 1 >= escaped.size()) {
      throw util::ParseError("intake journal line " + std::to_string(line_no) +
                             ": dangling escape");
    }
    switch (escaped[++i]) {
      case '\\': out += '\\'; break;
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      default:
        throw util::ParseError("intake journal line " + std::to_string(line_no) +
                               ": unknown escape \\" + escaped[i]);
    }
  }
  return out;
}

std::uint64_t parse_u64_field(std::string_view field, std::size_t line_no,
                              const char* name) {
  long value = util::parse_long(field);
  if (value < 0) {
    throw util::ParseError("intake journal line " + std::to_string(line_no) +
                           ": negative " + name);
  }
  return static_cast<std::uint64_t>(value);
}

/// Splits a journal line at its tabs into `fields` and returns how many
/// fields it has, which may be more than `fields` holds.
template <std::size_t N>
std::size_t split_fields(std::string_view line, std::string_view (&fields)[N]) {
  std::size_t count = 0;
  while (true) {
    std::size_t tab = line.find('\t');
    if (count < N) fields[count] = line.substr(0, tab);
    ++count;
    if (tab == std::string_view::npos) return count;
    line.remove_prefix(tab + 1);
  }
}

/// The loop's options: the server's run options at its slot width, with
/// what the service fixes — no results kept (constant memory), the command
/// run verbatim (its one argument, unquoted), and no joblog of its own
/// (--joblog-fsync is for the server's journal and ledgers).
Options loop_options(const ServerConfig& config) {
  Options options = config.options;
  options.jobs = config.slots;
  options.collect_results = false;
  options.quote_args = false;
  options.joblog_fsync = false;
  return options;
}

}  // namespace

// ---------------------------------------------------------------------------
// IntakeJournal
// ---------------------------------------------------------------------------

IntakeJournal::IntakeJournal(const std::string& path, bool fsync_each)
    : fsync_each_(fsync_each) {
  fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw util::SystemError("open intake journal '" + path + "'", errno);
  }
  struct stat st{};
  if (::fstat(fd_, &st) == 0) trim_torn_tail(fd_, st.st_size);
}

IntakeJournal::~IntakeJournal() {
  if (fd_ >= 0) ::close(fd_);
}

void IntakeJournal::append_accept(const IntakeRecord& record) {
  line_.clear();
  line_.reserve(48 + record.tenant.size() + record.command.size() +
                record.stdin_data.size());
  line_ += "A\t";
  util::append_int(line_, record.intake_id);
  line_ += '\t';
  line_ += record.tenant;
  line_ += '\t';
  util::append_int(line_, record.client_seq);
  line_ += record.has_stdin ? "\t1\t" : "\t0\t";
  append_escaped(line_, record.command);
  line_ += '\t';
  append_escaped(line_, record.stdin_data);
  line_ += '\n';
  append(line_);
}

void IntakeJournal::append_cancel(std::uint64_t intake_id) {
  line_.assign("C\t");
  util::append_int(line_, intake_id);
  line_ += '\n';
  append(line_);
}

void IntakeJournal::append(const std::string& line) {
  write_all(fd_, line, "write intake journal");
  if (fsync_each_ && ::fsync(fd_) < 0) {
    throw util::SystemError("fsync intake journal", errno);
  }
}

JournalReplay IntakeJournal::scan(const std::string& path,
                                  const std::vector<std::uint64_t>& finished) {
  JournalReplay replay;
  std::ifstream in(path, std::ios::binary);
  if (!in) return replay;
  std::vector<std::uint64_t> cancelled;
  std::string line;
  std::string_view fields[7];
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    // A final line without '\n' was cut by a crash mid-write; by the
    // write-before-ack ordering it was never acked.
    if (in.eof()) break;
    ++line_no;
    const std::size_t count = split_fields(line, fields);
    if (fields[0] == "C") {
      if (count != 2) {
        throw util::ParseError("intake journal line " + std::to_string(line_no) +
                               ": cancel record needs 2 fields");
      }
      std::uint64_t id = parse_u64_field(fields[1], line_no, "intake id");
      replay.max_intake_id = std::max(replay.max_intake_id, id);
      cancelled.push_back(id);
      continue;
    }
    if (fields[0] != "A" || count != 7) {
      throw util::ParseError("intake journal line " + std::to_string(line_no) +
                             ": malformed record");
    }
    std::uint64_t id = parse_u64_field(fields[1], line_no, "intake id");
    replay.max_intake_id = std::max(replay.max_intake_id, id);
    if (std::binary_search(finished.begin(), finished.end(), id)) continue;
    IntakeRecord& record = replay.pending.emplace_back();
    record.intake_id = id;
    record.tenant = fields[2];
    record.client_seq = parse_u64_field(fields[3], line_no, "client seq");
    record.has_stdin = fields[4] == "1";
    record.command = unescape_field(fields[5], line_no);
    record.stdin_data = unescape_field(fields[6], line_no);
  }
  if (!cancelled.empty()) {
    std::sort(cancelled.begin(), cancelled.end());
    std::erase_if(replay.pending, [&](const IntakeRecord& record) {
      return std::binary_search(cancelled.begin(), cancelled.end(), record.intake_id);
    });
  }
  return replay;
}

// ---------------------------------------------------------------------------
// ServerCore
// ---------------------------------------------------------------------------

std::string ServerCore::journal_path(const std::string& state_dir) {
  return state_dir + "/intake.journal";
}

std::string ServerCore::ledger_path(const std::string& state_dir) {
  return state_dir + "/ledger.joblog";
}

std::string ServerCore::tenant_joblog_path(const std::string& state_dir,
                                           const std::string& tenant) {
  return state_dir + "/tenant-" + tenant + ".joblog";
}

bool ServerCore::valid_tenant_name(const std::string& tenant) {
  if (tenant.empty() || tenant.size() > 64 || tenant.front() == '.') return false;
  for (char c : tenant) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

JournalReplay ServerCore::replay_state(const std::string& state_dir) {
  // --resume semantics over the intake-id-keyed ledger: every ledgered id
  // already ran (success or failure — the service does not retry).
  std::vector<std::uint64_t> ledgered;
  struct stat st{};
  if (::stat(ledger_path(state_dir).c_str(), &st) == 0) {
    ledgered = read_logged_seqs(ledger_path(state_dir));
  }
  return IntakeJournal::scan(journal_path(state_dir), ledgered);
}

ServerCore::ServerCore(ServerConfig config, Executor& executor)
    : config_(std::move(config)),
      executor_(executor),
      journal_(journal_path(config_.state_dir), config_.options.joblog_fsync),
      ledger_(ledger_path(config_.state_dir), config_.options.joblog_fsync),
      engine_(loop_options(config_), executor, discard_, discard_) {
  engine_.set_result_callback([this](JobResult& result) { record_result(result); });
  engine_.begin(CommandTemplate::parse("{}"), *this);
  JournalReplay replay = replay_state(config_.state_dir);
  next_intake_id_ = replay.max_intake_id + 1;
  double now = executor_.now();
  for (IntakeRecord& record : replay.pending) {
    // Tenants resurface at weight 1 until their client reconnects and
    // re-states a weight; the journal promise (acked work runs) does not
    // depend on the client ever returning.
    ++ensure_tenant(record.tenant, 1.0, /*connected=*/false).pending;
    std::uint64_t id = record.intake_id;
    Pending pending;
    pending.record = std::move(record);
    pending.accept_time = now;
    queue_.push(pending.record.tenant, id);
    pending_.emplace(id, std::move(pending));
    ++stats_.replayed;
  }
}

ServerCore::Tenant& ServerCore::ensure_tenant(const std::string& tenant, double weight,
                                              bool connected) {
  Tenant& t = tenants_[tenant];
  t.weight = weight;
  if (connected) {
    t.connected = true;
    t.strikes = 0;
  }
  queue_.attach(tenant, weight);
  return t;
}

Admission ServerCore::attach_tenant(const std::string& tenant, double weight) {
  if (draining_) {
    return Admission::reject(RejectCode::kDraining, 0.0, "server is draining");
  }
  if (!valid_tenant_name(tenant)) {
    return Admission::reject(RejectCode::kBadRequest, 0.0,
                             "invalid tenant name '" + tenant + "'");
  }
  if (evicted_.count(tenant)) {
    return Admission::reject(RejectCode::kEvicted, 0.0, "tenant is evicted");
  }
  if (!(weight > 0.0) || weight > 1000.0) {
    return Admission::reject(RejectCode::kBadRequest, 0.0,
                             "tenant weight must be in (0, 1000]");
  }
  ensure_tenant(tenant, weight, /*connected=*/true);
  return Admission::accept(0);
}

void ServerCore::detach_tenant(const std::string& tenant, bool orphaned) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return;
  it->second.connected = false;
  if (orphaned && config_.orphans == OrphanPolicy::kCancel) {
    // Orphan-cancel: queued jobs are journal-cancelled (the restart replay
    // must not resurrect them), running ones are killed — their deaths
    // still flow through step() and the ledger, so exactly-once holds.
    for (std::uint64_t id : queue_.detach(tenant)) {
      journal_.append_cancel(id);
      pending_.erase(id);
      --it->second.pending;
      ++stats_.cancelled;
    }
    for (auto& [id, pending] : pending_) {
      if (pending.record.tenant == tenant) engine_.kill(id, /*force=*/false);
    }
  }
  close_idle_joblog(tenant, it->second);
}

bool ServerCore::tenant_connected(const std::string& tenant) const {
  auto it = tenants_.find(tenant);
  return it != tenants_.end() && it->second.connected;
}

bool ServerCore::tenant_evicted(const std::string& tenant) const {
  return evicted_.count(tenant) != 0;
}

Admission ServerCore::note_reject(const std::string& tenant, Admission rejection) {
  ++stats_.rejected;
  switch (rejection.code) {
    case RejectCode::kQueueFull: ++stats_.rejected_queue_full; break;
    case RejectCode::kServerFull: ++stats_.rejected_server_full; break;
    case RejectCode::kPressure: ++stats_.rejected_pressure; break;
    case RejectCode::kDraining: ++stats_.rejected_draining; break;
    case RejectCode::kBadRequest: ++stats_.rejected_bad_request; break;
    case RejectCode::kEvicted: ++stats_.rejected_evicted; break;
  }
  // Flood detection: a client that keeps slamming into its queue bound
  // without ever backing off burns the intake thread for everyone. Only
  // capacity rejections count — pressure and drain are the server's fault.
  if (rejection.code == RejectCode::kQueueFull ||
      rejection.code == RejectCode::kServerFull) {
    auto it = tenants_.find(tenant);
    if (it != tenants_.end() && config_.limits.evict_after_strikes != 0) {
      if (++it->second.strikes >= config_.limits.evict_after_strikes) {
        evicted_.insert(tenant);
        it->second.connected = false;
        ++stats_.evictions;
      }
    }
  }
  return rejection;
}

Admission ServerCore::submit(const std::string& tenant, std::uint64_t client_seq,
                             const std::string& command,
                             const std::string& stdin_data, bool has_stdin) {
  if (draining_) {
    return note_reject(tenant, Admission::reject(RejectCode::kDraining, 0.0,
                                                 "server is draining"));
  }
  if (evicted_.count(tenant)) {
    return note_reject(tenant, Admission::reject(RejectCode::kEvicted, 0.0,
                                                 "tenant is evicted"));
  }
  auto it = tenants_.find(tenant);
  if (it == tenants_.end() || !it->second.connected) {
    return note_reject(tenant, Admission::reject(RejectCode::kBadRequest, 0.0,
                                                 "tenant not attached"));
  }
  if (command.empty() || command.size() > config_.limits.max_command_bytes) {
    return note_reject(tenant,
                       Admission::reject(RejectCode::kBadRequest, 0.0,
                                         command.empty() ? "empty command"
                                                         : "command too large"));
  }
  double retry_after = config_.limits.retry_after_seconds;
  if (!engine_.pressure_allows_start()) {
    return note_reject(tenant, Admission::reject(RejectCode::kPressure, retry_after,
                                                 "resource pressure"));
  }
  if (queue_.queued(tenant) >= config_.limits.max_queue_per_tenant) {
    return note_reject(tenant, Admission::reject(RejectCode::kQueueFull, retry_after,
                                                 "tenant queue full"));
  }
  if (queue_.total_queued() >= config_.limits.max_queue_global) {
    return note_reject(tenant, Admission::reject(RejectCode::kServerFull, retry_after,
                                                 "global queue full"));
  }

  IntakeRecord record;
  record.intake_id = next_intake_id_++;
  record.tenant = tenant;
  record.client_seq = client_seq;
  record.command = command;
  record.has_stdin = has_stdin;
  record.stdin_data = stdin_data;
  // The whole crash-tolerance story hangs on this ordering: the record is
  // one durable O_APPEND write BEFORE the accept (and hence the ACK frame)
  // exists. kill -9 after this point re-runs the job from the journal;
  // kill -9 before it means the client never saw an ack.
  journal_.append_accept(record);

  Pending pending;
  pending.accept_time = executor_.now();
  std::uint64_t id = record.intake_id;
  pending.record = std::move(record);
  queue_.push(tenant, id);
  pending_.emplace(id, std::move(pending));
  it->second.strikes = 0;
  ++it->second.pending;
  ++stats_.accepted;
  return Admission::accept(id);
}

bool ServerCore::ready() const { return !draining_ && queue_.total_queued() > 0; }

std::optional<JobInput> ServerCore::next() {
  if (!ready()) return std::nullopt;
  std::optional<FairShareQueue::Popped> popped = queue_.pop();
  Pending& pending = pending_.at(popped->id);
  double latency = executor_.now() - pending.accept_time;
  std::vector<double>& samples = stats_.queue_latency_seconds;
  if (samples.size() < ServerStats::kQueueLatencyWindow) {
    samples.push_back(latency);
  } else {
    samples[next_latency_slot_] = latency;
    next_latency_slot_ = (next_latency_slot_ + 1) % ServerStats::kQueueLatencyWindow;
  }
  ++stats_.served_by_tenant[popped->tenant];
  JobInput job;
  job.seq = popped->id;
  job.args.push_back(std::move(pending.record.command));
  job.stdin_data = std::move(pending.record.stdin_data);
  job.has_stdin = pending.record.has_stdin;
  return job;
}

void ServerCore::record_result(JobResult& result) {
  auto it = pending_.find(result.seq);
  if (it == pending_.end()) {
    throw util::InternalError("loop finished a job the server never queued");
  }
  IntakeRecord& record = it->second.record;
  // Ledger first (keyed by intake id, host column = tenant): this row IS
  // the exactly-once decision — replay subtracts it. The tenant joblog and
  // the RESULT frame are deliveries, written after the decision. The two
  // rows differ only in Seq and Host.
  row_tail_.clear();
  JoblogWriter::append_row_tail(row_tail_, result);
  ledger_.record(result.seq, record.tenant, row_tail_);
  tenant_joblog(record.tenant).record(record.client_seq, kLocalHost, row_tail_);
  ++stats_.completed;
  auto owner = tenants_.find(record.tenant);
  TenantEvent& event = events_.emplace_back();
  event.tenant = std::move(record.tenant);
  JobResult& delivered = event.result;
  delivered.seq = record.client_seq;
  delivered.status = result.status;
  delivered.exit_code = result.exit_code;
  delivered.term_signal = result.term_signal;
  delivered.attempts = result.attempts;
  delivered.start_time = result.start_time;
  delivered.end_time = result.end_time;
  delivered.command = std::move(result.command);
  delivered.stdout_data = std::move(result.stdout_data);
  delivered.stderr_data = std::move(result.stderr_data);
  pending_.erase(it);
  --owner->second.pending;
  close_idle_joblog(owner->first, owner->second);
}

std::size_t ServerCore::step(double timeout_seconds) {
  std::size_t completions = 0;
  double wait = engine_.running() > 0 ? timeout_seconds : 0.0;
  while (engine_.step(wait) == Engine::Step::kReaped) {
    ++completions;
    if (!executor_.holds_completion()) {
      // Start jobs on the slots the reaps freed, without asking the
      // executor for exits its readiness fd has not reported.
      engine_.fill();
      break;
    }
    wait = 0.0;
  }
  return completions;
}

void ServerCore::fill() { engine_.fill(); }

std::vector<TenantEvent> ServerCore::take_events() {
  std::vector<TenantEvent> out;
  out.swap(events_);
  return out;
}

void ServerCore::begin_drain() { draining_ = true; }

bool ServerCore::idle() const noexcept {
  return running_count() == 0 && queue_.total_queued() == 0;
}

JoblogWriter& ServerCore::tenant_joblog(const std::string& tenant) {
  auto it = tenant_joblogs_.find(tenant);
  if (it == tenant_joblogs_.end()) {
    it = tenant_joblogs_
             .emplace(tenant, std::make_unique<JoblogWriter>(
                                  tenant_joblog_path(config_.state_dir, tenant),
                                  config_.options.joblog_fsync))
             .first;
  }
  return *it->second;
}

void ServerCore::close_idle_joblog(const std::string& tenant, const Tenant& state) {
  if (!state.connected && state.pending == 0) tenant_joblogs_.erase(tenant);
}

// ---------------------------------------------------------------------------
// Socket front end
// ---------------------------------------------------------------------------

namespace {

/// How long a connection may sit without completing its CLIENT_HELLO before
/// it is dropped as half-open (a connect scan, a hung client).
constexpr double kHelloTimeout = 10.0;

/// Budget for flushing buffered tail frames (final RESULTs, BYE) to slow
/// clients on shutdown before falling back to joblog-is-delivery.
constexpr double kShutdownFlushTimeout = 5.0;

struct Connection {
  int fd = -1;
  transport::FrameDecoder decoder;
  std::string outbuf;
  std::string tenant;
  bool hello_done = false;
  bool closing = false;  // flush outbuf, then close (no more reads)
  bool clean_bye = false;
  std::uint32_t interest = EPOLLIN;  // the events the set watches for it
  double opened_at = 0.0;
};

/// Constant-time comparison for the admission token: reject timing must not
/// leak how long a correct prefix an attacker has guessed.
bool tokens_equal(const std::string& expected, const std::string& got) {
  unsigned char diff =
      static_cast<unsigned char>(expected.size() != got.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    unsigned char g = i < got.size() ? static_cast<unsigned char>(got[i]) : 0;
    diff |= static_cast<unsigned char>(expected[i]) ^ g;
  }
  return diff == 0;
}

/// The socket front end: one epoll set, made once, over the signal pipe,
/// the executor's readiness fd, the listeners and the connections. An
/// event's data is a Connection*, or for the other fds their number shifted
/// past a kind tag (a Connection's address has the low bits clear).
class ServiceLoop {
 public:
  ServiceLoop(ServerCore& core, const Executor& executor, std::vector<int> listeners,
              std::string token)
      : core_(core),
        executor_(executor),
        listeners_(std::move(listeners)),
        token_(std::move(token)) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) throw util::SystemError("epoll_create1", errno);
  }

  ~ServiceLoop() {
    for (auto& connection : connections_) drop(*connection, /*orphaned=*/false);
    for (int fd : listeners_) ::close(fd);
    ::close(epoll_fd_);
  }

  int run(SignalCoordinator& signals) {
    signal_fd_ = signals.fd();
    watch(signal_fd_, EPOLLIN, tagged(kSignals, signal_fd_));
    // Edge-triggered: the set wakes once for each event the executor's own
    // set gains, and the loop reaps what that brings. Level-triggered, an
    // event the executor will not hand back (a closed fd's last one, with
    // nothing running) would wake the loop without end.
    watch(executor_.readiness_fd(), EPOLLIN | EPOLLET,
          tagged(kExecutor, executor_.readiness_fd()));
    for (int fd : listeners_) watch(fd, EPOLLIN, tagged(kListener, fd));
    bool reap = true;
    while (true) {
      if (reap) {
        core_.step(0.0);
      } else {
        core_.fill();
      }
      pump_events();
      flush_all();
      sweep();
      if (core_.draining() && core_.running_count() == 0) {
        for (auto& connection : connections_) {
          if (connection->hello_done) send(*connection, transport::encode_bye());
        }
        // Tail RESULT/BYE frames may still sit in outbufs (nonblocking
        // writes hit EAGAIN on slow clients); give each socket a bounded
        // EPOLLOUT drain before the close. Past the deadline the joblog is
        // the delivery contract.
        drain_outbufs(kShutdownFlushTimeout);
        return 0;
      }
      reap = wait_once(signals);
    }
  }

 private:
  enum Kind : std::uint64_t { kSignals = 1, kExecutor = 2, kListener = 3 };
  static constexpr int kKindBits = 2;
  static constexpr int kMaxEvents = 64;

  static std::uint64_t tagged(Kind kind, int fd) {
    return static_cast<std::uint64_t>(fd) << kKindBits | kind;
  }

  void watch(int fd, std::uint32_t events, std::uint64_t data) {
    epoll_event event{};
    event.events = events;
    event.data.u64 = data;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
      throw util::SystemError("epoll_ctl", errno);
    }
  }

  /// Removes `fd` from the set before it is closed: a CLONE_VM child that
  /// has not exec'd yet holds a copy of every fd, and while it does, a
  /// closed fd would stay in the set.
  void unwatch(int fd) { ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr); }

  void on_signals(int signal_count) {
    if (signal_count >= 1 && !core_.draining()) {
      // Drain phase 1: stop admitting (listeners close, submits reject),
      // let in-flight work finish; queued work stays journaled as the
      // restart checkpoint.
      std::cerr << "parcl: --server draining (" << core_.running_count()
                << " running, " << core_.queued_count() << " queued checkpointed)\n";
      core_.begin_drain();
      for (int fd : listeners_) {
        unwatch(fd);
        ::close(fd);
      }
      listeners_.clear();
      for (auto& connection : connections_) {
        if (connection->hello_done) send(*connection, transport::encode_drain());
      }
    }
    if (signal_count >= 2 && !killed_) {
      // Drain phase 2: stop waiting, kill in-flight (deaths still ledger).
      killed_ = true;
      core_.kill_running(/*force=*/true);
    }
  }

  /// One epoll_wait over the set. It sleeps until an fd is ready, or the
  /// engine's next deadline (a timeout, the --delay gate, a retry's backoff)
  /// or a CLIENT_HELLO deadline passes; with neither, it blocks; while the
  /// executor holds completions, it does not sleep. Then it takes what each
  /// ready fd brings. Returns whether the next pass must ask the executor
  /// for completions: its fd fired, it holds some, or a deadline passed.
  bool wait_once(SignalCoordinator& signals) {
    const bool held = executor_.holds_completion();
    double wait = held ? 0.0 : core_.wait_seconds();
    const double t = now();
    for (auto& connection : connections_) {
      if (!connection->hello_done) {
        double until = std::max(0.0, connection->opened_at + kHelloTimeout - t);
        wait = wait < 0.0 ? until : std::min(wait, until);
      }
    }
    int timeout_ms =
        wait < 0.0 ? -1 : static_cast<int>(std::min(std::ceil(wait * 1e3), 3.6e6));
    epoll_event events[kMaxEvents];
    int ready = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (ready < 0) {
      if (errno != EINTR) throw util::SystemError("epoll_wait", errno);
      on_signals(signals.poll());
      return true;
    }
    bool reap = held || ready == 0;
    bool signalled = false;
    for (int i = 0; i < ready; ++i) {
      const std::uint64_t data = events[i].data.u64;
      switch (data & ((1u << kKindBits) - 1)) {
        case kSignals: signalled = true; break;
        case kExecutor: reap = true; break;
        case kListener: accept_all(static_cast<int>(data >> kKindBits)); break;
        default: on_ready(*static_cast<Connection*>(events[i].data.ptr), events[i].events);
      }
    }
    if (signalled) on_signals(signals.poll());
    return reap;
  }

  void on_ready(Connection& connection, std::uint32_t events) {
    if (connection.fd < 0) return;  // dropped earlier in this batch
    if ((events & (EPOLLERR | EPOLLHUP)) && !(events & EPOLLIN)) {
      // HUP with pending bytes reads them first.
      drop(connection, /*orphaned=*/!connection.clean_bye);
      return;
    }
    if ((events & EPOLLIN) && !connection.closing) read_frames(connection);
    // Acks leave as soon as their frames are read: the journal writes
    // they confirm are already on disk.
    flush_writes(connection);
  }

  void accept_all(int listener) {
    while (true) {
      int fd = ::accept4(listener, nullptr, nullptr, SOCK_CLOEXEC | SOCK_NONBLOCK);
      if (fd < 0) return;  // EAGAIN, or a transient error: never fatal
      auto connection = std::make_unique<Connection>();
      connection->fd = fd;
      connection->opened_at = now();
      epoll_event event{};
      event.events = connection->interest;
      event.data.ptr = connection.get();
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
        ::close(fd);
        return;
      }
      connections_.push_back(std::move(connection));
    }
  }

  /// One read per wake: the set is level-triggered, so a connection whose
  /// bytes did not fit the read wakes it again, and one that sent less
  /// needs no second read to learn it is empty.
  void read_frames(Connection& connection) {
    try {
      transport::ReadStatus got = transport::read_some(connection.fd, connection.decoder);
      if (got == transport::ReadStatus::kWouldBlock) return;
      if (got != transport::ReadStatus::kData) {
        drop(connection, /*orphaned=*/got == transport::ReadStatus::kError ||
                             !connection.clean_bye);
        return;
      }
      while (auto frame = connection.decoder.next()) {
        handle_frame(connection, *frame);
        if (connection.fd < 0 || connection.closing) return;
      }
    } catch (const transport::ProtocolError&) {
      // Oversized length prefix, unknown type, torn payload: the stream
      // is unrecoverable. The misbehaving client is cut loose; everyone
      // else is untouched.
      drop(connection, /*orphaned=*/true);
    }
  }

  void handle_frame(Connection& connection, const transport::Frame& frame) {
    if (!connection.hello_done) {
      if (frame.type != transport::FrameType::kClientHello) {
        drop(connection, /*orphaned=*/true);
        return;
      }
      transport::ClientHelloFrame hello = transport::decode_client_hello(frame);
      if (hello.version != transport::kProtocolVersion) {
        reject(connection, 0, RejectCode::kBadRequest, 0.0,
               "protocol version mismatch: server speaks " +
                   std::to_string(transport::kProtocolVersion));
        connection.closing = true;
        return;
      }
      if (!token_.empty() && !tokens_equal(token_, hello.token)) {
        // Deliberately terse: no hint whether the token was absent, short,
        // or wrong — the port may be network-reachable.
        reject(connection, 0, RejectCode::kBadRequest, 0.0,
               "authentication failed");
        connection.closing = true;
        return;
      }
      if (by_tenant_.count(hello.tenant)) {
        reject(connection, 0, RejectCode::kBadRequest, 0.0,
               "tenant '" + hello.tenant + "' already connected");
        connection.closing = true;
        return;
      }
      Admission admission = core_.attach_tenant(hello.tenant, hello.weight);
      if (!admission.accepted) {
        reject(connection, 0, admission.code, admission.retry_after,
               admission.message);
        connection.closing = true;
        return;
      }
      connection.tenant = hello.tenant;
      connection.hello_done = true;
      by_tenant_[hello.tenant] = &connection;
      send(connection, transport::encode_hello_ack({}));
      return;
    }
    switch (frame.type) {
      case transport::FrameType::kSubmit: {
        transport::SubmitFrame submit = transport::decode_submit(frame);
        transport::AckFrame ack;
        for (const transport::JobSpec& job : submit.jobs) {
          Admission admission =
              core_.submit(connection.tenant, job.seq, job.command,
                           job.stdin_data, job.has_stdin);
          if (admission.accepted) {
            ack.seqs.push_back(job.seq);
          } else {
            reject(connection, job.seq, admission.code, admission.retry_after,
                   admission.message);
          }
        }
        // The journal writes above are on disk; only now may the ack exist.
        if (!ack.seqs.empty()) send(connection, transport::encode_ack(ack));
        if (core_.tenant_evicted(connection.tenant)) connection.closing = true;
        break;
      }
      case transport::FrameType::kBye:
        connection.clean_bye = true;
        send(connection, transport::encode_bye());
        connection.closing = true;
        break;
      case transport::FrameType::kHeartbeat:
        break;  // keepalive; nothing to do
      default:
        drop(connection, /*orphaned=*/true);
        break;
    }
  }

  void pump_events() {
    for (TenantEvent& event : core_.take_events()) {
      auto it = by_tenant_.find(event.tenant);
      if (it == by_tenant_.end()) continue;  // orphan: the joblog is delivery
      const JobResult& result = event.result;
      transport::ResultFrame frame;
      frame.seq = result.seq;
      frame.exit_code = result.exit_code;
      frame.term_signal = result.term_signal;
      frame.start_time = result.start_time;
      frame.end_time = result.end_time;
      transport::append_job_frames(it->second->outbuf, frame, result.stdout_data,
                                   result.stderr_data);
    }
  }

  void reject(Connection& connection, std::uint64_t seq, RejectCode code,
              double retry_after, const std::string& message) {
    transport::RejectFrame frame;
    frame.seq = seq;
    frame.code = code;
    frame.retry_after = retry_after;
    frame.message = message;
    send(connection, transport::encode_reject(frame));
  }

  /// Queues a frame. Acks go out once their SUBMIT frames are read, and
  /// the rest with the pass: one write per connection (flush_all).
  void send(Connection& connection, const std::string& encoded) {
    if (connection.fd >= 0) connection.outbuf += encoded;
  }

  void flush_all() {
    for (auto& connection : connections_) flush_writes(*connection);
  }

  /// Writes what the outbuf holds, then has the set watch the connection
  /// for EPOLLOUT only while bytes remain, and for EPOLLIN unless closing.
  void flush_writes(Connection& connection) {
    while (connection.fd >= 0 && !connection.outbuf.empty()) {
      ssize_t n = transport::write_some(connection.fd, connection.outbuf);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        drop(connection, /*orphaned=*/!connection.clean_bye);
        return;
      }
      connection.outbuf.erase(0, static_cast<std::size_t>(n));
    }
    if (connection.fd < 0) return;
    std::uint32_t interest = (connection.closing ? 0u : std::uint32_t{EPOLLIN}) |
                             (connection.outbuf.empty() ? 0u : std::uint32_t{EPOLLOUT});
    if (interest == connection.interest) return;
    epoll_event event{};
    event.events = interest;
    event.data.ptr = &connection;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, connection.fd, &event) != 0) {
      drop(connection, /*orphaned=*/!connection.clean_bye);
      return;
    }
    connection.interest = interest;
  }

  /// Best-effort drain of every connection's outbuf on shutdown: waits for
  /// EPOLLOUT and rewrites until all buffers empty or `budget` seconds
  /// elapse. Only the connections' writes matter now: the signal pipe
  /// leaves the set, no connection reads, and one whose outbuf is empty
  /// closes at once.
  void drain_outbufs(double budget) {
    unwatch(signal_fd_);
    for (auto& connection : connections_) {
      connection->closing = true;
      flush_writes(*connection);
      if (connection->fd >= 0 && connection->outbuf.empty()) {
        drop(*connection, /*orphaned=*/false);
      }
    }
    const double deadline = now() + budget;
    auto waiting = [this] {
      return std::any_of(connections_.begin(), connections_.end(),
                         [](const std::unique_ptr<Connection>& c) { return c->fd >= 0; });
    };
    while (waiting()) {
      double remaining = deadline - now();
      if (remaining <= 0.0) return;
      epoll_event events[kMaxEvents];
      int ready = ::epoll_wait(epoll_fd_, events, kMaxEvents,
                               static_cast<int>(remaining * 1000.0) + 1);
      if (ready < 0) {
        if (errno == EINTR) continue;
        return;
      }
      if (ready == 0) return;  // deadline hit with clients still stalled
      for (int i = 0; i < ready; ++i) {
        if (events[i].data.u64 & ((1u << kKindBits) - 1)) continue;  // the executor's
        Connection& connection = *static_cast<Connection*>(events[i].data.ptr);
        flush_writes(connection);
        if (connection.fd >= 0 && connection.outbuf.empty()) {
          drop(connection, /*orphaned=*/false);
        }
      }
    }
  }

  void drop(Connection& connection, bool orphaned) {
    if (connection.fd < 0) return;
    unwatch(connection.fd);
    ::close(connection.fd);
    connection.fd = -1;
    if (connection.hello_done) {
      by_tenant_.erase(connection.tenant);
      core_.detach_tenant(connection.tenant, orphaned);
    }
  }

  void sweep() {
    double t = now();
    for (auto& connection : connections_) {
      if (connection->fd >= 0 && !connection->hello_done &&
          t - connection->opened_at > kHelloTimeout) {
        drop(*connection, /*orphaned=*/false);
      }
      if (connection->fd >= 0 && connection->closing &&
          connection->outbuf.empty()) {
        drop(*connection, /*orphaned=*/!connection->clean_bye);
      }
    }
    connections_.erase(
        std::remove_if(connections_.begin(), connections_.end(),
                       [](const std::unique_ptr<Connection>& c) { return c->fd < 0; }),
        connections_.end());
  }

  static double now() {
    struct timespec ts{};
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }

  ServerCore& core_;
  const Executor& executor_;
  int epoll_fd_ = -1;
  int signal_fd_ = -1;
  std::vector<int> listeners_;
  std::string token_;  // empty = no admission secret required
  std::vector<std::unique_ptr<Connection>> connections_;
  std::map<std::string, Connection*> by_tenant_;
  bool killed_ = false;
};

}  // namespace

int serve(ServerCore& core, const Executor& executor, std::vector<int> listeners,
          const std::string& token, SignalCoordinator& signals) {
  if (executor.readiness_fd() < 0) {
    for (int fd : listeners) ::close(fd);
    throw util::InternalError("the service loop needs an executor with a readiness fd");
  }
  ServiceLoop loop(core, executor, std::move(listeners), token);
  return loop.run(signals);
}

int run_server(const RunPlan& plan) {
  const ServiceCli& service = plan.service;
  if (::mkdir(service.state_dir.c_str(), 0755) < 0 && errno != EEXIST) {
    throw util::SystemError("mkdir --state-dir '" + service.state_dir + "'", errno);
  }

  exec::LocalExecutor executor;
  ServerConfig config;
  config.state_dir = service.state_dir;
  config.slots = plan.options.effective_jobs();
  config.limits.max_queue_per_tenant = service.max_queue;
  config.limits.max_queue_global = service.max_queue_global;
  config.orphans =
      service.orphan_cancel ? OrphanPolicy::kCancel : OrphanPolicy::kKeep;
  config.options = plan.options;
  ServerCore core(config, executor);

  std::string socket_path = service.socket_path.empty()
                                ? service.state_dir + "/parcl.sock"
                                : service.socket_path;
  std::vector<int> listeners;
  listeners.push_back(util::unix_listen(socket_path));
  util::set_nonblocking(listeners.back());
  if (!service.listen.empty()) {
    listeners.push_back(util::tcp_listen(util::parse_ipv4_endpoint(service.listen)));
    util::set_nonblocking(listeners.back());
  }

  std::cerr << "parcl: --server on " << socket_path << " (slots="
            << config.slots << ", replayed=" << core.stats().replayed
            << " journaled jobs)\n";

  SignalCoordinator signals;
  signals.install();
  int code = serve(core, executor, std::move(listeners), service.token, signals);
  ::unlink(socket_path.c_str());
  const ServerStats& stats = core.stats();
  std::cerr << "parcl: --server shut down (accepted=" << stats.accepted
            << ", completed=" << stats.completed << ", rejected=" << stats.rejected
            << ", checkpointed=" << core.queued_count() << ")\n";
  return code;
}

}  // namespace parcl::core
