#include "core/server.hpp"

#include <fcntl.h>
#include <poll.h>
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

/// Journal field escaping: keep arbitrary command/stdin bytes on one line.
std::string escape_field(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
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

std::string unescape_field(const std::string& escaped, std::size_t line_no) {
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

std::uint64_t parse_u64_field(const std::string& field, std::size_t line_no,
                              const char* name) {
  long value = util::parse_long(field);
  if (value < 0) {
    throw util::ParseError("intake journal line " + std::to_string(line_no) +
                           ": negative " + name);
  }
  return static_cast<std::uint64_t>(value);
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

/// Reads a journal file with the torn-tail tolerance of the joblog reader:
/// a final line without '\n' was cut by a crash mid-write and is dropped
/// (by the write-before-ack ordering it was never acked).
std::vector<std::string> read_journal_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  if (!content.empty() && content.back() != '\n') {
    std::size_t last_nl = content.rfind('\n');
    content.erase(last_nl == std::string::npos ? 0 : last_nl + 1);
  }
  if (content.empty()) return {};
  content.pop_back();  // final '\n': avoid a trailing empty line
  return util::split(content, '\n');
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
  std::string line = "A\t" + std::to_string(record.intake_id) + "\t" +
                     record.tenant + "\t" + std::to_string(record.client_seq) +
                     "\t" + (record.has_stdin ? "1" : "0") + "\t" +
                     escape_field(record.command) + "\t" +
                     escape_field(record.stdin_data) + "\n";
  write_all(fd_, line, "write intake journal");
  if (fsync_each_) ::fsync(fd_);
}

void IntakeJournal::append_cancel(std::uint64_t intake_id) {
  write_all(fd_, "C\t" + std::to_string(intake_id) + "\n", "write intake journal");
  if (fsync_each_) ::fsync(fd_);
}

std::vector<IntakeRecord> IntakeJournal::replay(const std::string& path) {
  std::vector<IntakeRecord> records;
  std::map<std::uint64_t, std::size_t> index;  // intake id -> records slot
  std::set<std::uint64_t> cancelled;
  std::size_t line_no = 0;
  for (const std::string& line : read_journal_lines(path)) {
    ++line_no;
    std::vector<std::string> fields = util::split(line, '\t');
    if (fields.empty()) continue;
    if (fields[0] == "C") {
      if (fields.size() != 2) {
        throw util::ParseError("intake journal line " + std::to_string(line_no) +
                               ": cancel record needs 2 fields");
      }
      cancelled.insert(parse_u64_field(fields[1], line_no, "intake id"));
      continue;
    }
    if (fields[0] != "A" || fields.size() != 7) {
      throw util::ParseError("intake journal line " + std::to_string(line_no) +
                             ": malformed record");
    }
    IntakeRecord record;
    record.intake_id = parse_u64_field(fields[1], line_no, "intake id");
    record.tenant = fields[2];
    record.client_seq = parse_u64_field(fields[3], line_no, "client seq");
    record.has_stdin = fields[4] == "1";
    record.command = unescape_field(fields[5], line_no);
    record.stdin_data = unescape_field(fields[6], line_no);
    index[record.intake_id] = records.size();
    records.push_back(std::move(record));
  }
  if (cancelled.empty()) return records;
  std::vector<IntakeRecord> kept;
  kept.reserve(records.size());
  for (IntakeRecord& record : records) {
    if (!cancelled.count(record.intake_id)) kept.push_back(std::move(record));
  }
  return kept;
}

std::uint64_t IntakeJournal::max_intake_id(const std::string& path) {
  std::uint64_t max_id = 0;
  std::size_t line_no = 0;
  for (const std::string& line : read_journal_lines(path)) {
    ++line_no;
    std::vector<std::string> fields = util::split(line, '\t');
    if (fields.size() < 2 || (fields[0] != "A" && fields[0] != "C")) continue;
    max_id = std::max(max_id, parse_u64_field(fields[1], line_no, "intake id"));
  }
  return max_id;
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

std::vector<IntakeRecord> ServerCore::replay_pending(const std::string& state_dir) {
  std::vector<IntakeRecord> accepted = IntakeJournal::replay(journal_path(state_dir));
  if (accepted.empty()) return accepted;
  std::set<std::uint64_t> ledgered;
  struct stat st{};
  if (::stat(ledger_path(state_dir).c_str(), &st) == 0) {
    // --resume semantics over the intake-id-keyed ledger: every ledgered
    // id already ran (success or failure — the service does not retry).
    ledgered = read_resume_skip_set(ledger_path(state_dir), /*rerun_failed=*/false);
  }
  std::vector<IntakeRecord> unfinished;
  unfinished.reserve(accepted.size());
  for (IntakeRecord& record : accepted) {
    if (!ledgered.count(record.intake_id)) unfinished.push_back(std::move(record));
  }
  return unfinished;
}

ServerCore::ServerCore(ServerConfig config, Executor& executor)
    : config_(std::move(config)),
      executor_(executor),
      journal_(journal_path(config_.state_dir), config_.options.joblog_fsync),
      ledger_(ledger_path(config_.state_dir), config_.options.joblog_fsync),
      engine_(loop_options(config_), executor, discard_, discard_) {
  engine_.set_result_callback([this](const JobResult& result) { record_result(result); });
  engine_.begin(CommandTemplate::parse("{}"), *this);
  next_intake_id_ = IntakeJournal::max_intake_id(journal_path(config_.state_dir)) + 1;
  double now = executor_.now();
  for (IntakeRecord& record : replay_pending(config_.state_dir)) {
    // Tenants resurface at weight 1 until their client reconnects and
    // re-states a weight; the journal promise (acked work runs) does not
    // depend on the client ever returning.
    ensure_tenant(record.tenant, 1.0, /*connected=*/false);
    std::uint64_t id = record.intake_id;
    Pending pending;
    pending.record = std::move(record);
    pending.accept_time = now;
    queue_.push(pending.record.tenant, id);
    pending_.emplace(id, std::move(pending));
    ++stats_.replayed;
  }
}

void ServerCore::ensure_tenant(const std::string& tenant, double weight,
                               bool connected) {
  Tenant& t = tenants_[tenant];
  t.weight = weight;
  if (connected) {
    t.connected = true;
    t.strikes = 0;
  }
  queue_.attach(tenant, weight);
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
  if (!orphaned || config_.orphans == OrphanPolicy::kKeep) return;
  // Orphan-cancel: queued jobs are journal-cancelled (the restart replay
  // must not resurrect them), running ones are killed — their deaths still
  // flow through step() and the ledger, so exactly-once holds.
  for (std::uint64_t id : queue_.detach(tenant)) {
    journal_.append_cancel(id);
    pending_.erase(id);
    ++stats_.cancelled;
  }
  for (auto& [id, pending] : pending_) {
    if (pending.record.tenant == tenant) engine_.kill(id, /*force=*/false);
  }
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
  ++stats_.accepted;
  return Admission::accept(id);
}

bool ServerCore::ready() const { return !draining_ && queue_.total_queued() > 0; }

std::optional<JobInput> ServerCore::next() {
  if (!ready()) return std::nullopt;
  std::optional<FairShareQueue::Popped> popped = queue_.pop();
  Pending& pending = pending_.at(popped->id);
  stats_.queue_latency_seconds.push_back(executor_.now() - pending.accept_time);
  ++stats_.served_by_tenant[popped->tenant];
  JobInput job;
  job.seq = popped->id;
  job.args.push_back(std::move(pending.record.command));
  job.stdin_data = std::move(pending.record.stdin_data);
  job.has_stdin = pending.record.has_stdin;
  return job;
}

void ServerCore::record_result(const JobResult& result) {
  auto it = pending_.find(result.seq);
  if (it == pending_.end()) {
    throw util::InternalError("loop finished a job the server never queued");
  }
  const IntakeRecord& record = it->second.record;
  // Ledger first (keyed by intake id, host column = tenant): this row IS
  // the exactly-once decision — replay subtracts it. The tenant joblog and
  // the RESULT frame are deliveries, written after the decision.
  ledger_.record(result, record.tenant);
  JobResult tenant_row = result;
  tenant_row.seq = record.client_seq;
  tenant_joblog(record.tenant).record(tenant_row, kLocalHost);
  ++stats_.completed;
  events_.push_back(TenantEvent{record.tenant, std::move(tenant_row)});
  pending_.erase(it);
}

std::size_t ServerCore::step(double timeout_seconds) {
  std::size_t completions = 0;
  double wait = engine_.running() > 0 ? timeout_seconds : 0.0;
  while (engine_.step(wait) == Engine::Step::kReaped) {
    ++completions;
    wait = 0.0;
  }
  return completions;
}

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

class ServiceLoop {
 public:
  ServiceLoop(ServerCore& core, std::vector<int> listeners, std::string token)
      : core_(core), listeners_(std::move(listeners)), token_(std::move(token)) {}

  ~ServiceLoop() {
    for (auto& connection : connections_) drop(*connection, /*orphaned=*/false);
    for (int fd : listeners_) ::close(fd);
  }

  int run(SignalCoordinator& signals) {
    while (true) {
      core_.step(0.0);
      pump_events();
      flush_all();
      sweep();
      if (core_.draining() && core_.running_count() == 0) {
        for (auto& connection : connections_) {
          if (connection->hello_done) send(*connection, transport::encode_bye());
        }
        // Tail RESULT/BYE frames may still sit in outbufs (nonblocking
        // writes hit EAGAIN on slow clients); give each socket a bounded
        // POLLOUT drain before the close. Past the deadline the joblog is
        // the delivery contract.
        drain_outbufs(kShutdownFlushTimeout);
        return 0;
      }
      if (poll_once(signals.fd())) on_signals(signals.poll());
    }
  }

 private:
  void on_signals(int signal_count) {
    if (signal_count >= 1 && !core_.draining()) {
      // Drain phase 1: stop admitting (listeners close, submits reject),
      // let in-flight work finish; queued work stays journaled as the
      // restart checkpoint.
      std::cerr << "parcl: --server draining (" << core_.running_count()
                << " running, " << core_.queued_count() << " queued checkpointed)\n";
      core_.begin_drain();
      for (int fd : listeners_) ::close(fd);
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

  /// One poll(2) over the signal pipe, the executor's readiness fd, the
  /// listeners and the connections. It sleeps until one of them is ready or
  /// the engine's next deadline (a timeout, the --delay gate, a retry's
  /// backoff) or a CLIENT_HELLO deadline passes; with neither, it blocks.
  /// Returns whether a signal may have arrived.
  bool poll_once(int signal_fd) {
    std::vector<pollfd> fds;
    fds.reserve(2 + listeners_.size() + connections_.size());
    fds.push_back({signal_fd, POLLIN, 0});
    fds.push_back({core_.wait_fd(), POLLIN, 0});  // -1: nothing running
    for (int fd : listeners_) fds.push_back({fd, POLLIN, 0});
    double wait = core_.wait_seconds();
    const double t = now();
    for (auto& connection : connections_) {
      short events = connection->closing ? 0 : POLLIN;
      if (!connection->outbuf.empty()) events |= POLLOUT;
      fds.push_back({connection->fd, events, 0});
      if (!connection->hello_done) {
        double until = std::max(0.0, connection->opened_at + kHelloTimeout - t);
        wait = wait < 0.0 ? until : std::min(wait, until);
      }
    }
    int timeout_ms =
        wait < 0.0 ? -1 : static_cast<int>(std::min(std::ceil(wait * 1e3), 3.6e6));
    int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) return true;
      throw util::SystemError("poll", errno);
    }
    // accept_all() grows connections_, but fds only covers the pre-poll
    // list — iterate that many by index (the vector may also reallocate)
    // and let freshly accepted connections wait for the next poll pass.
    const std::size_t polled = connections_.size();
    std::size_t index = 2;  // past the signal pipe and the executor
    for (int fd : listeners_) {
      if (fds[index++].revents & POLLIN) accept_all(fd);
    }
    for (std::size_t i = 0; i < polled; ++i) {
      Connection& connection = *connections_[i];
      short revents = fds[index++].revents;
      if (revents == 0) continue;
      if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
        if (!(revents & POLLIN)) {  // HUP with pending bytes: read them first
          drop(connection, /*orphaned=*/!connection.clean_bye);
          continue;
        }
      }
      if ((revents & POLLIN) && !connection.closing) read_frames(connection);
      // Acks leave as soon as their frames are read: the journal writes
      // they confirm are already on disk.
      if (connection.fd >= 0 && !connection.outbuf.empty()) flush_writes(connection);
    }
    return (fds[0].revents & POLLIN) != 0;
  }

  void accept_all(int listener) {
    while (true) {
      int fd = ::accept4(listener, nullptr, nullptr, SOCK_CLOEXEC | SOCK_NONBLOCK);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
        return;  // transient accept errors never take the service down
      }
      auto connection = std::make_unique<Connection>();
      connection->fd = fd;
      connection->opened_at = now();
      connections_.push_back(std::move(connection));
    }
  }

  void read_frames(Connection& connection) {
    char buffer[65536];
    while (connection.fd >= 0) {
      ssize_t n = ::read(connection.fd, buffer, sizeof(buffer));
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        drop(connection, /*orphaned=*/true);
        return;
      }
      if (n == 0) {
        drop(connection, /*orphaned=*/!connection.clean_bye);
        return;
      }
      try {
        connection.decoder.feed(buffer, static_cast<std::size_t>(n));
        while (auto frame = connection.decoder.next()) {
          handle_frame(connection, *frame);
          if (connection.fd < 0 || connection.closing) return;
        }
      } catch (const transport::ProtocolError&) {
        // Oversized length prefix, unknown type, torn payload: the stream
        // is unrecoverable. The misbehaving client is cut loose; everyone
        // else is untouched.
        drop(connection, /*orphaned=*/true);
        return;
      }
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
      Connection& connection = *it->second;
      const JobResult& result = event.result;
      transport::ResultFrame frame;
      frame.seq = result.seq;
      frame.exit_code = result.exit_code;
      frame.term_signal = result.term_signal;
      frame.start_time = result.start_time;
      frame.end_time = result.end_time;
      frame.stdout_chunks = send_chunks(connection, transport::FrameType::kStdout,
                                        result.seq, result.stdout_data);
      frame.stderr_chunks = send_chunks(connection, transport::FrameType::kStderr,
                                        result.seq, result.stderr_data);
      send(connection, transport::encode_result(frame));
    }
  }

  std::uint64_t send_chunks(Connection& connection, transport::FrameType type,
                            std::uint64_t seq, const std::string& data) {
    std::uint64_t index = 0;
    for (std::size_t offset = 0; offset < data.size();
         offset += transport::kChunkBytes) {
      transport::ChunkFrame chunk;
      chunk.seq = seq;
      chunk.index = index++;
      chunk.data = data.substr(offset, transport::kChunkBytes);
      send(connection, transport::encode_chunk(type, chunk));
    }
    return index;
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
    for (auto& connection : connections_) {
      if (connection->fd >= 0 && !connection->outbuf.empty()) flush_writes(*connection);
    }
  }

  void flush_writes(Connection& connection) {
    while (connection.fd >= 0 && !connection.outbuf.empty()) {
      ssize_t n = ::write(connection.fd, connection.outbuf.data(),
                          connection.outbuf.size());
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        drop(connection, /*orphaned=*/!connection.clean_bye);
        return;
      }
      connection.outbuf.erase(0, static_cast<std::size_t>(n));
    }
  }

  /// Blocking best-effort drain of every connection's outbuf: poll POLLOUT
  /// and rewrite until all buffers empty or `budget` seconds elapse. Used
  /// only on the shutdown path, where the nonblocking loop is about to
  /// stop turning.
  void drain_outbufs(double budget) {
    const double deadline = now() + budget;
    while (true) {
      std::vector<pollfd> fds;
      std::vector<Connection*> waiting;
      for (auto& connection : connections_) {
        if (connection->fd >= 0 && !connection->outbuf.empty()) {
          fds.push_back({connection->fd, POLLOUT, 0});
          waiting.push_back(connection.get());
        }
      }
      if (fds.empty()) return;
      double remaining = deadline - now();
      if (remaining <= 0.0) return;
      int ready = ::poll(fds.data(), fds.size(),
                         static_cast<int>(remaining * 1000.0) + 1);
      if (ready < 0) {
        if (errno == EINTR) continue;
        return;
      }
      if (ready == 0) return;  // deadline hit with clients still stalled
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if (fds[i].revents & (POLLOUT | POLLERR | POLLHUP | POLLNVAL)) {
          flush_writes(*waiting[i]);
        }
      }
    }
  }

  void drop(Connection& connection, bool orphaned) {
    if (connection.fd < 0) return;
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
  std::vector<int> listeners_;
  std::string token_;  // empty = no admission secret required
  std::vector<std::unique_ptr<Connection>> connections_;
  std::map<std::string, Connection*> by_tenant_;
  bool killed_ = false;
};

}  // namespace

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
  int code;
  {
    ServiceLoop loop(core, std::move(listeners), service.token);
    code = loop.run(signals);
  }
  ::unlink(socket_path.c_str());
  const ServerStats& stats = core.stats();
  std::cerr << "parcl: --server shut down (accepted=" << stats.accepted
            << ", completed=" << stats.completed << ", rejected=" << stats.rejected
            << ", checkpointed=" << core.queued_count() << ")\n";
  return code;
}

}  // namespace parcl::core
