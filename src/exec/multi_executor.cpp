#include "exec/multi_executor.hpp"

#include <time.h>

#include <chrono>

#include "exec/local_executor.hpp"
#include "util/error.hpp"
#include "util/shell.hpp"

namespace parcl::exec {

namespace {
double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void nap_2ms() {
  struct timespec ts{0, 2'000'000};
  nanosleep(&ts, nullptr);
}
}  // namespace

namespace {
constexpr std::size_t kNoHost = static_cast<std::size_t>(-1);
}

MultiExecutor::MultiExecutor(
    std::vector<HostSpec> hosts,
    std::function<std::unique_ptr<core::Executor>(const HostSpec&)> make_executor,
    HealthPolicy policy)
    : health_(std::move(policy), hosts.size()),
      make_executor_(std::move(make_executor)),
      inflight_by_host_(hosts.size(), 0) {
  if (hosts.empty()) throw util::ConfigError("multi executor needs at least one host");
  std::map<std::string, std::size_t> name_uses;
  std::size_t next_slot = 1;
  for (HostSpec& spec : hosts) {
    if (spec.jobs == 0) {
      throw util::ConfigError("host '" + spec.name + "' needs jobs > 0");
    }
    // A repeated --sshlogin name gets a "#k" suffix so per-host maps (starts,
    // health states) stay one-to-one while the wrapper still targets the
    // original login.
    std::size_t uses = ++name_uses[spec.name];
    if (uses > 1) spec.name += "#" + std::to_string(uses);
    Host host;
    host.first_slot = next_slot;
    next_slot += spec.jobs;
    host.spec = std::move(spec);
    host.executor = make_executor_(host.spec);
    util::require(host.executor != nullptr, "make_executor returned null");
    host.pilot = dynamic_cast<PilotExecutor*>(host.executor.get());
    hosts_.push_back(std::move(host));
  }
  total_slots_ = next_slot - 1;
}

std::unique_ptr<MultiExecutor> MultiExecutor::local_cluster(std::vector<HostSpec> hosts,
                                                            HealthPolicy policy) {
  return std::make_unique<MultiExecutor>(
      std::move(hosts),
      [](const HostSpec&) { return std::make_unique<LocalExecutor>(); },
      std::move(policy));
}

std::unique_ptr<MultiExecutor> MultiExecutor::pilot_cluster(
    std::vector<HostSpec> hosts,
    std::function<std::vector<std::string>(const HostSpec&)> worker_argv,
    PilotSettings settings, HealthPolicy policy) {
  return std::make_unique<MultiExecutor>(
      std::move(hosts),
      [worker_argv = std::move(worker_argv),
       settings = std::move(settings)](const HostSpec& spec) {
        std::vector<std::string> argv =
            worker_argv ? worker_argv(spec) : std::vector<std::string>{};
        std::unique_ptr<WorkerTransport> transport;
        if (argv.empty()) {
          WorkerConfig config;
          config.heartbeat_interval = settings.heartbeat_interval;
          transport = std::make_unique<ThreadWorkerTransport>(std::move(config));
        } else {
          transport = std::make_unique<ProcessWorkerTransport>(std::move(argv));
        }
        return std::make_unique<PilotExecutor>(std::move(transport), settings);
      },
      std::move(policy));
}

MultiExecutor::Host& MultiExecutor::host_of(std::size_t flat_slot) {
  for (Host& host : hosts_) {
    if (flat_slot >= host.first_slot && flat_slot < host.first_slot + host.spec.jobs) {
      return host;
    }
  }
  throw util::InternalError("slot " + std::to_string(flat_slot) + " maps to no host");
}

const MultiExecutor::Host& MultiExecutor::host_of(std::size_t flat_slot) const {
  return const_cast<MultiExecutor*>(this)->host_of(flat_slot);
}

std::size_t MultiExecutor::host_index_of_slot(std::size_t flat_slot) const {
  return static_cast<std::size_t>(&host_of(flat_slot) - hosts_.data());
}

const HostSpec& MultiExecutor::host_for_slot(std::size_t slot) const {
  return host_of(slot).spec;
}

HostState MultiExecutor::host_state(const std::string& name) const {
  // Newest-first: a re-added host shadows the tombstone of its namesake.
  for (std::size_t k = hosts_.size(); k-- > 0;) {
    if (hosts_[k].spec.name == name) return health_.state(k);
  }
  throw util::ConfigError("unknown host '" + name + "'");
}

double MultiExecutor::now() const { return monotonic_seconds(); }

bool MultiExecutor::slot_usable(std::size_t slot) const {
  std::size_t index = host_index_of_slot(slot);
  return hosts_[index].membership == Membership::kActive &&
         health_.dispatchable(index);
}

bool MultiExecutor::same_failure_domain(std::size_t a, std::size_t b) const {
  return host_index_of_slot(a) == host_index_of_slot(b);
}

std::string MultiExecutor::wrap_command(const Host& host,
                                        const std::string& command) const {
  if (!wraps(host)) return command;
  // The wrapper receives the command as one quoted argument, like parallel
  // composing `ssh host "cmd"`.
  return host.spec.wrapper + " " + util::shell_quote(command);
}

void MultiExecutor::queue_synthetic_loss(const core::ExecRequest& request,
                                         const Host& host) {
  core::ExecResult result;
  result.job_id = request.job_id;
  result.exit_code = 255;  // the wrapper/transport convention (ssh)
  result.start_time = result.end_time = now();
  result.host = host.spec.name;
  result.host_failure = true;
  synthetic_.push_back(std::move(result));
}

void MultiExecutor::abandon_in_flight(std::size_t host_index) {
  // Requeue path for jobs stranded on a condemned host: kill them through
  // the host backend; their completions surface flagged host_failure so the
  // engine reschedules them onto healthy hosts without charging --retries.
  Host& host = hosts_[host_index];
  for (const auto& [id, owner] : job_host_) {
    if (owner != host_index) continue;
    // Idempotent: pump_drains() re-runs this every sweep past the drain
    // deadline until the stragglers surface.
    if (!lost_.insert(id).second) continue;
    ++health_.counters().jobs_lost;
    host.executor->kill(id, /*force=*/true);
  }
}

void MultiExecutor::start(const core::ExecRequest& request) {
  Host& host = host_of(request.slot);
  std::size_t host_index = static_cast<std::size_t>(&host - hosts_.data());
  if (host.membership != Membership::kActive ||
      !health_.dispatchable(host_index)) {
    // The scheduler normally vetoes these slots via slot_usable(); a racing
    // quarantine can still land here. Surface the loss instead of running.
    queue_synthetic_loss(request, host);
    return;
  }
  core::ExecRequest routed = request;
  routed.command = wrap_command(host, request.command);
  try {
    host.executor->start(routed);
  } catch (const util::SystemError&) {
    // A host-level spawn error is evidence against the host, not the job:
    // classify it and convert it into a synthetic completion so the engine's
    // free-reschedule path handles it like any other host failure.
    if (health_.record_host_failure(host_index, now())) {
      abandon_in_flight(host_index);
    }
    queue_synthetic_loss(request, host);
    return;
  }
  job_host_[request.job_id] = host_index;
  ++inflight_by_host_[host_index];
  ++starts_by_host_[host.spec.name];
}

void MultiExecutor::pump_pilot(std::size_t host_index) {
  Host& host = hosts_[host_index];
  host.pilot->pump();
  // Heartbeat gaps are health evidence on their own: a host can stall
  // without ever completing (or visibly losing) a job. Only observe while
  // the channel could plausibly speak — attached, or owing us jobs.
  if (!host.pilot->dead() &&
      (host.pilot->attached() || inflight_by_host_[host_index] > 0)) {
    bool tripped = health_.observe_heartbeat(host_index,
                                             host.pilot->heartbeat_age(),
                                             host.pilot->stall_threshold(),
                                             now());
    if (tripped) abandon_in_flight(host_index);
  }
}

std::size_t MultiExecutor::find_live_host(const std::string& name) const {
  // Newest-first: the live instance of a re-granted name wins over any
  // still-draining predecessor.
  for (std::size_t k = hosts_.size(); k-- > 0;) {
    if (hosts_[k].membership == Membership::kRemoved) continue;
    if (hosts_[k].spec.name == name) return k;
  }
  return kNoHost;
}

std::size_t MultiExecutor::find_live_host_by_key(const std::string& file_key) const {
  for (std::size_t k = hosts_.size(); k-- > 0;) {
    if (hosts_[k].membership == Membership::kRemoved) continue;
    if (hosts_[k].spec.file_key == file_key) return k;
  }
  return kNoHost;
}

std::size_t MultiExecutor::live_host_count() const {
  std::size_t count = 0;
  for (const Host& host : hosts_) {
    if (host.membership == Membership::kActive) ++count;
  }
  return count;
}

std::size_t MultiExecutor::slot_capacity() const {
  // 0 ("static backend") until elasticity engages, so fixed-allocation
  // runs keep exactly the -j the engine configured.
  return elastic_ ? total_slots_ : 0;
}

std::string MultiExecutor::add_host(HostSpec spec, bool probe_first) {
  if (spec.jobs == 0) {
    throw util::ConfigError("host '" + spec.name + "' needs jobs > 0");
  }
  elastic_ = true;
  std::string base = spec.name;
  for (std::size_t uses = 2; find_live_host(spec.name) != kNoHost; ++uses) {
    spec.name = base + "#" + std::to_string(uses);
  }
  Host host;
  host.first_slot = total_slots_ + 1;
  host.spec = std::move(spec);
  host.executor = make_executor_(host.spec);
  util::require(host.executor != nullptr, "make_executor returned null");
  host.pilot = dynamic_cast<PilotExecutor*>(host.executor.get());
  // A fresh health entry even when this name lived (and died) before: the
  // re-granted node must not inherit the tombstone's streak or backoff.
  std::size_t index = health_.add_host();
  util::require(index == hosts_.size(), "health entry out of sync with hosts");
  total_slots_ += host.spec.jobs;
  inflight_by_host_.push_back(0);
  hosts_.push_back(std::move(host));
  if (probe_first) health_.probation(index, now());
  return hosts_.back().spec.name;
}

void MultiExecutor::drain_host(const std::string& name, double grace_seconds) {
  std::size_t index = find_live_host(name);
  if (index == kNoHost) {
    throw util::ConfigError("unknown or removed host '" + name + "'");
  }
  drain_host_index(index, grace_seconds);
}

void MultiExecutor::remove_host(const std::string& name) {
  // A drain with no notice: in-flight jobs are killed right away; the
  // eviction itself completes once their host_failure completions have
  // surfaced (wait_any must still resolve the stragglers' host).
  drain_host(name, 0.0);
}

void MultiExecutor::drain_host_index(std::size_t index, double grace_seconds) {
  Host& host = hosts_[index];
  if (host.membership == Membership::kRemoved) return;
  elastic_ = true;
  double deadline = now() + std::max(0.0, grace_seconds);
  if (host.membership == Membership::kDraining) {
    // Repeated notices only ever tighten the deadline.
    host.drain_deadline = std::min(host.drain_deadline, deadline);
  } else {
    host.membership = Membership::kDraining;
    host.drain_deadline = deadline;
  }
  if (inflight_by_host_[index] == 0) {
    finish_drain(index);
  } else if (grace_seconds <= 0.0) {
    abandon_in_flight(index);
  }
}

void MultiExecutor::finish_drain(std::size_t index) {
  // The Host entry stays as a tombstone: host_of() keeps resolving its slot
  // range for any straggler completions, and the slot ids stay vetoed via
  // slot_usable() forever (the flat slot space only ever grows).
  hosts_[index].membership = Membership::kRemoved;
  health_.evict(index);
}

void MultiExecutor::pump_drains() {
  double t = now();
  for (std::size_t k = 0; k < hosts_.size(); ++k) {
    Host& host = hosts_[k];
    if (host.membership != Membership::kDraining) continue;
    if (inflight_by_host_[k] == 0) {
      finish_drain(k);
      continue;
    }
    if (t >= host.drain_deadline) abandon_in_flight(k);
  }
}

void MultiExecutor::watch_sshlogin_file(
    std::string path, std::function<HostSpec(const SshLoginEntry&)> make_spec,
    WatchSettings settings) {
  util::require(make_spec != nullptr, "watch_sshlogin_file needs a spec builder");
  elastic_ = true;
  make_spec_ = std::move(make_spec);
  watch_settings_ = settings;
  watcher_ = std::make_unique<HostSetController>(std::move(path));
}

void MultiExecutor::pump_host_set() {
  if (watcher_ == nullptr) return;
  if (auto desired = watcher_->poll(now())) apply_host_set(*desired);
}

void MultiExecutor::apply_host_set(const std::vector<SshLoginEntry>& desired) {
  // Diff on file-entry identity (file_key = the make_spec_-normalized login
  // name, so ":"-style entries compare normalized and "#k" dedup suffixes
  // on registered names cannot mis-pair). Duplicate lines collapse to the
  // first (use "N/host" for more slots on one host).
  std::vector<HostSpec> specs;
  std::set<std::string> wanted;
  for (const SshLoginEntry& entry : desired) {
    HostSpec spec = make_spec_(entry);
    spec.file_key = spec.name;
    if (!wanted.insert(spec.file_key).second) continue;
    specs.push_back(std::move(spec));
  }
  // Drains before adds, so a renamed entry frees its name for the
  // replacement within one application. Only hosts the file contributed
  // (non-empty file_key) are the file's to drain: static -S/construction
  // hosts are out of scope, including when the file vanishes ("release
  // everything it named"). Newest-first, matching find_live_host_by_key,
  // so when several live hosts realize one entry (duplicate startup lines)
  // the one a later lookup would resolve is the one kept.
  std::set<std::string> claimed;
  for (std::size_t k = hosts_.size(); k-- > 0;) {
    if (hosts_[k].membership == Membership::kRemoved) continue;
    if (hosts_[k].spec.file_key.empty()) continue;  // static: not ours
    if (wanted.count(hosts_[k].spec.file_key) != 0 &&
        claimed.insert(hosts_[k].spec.file_key).second) {
      continue;
    }
    drain_host_index(k, watch_settings_.drain_grace);
  }
  for (HostSpec& spec : specs) {
    std::size_t index = find_live_host_by_key(spec.file_key);
    if (index != kNoHost && (hosts_[index].spec.jobs != spec.jobs ||
                             hosts_[index].spec.wrapper != spec.wrapper)) {
      // Resized or re-wrapped entry. A host's slot range is fixed at add
      // time, so the old incarnation drains out under a versioned name —
      // and stops representing the entry — while a fresh host takes over
      // with the new shape.
      hosts_[index].spec.name +=
          "~v" + std::to_string(++retired_incarnations_);
      hosts_[index].spec.file_key.clear();
      drain_host_index(index, watch_settings_.drain_grace);
      index = kNoHost;
    }
    if (index == kNoHost) {
      add_host(std::move(spec), watch_settings_.probe_new_hosts);
    } else if (hosts_[index].membership == Membership::kDraining) {
      // Reappeared before the drain finished (a rescinded preemption
      // notice): resurrect in place — in-flight jobs simply keep running.
      hosts_[index].membership = Membership::kActive;
    }
  }
}

void MultiExecutor::pump_probes() {
  double t = now();
  for (std::size_t k = 0; k < hosts_.size(); ++k) {
    Host& host = hosts_[k];
    if (host.membership != Membership::kActive) continue;
    if (host.pilot != nullptr) {
      // Pilot hosts reinstate by reattaching the transport, not by running
      // a job: the handshake (HELLO/HELLO_ACK + journal reconcile) is a
      // stronger liveness proof than `true` and costs no process spawn.
      if (!health_.take_due_probe(k, t)) continue;
      bool ok = host.pilot->probe_transport();
      health_.record_probe_result(k, ok, now());
      continue;
    }
    if (host.probe_job_id != 0) continue;  // one probe per host at a time
    if (!health_.take_due_probe(k, t)) continue;
    if (!start_probe(host)) health_.record_probe_result(k, /*ok=*/false, t);
  }
}

bool MultiExecutor::start_probe(Host& host) {
  core::ExecRequest probe;
  probe.job_id = next_probe_id_++;
  probe.command = wrap_command(host, health_.policy().probe_command);
  probe.slot = host.first_slot;
  probe.use_shell = true;
  probe.capture_output = true;
  try {
    host.executor->start(probe);
  } catch (const util::SystemError&) {
    return false;
  }
  host.probe_job_id = probe.job_id;
  return true;
}

void MultiExecutor::finalize(core::ExecResult& result, std::size_t host_index) {
  Host& host = hosts_[host_index];
  // Re-express child-clock times on our clock (monotonic clocks share rate;
  // the offset is measured now, which is exact enough for the engine's
  // makespan accounting).
  double delta = now() - host.executor->now();
  result.start_time += delta;
  result.end_time += delta;
  result.host = host.spec.name;
  if (job_host_.erase(result.job_id) != 0 && inflight_by_host_[host_index] > 0) {
    --inflight_by_host_[host_index];
  }

  bool deliberate = deliberate_kills_.erase(result.job_id) > 0;
  bool was_lost = lost_.erase(result.job_id) > 0;
  // Transport-level death: the wrapper (ssh) exits 255 when the connection
  // fails, so with a wrapper in use the job likely never ran.
  bool transport = result.term_signal == 0 && result.exit_code == 255 && wraps(host);
  if (was_lost) {
    result.host_failure = true;  // killed by quarantine, requeue free
  } else if (deliberate) {
    // Engine-initiated kill (timeout, halt, --termseq): neutral evidence.
  } else if (result.host_failure || transport || result.term_signal != 0) {
    // host_failure may arrive pre-set from a churn-aware inner backend
    // (SimExecutor node loss). Signal deaths alone only *suggest* a host
    // problem: they feed the suspicion streak, and become a host failure
    // for the engine only if they trip quarantine.
    bool explicit_loss = result.host_failure || transport;
    bool tripped = health_.record_host_failure(host_index, now());
    result.host_failure = explicit_loss || tripped;
    if (tripped) abandon_in_flight(host_index);
  } else {
    // Success or a clean nonzero exit: the host did its part.
    health_.record_host_ok(host_index);
  }
}

std::optional<core::ExecResult> MultiExecutor::wait_any(double timeout_seconds) {
  double deadline = timeout_seconds < 0.0 ? -1.0 : now() + timeout_seconds;
  while (true) {
    pump_host_set();
    pump_drains();
    pump_probes();
    if (!synthetic_.empty()) {
      core::ExecResult result = std::move(synthetic_.front());
      synthetic_.pop_front();
      return result;
    }
    bool any_active = false;
    for (std::size_t k = 0; k < hosts_.size(); ++k) {
      std::size_t index = (rr_cursor_ + k) % hosts_.size();
      Host& host = hosts_[index];
      // A pilot channel needs servicing even with nothing in flight:
      // heartbeats must drain and reconnects must progress.
      if (host.pilot != nullptr) pump_pilot(index);
      if (inflight_by_host_[index] == 0 && host.probe_job_id == 0) continue;
      any_active = true;
      while (std::optional<core::ExecResult> result = host.executor->wait_any(0.0)) {
        if (result->job_id == host.probe_job_id) {
          bool ok = result->term_signal == 0 && result->exit_code == 0;
          host.probe_job_id = 0;
          health_.record_probe_result(index, ok, now());
          continue;  // probes never surface to the engine
        }
        rr_cursor_ = (index + 1) % hosts_.size();
        finalize(*result, index);
        return result;
      }
    }
    // One full sweep has happened by this point, so a zero timeout still
    // observes already-finished jobs.
    if (!any_active && deadline < 0.0) return std::nullopt;
    if (deadline >= 0.0 && now() >= deadline) return std::nullopt;
    nap_2ms();
  }
}

void MultiExecutor::kill(std::uint64_t job_id, bool force) {
  auto it = job_host_.find(job_id);
  if (it == job_host_.end()) return;  // already reaped or never started: no-op
  deliberate_kills_.insert(job_id);
  hosts_[it->second].executor->kill(job_id, force);
}

void MultiExecutor::kill_signal(std::uint64_t job_id, int sig) {
  auto it = job_host_.find(job_id);
  if (it == job_host_.end()) return;  // already reaped or never started: no-op
  deliberate_kills_.insert(job_id);
  hosts_[it->second].executor->kill_signal(job_id, sig);
}

std::size_t MultiExecutor::active_count() const {
  // The engine's view: its own jobs, including synthetic losses it has not
  // collected yet — but never our internal probes.
  std::size_t total = synthetic_.size();
  for (std::size_t count : inflight_by_host_) total += count;
  return total;
}

std::vector<std::string> MultiExecutor::filter_hosts(double timeout_seconds) {
  std::vector<std::size_t> down;
  std::vector<std::size_t> outstanding;  // hosts whose probe job runs
  for (std::size_t k = 0; k < hosts_.size(); ++k) {
    Host& host = hosts_[k];
    if (host.pilot != nullptr) {
      // As in pump_probes: a pilot host proves itself by attaching.
      if (!host.pilot->probe_transport()) down.push_back(k);
    } else if (start_probe(host)) {
      outstanding.push_back(k);
    } else {
      down.push_back(k);
    }
  }
  double deadline = now() + timeout_seconds;
  while (!outstanding.empty() && now() < deadline) {
    for (auto it = outstanding.begin(); it != outstanding.end();) {
      Host& host = hosts_[*it];
      std::optional<core::ExecResult> result = host.executor->wait_any(0.0);
      if (result && result->job_id == host.probe_job_id) {
        bool ok = result->term_signal == 0 && result->exit_code == 0;
        host.probe_job_id = 0;
        if (!ok) down.push_back(*it);
        it = outstanding.erase(it);
      } else {
        ++it;
      }
    }
    if (outstanding.empty()) break;
    nap_2ms();
  }
  // Hosts still silent at the deadline count as down. Their probe stays in
  // flight; a late success reinstates through the normal probe loop.
  down.insert(down.end(), outstanding.begin(), outstanding.end());
  std::vector<std::string> names;
  for (std::size_t k : down) {
    health_.quarantine(k, now());
    names.push_back(hosts_[k].spec.name);
  }
  return names;
}

}  // namespace parcl::exec
