// MultiExecutor: distribute jobs over several "hosts" — the library analog
// of GNU Parallel's --sshlogin fan-out and of the paper's driver-script
// pattern (Listing 1) when real remote shells are available.
//
// Each host is a child executor plus a slot budget and an optional command
// wrapper (e.g. "ssh node07" or a container-entry prefix). The engine sees
// one flat slot space 1..sum(jobs); MultiExecutor routes a request's slot
// to its host, rewrites the command through the wrapper, and merges
// completions. {%} semantics are preserved within the flat space, so slot
// -> (host, local device) mappings stay stable, which is what the GPU
// isolation recipe needs across nodes.
//
// On top of routing sits the host-health layer (exec/host_health.hpp):
// completions are classified as job vs. host failures, hosts accumulate a
// suspicion streak and get quarantined, quarantined hosts receive no
// dispatch (slot_usable() vetoes their slots), their in-flight jobs are
// killed and surfaced with host_failure=true so the engine requeues them
// free of --retries, and exponential-backoff probe jobs — run through the
// same wrapper — decide reinstatement.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "exec/host_health.hpp"
#include "exec/host_set.hpp"
#include "exec/pilot_executor.hpp"

namespace parcl::exec {

struct HostSpec {
  std::string name;              // label for diagnostics / joblog Host
  std::size_t jobs = 1;          // slot budget on this host
  /// Wrapper prefix applied to each command, e.g. "ssh node07". Empty =
  /// run locally as-is. The command is appended shell-quoted.
  std::string wrapper;
  /// Identity of the --sshlogin-file entry this host realizes (the entry's
  /// normalized login name, stable across "#k" dedup suffixes applied to
  /// `name`). Empty marks a *static* host (-S / direct construction): the
  /// watched-file diff never drains those — the file only governs hosts it
  /// contributed. Set by make_cluster for startup file entries and by
  /// apply_host_set() for watched additions.
  std::string file_key;
};

/// Runtime policy for a watched --sshlogin-file (see watch_sshlogin_file).
struct WatchSettings {
  /// Seconds a vanished host's in-flight jobs may keep running before the
  /// drain kills and requeues them uncharged.
  double drain_grace = 30.0;
  /// --filter-hosts semantics for mid-run adds: a new host starts on
  /// probation and receives no jobs until one reachability probe succeeds.
  bool probe_new_hosts = false;
};

class MultiExecutor final : public core::Executor {
 public:
  /// `hosts` must be non-empty with non-zero budgets; `make_executor` builds
  /// the per-host backend (tests inject FunctionExecutors; production uses
  /// LocalExecutor). Duplicate host names are disambiguated with a "#k"
  /// suffix so per-host maps stay one-to-one.
  MultiExecutor(std::vector<HostSpec> hosts,
                std::function<std::unique_ptr<core::Executor>(const HostSpec&)>
                    make_executor,
                HealthPolicy policy = {});

  /// Convenience: every host runs through one shared LocalExecutor-style
  /// backend created per host.
  static std::unique_ptr<MultiExecutor> local_cluster(std::vector<HostSpec> hosts,
                                                      HealthPolicy policy = {});

  /// Convenience: every host runs behind a persistent pilot channel instead
  /// of a per-job wrapper spawn. `worker_argv(host)` names the command that
  /// starts the host's worker agent (e.g. {"ssh", "node07", "parcl",
  /// "--worker"}); an empty vector runs the agent on an in-process thread
  /// (the local fast path). Host wrappers are ignored — the channel IS the
  /// transport.
  static std::unique_ptr<MultiExecutor> pilot_cluster(
      std::vector<HostSpec> hosts,
      std::function<std::vector<std::string>(const HostSpec&)> worker_argv,
      PilotSettings settings = {}, HealthPolicy policy = {});

  void start(const core::ExecRequest& request) override;
  std::optional<core::ExecResult> wait_any(double timeout_seconds) override;
  /// Safe no-op for unknown or already-reaped job ids.
  void kill(std::uint64_t job_id, bool force) override;
  /// Routes the signal to the host that owns the job (--termseq stages).
  /// Safe no-op for unknown or already-reaped job ids.
  void kill_signal(std::uint64_t job_id, int sig) override;
  std::size_t active_count() const override;
  double now() const override;

  /// Dispatch veto: slots on quarantined/probing/draining/removed hosts
  /// are unusable.
  bool slot_usable(std::size_t slot) const override;
  /// Two slots share a failure domain iff they live on the same host.
  bool same_failure_domain(std::size_t a, std::size_t b) const override;

  // ---- Elastic capacity ----------------------------------------------------
  // The host set is runtime-mutable: hosts can be added (growing the flat
  // slot space at the top — existing slot numbers never move), drained
  // (no fresh dispatch; in-flight jobs run until a deadline, then are
  // killed and surface host_failure=true so the engine requeues them
  // uncharged), or removed outright. A removed host's slot range stays as
  // a tombstone vetoed by slot_usable(), so {%} stays stable and late
  // stragglers still resolve to their host.

  /// Adds a live host: builds its backend via the construction-time
  /// factory, appends its slot range at total_slots()+1, and registers a
  /// fresh health entry (a re-granted name is NOT born with the evicted
  /// instance's streak or probe backoff). With probe_first the host starts
  /// on probation — no dispatch until one reachability probe succeeds.
  /// Returns the registered name ("#k"-suffixed when a live host already
  /// uses it). Marks the executor elastic: slot_capacity() starts
  /// reporting, and the engine grows its pool to match.
  std::string add_host(HostSpec spec, bool probe_first = false);

  /// Begins draining the named live host: fresh dispatch stops now;
  /// in-flight jobs may finish until now()+grace_seconds, after which they
  /// are killed and requeued uncharged (host_failure). The host is removed
  /// once its last in-flight job has surfaced. Throws ConfigError for an
  /// unknown or already-removed host. Draining an already-draining host
  /// tightens its deadline (never loosens it).
  void drain_host(const std::string& name, double grace_seconds);

  /// Removes the named live host immediately: a drain with zero grace —
  /// in-flight jobs are killed and requeued uncharged, the health entry is
  /// evicted, the slot range becomes a tombstone.
  void remove_host(const std::string& name);

  /// Watches an sshlogin file (inotify when available, mtime/size polling
  /// otherwise) and grows/drains the host set to match its contents on
  /// every change, applying `make_spec` to each parsed entry. Pumped from
  /// wait_any(), which the engine always returns to.
  void watch_sshlogin_file(std::string path,
                           std::function<HostSpec(const SshLoginEntry&)> make_spec,
                           WatchSettings settings = {});

  /// Hosts currently accepting dispatch consideration (not draining, not
  /// removed; quarantined-but-recoverable hosts count). Feeds the engine's
  /// --min-hosts park/give-up decision.
  std::size_t live_host_count() const override;

  /// Current top of the flat slot space once the executor is elastic
  /// (add_host or watch_sshlogin_file happened); 0 — "static" — before
  /// that, so fixed-allocation runs keep their configured -j exactly.
  std::size_t slot_capacity() const override;

  std::size_t total_slots() const noexcept { return total_slots_; }
  /// Which host a flat slot (1-based) lives on.
  const HostSpec& host_for_slot(std::size_t slot) const;
  /// Jobs started per host so far (for balance checks). Probes not counted.
  const std::map<std::string, std::size_t>& starts_by_host() const noexcept {
    return starts_by_host_;
  }

  /// Health introspection.
  HostState host_state(const std::string& name) const;
  const HealthCounters& health_counters() const noexcept {
    return health_.counters();
  }

  /// --filter-hosts: synchronously probe every host and quarantine those
  /// that fail. A wrapper host runs a probe job through its wrapper, and
  /// fails past `timeout_seconds`; a pilot host (re)attaches its channel,
  /// one host at a time, each bounded by the pilot's handshake timeout.
  /// Returns the names of the quarantined hosts. A timed-out probe job stays
  /// in flight; if it eventually succeeds the normal probe loop reinstates
  /// the host.
  std::vector<std::string> filter_hosts(double timeout_seconds = 10.0);

 private:
  /// Lifecycle of a host's membership in the dispatch set, orthogonal to
  /// its health state:
  ///
  ///              drain_host(grace)            last in-flight surfaced
  ///   kActive ─────────────────────▶ kDraining ─────────────────────▶ kRemoved
  ///      │  ▲                          │    │ deadline hit: kill +
  ///      │  └── reappears in watched ──┘    │ requeue uncharged
  ///      │         sshlogin file            ▼
  ///      │                             (jobs surface host_failure=true)
  ///      └────── remove_host() ──────────────────────────────────────▶ kRemoved
  enum class Membership { kActive, kDraining, kRemoved };

  struct Host {
    HostSpec spec;
    std::unique_ptr<core::Executor> executor;
    std::size_t first_slot = 0;      // 1-based inclusive
    std::uint64_t probe_job_id = 0;  // 0 = no probe in flight
    /// Non-null when the backend is a pilot channel: commands go down the
    /// channel unwrapped, the channel is pumped every sweep, heartbeat gaps
    /// feed health, and reinstatement probes are transport reconnects
    /// instead of synthetic jobs.
    PilotExecutor* pilot = nullptr;
    Membership membership = Membership::kActive;
    double drain_deadline = 0.0;  // valid while kDraining
  };

  Host& host_of(std::size_t flat_slot);
  const Host& host_of(std::size_t flat_slot) const;
  std::size_t host_index_of_slot(std::size_t flat_slot) const;

  /// Whether `host` runs commands through its spec's wrapper. A pilot host
  /// does not: its channel carries them to the worker as they are.
  static bool wraps(const Host& host) {
    return host.pilot == nullptr && !host.spec.wrapper.empty();
  }
  std::string wrap_command(const Host& host, const std::string& command) const;
  /// Starts a probe job through a wrapper host's wrapper. False when the
  /// backend refused it.
  bool start_probe(Host& host);
  /// Queues a synthetic exit-255 host-failure completion for a job that
  /// never reached (or never survived on) its host.
  void queue_synthetic_loss(const core::ExecRequest& request, const Host& host);
  /// Kills every in-flight job on a freshly quarantined host; their
  /// completions surface flagged host_failure.
  void abandon_in_flight(std::size_t host_index);
  /// Launches reinstatement probes on quarantined hosts whose backoff has
  /// elapsed. Driven from wait_any(), which the engine always returns to.
  /// Pilot hosts probe by reconnecting the transport; wrapper hosts run a
  /// synthetic probe job.
  void pump_probes();
  /// Advances draining hosts: kills in-flight jobs past the drain deadline
  /// (they surface host_failure=true and requeue uncharged) and finishes
  /// the drain — eviction + tombstone — once nothing is in flight.
  void pump_drains();
  /// Re-reads a changed watched sshlogin file and applies the diff: new
  /// entries become add_host() calls, vanished entries drain, a draining
  /// host that reappears is resurrected. The diff is scoped to hosts the
  /// file contributed (non-empty file_key) and keyed on the entry identity,
  /// so static -S hosts are never touched and "#k" name dedup cannot
  /// mis-pair an entry with somebody else's host.
  void pump_host_set();
  void apply_host_set(const std::vector<SshLoginEntry>& desired);
  /// Newest live (non-removed) host with this name, or npos.
  std::size_t find_live_host(const std::string& name) const;
  /// Newest live (non-removed) host realizing this file entry, or npos.
  std::size_t find_live_host_by_key(const std::string& file_key) const;
  void drain_host_index(std::size_t index, double grace_seconds);
  void finish_drain(std::size_t index);
  /// Keeps a pilot channel serviced (frames, reconnects) and feeds its
  /// heartbeat gap into the health tracker.
  void pump_pilot(std::size_t host_index);
  /// Classification + host stamping for a surfaced completion.
  void finalize(core::ExecResult& result, std::size_t host_index);

  std::vector<Host> hosts_;
  std::size_t total_slots_ = 0;
  HostHealthTracker health_;
  /// Construction-time backend factory, retained so add_host() can build
  /// backends for hosts granted after startup.
  std::function<std::unique_ptr<core::Executor>(const HostSpec&)> make_executor_;
  /// Set by the first add_host()/watch: slot_capacity() starts reporting
  /// and the engine widens its slot pool to ours every loop iteration.
  bool elastic_ = false;
  /// Watched sshlogin file (nullptr = not watching).
  std::unique_ptr<HostSetController> watcher_;
  std::function<HostSpec(const SshLoginEntry&)> make_spec_;
  WatchSettings watch_settings_;
  /// Incarnations retired by a resized/re-wrapped file entry; versions the
  /// old host's name so the replacement can claim the entry's name.
  std::size_t retired_incarnations_ = 0;
  std::map<std::uint64_t, std::size_t> job_host_;  // job_id -> host index
  /// Engine jobs started on each host and not yet surfaced. Kept here so
  /// activity tracking does not depend on inner active_count() semantics
  /// (backends differ on whether finished-but-undelivered results count).
  std::vector<std::size_t> inflight_by_host_;
  std::map<std::string, std::size_t> starts_by_host_;
  std::set<std::uint64_t> deliberate_kills_;  // engine-killed: neutral evidence
  std::set<std::uint64_t> lost_;              // killed by quarantine: host failure
  std::deque<core::ExecResult> synthetic_;    // spawn-failure completions
  std::size_t rr_cursor_ = 0;  // wait_any fairness cursor
  /// Probe job ids count up from 2^61 (start_probe): far above the
  /// engine's 1-based ids, so the two streams never collide, and below
  /// the limit every backend takes.
  std::uint64_t next_probe_id_ = core::kJobIdLimit / 2;
};

}  // namespace parcl::exec
