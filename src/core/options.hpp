// Run options for the parcl engine — the subset of GNU Parallel's ~100 flags
// that the paper exercises, with the same semantics and defaults.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "core/halt.hpp"

namespace parcl::core {

/// How job output reaches the caller.
enum class OutputMode {
  kGroup,       // default: buffer per job, emit when the job finishes
  kKeepOrder,   // -k: emit in input order (implies grouping)
  kLineBuffer,  // --line-buffer: emit whole lines as they arrive
  kUngroup,     // -u: no capture; children inherit our stdout/stderr
};

struct Options {
  /// -j/--jobs: concurrent slots. 0 means "one per hardware thread".
  std::size_t jobs = 1;

  /// --zygote: prefork a small spawn helper per LocalExecutor and serve
  /// shell-bypass-eligible commands from it over a SOCK_SEQPACKET pipe, so
  /// each job forks from a tiny address space instead of the full parcl
  /// process. LocalExecutor only; silently inert elsewhere.
  bool zygote = false;

  /// --joblog-flush BYTES: batch joblog rows in memory and append them with
  /// one write() once this many bytes are pending (0 = write every row
  /// immediately, the crash-safest setting). Batching preserves the
  /// torn-tail recovery contract — a crash can only tear the final row of
  /// the last batch — but widens the window of completed jobs that re-run
  /// on --resume. Incompatible with --joblog-fsync.
  std::size_t joblog_flush_bytes = 0;

  OutputMode output_mode = OutputMode::kGroup;

  /// --tag: prefix every output line with the job's first argument + TAB.
  bool tag = false;

  /// --tagstring: prefix template (replacement strings expand; overrides
  /// --tag when non-empty).
  std::string tag_template;

  /// -n/--max-args: inputs packed per job (0 = 1; with -X, as many as fit).
  std::size_t max_args = 0;

  /// -X: xargs-style packing bounded by max_chars.
  bool xargs = false;

  /// --max-chars bound for -X packing (composed command-line length).
  std::size_t max_chars = 4096;

  /// --retries: total attempts per job (1 = no retry).
  std::size_t retries = 1;

  /// --retry-delay: base pause before re-running a failed attempt, in
  /// seconds (0 = immediate requeue). Attempt k waits base * 2^(k-1) with
  /// seeded +/-25% jitter, capped at 1024x base, so retry storms against a
  /// struggling node or filesystem back off instead of hammering it.
  double retry_delay_seconds = 0.0;

  /// Seed for the retry-backoff jitter; deterministic per (seq, attempt).
  std::uint64_t retry_jitter_seed = 0x7e57;

  /// --halt: what to do when jobs fail (default: never).
  HaltPolicy halt;

  /// --timeout: per-attempt wall-clock limit in seconds (0 = none).
  double timeout_seconds = 0.0;

  /// --timeout N%: adaptive straggler limit. An attempt is killed once its
  /// runtime exceeds N% of the running median of successful runtimes (armed
  /// after 3 successes). 0 = off; exclusive with timeout_seconds.
  double timeout_percent = 0.0;

  /// --termseq: escalation sequence for the second interrupt of a signal
  /// drain — alternating signal names and millisecond delays.
  std::string term_seq = "TERM,200,KILL";

  /// --hedge K: straggler hedging. Once an attempt runs longer than K times
  /// the running median of successful runtimes (armed after 3 successes), a
  /// speculative duplicate is launched on a different failure domain; the
  /// first success wins and the loser is killed. 0 = off; must be >= 1
  /// otherwise. Inert on backends where every slot shares one domain.
  double hedge_multiplier = 0.0;

  /// --quarantine-after N: consecutive host-failure signals before a host
  /// is quarantined (0 = never quarantine). Only meaningful on host-aware
  /// backends (--sshlogin / MultiExecutor).
  std::size_t quarantine_after = 3;

  /// --probe-interval: base backoff between reinstatement probes of a
  /// quarantined host, in seconds; doubles per failed probe (capped).
  double probe_interval_seconds = 5.0;

  /// --filter-hosts: probe every host at startup and quarantine the ones
  /// that fail before dispatching any job. With --sshlogin-file --watch,
  /// hosts added mid-run are probed the same way before receiving jobs.
  bool filter_hosts = false;

  /// --sshlogin-file FILE: read --sshlogin entries (one per line, '#'
  /// comments) from FILE, merged after any -S flags ("" = off).
  std::string sshlogin_file;

  /// --watch: keep watching --sshlogin-file for edits (inotify, with an
  /// mtime/size polling fallback) and grow/drain the host set live to
  /// match. Entries that disappear drain with --drain-grace; new entries
  /// add slots immediately.
  bool watch_sshlogin_file = false;

  /// --drain-grace SECS: how long a draining host's in-flight jobs may keep
  /// running before being killed and requeued uncharged against --retries.
  /// 0 kills immediately (a reclaim with no notice).
  double drain_grace_seconds = 30.0;

  /// --min-hosts N: the run parks (stops dispatching, keeps state) instead
  /// of failing while fewer than N hosts are live; capacity returning
  /// resumes dispatch exactly where it left off. 0 disables the floor.
  std::size_t min_hosts = 1;

  /// --min-hosts-grace SECS: once the live host count has stayed below
  /// --min-hosts this long, the run gives up and skips the remaining work
  /// (exit via normal skip accounting, resumable from the joblog).
  /// 0 = park forever.
  double min_hosts_grace_seconds = 0.0;

  /// --pilot: run one persistent worker agent per --sshlogin host and frame
  /// jobs over a single multiplexed connection instead of spawning one ssh
  /// per job. Heartbeats feed host health; lost connections reconcile
  /// against the worker's journal so every job still runs exactly once.
  bool pilot = false;

  /// --heartbeat-interval: seconds between worker HEARTBEAT frames on
  /// --pilot channels. The channel is declared stalled (and detached for
  /// reconnect) after 5 missed intervals.
  double heartbeat_interval_seconds = 1.0;

  /// --reconnect N: consecutive failed reconnect attempts before a --pilot
  /// channel is declared dead and its host abandoned to health handling.
  std::size_t reconnect_max = 3;

  /// --memfree: defer starting new jobs while the backend reports less
  /// allocatable memory than this, in bytes (0 = off).
  std::size_t memfree_bytes = 0;

  /// --load: defer starting new jobs while the backend's load average
  /// exceeds this (0 = off).
  double load_max = 0.0;

  /// --delay: minimum spacing between job starts in seconds.
  double delay_seconds = 0.0;

  /// --dry-run: compose and emit command lines without executing.
  bool dry_run = false;

  /// --progress: live completion counter on the error stream.
  bool progress = false;

  /// --pipe: stdin is split into record-aligned blocks fed to jobs' stdin.
  bool pipe_mode = false;

  /// --block: target block size for --pipe, in bytes.
  std::size_t block_bytes = 1 << 20;

  /// --joblog path ("" = none).
  std::string joblog_path;

  /// --joblog-fsync: fsync the joblog after every record, so a completed
  /// job's row survives even a power loss (a plain SIGKILL never tears
  /// records: each row is one atomic O_APPEND write).
  bool joblog_fsync = false;

  /// --results DIR: save each job's stdout/stderr/metadata under
  /// DIR/<seq>/ ("" = off). Output still flows through the collator.
  std::string results_dir;

  /// --shuf: run jobs in a seeded-random order (output order under -k is
  /// still the input order). Shuffling requires knowing the whole job list,
  /// so it forces the engine to buffer the input source — memory is O(jobs)
  /// again, exactly as before the streaming pipeline.
  bool shuffle = false;
  std::uint64_t shuffle_seed = 0x5eed;

  /// Keep per-job JobResults (and dispatch instants) in the RunSummary.
  /// Library callers and tests want them; the streaming CLI turns this off
  /// so a 10M-job run does not accumulate O(jobs) results memory.
  bool collect_results = true;

  /// -k out-of-order window: when this many finished jobs are buffered
  /// waiting for an earlier seq, fresh dispatch pauses until the gap
  /// closes (retries are exempt — the gap usually IS a retrying job).
  /// 0 = auto: max(256, 8 * effective_jobs()). Ignored without -k, and
  /// under --shuf (where gating fresh starts could deadlock: the gap seq
  /// may live arbitrarily far down the shuffled order).
  std::size_t keep_order_window = 0;

  /// --colsep: split every input value into positional columns ({1}, {2},
  /// ...) on this separator string ("" = off). Like parallel's --colsep for
  /// fixed separators.
  std::string colsep;

  /// --trim: strip whitespace from input values: "" (off), "l", "r", "lr".
  std::string trim_mode;

  /// --resume: skip seqs already present in the joblog.
  bool resume = false;

  /// --resume-failed: like --resume but re-runs logged failures.
  bool resume_failed = false;

  /// Run commands via /bin/sh -c (parallel's default; false = direct exec).
  bool use_shell = true;

  /// Quote substituted arguments (parallel does this unless -q reverses it;
  /// we expose it directly).
  bool quote_args = true;

  /// Extra environment for every job. Values may contain replacement
  /// strings, e.g. {"HIP_VISIBLE_DEVICES", "{%}"} for GPU isolation.
  std::map<std::string, std::string> env;

  /// Label recorded in the joblog Host column.
  std::string host_label = ":";

  /// Throws ConfigError on contradictory settings.
  void validate() const;

  /// Resolved slot count (expands jobs == 0).
  std::size_t effective_jobs() const;
};

}  // namespace parcl::core
