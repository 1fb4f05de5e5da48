// Command-line front end: turns argv into an executable run plan, with GNU
// Parallel's grammar for the flags the paper uses:
//
//   parcl [options] command... [::: values]... [:::: files]...
//
//   -j/--jobs N        --retries N         --joblog PATH
//   -k/--keep-order    --halt SPEC         --resume / --resume-failed
//   -u/--ungroup       --timeout SECS      --env KEY=VALUE (repeatable)
//   --group            --delay SECS        --link  (also ':::+' separator)
//   --tag              --dry-run           -0/--null
//   -n/--max-args N    -X                  --max-chars N
//   -a/--arg-file F    --no-quote          --no-shell
//   -S/--sshlogin L    --filter-hosts      --hedge K
//   --quarantine-after N                   --probe-interval SECS
//   --slf/--sshlogin-file F --watch        --drain-grace SECS
//   --min-hosts N      --min-hosts-grace SECS
//   --graph FILE       --then CMD / --then-all CMD   --stage-jobs N,M,...
//
// With no ::: / :::: / -a source, values are read from stdin, one per line,
// exactly like parallel. `-` as the file for -a/--arg-file or :::: names
// stdin itself (at most one source may claim it).
//
// Sources are DESCRIBED here, not read: parsing records what each source is
// (literal values, a file path, or stdin) and make_job_source() builds the
// streaming pipeline that reads them incrementally at run time.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/dag_source.hpp"
#include "core/input.hpp"
#include "core/job_source.hpp"
#include "core/options.hpp"

namespace parcl::core {

/// One input source as named on the command line, deferred until run time.
struct SourceSpec {
  enum class Kind {
    kLiteral,  // ::: values (held inline)
    kFile,     // :::: path or -a path (streamed with LineSource at run time)
    kStdin,    // "-" given to :::: or -a (streams the caller's stdin)
  };
  Kind kind = Kind::kLiteral;
  std::vector<std::string> values;  // kLiteral only
  std::string path;                 // kFile only
};

/// One --sshlogin entry: "N/host" caps N jobs on `host`; ":" names the
/// local machine (no ssh wrapper).
struct SshLogin {
  std::string host;
  std::size_t jobs = 1;
};

/// Service-mode flags: `parcl --server` (the job-service daemon) and
/// `parcl --client` (submit this command line to a running server).
struct ServiceCli {
  bool server = false;  // --server
  bool client = false;  // --client
  /// --socket PATH: the unix-domain rendezvous. Server default:
  /// <state-dir>/parcl.sock; the client must name it (or --connect).
  std::string socket_path;
  std::string listen;   // --listen HOST:PORT (server; optional TCP)
  std::string connect;  // --connect HOST:PORT (client; instead of --socket)
  /// --state-dir DIR (server, required): intake journal, ledger, and
  /// per-tenant joblogs — the crash-recovery state.
  std::string state_dir;
  std::string tenant = "default";  // --tenant NAME (client identity)
  double tenant_weight = 1.0;      // --tenant-weight W (fair-share quantum)
  /// --token SECRET: shared-secret admission. When set on the server every
  /// CLIENT_HELLO must carry the same value; required for a non-loopback
  /// --listen (an admitted client runs arbitrary commands as the server
  /// user, so the network edge must not be open).
  std::string token;
  std::size_t max_queue = 1024;        // --max-queue (per tenant, server)
  std::size_t max_queue_global = 8192; // --max-queue-global (server)
  /// --orphans keep|cancel: pending jobs of a disconnected client.
  bool orphan_cancel = false;
};

struct RunPlan {
  Options options;
  ServiceCli service;
  /// Non-empty: fan jobs out over these hosts via MultiExecutor, one ssh
  /// wrapper per remote host (":" stays local).
  std::vector<SshLogin> sshlogins;
  std::string command_template;     // joined command tokens
  std::vector<SourceSpec> sources;  // input sources, unread until run time
  char input_sep = '\n';            // -0/--null: value separator for streams
  bool link = false;                // --link / :::+
  /// --graph FILE: run an explicit dependency graph instead of a flat
  /// stream. The file provides the commands; no command argument, input
  /// sources, or input decorators apply.
  std::string graph_file;
  /// --then / --then-all stages chained after the main command: every
  /// input value runs the command, then each --then stage as its previous
  /// stage finishes (element-wise); --then-all waits for the whole
  /// previous stage (barrier). Stage 1 is the main command itself.
  std::vector<StageSpec> then_stages;
  /// --stage-jobs N,M,...: per-stage in-flight caps for the chain, stage 1
  /// first (0 = unlimited).
  std::vector<std::size_t> stage_jobs;
  bool read_stdin = false;          // no explicit source given
  bool show_help = false;
  bool show_version = false;
  bool semaphore = false;           // --semaphore / sem mode
  std::string semaphore_id = "default";  // --id
  /// --worker: run as a pilot worker agent (framed protocol on stdin/stdout)
  /// instead of dispatching jobs. Set by the pilot over ssh, not by hand.
  bool worker_mode = false;
};

/// Parses argv (argv[0] ignored). Throws ParseError / ConfigError on bad
/// usage. File and stdin sources are recorded, not read — reading happens
/// through make_job_source() so input streams instead of materializing.
RunPlan parse_cli(const std::vector<std::string>& argv);

/// Builds the streaming job source for a plan: one ValueSource per
/// SourceSpec (files via LineSource, `-`/implicit stdin from `in`, honoring
/// -0), combined cartesian or --link'd. The returned source borrows `in`,
/// which must outlive it.
std::unique_ptr<JobSource> make_job_source(const RunPlan& plan, std::istream& in);

/// Materializes the job argument vectors from a plan (a drain of
/// make_job_source, for callers that want whole vectors).
std::vector<ArgVector> resolve_inputs(const RunPlan& plan, std::istream& in);

/// Usage text for --help.
std::string usage_text();

/// Version string for --version.
std::string version_text();

}  // namespace parcl::core
