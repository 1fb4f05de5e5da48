#include "core/cli.hpp"

#include <istream>
#include <set>

#include "core/pipe.hpp"

#include "util/error.hpp"
#include "util/net.hpp"
#include "util/strings.hpp"

namespace parcl::core {

namespace {

constexpr const char* kVersion = "parcl 1.0.0 (GNU-Parallel-compatible HT-HPC launcher)";

/// Consumes the value for an option that requires one.
std::string take_value(const std::vector<std::string>& argv, std::size_t& i,
                       const std::string& flag) {
  if (i + 1 >= argv.size()) throw util::ParseError(flag + " requires a value");
  return argv[++i];
}

/// Parses one --sshlogin value: comma-separated entries, each "host" or
/// "N/host" (N = slot budget there). ":" names the local machine.
void parse_sshlogins(const std::string& value, std::vector<SshLogin>& out) {
  for (const std::string& entry : util::split(value, ',')) {
    std::string spec = util::trim(entry);
    if (spec.empty()) continue;
    SshLogin login;
    std::size_t slash = spec.find('/');
    if (slash != std::string::npos) {
      long jobs = util::parse_long(spec.substr(0, slash));
      if (jobs < 1) throw util::ParseError("--sshlogin slot count must be >= 1");
      login.jobs = static_cast<std::size_t>(jobs);
      spec = spec.substr(slash + 1);
    }
    if (spec.empty()) throw util::ParseError("--sshlogin entry names no host");
    login.host = std::move(spec);
    out.push_back(std::move(login));
  }
}

SourceSpec file_or_stdin_source(const std::string& path) {
  SourceSpec spec;
  if (path == "-") {
    spec.kind = SourceSpec::Kind::kStdin;
  } else {
    spec.kind = SourceSpec::Kind::kFile;
    spec.path = path;
  }
  return spec;
}

}  // namespace

RunPlan parse_cli(const std::vector<std::string>& argv) {
  RunPlan plan;
  std::vector<std::string> command_tokens;
  std::vector<std::string> arg_files;
  std::vector<std::string> option_flags;  // every option as given, values aside

  enum class Phase { kOptions, kCommand, kSourceValues };
  Phase phase = Phase::kOptions;
  SourceSpec* current_source = nullptr;

  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& arg = argv[i];

    // Source separators are recognized in every phase.
    if (arg == ":::" || arg == ":::+" || arg == "::::") {
      if (phase == Phase::kOptions) phase = Phase::kCommand;
      if (arg == ":::+") plan.link = true;
      if (arg == "::::") {
        std::string path = take_value(argv, i, "::::");
        plan.sources.push_back(file_or_stdin_source(path));
        current_source = nullptr;
        phase = Phase::kSourceValues;
      } else {
        plan.sources.emplace_back();
        current_source = &plan.sources.back();
        phase = Phase::kSourceValues;
      }
      continue;
    }

    if (phase == Phase::kSourceValues) {
      if (current_source == nullptr) {
        throw util::ParseError("values after :::: FILE are not allowed; use ::: for literals");
      }
      for (auto& value : InputSource::expand_range(arg)) {
        current_source->values.push_back(std::move(value));
      }
      continue;
    }

    if (phase == Phase::kCommand) {
      command_tokens.push_back(arg);
      continue;
    }

    // Phase::kOptions.
    option_flags.push_back(arg);
    if (arg == "-j" || arg == "--jobs") {
      std::string value = take_value(argv, i, arg);
      long jobs = util::parse_long(value);
      if (jobs < 0) throw util::ParseError("--jobs must be >= 0");
      plan.options.jobs = static_cast<std::size_t>(jobs);
    } else if (util::starts_with(arg, "-j") && arg.size() > 2) {
      long jobs = util::parse_long(arg.substr(2));
      if (jobs < 0) throw util::ParseError("--jobs must be >= 0");
      plan.options.jobs = static_cast<std::size_t>(jobs);
    } else if (arg == "-k" || arg == "--keep-order") {
      plan.options.output_mode = OutputMode::kKeepOrder;
    } else if (arg == "-u" || arg == "--ungroup") {
      plan.options.output_mode = OutputMode::kUngroup;
    } else if (arg == "--group") {
      plan.options.output_mode = OutputMode::kGroup;
    } else if (arg == "--tag") {
      plan.options.tag = true;
    } else if (arg == "--tagstring") {
      plan.options.tag_template = take_value(argv, i, arg);
    } else if (arg == "-n" || arg == "--max-args") {
      plan.options.max_args = static_cast<std::size_t>(util::parse_long(take_value(argv, i, arg)));
    } else if (util::starts_with(arg, "-n") && arg.size() > 2) {
      plan.options.max_args = static_cast<std::size_t>(util::parse_long(arg.substr(2)));
    } else if (arg == "-X") {
      plan.options.xargs = true;
    } else if (arg == "--max-chars") {
      plan.options.max_chars = static_cast<std::size_t>(util::parse_long(take_value(argv, i, arg)));
    } else if (arg == "--retries") {
      plan.options.retries = static_cast<std::size_t>(util::parse_long(take_value(argv, i, arg)));
    } else if (arg == "--retry-delay") {
      plan.options.retry_delay_seconds = util::parse_double(take_value(argv, i, arg));
    } else if (arg == "--halt") {
      plan.options.halt = HaltPolicy::parse(take_value(argv, i, arg));
    } else if (arg == "--timeout") {
      // "--timeout 300%" kills attempts exceeding that multiple of the
      // running median runtime; a plain number is an absolute limit.
      std::string value = take_value(argv, i, arg);
      if (!value.empty() && value.back() == '%') {
        plan.options.timeout_percent =
            util::parse_double(value.substr(0, value.size() - 1));
      } else {
        plan.options.timeout_seconds = util::parse_double(value);
      }
    } else if (arg == "--termseq") {
      plan.options.term_seq = take_value(argv, i, arg);
    } else if (arg == "--memfree") {
      plan.options.memfree_bytes = parse_block_size(take_value(argv, i, arg));
    } else if (arg == "--load") {
      plan.options.load_max = util::parse_double(take_value(argv, i, arg));
    } else if (arg == "--delay") {
      plan.options.delay_seconds = util::parse_double(take_value(argv, i, arg));
    } else if (arg == "-S" || arg == "--sshlogin") {
      parse_sshlogins(take_value(argv, i, arg), plan.sshlogins);
    } else if (arg == "--filter-hosts") {
      plan.options.filter_hosts = true;
    } else if (arg == "--sshlogin-file" || arg == "--slf") {
      plan.options.sshlogin_file = take_value(argv, i, arg);
    } else if (arg == "--watch") {
      plan.options.watch_sshlogin_file = true;
    } else if (arg == "--drain-grace") {
      plan.options.drain_grace_seconds =
          util::parse_double(take_value(argv, i, arg));
    } else if (arg == "--min-hosts") {
      long count = util::parse_long(take_value(argv, i, arg));
      if (count < 0) throw util::ParseError("--min-hosts must be >= 0");
      plan.options.min_hosts = static_cast<std::size_t>(count);
    } else if (arg == "--min-hosts-grace") {
      plan.options.min_hosts_grace_seconds =
          util::parse_double(take_value(argv, i, arg));
    } else if (arg == "--hedge") {
      plan.options.hedge_multiplier = util::parse_double(take_value(argv, i, arg));
    } else if (arg == "--quarantine-after") {
      long count = util::parse_long(take_value(argv, i, arg));
      if (count < 0) throw util::ParseError("--quarantine-after must be >= 0");
      plan.options.quarantine_after = static_cast<std::size_t>(count);
    } else if (arg == "--probe-interval") {
      plan.options.probe_interval_seconds =
          util::parse_double(take_value(argv, i, arg));
    } else if (arg == "--pilot") {
      plan.options.pilot = true;
    } else if (arg == "--worker") {
      plan.worker_mode = true;
    } else if (arg == "--server") {
      plan.service.server = true;
    } else if (arg == "--client") {
      plan.service.client = true;
    } else if (arg == "--socket") {
      plan.service.socket_path = take_value(argv, i, arg);
    } else if (arg == "--listen") {
      plan.service.listen = take_value(argv, i, arg);
    } else if (arg == "--connect") {
      plan.service.connect = take_value(argv, i, arg);
    } else if (arg == "--state-dir") {
      plan.service.state_dir = take_value(argv, i, arg);
    } else if (arg == "--tenant") {
      plan.service.tenant = take_value(argv, i, arg);
    } else if (arg == "--token") {
      plan.service.token = take_value(argv, i, arg);
    } else if (arg == "--tenant-weight") {
      plan.service.tenant_weight = util::parse_double(take_value(argv, i, arg));
      if (!(plan.service.tenant_weight > 0.0)) {
        throw util::ParseError("--tenant-weight must be > 0");
      }
    } else if (arg == "--max-queue") {
      long count = util::parse_long(take_value(argv, i, arg));
      if (count < 1) throw util::ParseError("--max-queue must be >= 1");
      plan.service.max_queue = static_cast<std::size_t>(count);
    } else if (arg == "--max-queue-global") {
      long count = util::parse_long(take_value(argv, i, arg));
      if (count < 1) throw util::ParseError("--max-queue-global must be >= 1");
      plan.service.max_queue_global = static_cast<std::size_t>(count);
    } else if (arg == "--orphans") {
      std::string value = take_value(argv, i, arg);
      if (value == "keep") {
        plan.service.orphan_cancel = false;
      } else if (value == "cancel") {
        plan.service.orphan_cancel = true;
      } else {
        throw util::ParseError("--orphans takes 'keep' or 'cancel'");
      }
    } else if (arg == "--heartbeat-interval") {
      plan.options.heartbeat_interval_seconds =
          util::parse_double(take_value(argv, i, arg));
    } else if (arg == "--reconnect") {
      long count = util::parse_long(take_value(argv, i, arg));
      if (count < 1) throw util::ParseError("--reconnect must be >= 1");
      plan.options.reconnect_max = static_cast<std::size_t>(count);
    } else if (arg == "--dry-run" || arg == "--dryrun") {
      plan.options.dry_run = true;
    } else if (arg == "--pipe") {
      plan.options.pipe_mode = true;
    } else if (arg == "--block") {
      plan.options.block_bytes = parse_block_size(take_value(argv, i, arg));
    } else if (arg == "--progress") {
      plan.options.progress = true;
    } else if (arg == "--semaphore" || arg == "--sem") {
      plan.semaphore = true;
    } else if (arg == "--id") {
      plan.semaphore_id = take_value(argv, i, arg);
    } else if (arg == "--joblog") {
      plan.options.joblog_path = take_value(argv, i, arg);
    } else if (arg == "--joblog-fsync") {
      plan.options.joblog_fsync = true;
    } else if (arg == "--results") {
      plan.options.results_dir = take_value(argv, i, arg);
    } else if (arg == "--shuf") {
      plan.options.shuffle = true;
    } else if (arg == "--graph") {
      plan.graph_file = take_value(argv, i, arg);
    } else if (arg == "--then" || arg == "--then-all") {
      StageSpec stage;
      stage.command = take_value(argv, i, arg);
      stage.barrier = arg == "--then-all";
      plan.then_stages.push_back(std::move(stage));
    } else if (arg == "--stage-jobs") {
      for (const std::string& entry :
           util::split(take_value(argv, i, arg), ',')) {
        long jobs = util::parse_long(util::trim(entry));
        if (jobs < 0) throw util::ParseError("--stage-jobs caps must be >= 0");
        plan.stage_jobs.push_back(static_cast<std::size_t>(jobs));
      }
    } else if (arg == "--colsep" || arg == "-C") {
      plan.options.colsep = take_value(argv, i, arg);
    } else if (arg == "--trim") {
      plan.options.trim_mode = take_value(argv, i, arg);
    } else if (arg == "--resume") {
      plan.options.resume = true;
    } else if (arg == "--resume-failed") {
      plan.options.resume_failed = true;
    } else if (arg == "--env") {
      std::string spec = take_value(argv, i, arg);
      std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0) {
        throw util::ParseError("--env expects KEY=VALUE, got '" + spec + "'");
      }
      plan.options.env[spec.substr(0, eq)] = spec.substr(eq + 1);
    } else if (arg == "--link") {
      plan.link = true;
    } else if (arg == "-0" || arg == "--null") {
      plan.input_sep = '\0';
    } else if (arg == "-a" || arg == "--arg-file") {
      arg_files.push_back(take_value(argv, i, arg));
    } else if (arg == "--no-quote") {
      plan.options.quote_args = false;
    } else if (arg == "--no-shell") {
      plan.options.use_shell = false;
    } else if (arg == "--help" || arg == "-h") {
      plan.show_help = true;
      return plan;
    } else if (arg == "--version") {
      plan.show_version = true;
      return plan;
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      throw util::ParseError("unknown option '" + arg + "'");
    } else {
      option_flags.pop_back();  // the command's first word, not an option
      phase = Phase::kCommand;
      command_tokens.push_back(arg);
    }
  }

  // -a files become leading input sources (parallel's order); "-" is stdin.
  if (!arg_files.empty()) {
    std::vector<SourceSpec> file_sources;
    file_sources.reserve(arg_files.size());
    for (const auto& path : arg_files) {
      file_sources.push_back(file_or_stdin_source(path));
    }
    plan.sources.insert(plan.sources.begin(),
                        std::make_move_iterator(file_sources.begin()),
                        std::make_move_iterator(file_sources.end()));
  }

  std::size_t stdin_sources = 0;
  for (const auto& source : plan.sources) {
    if (source.kind == SourceSpec::Kind::kStdin) ++stdin_sources;
  }
  if (stdin_sources > 1) {
    throw util::ConfigError("only one input source may read stdin ('-')");
  }
  if (stdin_sources > 0 && plan.options.pipe_mode) {
    throw util::ConfigError("--pipe reads stdin itself; '-' cannot also name it");
  }

  if (plan.options.filter_hosts && plan.sshlogins.empty() &&
      plan.options.sshlogin_file.empty()) {
    throw util::ConfigError("--filter-hosts requires --sshlogin");
  }
  if ((!plan.sshlogins.empty() || !plan.options.sshlogin_file.empty()) &&
      plan.semaphore) {
    throw util::ConfigError("--semaphore runs locally; --sshlogin does not apply");
  }
  if (plan.options.pilot && plan.sshlogins.empty()) {
    throw util::ConfigError("--pilot requires --sshlogin");
  }
  if (plan.worker_mode &&
      (plan.options.pilot || !plan.sshlogins.empty() || plan.semaphore ||
       !command_tokens.empty() || !plan.sources.empty())) {
    throw util::ConfigError(
        "--worker serves a pilot on stdin/stdout and takes no command, "
        "sources, or host flags");
  }

  if (plan.service.server && plan.service.client) {
    throw util::ConfigError("--server and --client are mutually exclusive");
  }
  // A service mode applies only the options it names in `applied`; any
  // other is refused by name, never accepted and ignored. -jN is --jobs.
  auto refuse_unapplied = [&option_flags](const char* mode,
                                          const std::set<std::string>& applied,
                                          const char* to_what) {
    for (const std::string& flag : option_flags) {
      if (!applied.count(flag) && !util::starts_with(flag, "-j")) {
        throw util::ConfigError(std::string(mode) + " cannot apply " + flag + " " +
                                to_what);
      }
    }
  };
  if (plan.service.server) {
    if (!command_tokens.empty() || !plan.sources.empty()) {
      throw util::ConfigError(
          "--server takes no command or input sources; clients submit jobs");
    }
    if (plan.service.state_dir.empty()) {
      throw util::ConfigError("--server requires --state-dir DIR");
    }
    // Service jobs run through the engine's loop with the run options
    // listed here; the others shape a local run's input, output or hosts,
    // which a service job does not have.
    static const std::set<std::string> kServerFlags = {
        "--server", "--state-dir", "--socket", "--listen", "--token", "--max-queue",
        "--max-queue-global", "--orphans", "--jobs", "--retries", "--retry-delay",
        "--timeout", "--delay", "--memfree", "--load", "--joblog-fsync"};
    refuse_unapplied("--server", kServerFlags, "to service jobs");
    // A TCP listener beyond loopback hands arbitrary command execution (as
    // the server user) to anyone who can reach the port: refuse it without
    // a shared secret. parse_ipv4_endpoint() also validates the spec here,
    // at config time, instead of after the daemon has claimed state.
    if (!plan.service.listen.empty() &&
        !util::is_loopback(util::parse_ipv4_endpoint(plan.service.listen)) &&
        plan.service.token.empty()) {
      throw util::ConfigError(
          "--listen beyond loopback requires --token SECRET: every admitted "
          "client can run arbitrary commands as the server user");
    }
  }
  if (plan.service.client) {
    if (plan.service.socket_path.empty() && plan.service.connect.empty()) {
      throw util::ConfigError("--client requires --socket PATH or --connect HOST:PORT");
    }
    if (command_tokens.empty()) {
      throw util::ConfigError("--client needs a command to submit");
    }
    // The client reads its input, expands each command, submits it and
    // collates the output; the server runs the jobs under its own options.
    static const std::set<std::string> kClientFlags = {
        "--client", "--socket", "--connect", "--tenant", "--token", "--tenant-weight",
        "--jobs", "-k", "--keep-order", "--group", "--no-quote", "-0", "--null",
        "-a", "--arg-file", "--link"};
    refuse_unapplied("--client", kClientFlags, "to submitted jobs");
  }
  if (!plan.service.server) {
    if (!plan.service.listen.empty()) {
      throw util::ConfigError("--listen is a --server flag");
    }
    if (!plan.service.state_dir.empty()) {
      throw util::ConfigError("--state-dir is a --server flag");
    }
  }
  if (!plan.service.client && !plan.service.connect.empty()) {
    throw util::ConfigError("--connect is a --client flag");
  }
  if (!plan.service.server && !plan.service.client &&
      !plan.service.socket_path.empty()) {
    throw util::ConfigError("--socket applies to --server or --client");
  }
  if (!plan.service.server && !plan.service.client &&
      !plan.service.token.empty()) {
    throw util::ConfigError("--token applies to --server or --client");
  }

  if (!plan.graph_file.empty()) {
    // Graph mode: the file is the whole run plan. Everything that shapes a
    // flat input stream — sources, packing, splitting, chaining — has no
    // meaning against named nodes with their own commands.
    if (!command_tokens.empty()) {
      throw util::ConfigError(
          "--graph: the graph file provides the commands; drop '" +
          command_tokens.front() + "'");
    }
    if (!plan.sources.empty()) {
      throw util::ConfigError("--graph takes no ::: / :::: / -a input sources");
    }
    if (!plan.then_stages.empty()) {
      throw util::ConfigError("--graph and --then are mutually exclusive");
    }
    if (!plan.stage_jobs.empty()) {
      throw util::ConfigError(
          "--stage-jobs applies to --then chains; use 'stage NAME jobs=N' "
          "in the graph file");
    }
    if (plan.options.pipe_mode || plan.semaphore || plan.link) {
      throw util::ConfigError("--graph cannot combine with --pipe, --semaphore, or --link");
    }
    if (plan.options.max_args > 1 || plan.options.xargs ||
        !plan.options.colsep.empty() ||
        (!plan.options.trim_mode.empty() && plan.options.trim_mode != "n")) {
      throw util::ConfigError(
          "--graph jobs take no input packing or splitting (-n/-X/--colsep/--trim)");
    }
  }
  if (!plan.then_stages.empty()) {
    if (command_tokens.empty()) {
      throw util::ConfigError(
          "--then chains stages after the main command; give a command first");
    }
    if (plan.options.pipe_mode || plan.semaphore) {
      throw util::ConfigError("--then cannot combine with --pipe or --semaphore");
    }
    if (plan.options.max_args > 1 || plan.options.xargs ||
        !plan.options.colsep.empty() ||
        (!plan.options.trim_mode.empty() && plan.options.trim_mode != "n")) {
      throw util::ConfigError(
          "--then stages take whole input values (-n/-X/--colsep/--trim do not apply)");
    }
    if (plan.stage_jobs.size() > plan.then_stages.size() + 1) {
      throw util::ConfigError("--stage-jobs names more stages than the chain has");
    }
  } else if (!plan.stage_jobs.empty()) {
    throw util::ConfigError("--stage-jobs requires a --then stage chain");
  }

  plan.command_template = util::join(command_tokens, " ");
  // In --pipe mode stdin carries data blocks, not input values; a
  // --semaphore command runs verbatim with no input source at all; a
  // --graph run has no input values in the first place.
  plan.read_stdin = plan.sources.empty() && !plan.options.pipe_mode &&
                    !plan.semaphore && plan.graph_file.empty() &&
                    !plan.service.server;
  // A server's --joblog-fsync covers its journal and ledger, not a --joblog.
  Options checked = plan.options;
  checked.joblog_fsync = checked.joblog_fsync && !plan.service.server;
  checked.validate();
  return plan;
}

std::unique_ptr<JobSource> make_job_source(const RunPlan& plan, std::istream& in) {
  if (!plan.graph_file.empty()) {
    return std::make_unique<GraphSource>(GraphSpec::parse_file(plan.graph_file));
  }
  std::vector<std::unique_ptr<ValueSource>> values;
  values.reserve(plan.sources.size() + 1);
  for (const auto& source : plan.sources) {
    switch (source.kind) {
      case SourceSpec::Kind::kLiteral:
        values.push_back(std::make_unique<VectorValueSource>(source.values));
        break;
      case SourceSpec::Kind::kFile:
        values.push_back(LineSource::open(source.path, plan.input_sep));
        break;
      case SourceSpec::Kind::kStdin:
        values.push_back(std::make_unique<LineSource>(in, plan.input_sep));
        break;
    }
  }
  if (plan.read_stdin) {
    values.push_back(std::make_unique<LineSource>(in, plan.input_sep));
  }
  std::unique_ptr<JobSource> source;
  if (plan.link) {
    source = std::make_unique<LinkedSource>(std::move(values));
  } else {
    // Cartesian with a single source is a pure stream: the head never buffers.
    source = std::make_unique<CartesianSource>(std::move(values));
  }
  if (!plan.then_stages.empty()) {
    // Stage 1 is the main command; --then/--then-all stages follow in the
    // order given. --stage-jobs caps pair up positionally.
    std::vector<StageSpec> stages;
    stages.reserve(plan.then_stages.size() + 1);
    StageSpec first;
    first.command = plan.command_template;
    stages.push_back(std::move(first));
    stages.insert(stages.end(), plan.then_stages.begin(), plan.then_stages.end());
    for (std::size_t s = 0; s < plan.stage_jobs.size() && s < stages.size(); ++s) {
      stages[s].jobs = plan.stage_jobs[s];
    }
    source = std::make_unique<StageChainSource>(std::move(source), std::move(stages));
  }
  return source;
}

std::vector<ArgVector> resolve_inputs(const RunPlan& plan, std::istream& in) {
  auto source = make_job_source(plan, in);
  std::vector<ArgVector> inputs;
  while (auto job = source->next()) {
    inputs.push_back(std::move(job->args));
  }
  return inputs;
}

std::string usage_text() {
  return std::string(kVersion) + R"(

usage: parcl [options] command [template-args] [::: values]... [:::: file]...

Replacement strings: {} {.} {/} {//} {/.} {#} {%} {n} {n.} {n/} {n//} {n/.}

options:
  -j, --jobs N        run N jobs in parallel (0 = one per hardware thread)
  -k, --keep-order    emit output in input order
  -u, --ungroup       do not capture job output
      --tag           prefix output lines with the input value
      --tagstring S   prefix output lines with template S ({} {#} {%} ok)
  -n, --max-args N    pack N inputs per job
  -X                  pack as many inputs as fit in --max-chars
      --max-chars N   command length bound for -X (default 4096)
      --retries N     attempts per job (default 1)
      --retry-delay S base pause before a retry; doubles per attempt, with
                      seeded jitter (exponential backoff)
      --halt SPEC     never | now,fail=N | soon,fail=N | now,fail=X% | ...
      --timeout SECS  per-attempt wall clock limit; "N%" kills attempts
                      exceeding N% of the running median runtime
      --termseq SEQ   escalation on a second interrupt: signal,ms,...
                      (default TERM,200,KILL)
      --memfree SIZE  defer new jobs while free memory < SIZE (k/m/g)
      --load MAX      defer new jobs while the load average > MAX
      --delay SECS    spacing between job starts
  -S, --sshlogin L    comma-separated hosts to run on ("8/node07" caps 8
                      jobs there; ":" = this machine, no ssh)
      --filter-hosts  probe each --sshlogin host at startup and drop the
                      unreachable ones (with --watch, also probes hosts
                      added mid-run before they receive jobs)
      --slf, --sshlogin-file F
                      read sshlogin entries (one "host" or "N/host" per
                      line, '#' comments) from F, in addition to -S
      --watch         re-read --sshlogin-file when it changes and grow,
                      drain, or remove hosts mid-run to match; deleting
                      the file releases every host from it
      --drain-grace SECS
                      when --watch removes a host, let its in-flight jobs
                      finish for up to SECS before killing and requeueing
                      them (uncharged); 0 = kill immediately (default 30)
      --min-hosts N   with fewer than N live hosts, park queued work and
                      wait for capacity instead of failing (0 = no floor;
                      default 1)
      --min-hosts-grace SECS
                      give up on parked work after the host count has been
                      below --min-hosts for SECS (0 = wait forever)
      --quarantine-after N
                      consecutive host failures before a host is
                      quarantined (0 = never; default 3)
      --probe-interval SECS
                      base reinstatement-probe interval for quarantined
                      hosts; doubles per failed probe (default 5)
      --pilot         keep one persistent worker agent per --sshlogin host
                      and frame jobs over a single connection instead of
                      one ssh per job; exactly-once across reconnects
      --heartbeat-interval SECS
                      worker heartbeat cadence on --pilot channels; a
                      channel is stalled after 5 missed beats (default 1)
      --reconnect N   failed reconnect attempts before a --pilot channel
                      is declared dead (default 3)
      --worker        serve a pilot as a worker agent on stdin/stdout
                      (spawned by --pilot over ssh; not for manual use)
      --hedge K       duplicate an attempt running longer than K x the
                      median runtime onto another host; first success
                      wins (0 = off)
      --dry-run       print composed commands, do not run
      --joblog PATH   append a GNU-Parallel-format job log
      --joblog-fsync  fsync the joblog after every record
      --results DIR   save each job's stdout/stderr/meta under DIR/<seq>/
      --shuf          run jobs in random order (buffers the whole input)
      --graph FILE    run a dependency graph: one node per line,
                      "NODE [after=A,B] [needs=F] [out=F] [stage=S] :: CMD"
                      plus "stage S [jobs=N]" directives; a node starts
                      when its predecessors succeed, and a failed node
                      skips its descendants (Exitval -1 in the joblog)
      --then CMD      chain another stage after the command: each input
                      value runs CMD as soon as *its* previous-stage job
                      succeeds (repeatable; forms a pipeline)
      --then-all CMD  like --then, but waits for the ENTIRE previous
                      stage before any CMD starts (a barrier)
      --stage-jobs N,M,...
                      per-stage in-flight caps for a --then chain, stage 1
                      first (0 = unlimited; combines with -j)
  -C, --colsep SEP    split input values into columns ({1}, {2}, ...) on SEP
      --trim MODE     trim input whitespace: n|l|r|lr|rl
      --resume        skip seqs already in the joblog
      --resume-failed like --resume but re-run failures
      --env KEY=VAL   extra env per job; VAL may use replacement strings
      --link          zip input sources instead of cartesian product
      --pipe          split stdin into blocks fed to jobs' stdin
      --block SIZE    target --pipe block size (k/m/g suffixes; default 1m)
      --progress      live completion counter on stderr (total shows "?"
                      until the input source is exhausted)
      --semaphore     run the command under a cross-process semaphore (sem)
      --id NAME       semaphore name for --semaphore (default: "default")
      --server        run the crash-tolerant multi-tenant job service
      --client        submit this command line to a running --server
      --socket PATH   unix socket rendezvous (server default:
                      <state-dir>/parcl.sock; required for --client
                      unless --connect is given)
      --listen H:P    additionally accept TCP clients (server). Empty host
                      binds loopback; a non-loopback bind (e.g. 0.0.0.0)
                      requires --token, because every admitted client runs
                      arbitrary commands as the server user
      --connect H:P   reach the server over TCP instead of --socket
      --token S       shared-secret admission: the server rejects any
                      CLIENT_HELLO whose --token does not match
      --state-dir D   server crash-recovery state: intake journal,
                      exactly-once ledger, per-tenant joblogs (required)
      --tenant NAME   client identity for fair-share (default: "default")
      --tenant-weight W  fair-share weight of this tenant (default: 1)
      --max-queue N   per-tenant intake bound before REJECT (server, 1024)
      --max-queue-global N  global intake bound (server, 8192)
      --orphans P     disconnected client's pending jobs: keep|cancel
                      (server default: keep)
  -0, --null          input values are NUL-separated
  -a, --arg-file F    read an input source from F ("-" = stdin)
      --no-quote      substitute values without shell quoting
      --no-shell      exec directly instead of via /bin/sh -c
      --help          this text
      --version       version

Input is streamed: files, stdin, and :::: sources are read incrementally
and jobs are composed on demand, so memory stays constant in the job count
(--shuf is the exception; it must buffer the list to permute it).
)";
}

std::string version_text() { return kVersion; }

}  // namespace parcl::core
