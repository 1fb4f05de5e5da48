#include "core/cli.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <iostream>
#include <sstream>

#include "util/error.hpp"

namespace parcl::core {
namespace {

RunPlan parse(std::initializer_list<const char*> args) {
  std::vector<std::string> argv;
  for (const char* arg : args) argv.emplace_back(arg);
  return parse_cli(argv);
}

TEST(Cli, SimpleCommandWithLiteralSource) {
  RunPlan plan = parse({"-j8", "echo", "{}", ":::", "a", "b", "c"});
  EXPECT_EQ(plan.options.jobs, 8u);
  EXPECT_EQ(plan.command_template, "echo {}");
  ASSERT_EQ(plan.sources.size(), 1u);
  EXPECT_EQ(plan.sources[0].values, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_FALSE(plan.read_stdin);
}

TEST(Cli, JobsFlagVariants) {
  EXPECT_EQ(parse({"-j", "16", "true", ":::", "x"}).options.jobs, 16u);
  EXPECT_EQ(parse({"--jobs", "32", "true", ":::", "x"}).options.jobs, 32u);
  EXPECT_EQ(parse({"-j128", "true", ":::", "x"}).options.jobs, 128u);
}

TEST(Cli, PaperListing5Invocation) {
  // parallel -j36 python3 ./darshan_arch.py ::: {1..12} ::: {0..2}
  RunPlan plan = parse({"-j36", "python3", "./darshan_arch.py", ":::", "{1..12}",
                        ":::", "{0..2}"});
  EXPECT_EQ(plan.options.jobs, 36u);
  ASSERT_EQ(plan.sources.size(), 2u);
  EXPECT_EQ(plan.sources[0].values.size(), 12u);
  EXPECT_EQ(plan.sources[1].values.size(), 3u);
  auto inputs = resolve_inputs(plan, std::cin);
  EXPECT_EQ(inputs.size(), 36u);
}

TEST(Cli, MultipleSourcesAndLink) {
  RunPlan plan = parse({"cmd", ":::", "a", "b", ":::+", "1", "2"});
  EXPECT_TRUE(plan.link);
  std::istringstream empty;
  auto inputs = resolve_inputs(plan, empty);
  ASSERT_EQ(inputs.size(), 2u);
  EXPECT_EQ(inputs[0], (ArgVector{"a", "1"}));
}

TEST(Cli, StdinWhenNoSource) {
  RunPlan plan = parse({"wc", "-l"});
  EXPECT_TRUE(plan.read_stdin);
  EXPECT_EQ(plan.command_template, "wc -l");
  std::istringstream in("f1\nf2\n");
  auto inputs = resolve_inputs(plan, in);
  ASSERT_EQ(inputs.size(), 2u);
  EXPECT_EQ(inputs[0], (ArgVector{"f1"}));
}

TEST(Cli, FileSourceIsDeferredUntilResolve) {
  std::string path = ::testing::TempDir() + "cli_inputs.txt";
  {
    std::ofstream out(path);
    out << "one\ntwo\n";
  }
  RunPlan plan = parse({"cat", "::::", path.c_str()});
  ASSERT_EQ(plan.sources.size(), 1u);
  // Parsing records the path; the file is read only when the source streams.
  EXPECT_EQ(plan.sources[0].kind, SourceSpec::Kind::kFile);
  EXPECT_EQ(plan.sources[0].path, path);
  EXPECT_TRUE(plan.sources[0].values.empty());
  std::istringstream unused;
  auto inputs = resolve_inputs(plan, unused);
  ASSERT_EQ(inputs.size(), 2u);
  EXPECT_EQ(inputs[0], (ArgVector{"one"}));
  EXPECT_EQ(inputs[1], (ArgVector{"two"}));
  std::remove(path.c_str());
}

TEST(Cli, DashNamesStdinForFileSources) {
  for (auto args : {std::initializer_list<const char*>{"cmd", "::::", "-"},
                    std::initializer_list<const char*>{"-a", "-", "cmd"},
                    std::initializer_list<const char*>{"--arg-file", "-", "cmd"}}) {
    RunPlan plan = parse(args);
    ASSERT_EQ(plan.sources.size(), 1u);
    EXPECT_EQ(plan.sources[0].kind, SourceSpec::Kind::kStdin);
    std::istringstream in("x\ny\n");
    auto inputs = resolve_inputs(plan, in);
    ASSERT_EQ(inputs.size(), 2u);
    EXPECT_EQ(inputs[0], (ArgVector{"x"}));
  }
}

TEST(Cli, StdinDashCombinesWithOtherSources) {
  RunPlan plan = parse({"cmd", ":::", "a", "b", "::::", "-"});
  std::istringstream in("1\n2\n");
  auto inputs = resolve_inputs(plan, in);  // cartesian: stdin is the tail
  ASSERT_EQ(inputs.size(), 4u);
  EXPECT_EQ(inputs[0], (ArgVector{"a", "1"}));
  EXPECT_EQ(inputs[3], (ArgVector{"b", "2"}));
}

TEST(Cli, OnlyOneSourceMayClaimStdin) {
  EXPECT_THROW(parse({"cmd", "::::", "-", "::::", "-"}), util::ConfigError);
  EXPECT_THROW(parse({"-a", "-", "cmd", "::::", "-"}), util::ConfigError);
}

TEST(Cli, StdinSourceConflictsWithPipe) {
  EXPECT_THROW(parse({"--pipe", "cmd", "::::", "-"}), util::ConfigError);
}

TEST(Cli, NullSeparatorAppliesToStreamedSources) {
  RunPlan plan = parse({"-0", "cmd", "::::", "-"});
  EXPECT_EQ(plan.input_sep, '\0');
  std::istringstream in(std::string("a\0b c\0", 6));
  auto inputs = resolve_inputs(plan, in);
  ASSERT_EQ(inputs.size(), 2u);
  EXPECT_EQ(inputs[0], (ArgVector{"a"}));
  EXPECT_EQ(inputs[1], (ArgVector{"b c"}));
}

TEST(Cli, OptionsAfterCommandBelongToCommand) {
  // `-n` after the command token is part of the command, like parallel.
  RunPlan plan = parse({"sort", "-n", ":::", "f"});
  EXPECT_EQ(plan.command_template, "sort -n");
  EXPECT_EQ(plan.options.max_args, 0u);
}

TEST(Cli, EngineFlags) {
  RunPlan plan = parse({"-k", "--tag", "--retries", "3", "--halt", "now,fail=2",
                        "--timeout", "5.5", "--delay", "0.1", "--joblog", "/tmp/j.log",
                        "cmd", ":::", "x"});
  EXPECT_EQ(plan.options.output_mode, OutputMode::kKeepOrder);
  EXPECT_TRUE(plan.options.tag);
  EXPECT_EQ(plan.options.retries, 3u);
  EXPECT_EQ(plan.options.halt.when, HaltWhen::kNow);
  EXPECT_DOUBLE_EQ(plan.options.timeout_seconds, 5.5);
  EXPECT_DOUBLE_EQ(plan.options.delay_seconds, 0.1);
  EXPECT_EQ(plan.options.joblog_path, "/tmp/j.log");
}

TEST(Cli, EnvFlagAccumulates) {
  RunPlan plan = parse({"--env", "A=1", "--env", "HIP_VISIBLE_DEVICES={%}", "cmd",
                        ":::", "x"});
  EXPECT_EQ(plan.options.env.at("A"), "1");
  EXPECT_EQ(plan.options.env.at("HIP_VISIBLE_DEVICES"), "{%}");
}

TEST(Cli, RejectsBadUsage) {
  EXPECT_THROW(parse({"--env", "NOEQUALS", "cmd", ":::", "x"}), util::ParseError);
  EXPECT_THROW(parse({"--jobs"}), util::ParseError);
  EXPECT_THROW(parse({"--bogus-flag", "cmd"}), util::ParseError);
  EXPECT_THROW(parse({"--resume", "cmd", ":::", "x"}), util::ConfigError);  // no joblog
}

TEST(Cli, RemovedDispatchOptionsAreRejected) {
  // The multi-threaded dispatch core, the preforked spawn helper and the
  // batched joblog writer are gone; their flags are unknown options now,
  // not silently accepted no-ops.
  const std::vector<std::vector<std::string>> removed = {
      {"--dispatchers", "2"}, {"--zygote"}, {"--joblog-flush", "64k"}};
  for (std::vector<std::string> argv : removed) {
    const std::string flag = argv[0];
    argv.insert(argv.end(), {"cmd", ":::", "x"});
    try {
      parse_cli(argv);
      FAIL() << flag << " was accepted";
    } catch (const util::ParseError& error) {
      EXPECT_NE(std::string(error.what()).find("unknown option '" + flag + "'"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(Cli, LineBufferIsAnUnknownOption) {
  // --line-buffer was parsed and then acted as --group; it is gone until it
  // can stream whole lines as GNU Parallel's does.
  for (const std::string flag : {"--line-buffer", "--lb"}) {
    try {
      parse_cli({flag, "cmd", ":::", "x"});
      FAIL() << flag << " was accepted";
    } catch (const util::ParseError& error) {
      EXPECT_NE(std::string(error.what()).find("unknown option '" + flag + "'"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(Cli, ServerRefusesRunOptionsItCannotApply) {
  // Service jobs run through the engine's loop with these options...
  RunPlan plan = parse({"--server", "--state-dir", "/tmp/s", "-j3", "--retries", "2",
                        "--retry-delay", "0.1", "--timeout", "200%", "--delay", "0.01",
                        "--memfree", "1M", "--load", "8", "--joblog-fsync"});
  EXPECT_EQ(plan.options.retries, 2u);
  EXPECT_TRUE(plan.options.joblog_fsync);
  EXPECT_NO_THROW(parse({"--server", "--state-dir", "/tmp/s", "--timeout", "5"}));
  // ...and refuse every other run option, naming it.
  const std::vector<std::vector<std::string>> refused = {
      {"-k"}, {"-u"}, {"--tag"}, {"--tagstring", "{}"},
      {"--joblog", "/tmp/j"}, {"--results", "/tmp/r"},
      {"--resume", "--joblog", "/tmp/j"}, {"--resume-failed", "--joblog", "/tmp/j"},
      {"--shuf"}, {"--halt", "now,fail=1"}, {"--dry-run"}, {"--progress"},
      {"--pipe"}, {"-n", "2"}, {"-X"}, {"--colsep", ","}, {"--trim", "lr"},
      {"--env", "A=1"}, {"--hedge", "2"}, {"--termseq", "INT,100,KILL"},
      {"--no-shell"}, {"--no-quote"}, {"--filter-hosts", "--slf", "/tmp/hosts"},
      {"--watch", "--slf", "/tmp/hosts"}, {"--sshlogin-file", "/tmp/hosts"},
      {"--min-hosts", "2"},
      {"--min-hosts-grace", "5"}, {"--drain-grace", "1"},
      {"--quarantine-after", "1"}, {"--probe-interval", "1"},
      {"--heartbeat-interval", "2"}, {"--reconnect", "5"}};
  for (std::vector<std::string> argv : refused) {
    const std::string flag = argv[0];
    argv.insert(argv.begin(), {"--server", "--state-dir", "/tmp/s"});
    try {
      parse_cli(argv);
      ADD_FAILURE() << flag << " was accepted by --server";
    } catch (const util::ConfigError& error) {
      EXPECT_NE(std::string(error.what()).find("--server cannot apply " + flag + " "),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(Cli, HelpAndVersionShortCircuit) {
  EXPECT_TRUE(parse({"--help"}).show_help);
  EXPECT_TRUE(parse({"--version"}).show_version);
  EXPECT_FALSE(usage_text().empty());
  EXPECT_FALSE(version_text().empty());
}

TEST(Cli, DryRunAndQuoteToggles) {
  RunPlan plan = parse({"--dry-run", "--no-quote", "--no-shell", "cmd", ":::", "x"});
  EXPECT_TRUE(plan.options.dry_run);
  EXPECT_FALSE(plan.options.quote_args);
  EXPECT_FALSE(plan.options.use_shell);
}

TEST(Cli, RangeExpansionInSources) {
  RunPlan plan = parse({"cmd", ":::", "{1..3}", "literal"});
  EXPECT_EQ(plan.sources[0].values,
            (std::vector<std::string>{"1", "2", "3", "literal"}));
}

TEST(Cli, RobustnessFlags) {
  RunPlan plan = parse({"--retry-delay", "0.5", "--timeout", "200%",
                        "--termseq", "TERM,100,TERM,200,KILL",
                        "--memfree", "1g", "--load", "8",
                        "--joblog", "/tmp/j.log", "--joblog-fsync",
                        "cmd", ":::", "x"});
  EXPECT_DOUBLE_EQ(plan.options.retry_delay_seconds, 0.5);
  EXPECT_DOUBLE_EQ(plan.options.timeout_percent, 200.0);
  EXPECT_DOUBLE_EQ(plan.options.timeout_seconds, 0.0);
  EXPECT_EQ(plan.options.term_seq, "TERM,100,TERM,200,KILL");
  EXPECT_EQ(plan.options.memfree_bytes, 1024u * 1024u * 1024u);
  EXPECT_DOUBLE_EQ(plan.options.load_max, 8.0);
  EXPECT_TRUE(plan.options.joblog_fsync);
}

TEST(Cli, ElasticCapacityFlags) {
  RunPlan plan = parse({"--sshlogin-file", "/tmp/hosts.txt", "--watch",
                        "--drain-grace", "12.5", "--min-hosts", "3",
                        "--min-hosts-grace", "90", "cmd", ":::", "x"});
  EXPECT_EQ(plan.options.sshlogin_file, "/tmp/hosts.txt");
  EXPECT_TRUE(plan.options.watch_sshlogin_file);
  EXPECT_DOUBLE_EQ(plan.options.drain_grace_seconds, 12.5);
  EXPECT_EQ(plan.options.min_hosts, 3u);
  EXPECT_DOUBLE_EQ(plan.options.min_hosts_grace_seconds, 90.0);
  // --slf is the short alias, and --filter-hosts accepts a file-only host set.
  RunPlan alias = parse({"--slf", "f.txt", "--filter-hosts", "cmd", ":::", "x"});
  EXPECT_EQ(alias.options.sshlogin_file, "f.txt");
  EXPECT_TRUE(alias.options.filter_hosts);
}

TEST(Cli, ElasticFlagsRejectBadUsage) {
  // --watch needs a file to watch.
  EXPECT_THROW(parse({"--watch", "cmd", ":::", "x"}), util::ConfigError);
  EXPECT_THROW(parse({"--min-hosts", "-1", "cmd", ":::", "x"}), util::ParseError);
  EXPECT_THROW(parse({"--slf", "f.txt", "--drain-grace", "-2", "cmd", ":::", "x"}),
               util::ConfigError);
  // A file-fed host set is still a remote run: no --semaphore.
  EXPECT_THROW(parse({"--slf", "f.txt", "--semaphore", "cmd"}), util::ConfigError);
}

TEST(Cli, TimeoutPercentSuffixSelectsAdaptiveMode) {
  EXPECT_DOUBLE_EQ(parse({"--timeout", "5.5", "cmd", ":::", "x"})
                       .options.timeout_seconds, 5.5);
  RunPlan plan = parse({"--timeout", "300%", "cmd", ":::", "x"});
  EXPECT_DOUBLE_EQ(plan.options.timeout_seconds, 0.0);
  EXPECT_DOUBLE_EQ(plan.options.timeout_percent, 300.0);
}

TEST(Cli, XargsPacking) {
  RunPlan plan = parse({"-X", "--max-chars", "100", "rm", ":::", "a", "b"});
  EXPECT_TRUE(plan.options.xargs);
  EXPECT_EQ(plan.options.max_chars, 100u);
}

TEST(Cli, PilotTransportFlags) {
  RunPlan plan = parse({"--pilot", "-S", "4/node07,:",
                        "--heartbeat-interval", "0.5", "--reconnect", "7",
                        "cmd", ":::", "x"});
  EXPECT_TRUE(plan.options.pilot);
  EXPECT_DOUBLE_EQ(plan.options.heartbeat_interval_seconds, 0.5);
  EXPECT_EQ(plan.options.reconnect_max, 7u);
  ASSERT_EQ(plan.sshlogins.size(), 2u);
  EXPECT_EQ(plan.sshlogins[0].host, "node07");
  EXPECT_EQ(plan.sshlogins[0].jobs, 4u);
}

TEST(Cli, PilotRequiresHostsAndValidFlags) {
  EXPECT_THROW(parse({"--pilot", "cmd", ":::", "x"}), util::ConfigError);
  EXPECT_THROW(parse({"-S", ":", "--heartbeat-interval", "0", "cmd", ":::", "x"}),
               util::ConfigError);
  EXPECT_THROW(parse({"--reconnect", "0", "cmd", ":::", "x"}), util::ParseError);
}

TEST(Cli, WorkerModeIsBareAndExclusive) {
  RunPlan plan = parse({"--worker"});
  EXPECT_TRUE(plan.worker_mode);
  EXPECT_THROW(parse({"--worker", "cmd", ":::", "x"}), util::ConfigError);
  EXPECT_THROW(parse({"--worker", "--pilot"}), util::ConfigError);
  EXPECT_THROW(parse({"--worker", "-S", ":"}), util::ConfigError);
  EXPECT_THROW(parse({"--worker", "--semaphore"}), util::ConfigError);
}

}  // namespace
}  // namespace parcl::core
