#!/usr/bin/env python3
"""parcl's end-to-end benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload spawn_storm --seed 1 --seconds 10 --trace 0

Builds parcl from this checkout's src/ (into $CARGO_TARGET_DIR, default
.bench_build), generates the workload's inputs from --seed, runs the real
`parcl` binary (or `parcl --server` with an open-loop client), checks every
output, and prints one line per metric followed by a final JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics. --trace 1 reruns the workload
in-process through perfbench_trace and reports per-layer metrics instead,
with the tracing overhead and the share of time no layer accounts for.
Workloads and metrics are described in perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import benchlib as b

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("spawn_storm", "keep_order_chain", "service_open_loop")

END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("dispatcher_cpu_us_per_job", "us"),
    ("job_latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

PER_LAYER = (
    ("executor.spawn_us_p50", "us"),
    ("executor.spawn_us_p99", "us"),
    ("executor.wait_calls_per_job", "count"),
    ("executor.wait_us_per_job", "us"),
    ("executor.captured_bytes_per_job", "bytes"),
    ("engine.self_us_per_job", "us"),
    ("engine.shards", "count"),
    ("engine.shard_jobs_max_over_mean", "ratio"),
    ("job_source.pulls", "count"),
    ("job_source.us_per_pull", "us"),
    ("dag.next_gated_us", "us"),
    ("dag.note_complete_us", "us"),
    ("dag.blocked_pulls", "count"),
    ("output.bytes", "bytes"),
    ("output.write_calls", "count"),
    ("output.us_per_job", "us"),
    ("joblog.rows", "count"),
    ("joblog.bytes_per_row", "bytes"),
    ("joblog.record_us", "us"),
    ("server.submit_us_p50", "us"),
    ("server.submit_us_p99", "us"),
    ("journal.append_us_p50", "us"),
    ("server.step_us_per_job", "us"),
    ("server.queue_latency_ms_p50", "ms"),
    ("server.queue_latency_ms_p99", "ms"),
    ("server.rejects", "count"),
    ("transport.submit_to_ack_ms_p50", "ms"),
    ("transport.submit_to_ack_ms_p99", "ms"),
    ("transport.ack_to_result_ms_p50", "ms"),
    ("transport.frames_per_job", "count"),
    ("job_latency_p90_ms", "ms"),
    ("job_latency_p99_ms", "ms"),
    ("cli.parse_us", "us"),
    ("dispatch.polls_per_job", "count"),
    ("dispatch.exit_wakeups_per_job", "count"),
    ("trace.jobs_per_s", "1/s"),
    ("trace.untraced_jobs_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
)

# Workload shape. A CLI run is a few rounds; each round makes one
# fixed-size invocation plus a share of the latency and set-up probes, so
# every metric samples the whole run and a burst of host noise spoils one
# round, not the run. Metrics are medians over rounds (or over all probes).
ROUND_SECONDS = 2.5           # target length of one round
STORM_LINES = 7500            # /bin/true jobs per spawn_storm invocation
CHAIN_ITEMS = 2000            # items per keep_order_chain invocation (2 jobs each)
CHAIN_LARGE_EVERY = 100       # every ~100th item prints 1 MiB
CHAIN_LARGE_SIZE = 1 << 20
CHAIN_SMALL_MAX = 4096
SERVICE_RATE = 1500.0         # offered jobs/s, open loop
SERVICE_TENANTS = 4
SERVICE_LOAD_SHARE = 0.8      # share of --seconds the service is under load
LATENCY_PROBES = 40           # one-job invocations per round (p90 keeps 10 beyond)
SETUP_PROBES_CLI = 6          # empty-input invocations per round
SETUP_PROBES_SERVICE = 7

WATCHDOG_SECONDS = 170


class BenchError(Exception):
    """The benchmark could not run (as opposed to a wrong program output)."""


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures once and builds the three targets; returns their paths."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("parcl sources (src/) not found next to perfbench/")
    out = build_dir()
    log = sys.stderr
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    subprocess.run(["cmake", "--build", out, "-j4", "--target", "parcl",
                    "perfbench_loadgen", "perfbench_trace"],
                   check=True, stdout=log, stderr=log)
    return {
        "parcl": os.path.join(out, "parcl", "core", "parcl"),
        "loadgen": os.path.join(out, "perfbench_loadgen"),
        "trace": os.path.join(out, "perfbench_trace"),
    }


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


class Result:
    """Metrics plus the correctness tally of one run."""

    def __init__(self):
        self.metrics = {}
        self.notes = []      # extra human-readable lines
        self.attempted = 0
        self.failed = 0
        self.misses = []     # correctness failures, described

    def miss(self, what, count=1):
        if count:
            self.failed += count
            self.misses.append(what)

    def set(self, name, value):
        self.metrics[name] = float(value)


def timing_note(label, samples_ms):
    """A timing as the median plus the highest percentile with at least ten
    samples beyond it, with the sample count."""
    p = b.highest_reportable(len(samples_ms))
    tail = ("p%g %.3f ms" % (p, b.percentile(samples_ms, p)) if p
            else "no percentile has ten samples beyond it")
    return "%s: %d samples, median %.3f ms, %s" % (
        label, len(samples_ms), b.median(samples_ms), tail)


def mean(values):
    return sum(values) / len(values) if values else 0.0


def pct(values, p):
    return b.percentile(values, p) if values else 0.0


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------


class CliWorkload:
    """A workload that runs one parcl command line over stdin lines."""

    def __init__(self, name, tools, work, seed, seconds):
        self.name = name
        self.tools = tools
        self.work = work
        self.seed = seed
        if name == "spawn_storm":
            self.lines = b.storm_lines(seed, STORM_LINES)
            self.jobs_per_item = 1
            self.blob = self.sizes = None
        else:
            self.blob = b.make_blob(seed, CHAIN_LARGE_SIZE)
            with open(os.path.join(work, "blob"), "wb") as handle:
                handle.write(self.blob)
            self.sizes = b.chain_sizes(seed, CHAIN_ITEMS, CHAIN_LARGE_EVERY,
                                       CHAIN_LARGE_SIZE, CHAIN_SMALL_MAX)
            self.lines = [str(s) for s in self.sizes]
            self.jobs_per_item = 2
        self.rounds = max(2, round(seconds / ROUND_SECONDS))
        self.input = os.path.join(work, "input")
        with open(self.input, "w") as handle:
            handle.write("".join(line + "\n" for line in self.lines))
        self.probe_input = os.path.join(work, "probe_input")
        with open(self.probe_input, "w") as handle:
            handle.write("%s\n" % (min(self.sizes) if self.sizes else self.lines[0]))
        self.jobs = len(self.lines) * self.jobs_per_item

    def argv(self, joblog=None):
        """The parcl command line (without the program)."""
        if self.name == "spawn_storm":
            return ["-j32", "/bin/true"]
        blob = os.path.join(self.work, "blob")
        return ["-j4", "-k", "--joblog", joblog, "--then", "head -c {} " + blob,
                "head", "-c", "{}", blob]

    def invoke(self, stdin_path, tag):
        """One measured invocation; returns (stats, stdout path, joblog)."""
        joblog = os.path.join(self.work, tag + ".joblog")
        stdout = os.path.join(self.work, tag + ".out") if self.blob else None
        for path in (joblog, stdout):
            if path and os.path.exists(path):
                os.unlink(path)
        stats = b.run_measured([self.tools["parcl"]] + self.argv(joblog),
                               stdin_path=stdin_path, stdout_path=stdout)
        return stats, stdout, joblog

    def check(self, result, stats, stdout, joblog, sizes, jobs):
        result.attempted += jobs
        if stats.returncode != 0:
            result.miss("%s: parcl exited %d" % (self.name, stats.returncode),
                        max(1, min(stats.returncode, jobs)))
            return
        if self.blob is None:
            return
        if b.file_digest(stdout) != b.keep_order_digest(self.blob, sizes, 2):
            result.miss("keep-order output digest mismatch")
        result.miss("joblog rows missing, repeated or failed",
                    b.joblog_misses(joblog, jobs))

    def probe_latency(self, result, count):
        """Wall times of one-job invocations (submit one job, see it done)."""
        probe_sizes = [min(self.sizes)] if self.sizes else None
        walls = []
        for _ in range(count):
            stats, stdout, joblog = self.invoke(self.probe_input, "probe")
            self.check(result, stats, stdout, joblog, probe_sizes, self.jobs_per_item)
            walls.append(stats.wall_s)
        return walls

    def probe_setup(self):
        """Wall times of empty-input invocations."""
        walls = []
        for _ in range(SETUP_PROBES_CLI):
            stats, _, _ = self.invoke(None, "setup")
            if stats.returncode != 0:
                raise BenchError("empty-input invocation exited %d" % stats.returncode)
            walls.append(stats.wall_s)
        return walls

    def run(self):
        result = Result()
        rates, cpu_us, rss, latency, setup = [], [], [], [], []
        for k in range(self.rounds):
            stats, stdout, joblog = self.invoke(self.input, "run%d" % k)
            self.check(result, stats, stdout, joblog, self.sizes, self.jobs)
            rates.append(self.jobs / stats.wall_s)
            cpu_us.append(stats.cpu_s / self.jobs * 1e6)
            rss.append(stats.maxrss_kib / 1024.0)
            latency += self.probe_latency(result, LATENCY_PROBES)
            setup += self.probe_setup()
        result.set("jobs_per_s", b.median(rates))
        result.set("dispatcher_cpu_us_per_job", b.median(cpu_us))
        result.set("job_latency_p50_ms", b.percentile(latency, 50) * 1e3)
        result.set("setup_s", b.median(setup))
        result.set("peak_rss_mib", b.median(rss))
        result.notes.append("rounds %d x %d jobs; jobs/s per invocation %s" % (
            self.rounds, self.jobs, " ".join("%.0f" % r for r in rates)))
        result.notes.append(timing_note("job latency (one-job invocations)",
                                        [w * 1e3 for w in latency]))
        return result

    def run_traced(self):
        result = Result()
        out = os.path.join(self.work, "trace")
        os.makedirs(out, exist_ok=True)
        joblog = os.path.join(out, "joblog")
        proc = subprocess.run(
            [self.tools["trace"], "--workload", self.name, "--input", self.input,
             "--out", out, "--"] + self.argv(joblog),
            stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise BenchError("perfbench_trace exited %d" % proc.returncode)
        facts = load_facts(out)
        result.attempted += self.jobs
        result.miss("traced run: failed jobs", int(facts["failed_jobs"]))
        if self.blob is not None:
            if b.file_digest(os.path.join(out, "stdout")) != b.keep_order_digest(
                    self.blob, self.sizes, 2):
                result.miss("traced keep-order output digest mismatch")
            result.miss("traced joblog rows missing, repeated or failed",
                        b.joblog_misses(joblog, self.jobs))
        spans = b.read_spans(os.path.join(out, "spans.txt"))
        layer_metrics(result, facts, spans)

        stats, stdout, log = self.invoke(self.input, "untraced")
        self.check(result, stats, stdout, log, self.sizes, self.jobs)
        latency = self.probe_latency(result, LATENCY_PROBES * self.rounds)
        result.set("job_latency_p90_ms", b.percentile(latency, 90) * 1e3)
        result.set("job_latency_p99_ms", b.percentile(latency, 99) * 1e3)
        overhead(result, self.jobs / stats.wall_s)
        return result


# ---------------------------------------------------------------------------
# Service workload
# ---------------------------------------------------------------------------


class ServiceWorkload:
    name = "service_open_loop"

    def __init__(self, tools, work, seed, seconds):
        self.tools = tools
        self.work = work
        self.seed = seed
        self.jobs = max(100, int(SERVICE_RATE * seconds * SERVICE_LOAD_SHARE))

    def server_argv(self, state):
        return ["--server", "-j4", "--state-dir", state, "--max-queue", "4096"]

    def session(self, tag, jobs):
        """Launches a server, runs the load generator against it, stops the
        server. Returns (setup seconds, server stats, loadgen summary,
        records path, state dir)."""
        state = os.path.join(self.work, tag)
        shutil.rmtree(state, ignore_errors=True)
        os.makedirs(state)
        records = os.path.join(self.work, tag + ".records")
        launched = time.monotonic()
        server = subprocess.Popen([self.tools["parcl"]] + self.server_argv(state),
                                  stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
        try:
            loadgen = subprocess.run(
                [self.tools["loadgen"], "--socket", os.path.join(state, "parcl.sock"),
                 "--tenants", str(SERVICE_TENANTS), "--rate", repr(SERVICE_RATE),
                 "--jobs", str(jobs), "--seed", str(self.seed), "--records", records],
                stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=120)
        finally:
            server.send_signal(signal.SIGTERM)
            stats = b.finish_process(server, launched)
        if loadgen.returncode != 0:
            raise BenchError("perfbench_loadgen exited %d" % loadgen.returncode)
        lines = loadgen.stdout.splitlines()
        acked_at = float(lines[0].split()[1])
        summary = json.loads(lines[-1])
        return acked_at - launched, stats, summary, records, state

    def check(self, result, stats, summary, state, jobs):
        result.attempted += jobs
        if stats.returncode != 0:
            result.miss("server exited %d" % stats.returncode)
        result.miss("jobs without exactly one RESULT",
                    abs(jobs - summary["results"]) + summary["duplicate_results"])
        result.miss("jobs not acked", jobs - summary["acked"])
        result.miss("REJECT frames", summary["rejects"])
        result.miss("wrong job output", summary["bad_output"])
        result.miss("failed jobs", summary["failed_exit"])
        rows = b.joblog_rows(os.path.join(state, "ledger.joblog"))
        result.miss("ledger rows differ from submits", abs(rows - summary["submitted"]))

    def load_run(self, result):
        """The measured open-loop session; returns (records, loadgen summary,
        server stats, set-up seconds)."""
        setup, stats, summary, records_path, state = self.session("run", self.jobs)
        self.check(result, stats, summary, state, self.jobs)
        records = []
        with open(records_path) as handle:
            for line in handle:
                seq, tenant, due, sent, acked, done = line.split()
                records.append((float(due), float(sent), float(acked), float(done)))
        return records, summary, stats, setup

    def run(self):
        result = Result()
        records, summary, stats, setup = self.load_run(result)
        done = [r for r in records if r[3] > 0]
        latency = [(r[3] - r[0]) * 1e3 for r in done]
        late = [(r[1] - r[0]) * 1e3 for r in records]
        span = max(r[3] for r in done) - min(r[0] for r in records)
        setups = [setup]
        for k in range(SETUP_PROBES_SERVICE - 1):
            seconds, probe_stats, _, _, _ = self.session("setup%d" % k, 0)
            if probe_stats.returncode != 0:
                raise BenchError("setup probe server exited %d" % probe_stats.returncode)
            setups.append(seconds)
        result.set("jobs_per_s", len(done) / span)
        result.set("dispatcher_cpu_us_per_job", stats.cpu_s / self.jobs * 1e6)
        result.set("job_latency_p50_ms", b.percentile(latency, 50))
        result.set("setup_s", b.median(setups))
        result.set("peak_rss_mib", stats.maxrss_kib / 1024.0)
        result.notes.append("offered %.0f jobs/s open loop to %d tenants, %d jobs" % (
            SERVICE_RATE, SERVICE_TENANTS, self.jobs))
        result.notes.append(timing_note("job latency (due -> RESULT)", latency))
        result.notes.append(timing_note("generator lateness (due -> sent)", late))
        return result

    def run_traced(self):
        result = Result()
        records, summary, stats, _ = self.load_run(result)
        done = [r for r in records if r[3] > 0]
        acked = [r for r in records if r[2] > 0]
        result.set("transport.submit_to_ack_ms_p50", pct([(r[2] - r[1]) * 1e3 for r in acked], 50))
        result.set("transport.submit_to_ack_ms_p99", pct([(r[2] - r[1]) * 1e3 for r in acked], 99))
        result.set("transport.ack_to_result_ms_p50",
                   pct([(r[3] - r[2]) * 1e3 for r in done if r[2] > 0], 50))
        result.set("transport.frames_per_job",
                   (summary["frames_in"] + summary["frames_out"]) / self.jobs)
        latency = [(r[3] - r[0]) * 1e3 for r in done]
        result.set("job_latency_p90_ms", pct(latency, 90))
        result.set("job_latency_p99_ms", pct(latency, 99))
        untraced_rate = len(done) / (max(r[3] for r in done) - min(r[0] for r in records))

        out = os.path.join(self.work, "trace")
        os.makedirs(out, exist_ok=True)
        proc = subprocess.run(
            [self.tools["trace"], "--workload", self.name, "--out", out,
             "--seed", str(self.seed), "--jobs", str(self.jobs),
             "--rate", repr(SERVICE_RATE), "--tenants", str(SERVICE_TENANTS), "--"]
            + self.server_argv(os.path.join(out, "state")),
            stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise BenchError("perfbench_trace exited %d" % proc.returncode)
        facts = load_facts(out)
        result.attempted += self.jobs
        result.miss("traced run: failed or missing jobs", int(facts["failed_jobs"]))
        result.miss("traced run: wrong job output", int(facts["bad_output"]))
        result.miss("traced run: rejected submits", int(facts["rejects"]))
        spans = b.read_spans(os.path.join(out, "spans.txt"))
        layer_metrics(result, facts, spans)
        overhead(result, untraced_rate)
        return result


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced run
# ---------------------------------------------------------------------------

# Layers timed outside the run itself (replays after it ended).
REPLAY_LAYERS = ("joblog.record", "journal.append")
# Time spent waiting rather than working: children reaped in wait_any, and
# the traced service loop sleeping until the next job is due.
BLOCKED_LAYERS = ("executor.wait", "bench.idle")


def load_facts(out):
    with open(os.path.join(out, "facts.json")) as handle:
        return json.load(handle)


def durations(spans, layer):
    return [s.duration for s in spans if s.layer == layer]


def layer_metrics(result, facts, spans):
    jobs = max(1.0, facts["jobs"])
    run_spans = [s for s in spans if s.layer not in REPLAY_LAYERS]
    self_s = b.self_times(run_spans)
    # Collated output is timed as a sum (too many writes for spans); it runs
    # inside the serial engine span, so it comes out of the engine's share.
    output_s = facts.get("output_s", 0.0)
    if facts["shards"] == 0 and "engine" in self_s:
        self_s["engine"] -= output_s
        self_s["output"] = output_s

    spawn = [d * 1e6 for d in durations(spans, "executor.start")]
    result.set("executor.spawn_us_p50", pct(spawn, 50))
    result.set("executor.spawn_us_p99", pct(spawn, 99))
    result.set("executor.wait_calls_per_job", facts["wait_calls"] / jobs)
    result.set("executor.wait_us_per_job", sum(durations(spans, "executor.wait")) / jobs * 1e6)
    result.set("executor.captured_bytes_per_job", facts["captured_bytes"] / jobs)

    shard_jobs = facts["shard_jobs"]
    result.set("engine.self_us_per_job", self_s.get("engine", 0.0) / jobs * 1e6)
    result.set("engine.shards", facts["shards"])
    result.set("engine.shard_jobs_max_over_mean",
               max(shard_jobs) / mean(shard_jobs) if shard_jobs and mean(shard_jobs) else
               (1.0 if "engine" in self_s else 0.0))

    pulls = facts.get("source_pulls", 0.0)
    result.set("job_source.pulls", pulls)
    result.set("job_source.us_per_pull",
               self_s.get("job_source.next", 0.0) / pulls * 1e6 if pulls else 0.0)
    dag_pulls = facts.get("dag_pulls", 0.0)
    notes = len(durations(spans, "dag.note_complete"))
    result.set("dag.next_gated_us",
               self_s.get("dag.next_gated", 0.0) / dag_pulls * 1e6 if dag_pulls else 0.0)
    result.set("dag.note_complete_us",
               self_s.get("dag.note_complete", 0.0) / notes * 1e6 if notes else 0.0)
    result.set("dag.blocked_pulls", facts.get("dag_blocked_pulls", 0.0))

    result.set("output.bytes", facts.get("output_bytes", 0.0))
    result.set("output.write_calls", facts.get("output_calls", 0.0))
    result.set("output.us_per_job", output_s / jobs * 1e6)

    rows = facts.get("joblog_rows", 0.0)
    result.set("joblog.rows", rows)
    result.set("joblog.bytes_per_row", facts.get("joblog_bytes", 0.0) / rows if rows else 0.0)
    result.set("joblog.record_us", mean(durations(spans, "joblog.record")) * 1e6)

    submit = [d * 1e6 for d in durations(spans, "server.submit")]
    result.set("server.submit_us_p50", pct(submit, 50))
    result.set("server.submit_us_p99", pct(submit, 99))
    result.set("journal.append_us_p50", pct([d * 1e6 for d in durations(spans, "journal.append")], 50))
    result.set("server.step_us_per_job", self_s.get("server.step", 0.0) / jobs * 1e6)
    queue = [q * 1e3 for q in facts.get("queue_latency_s", [])]
    result.set("server.queue_latency_ms_p50", pct(queue, 50))
    result.set("server.queue_latency_ms_p99", pct(queue, 99))
    result.set("server.rejects", facts.get("rejects", 0.0))
    for name in ("transport.submit_to_ack_ms_p50", "transport.submit_to_ack_ms_p99",
                 "transport.ack_to_result_ms_p50", "transport.frames_per_job"):
        result.metrics.setdefault(name, 0.0)

    result.set("cli.parse_us", b.median(facts["parse_s"]) * 1e6)
    result.set("dispatch.polls_per_job", facts["dispatch_polls"] / jobs)
    result.set("dispatch.exit_wakeups_per_job", facts["dispatch_exit_wakeups"] / jobs)

    # Accounting: every thread that took part, over the traced wall time.
    wall = facts["wall_s"]
    threads = {0} | {s.thread for s in run_spans}
    thread_s = wall * len(threads)
    blocked = sum(self_s.get(layer, 0.0) for layer in BLOCKED_LAYERS)
    worked = sum(v for layer, v in self_s.items() if layer not in BLOCKED_LAYERS)
    unattributed = thread_s - worked - blocked
    result.set("trace.jobs_per_s", jobs / wall)
    result.set("trace.unattributed_pct", 100.0 * unattributed / thread_s)
    result.notes.append("accounting: wall %.3f s x %d threads = %.3f thread-s" % (
        wall, len(threads), thread_s))
    for layer in sorted(self_s, key=lambda name: -self_s[name]):
        result.notes.append("  %-20s %8.3f s  %5.1f%%%s" % (
            layer, self_s[layer], 100.0 * self_s[layer] / thread_s,
            "  (blocked)" if layer in BLOCKED_LAYERS else ""))
    result.notes.append("  %-20s %8.3f s  %5.1f%%" % (
        "unattributed", unattributed, 100.0 * unattributed / thread_s))


def overhead(result, untraced_rate):
    traced = result.metrics["trace.jobs_per_s"]
    result.set("trace.untraced_jobs_per_s", untraced_rate)
    result.set("trace.overhead_pct", 100.0 * (untraced_rate - traced) / untraced_rate)


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def emit(result, names):
    for line in result.notes:
        print("# " + line)
    if result.misses:
        for miss in result.misses:
            print("# CHECK FAILED: " + miss)
    error_rate = result.failed / result.attempted if result.attempted else 1.0
    print("error_rate %.6f (%d of %d jobs)" % (error_rate, result.failed, result.attempted))
    metrics = {}
    for name, unit in names:
        value = result.metrics[name]
        print("%s %r %s" % (name, value, unit))
        metrics[name] = {"value": value, "unit": unit}
    correct = result.failed == 0 and result.attempted > 0
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    sys.stdout.flush()
    return correct


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    def on_alarm(signum, frame):
        raise BenchError("watchdog: run exceeded %d s" % WATCHDOG_SECONDS)

    tools = build()
    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(WATCHDOG_SECONDS)
    work = os.path.join(ROOT, ".bench_work", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if args.workload == "service_open_loop":
            workload = ServiceWorkload(tools, work, args.seed, args.seconds)
        else:
            workload = CliWorkload(args.workload, tools, work, args.seed, args.seconds)
        if args.trace:
            correct = emit(workload.run_traced(), PER_LAYER)
        else:
            correct = emit(workload.run(), END_TO_END)
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))  # only when no other run uses it
        except OSError:
            pass
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.CalledProcessError, OSError) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        sys.exit(2)
