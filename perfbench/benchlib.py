"""Measurement helpers shared by the benchmark runner (run.py) and its tests.

Everything here is pure Python with no third-party imports, so the helpers
can be unit-tested without a build: percentiles and the reporting rule,
span self time, process accounting read from /proc, and the output checks
(keep-order digest, joblog rows).
"""

import hashlib
import os
import random
import subprocess
import time

# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------

# Percentiles a timing may be reported at, highest first.
REPORTABLE = (99.9, 99.0, 90.0, 50.0)

# A percentile is only reported when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values, p):
    """Linear-interpolated percentile (p in [0, 100]) of a non-empty list."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return float(ordered[low] + (ordered[high] - ordered[low]) * frac)


def samples_beyond(count, p):
    """How many of `count` distinct samples lie strictly above the p-th
    percentile as percentile() interpolates it (rank (count - 1) * p / 100)."""
    return count - 1 - int((count - 1) * p / 100.0 + 1e-9)


def reportable(count, p):
    """True when a sample of `count` supports reporting the p-th percentile:
    at least MIN_TAIL_SAMPLES samples beyond it (the median always qualifies
    once the sample has 2 * MIN_TAIL_SAMPLES values)."""
    return samples_beyond(count, p) >= MIN_TAIL_SAMPLES


def highest_reportable(count):
    """The highest percentile in REPORTABLE that `count` samples support, or
    None when even the median lacks ten samples beyond it."""
    for p in REPORTABLE:
        if reportable(count, p):
            return p
    return None


def median(values):
    return percentile(values, 50.0)


# ---------------------------------------------------------------------------
# Spans and self time
# ---------------------------------------------------------------------------


class Span:
    """One timed call: the layer it belongs to, the thread that made it, and
    its [start, end] interval in seconds."""

    __slots__ = ("layer", "thread", "start", "end")

    def __init__(self, layer, thread, start, end):
        self.layer = layer
        self.thread = thread
        self.start = start
        self.end = end

    @property
    def duration(self):
        return self.end - self.start


def _covered(intervals):
    """Total length of the union of [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time per layer: each span's duration minus the part of its
    interval covered by its children, summed by layer.

    Spans of one thread nest (a call made inside another call); a span's
    children are the outermost spans of the same thread lying inside it.
    Spans on different threads never parent each other."""
    by_thread = {}
    for span in spans:
        by_thread.setdefault(span.thread, []).append(span)
    totals = {}
    for thread_spans in by_thread.values():
        # Outer spans first: earlier start, then longer.
        ordered = sorted(thread_spans, key=lambda s: (s.start, -s.end))
        stack = []  # (span, children intervals)
        finished = []

        def close(entry):
            span, children = entry
            finished.append((span, children))
            if stack:
                stack[-1][1].append((span.start, span.end))

        for span in ordered:
            while stack and stack[-1][0].end <= span.start:
                close(stack.pop())
            stack.append((span, []))
        while stack:
            close(stack.pop())
        for span, children in finished:
            own = span.duration - _covered(
                [(max(s, span.start), min(e, span.end)) for s, e in children])
            totals[span.layer] = totals.get(span.layer, 0.0) + own
    return totals


def read_spans(path):
    """Reads the trace harness's span dump: one 'layer thread start end' line
    per span (times in seconds)."""
    spans = []
    with open(path) as handle:
        for line in handle:
            layer, thread, start, end = line.split()
            spans.append(Span(layer, int(thread), float(start), float(end)))
    return spans


# ---------------------------------------------------------------------------
# Running the program under measurement
# ---------------------------------------------------------------------------

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class ProcessStats:
    """What one measured run of a process cost, read from outside it."""

    def __init__(self, returncode, wall_s, cpu_s, maxrss_kib):
        self.returncode = returncode
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.maxrss_kib = maxrss_kib


def proc_cpu_seconds(pid):
    """User + system CPU of process `pid` itself, all threads, children
    excluded (fields 14 and 15 of /proc/PID/stat)."""
    with open("/proc/%d/stat" % pid) as handle:
        stat = handle.read()
    fields = stat[stat.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def finish_process(proc, launched_at):
    """Waits for `proc` to exit without reaping it, reads its own CPU time,
    then reaps it for its peak RSS. Returns ProcessStats."""
    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    ended = time.monotonic()
    cpu = proc_cpu_seconds(proc.pid)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcessStats(proc.returncode, ended - launched_at, cpu, usage.ru_maxrss)


def run_measured(argv, stdin_path=None, stdout_path=None):
    """Runs argv to completion, timing it from launch to exit."""
    stdin = open(stdin_path, "rb") if stdin_path else subprocess.DEVNULL
    stdout = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    try:
        launched_at = time.monotonic()
        proc = subprocess.Popen(argv, stdin=stdin, stdout=stdout,
                                stderr=subprocess.DEVNULL)
        try:
            return finish_process(proc, launched_at)
        except BaseException:
            # Interrupted (run.py's watchdog): leave no process behind.
            proc.kill()
            proc.wait()
            raise
    finally:
        if stdin_path:
            stdin.close()
        if stdout_path:
            stdout.close()


# ---------------------------------------------------------------------------
# Inputs and output checks
# ---------------------------------------------------------------------------


def make_blob(seed, size):
    """Seeded pseudo-random bytes the chain's jobs read prefixes of."""
    return random.Random(seed).randbytes(size)


def storm_lines(seed, count):
    """Seeded input values for the spawn storm (one /bin/true job each)."""
    rng = random.Random(seed)
    return [str(rng.randrange(10 ** 9)) for _ in range(count)]


def chain_sizes(seed, items, large_every, large_size, small_max):
    """Item sizes for the keep-order chain: mostly 0..small_max bytes, with
    every `large_every`-th item (seeded phase) large_size bytes."""
    rng = random.Random(seed)
    phase = rng.randrange(large_every)
    return [large_size if i % large_every == phase else rng.randrange(small_max + 1)
            for i in range(items)]


def collated(data):
    """A job's stdout as parcl's collator prints it: line by line, so a
    non-empty output whose last line lacks a newline gains one."""
    return data + b"\n" if data and not data.endswith(b"\n") else data


def keep_order_digest(blob, sizes, stages):
    """SHA-256 of what `-k` must print for a chain whose every stage runs
    `head -c SIZE BLOB`: per item in input order, `stages` copies of the
    blob's first SIZE bytes, as collated."""
    digest = hashlib.sha256()
    for size in sizes:
        chunk = collated(blob[:size])
        for _ in range(stages):
            digest.update(chunk)
    return digest.hexdigest()


def file_digest(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def joblog_misses(path, expected_jobs):
    """Jobs the joblog does not record exactly once with Exitval 0: missing
    seqs, duplicate rows and failed rows each count once."""
    counts = {}
    failed = 0
    with open(path) as handle:
        for line in handle:
            fields = line.rstrip("\n").split("\t")
            if not fields or fields[0] == "Seq":
                continue
            seq = int(fields[0])
            counts[seq] = counts.get(seq, 0) + 1
            if fields[6] != "0" or fields[7] != "0":
                failed += 1
    missing = sum(1 for seq in range(1, expected_jobs + 1) if seq not in counts)
    extra = sum(n - 1 for n in counts.values()) + sum(
        n for seq, n in counts.items() if not 1 <= seq <= expected_jobs)
    return missing + extra + failed


def joblog_rows(path):
    with open(path) as handle:
        return sum(1 for line in handle if line.strip() and not line.startswith("Seq\t"))
