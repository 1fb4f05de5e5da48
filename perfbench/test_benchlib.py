"""Tests for the benchmark's own helpers.

    python3 perfbench/test_benchlib.py
"""

import os
import tempfile
import unittest

import benchlib as b


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        values = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(b.percentile(values, 0), 1.0)
        self.assertEqual(b.percentile(values, 100), 4.0)
        self.assertAlmostEqual(b.percentile(values, 50), 2.5)
        self.assertAlmostEqual(b.percentile(values, 90), 3.7)

    def test_single_value_and_empty(self):
        self.assertEqual(b.percentile([7.0], 99), 7.0)
        with self.assertRaises(ValueError):
            b.percentile([], 50)

    def test_median_matches_statistics_module(self):
        import statistics
        values = [0.3, 9.1, 2.2, 5.5, 1.0, 8.8, 4.4]
        self.assertAlmostEqual(b.median(values), statistics.median(values))


class ReportingRuleTest(unittest.TestCase):
    def test_samples_beyond(self):
        self.assertEqual(b.samples_beyond(100, 90), 10)
        self.assertEqual(b.samples_beyond(100, 99), 1)
        self.assertEqual(b.samples_beyond(1000, 99), 10)
        self.assertEqual(b.samples_beyond(20, 50), 10)
        self.assertEqual(b.samples_beyond(901, 99), 9)

    def test_count_matches_the_sample(self):
        values = [float(v) for v in range(1, 101)]
        p90 = b.percentile(values, 90)
        self.assertEqual(sum(1 for v in values if v > p90), b.samples_beyond(100, 90))

    def test_ten_samples_beyond_make_a_percentile_reportable(self):
        self.assertTrue(b.reportable(100, 90))
        self.assertFalse(b.reportable(90, 90))
        self.assertFalse(b.reportable(100, 99))
        self.assertTrue(b.reportable(902, 99))
        self.assertFalse(b.reportable(901, 99))

    def test_highest_reportable(self):
        self.assertEqual(b.highest_reportable(10000), 99.9)
        self.assertEqual(b.highest_reportable(1000), 99.0)
        self.assertEqual(b.highest_reportable(320), 90.0)
        self.assertEqual(b.highest_reportable(40), 50.0)
        self.assertIsNone(b.highest_reportable(18))


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans_subtract_their_children(self):
        spans = [
            b.Span("engine", 0, 0.0, 10.0),
            b.Span("executor.start", 0, 1.0, 3.0),
            b.Span("executor.wait", 0, 4.0, 8.0),
            b.Span("dag.next_gated", 0, 8.5, 9.0),
            b.Span("job_source.next", 0, 8.6, 8.7),  # inside dag.next_gated
        ]
        own = b.self_times(spans)
        self.assertAlmostEqual(own["engine"], 10.0 - 2.0 - 4.0 - 0.5)
        self.assertAlmostEqual(own["executor.start"], 2.0)
        self.assertAlmostEqual(own["executor.wait"], 4.0)
        self.assertAlmostEqual(own["dag.next_gated"], 0.4)
        self.assertAlmostEqual(own["job_source.next"], 0.1)
        # Self times of one tree add up to its root span.
        self.assertAlmostEqual(sum(own.values()), 10.0)

    def test_repeated_layers_sum(self):
        spans = [b.Span("engine", 0, 0.0, 4.0)] + [
            b.Span("executor.start", 0, t, t + 0.5) for t in (0.5, 1.5, 2.5)]
        own = b.self_times(spans)
        self.assertAlmostEqual(own["executor.start"], 1.5)
        self.assertAlmostEqual(own["engine"], 2.5)

    def test_other_threads_are_not_children(self):
        spans = [
            b.Span("engine", 0, 0.0, 10.0),
            b.Span("job_source.next", 1, 2.0, 6.0),  # a reader thread
        ]
        own = b.self_times(spans)
        self.assertAlmostEqual(own["engine"], 10.0)
        self.assertAlmostEqual(own["job_source.next"], 4.0)

    def test_spans_touching_end_to_start_are_siblings(self):
        spans = [b.Span("server.step", 0, 0.0, 1.0), b.Span("server.submit", 0, 1.0, 1.5)]
        own = b.self_times(spans)
        self.assertAlmostEqual(own["server.step"], 1.0)
        self.assertAlmostEqual(own["server.submit"], 0.5)

    def test_read_spans_round_trip(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "spans.txt")
            with open(path, "w") as handle:
                handle.write("engine 0 1.000000000 2.500000000\n")
                handle.write("executor.wait 3 1.100000000 1.200000000\n")
            spans = b.read_spans(path)
        self.assertEqual([s.layer for s in spans], ["engine", "executor.wait"])
        self.assertEqual(spans[1].thread, 3)
        self.assertAlmostEqual(spans[0].duration, 1.5)


class OutputCheckTest(unittest.TestCase):
    def setUp(self):
        self.blob = b.make_blob(5, 4096)
        self.sizes = [10, 0, 700, 33]

    def printed(self, sizes, stages=2):
        return b"".join(b.collated(self.blob[:size]) * stages for size in sizes)

    def digest_of(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "out")
            with open(path, "wb") as handle:
                handle.write(data)
            return b.file_digest(path)

    def test_exact_output_matches(self):
        expected = b.keep_order_digest(self.blob, self.sizes, 2)
        self.assertEqual(self.digest_of(self.printed(self.sizes)), expected)

    def test_reordered_jobs_are_caught(self):
        expected = b.keep_order_digest(self.blob, self.sizes, 2)
        reordered = [self.sizes[2], self.sizes[1], self.sizes[0], self.sizes[3]]
        self.assertNotEqual(self.digest_of(self.printed(reordered)), expected)

    def test_missing_job_is_caught(self):
        expected = b.keep_order_digest(self.blob, self.sizes, 2)
        # Item 3's second stage never printed.
        data = self.printed(self.sizes[:2]) + b.collated(self.blob[:700]) + \
            self.printed(self.sizes[3:])
        self.assertNotEqual(self.digest_of(data), expected)

    def test_collation_terminates_the_last_line(self):
        self.assertEqual(b.collated(b"ab"), b"ab\n")
        self.assertEqual(b.collated(b"ab\n"), b"ab\n")
        self.assertEqual(b.collated(b""), b"")

    def test_chain_sizes_are_seeded(self):
        first = b.chain_sizes(3, 500, 100, 1 << 20, 4096)
        self.assertEqual(first, b.chain_sizes(3, 500, 100, 1 << 20, 4096))
        self.assertNotEqual(first, b.chain_sizes(4, 500, 100, 1 << 20, 4096))
        self.assertEqual(sum(1 for s in first if s == 1 << 20), 5)


class JoblogCheckTest(unittest.TestCase):
    HEADER = "Seq\tHost\tStarttime\tJobRuntime\tSend\tReceive\tExitval\tSignal\tCommand\n"

    def misses(self, rows, expected_jobs):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "joblog")
            with open(path, "w") as handle:
                handle.write(self.HEADER)
                for seq, exitval in rows:
                    handle.write("%d\t:\t0.000\t0.001\t0\t0\t%d\t0\tcmd\n" % (seq, exitval))
            return b.joblog_misses(path, expected_jobs), b.joblog_rows(path)

    def test_one_clean_row_per_seq(self):
        self.assertEqual(self.misses([(2, 0), (1, 0), (3, 0)], 3), (0, 3))

    def test_missing_duplicate_and_failed_rows(self):
        self.assertEqual(self.misses([(1, 0), (3, 0)], 3)[0], 1)
        self.assertEqual(self.misses([(1, 0), (2, 0), (2, 0), (3, 0)], 3)[0], 1)
        self.assertEqual(self.misses([(1, 0), (2, 1), (3, 0)], 3)[0], 1)
        self.assertEqual(self.misses([(1, 0), (2, 0), (3, 0), (4, 0)], 3)[0], 1)


if __name__ == "__main__":
    unittest.main()
