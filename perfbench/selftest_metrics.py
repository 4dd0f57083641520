"""Self-tests of the benchmark's metric math (run at the start of every run).

    python3 perfbench/selftest_metrics.py

* no percentile is reported without ten samples beyond it;
* span self time is checked on a slow-query log recorded from
  ``python -m repro.serve --trace-sample 1.0 --slow-query-ms 0``
  (``fixtures/slow_query_sample.ndjson``; expected values worked out by
  hand from its offsets and durations);
* open-loop latency is timed from each request's due time, so a stall
  of the generator is charged to the requests it delayed.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import loadgen  # noqa: E402
import stats  # noqa: E402

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "fixtures", "slow_query_sample.ndjson")


class PercentileSupport(unittest.TestCase):

    def test_refuses_without_ten_beyond(self):
        with self.assertRaises(ValueError):
            stats.percentile(range(999), 0.99)
        with self.assertRaises(ValueError):
            stats.percentile(range(99), 0.9)
        with self.assertRaises(ValueError):
            stats.percentile(range(19), 0.5)

    def test_nearest_rank_leaves_ten_beyond(self):
        values = list(range(1000))
        p99 = stats.percentile(values, 0.99)
        self.assertEqual(p99, 989)
        self.assertEqual(sum(1 for v in values if v > p99), 10)
        self.assertEqual(stats.percentile(range(100), 0.9), 89)
        self.assertEqual(stats.percentile(range(20), 0.5), 9)

    def test_tail_falls_back_to_a_supported_quantile(self):
        value, used = stats.tail(list(range(200)), 0.99)
        self.assertAlmostEqual(used, 0.95)
        self.assertEqual(sum(1 for v in range(200) if v > value), 10)
        self.assertEqual(stats.tail(list(range(19)), 0.5), (0.0, 0.0))
        self.assertEqual(stats.tail([], 0.99), (0.0, 0.0))


class SelfTime(unittest.TestCase):

    def setUp(self):
        with open(FIXTURE) as handle:
            self.records = [json.loads(line) for line in handle]

    def by_name(self, record):
        return {node["name"]: node for node in stats.walk(record["spans"])}

    def test_recorded_trees(self):
        # (request, batch, shard.dispatch, worker.batch) self µs per record:
        # grafted subtrees ("batch", "worker.batch") start where their
        # earlier siblings end, whatever offset their own trace gave them.
        expected = [(188, 97, 2094, 1965), (350, 64, 1424, 1286)]
        for record, want in zip(self.records, expected):
            nodes = self.by_name(record)
            got = tuple(stats.self_us(nodes[name]) for name in
                        ("request", "batch", "shard.dispatch", "worker.batch"))
            self.assertEqual(got, want)

    def test_self_times_partition_the_request(self):
        for record in self.records:
            total = sum(stats.self_us(node) for node in stats.walk(record["spans"]))
            self.assertEqual(total, record["spans"]["dur_us"])

    def test_aggregation_by_name(self):
        grouped = stats.self_time_by_name(r["spans"] for r in self.records)
        self.assertEqual(grouped["request"], [188, 350])
        self.assertEqual(grouped["condition"], [14047])
        self.assertEqual(len(grouped["engine.logprob_batch"]), 2)

    def test_overlapping_children_count_once(self):
        node = {"name": "a", "dur_us": 100, "children": [
            {"name": "x", "offset_us": 10, "dur_us": 50},
            {"name": "y", "offset_us": 40, "dur_us": 40},
            {"name": "z", "offset_us": 95, "dur_us": 20}]}
        self.assertEqual(stats.self_us(node), 100 - 70 - 5)


class _InstantPipe:
    """A pipe whose replies arrive the moment they are sent."""

    def send(self, method, path, body=b"", tenant=None):
        future = asyncio.get_running_loop().create_future()
        future.set_result((200, b'{"ok":true}', loadgen.clock()))
        return future


class DueTime(unittest.TestCase):

    def test_latency_counts_from_due_time(self):
        step = loadgen.Step("query", 10.0)
        step.sent, step.recv = 10.5, 10.7
        self.assertAlmostEqual(step.latency, 0.7)
        self.assertAlmostEqual(step.lateness, 0.5)

    def test_open_loop_charges_a_stall_to_later_requests(self):
        def unit_factory(index):
            unit = loadgen.query_unit({"model": "m", "kind": "logprob", "event": "X < 1"})

            async def run(pipe, sample):
                if index == 0:
                    time.sleep(0.05)  # the generator's loop is blocked 50 ms
                await unit(pipe, sample)
            return run

        rate = 200.0
        units = [unit_factory(i) for i in range(20)]
        samples = asyncio.run(loadgen.open_loop([_InstantPipe()], units, rate, 0.1))
        self.assertEqual(len(samples), 20)
        for a, b in zip(samples, samples[1:]):
            self.assertAlmostEqual(b.due - a.due, 1.0 / rate, places=9)
        for sample in samples:
            self.assertEqual(sample.steps[0].start, sample.due)
        # Arrivals due during the stall were sent late and are charged for it.
        delayed = [s for s in samples[1:] if s.due < samples[0].due + 0.04]
        self.assertTrue(delayed)
        for sample in delayed:
            self.assertGreater(sample.steps[0].latency, 0.01)
            self.assertGreater(sample.steps[0].lateness, 0.01)


def run() -> bool:
    """Run the self-tests quietly; True when all pass."""
    suite = unittest.defaultTestLoader.loadTestsFromModule(sys.modules[__name__])
    with open(os.devnull, "w") as sink:
        result = unittest.TextTestRunner(stream=sink, verbosity=0).run(suite)
    if not result.wasSuccessful():
        for _, trace in result.failures + result.errors:
            print(trace, file=sys.stderr)
    return result.wasSuccessful()


if __name__ == "__main__":
    unittest.main()
