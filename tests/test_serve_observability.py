"""End-to-end query tracing, /metrics exposition, and the flight recorder.

The observability acceptance bar this file pins:

* A query through a 2-worker sharded service yields a retrievable trace
  (``GET /v1/trace/<id>``) showing micro-batch coalescing, shard
  dispatch, the compiled-vs-interpreted engine route, and result-cache
  hit/miss — with the worker's span fragment grafted across the process
  boundary.
* ``GET /metrics`` renders every migrated counter as well-formed
  Prometheus text exposition (version 0.0.4).
* ``/v1/stats`` snapshots are consistent: every loop-owned counter is
  read in one synchronous pass, so mutations that land while the
  snapshot awaits worker pipe round trips cannot tear it.
* The flight recorder ring is bounded, and the slow-query log captures
  outliers as structured JSON lines (span tree included when sampled).
"""

import asyncio
import json

import pytest

from repro.obs import FlightRecorder
from repro.obs import MetricsRegistry
from repro.obs import Trace
from repro.serve import AsyncServeClient
from repro.serve import InferenceService
from repro.serve import LatencyHistogram
from repro.serve import ModelRegistry
from repro.serve import ServeClientError
from repro.serve import value_of
from repro.workloads import indian_gpa


def walk(node):
    """Flatten a serialized span tree into a list of span dicts."""
    yield node
    for child in node.get("children", []):
        yield from walk(child)


def names_of(tree):
    return [node["name"] for node in walk(tree)]


def find(tree, name):
    return [node for node in walk(tree) if node["name"] == name]


async def _serve(registry, **kwargs):
    service = InferenceService(registry, **kwargs)
    host, port = await service.start()
    return service, AsyncServeClient(host, port)


class TestTraceEndToEnd:
    def test_opt_in_trace_in_process(self):
        """A "trace": true request yields the full span tree: queue,
        batch, cache decision, engine route; a repeat of the same query
        shows the result-cache hit (and no engine span)."""

        async def main():
            registry = ModelRegistry()
            registry.register_catalog("indian_gpa")
            service, client = await _serve(registry, workers=0)
            try:
                request = {"model": "indian_gpa", "kind": "logprob",
                           "event": "GPA > 3", "trace": True}
                first = await client.query(request)
                second = await client.query(request)
                return (
                    first, second,
                    await client.trace(first["trace"]),
                    await client.trace(second["trace"]),
                )
            finally:
                await service.close()

        first, second, cold, warm = asyncio.run(main())
        assert first["ok"] and second["ok"]
        assert value_of(first) == indian_gpa.model().logprob("GPA > 3")
        assert cold["trace_id"] == first["trace"] != second["trace"]
        assert cold["model"] == "indian_gpa" and cold["kind"] == "logprob"

        tree = cold["spans"]
        assert tree["name"] == "request"
        assert tree["tags"] == {"model": "indian_gpa", "kind": "logprob"}
        (queue,) = find(tree, "scheduler.queue")
        assert queue["tags"]["batch_id"] >= 1
        assert queue["tags"]["batch_size"] >= 1
        (batch,) = find(tree, "batch")
        assert batch["tags"]["n"] >= 1
        (cache,) = find(tree, "result_cache")
        assert cache["tags"]["misses"] == 1 and cache["tags"]["hits"] == 0
        (engine,) = find(tree, "engine.logprob_batch")
        assert engine["tags"]["route"] in ("compiled", "interpreted")

        # Warm repeat: answered by the result cache at lookup, before
        # coalescing -- no queue wait, batch, dispatch or engine span.
        (cache,) = find(warm["spans"], "result_cache")
        assert cache["tags"]["hits"] == 1 and cache["tags"]["misses"] == 0
        for name in ("scheduler.queue", "batch", "shard.dispatch",
                     "engine.logprob_batch"):
            assert not find(warm["spans"], name)

    def test_sharded_trace_shows_dispatch_and_kernel_route(self, tmp_path):
        """The acceptance check: a query through a 2-worker service
        yields a trace with coalescing, shard dispatch, the worker's
        grafted fragment, and the compiled kernel route (blob-backed
        workers mmap compiled models)."""

        async def main():
            registry = ModelRegistry(blob_dir=tmp_path / "blobs")
            registry.register_catalog("noisy_or")
            service, client = await _serve(registry, workers=2)
            try:
                response = await client.query({
                    "model": "noisy_or", "kind": "logprob",
                    "event": "disease_0 == 1 and disease_1 == 1",
                    "trace": True,
                })
                return response, await client.trace(response["trace"])
            finally:
                await service.close()

        response, entry = asyncio.run(main())
        assert response["ok"], response
        tree = entry["spans"]
        seen = names_of(tree)
        assert "scheduler.queue" in seen          # micro-batch coalescing
        assert "shard.dispatch" in seen           # shard dispatch
        assert "worker.batch" in seen             # grafted worker fragment
        (dispatch,) = find(tree, "shard.dispatch")
        assert dispatch["tags"]["shard"] in (0, 1)
        (worker,) = find(tree, "worker.batch")
        assert worker["tags"]["worker"] == dispatch["tags"]["shard"]
        # Engine route: blob-backed workers serve the compiled kernel.
        routes = {
            node["tags"]["route"] for node in find(tree, "engine.logprob_batch")
        }
        assert routes == {"compiled"}
        assert find(tree, "kernel.sweep")          # the columnar sweep itself

    def test_untraced_requests_echo_ids_but_record_nothing(self):
        async def main():
            registry = ModelRegistry()
            registry.register_catalog("indian_gpa")
            service, client = await _serve(registry, workers=0)
            try:
                response = await client.query(
                    {"model": "indian_gpa", "kind": "logprob", "event": "GPA > 3"}
                )
                assert response["ok"]
                # The id is echoed for correlation...
                assert isinstance(response["trace"], str)
                # ...but no span tree was built or retained for it.
                with pytest.raises(ServeClientError, match="404"):
                    await client.trace(response["trace"])
                stats = await client.stats()
                assert stats["trace"]["recorded"] == 0
            finally:
                await service.close()

        asyncio.run(main())

    def test_trace_sample_records_without_per_request_flag(self):
        async def main():
            registry = ModelRegistry()
            registry.register_catalog("indian_gpa")
            service, client = await _serve(
                registry, workers=0, trace_sample=1.0
            )
            try:
                response = await client.query(
                    {"model": "indian_gpa", "kind": "logprob", "event": "GPA > 3"}
                )
                entry = await client.trace(response["trace"])
                assert find(entry["spans"], "engine.logprob_batch")
            finally:
                await service.close()

        asyncio.run(main())

    def test_wire_errors_echo_a_trace_id(self):
        async def main():
            registry = ModelRegistry()
            registry.register_catalog("indian_gpa")
            service, client = await _serve(registry, workers=0)
            try:
                bad = await client.query({"model": "indian_gpa"})
                missing = await client.query(
                    {"model": "nope", "kind": "logprob", "event": "X < 1"}
                )
                return bad, missing
            finally:
                await service.close()

        bad, missing = asyncio.run(main())
        assert not bad["ok"] and isinstance(bad["trace"], str)
        assert missing["error_kind"] == "RegistryError"
        assert isinstance(missing["trace"], str)


class TestMetricsEndpoint:
    @staticmethod
    def validate_exposition(text):
        """Structural validation of Prometheus text format 0.0.4."""
        declared = {}
        samples = []
        for line in text.splitlines():
            if not line:
                continue
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ")
                assert kind in ("counter", "gauge", "histogram"), line
                declared[name] = kind
                continue
            assert not line.startswith("#"), line
            metric, _, value = line.rpartition(" ")
            float(value)  # every sample value parses as a number
            name = metric.split("{", 1)[0]
            base = name
            for suffix in ("_bucket", "_sum", "_count"):
                if base.endswith(suffix):
                    base = base[: -len(suffix)]
            assert base in declared, "undeclared sample %r" % (line,)
            assert "." not in name  # dotted names are mangled
            samples.append((name, value))
        return declared, samples

    def test_metrics_exposes_migrated_counters(self):
        async def main():
            registry = ModelRegistry()
            registry.register_catalog("indian_gpa")
            service, client = await _serve(registry, workers=0)
            try:
                for _ in range(3):
                    await client.query(
                        {"model": "indian_gpa", "kind": "logprob",
                         "event": "GPA > 3"}
                    )
                return await client.metrics(), await client.stats()
            finally:
                await service.close()

        text, stats = asyncio.run(main())
        declared, samples = self.validate_exposition(text)
        values = dict(samples)
        assert declared["repro_scheduler_requests_total"] == "counter"
        # Three identical queries: one enters the coalescer, two are
        # answered by the result cache ahead of it.
        assert values["repro_scheduler_requests_total"] == "1"
        assert declared["repro_scheduler_shed_requests_total"] == "counter"
        assert declared["repro_http_connection_sheds_total"] == "counter"
        assert declared["repro_trace_ring_entries"] == "gauge"
        assert declared["repro_scheduler_latency_logprob"] == "histogram"
        # /v1/stats reports the same numbers (shape back-compat).
        assert stats["scheduler"]["requests"] == 1
        # Labeled per-model samples from the scheduler's result caches.
        lines = text.splitlines()
        assert 'repro_result_cache_hits_total{model="indian_gpa"} 2' in lines
        assert 'repro_result_cache_misses_total{model="indian_gpa"} 1' in lines

    def test_histogram_buckets_are_cumulative_and_close_with_inf(self):
        registry = MetricsRegistry()
        histogram = LatencyHistogram()
        for seconds in (0.0001, 0.001, 0.01, 0.01):
            histogram.record(seconds)
        registry.histogram("repro.test.latency", histogram)
        text = registry.render()
        lines = [l for l in text.splitlines() if l.startswith("repro_test_latency")]
        buckets = [l for l in lines if "_bucket" in l]
        counts = [int(l.rsplit(" ", 1)[1]) for l in buckets]
        assert counts == sorted(counts)  # cumulative
        assert buckets[-1].startswith('repro_test_latency_bucket{le="+Inf"}')
        assert counts[-1] == 4
        assert "repro_test_latency_count 4" in lines
        (sum_line,) = [l for l in lines if l.startswith("repro_test_latency_sum")]
        assert float(sum_line.rsplit(" ", 1)[1]) == pytest.approx(0.0211)

    def test_journal_samples_rendered_when_journal_present(self, tmp_path):
        async def main():
            from repro.serve import RegistryJournal

            registry = ModelRegistry()
            registry.register_catalog("indian_gpa")
            journal = RegistryJournal(tmp_path / "registry.journal")
            service, client = await _serve(registry, workers=0, journal=journal)
            try:
                await client.register_model("gpa_live", catalog="indian_gpa")
                return await client.metrics()
            finally:
                await service.close()

        text = asyncio.run(main())
        declared, _ = TestMetricsEndpoint.validate_exposition(text)
        assert declared["repro_journal_events_total"] == "counter"
        assert declared["repro_journal_live_records"] == "gauge"


class TestStatsSnapshotConsistency:
    def test_mutations_during_awaited_shard_stats_do_not_tear_snapshot(self):
        """Regression for the torn-snapshot bug: every loop-owned counter
        must be read before the first await.  A shard-stats call that
        (maliciously) bumps counters mid-await must not leak into the
        snapshot that was already taken."""

        async def main():
            registry = ModelRegistry()
            registry.register_catalog("indian_gpa")
            service, client = await _serve(registry, workers=0)
            try:
                await client.query(
                    {"model": "indian_gpa", "kind": "logprob", "event": "GPA > 3"}
                )

                class EvilPool:
                    async def shard_stats(_self):
                        # Counters move while the snapshot awaits the
                        # "pipe round trip".
                        service.scheduler._shed.inc(100)
                        service._connection_sheds.inc(100)
                        await asyncio.sleep(0)
                        return []

                service._pool = EvilPool()
                stats = await service._stats()
                return stats
            finally:
                service._pool = None
                await service.close()

        stats = asyncio.run(main())
        # The synchronous pass happened before the await: none of the
        # mid-await increments are visible in this snapshot.
        assert stats["scheduler"]["shed"] == 0
        assert stats["http"]["connection_sheds"] == 0
        assert stats["backend"]["shards"] == []

    def test_pool_respawn_and_requeue_move_together(self):
        """The supervision counters are incremented in one synchronous
        step (no await between them), so ``respawns >= requeued_batches``
        holds at every event-loop tick — a snapshot can never observe a
        requeued batch whose respawn has not been counted."""
        from repro.serve import WorkerPool

        pool = WorkerPool.__new__(WorkerPool)
        pool.metrics = MetricsRegistry()
        pool._respawns = pool.metrics.counter("repro.pool.respawns")
        pool._requeued = pool.metrics.counter("repro.pool.requeued_batches")

        def counts():
            snapshot = pool.metrics.snapshot()
            return (snapshot["repro.pool.respawns"],
                    snapshot["repro.pool.requeued_batches"])

        pool._note_respawn(0, 1, is_batch=True)
        assert counts() == (1, 1)
        pool._note_respawn(0, 1, is_batch=False)
        assert counts() == (2, 1)
        respawns, requeued = counts()
        assert respawns >= requeued


class TestFlightRecorder:
    def test_ring_is_bounded_and_evicts_oldest(self):
        recorder = FlightRecorder(capacity=2)
        for index in range(3):
            recorder.observe(Trace(trace_id="t%d" % index), "t%d" % index, 1.0)
        assert recorder.get("t0") is None
        assert recorder.get("t1") is not None
        assert recorder.get("t2") is not None
        stats = recorder.stats()
        assert stats["recorded"] == 3 and stats["evicted"] == 1
        assert stats["entries"] == 2

    def test_slow_query_log_writes_structured_lines(self, tmp_path):
        log_path = tmp_path / "slow.jsonl"
        recorder = FlightRecorder(
            capacity=4, slow_query_ms=10.0, slow_query_log=str(log_path)
        )
        trace = Trace(trace_id="slow-1")
        recorder.observe(trace, "slow-1", 25.0, model="m", kind="logprob")
        recorder.observe(None, "fast-1", 1.0, model="m", kind="logprob")
        recorder.observe(None, "slow-2", 50.0, model="m", kind="logpdf")
        recorder.close()
        lines = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
        ]
        assert [line["trace_id"] for line in lines] == ["slow-1", "slow-2"]
        first, second = lines
        assert first["duration_ms"] == 25.0
        assert first["threshold_ms"] == 10.0
        assert first["spans"]["name"] == "request"  # sampled: tree included
        assert "spans" not in second  # unsampled outlier: still logged
        assert second["kind"] == "logpdf"
        assert recorder.stats()["slow_logged"] == 2

    def test_slow_query_threshold_end_to_end(self, tmp_path):
        """--slow-query-ms without --trace-sample implies full sampling,
        so the outlier's log line carries its span tree."""
        log_path = tmp_path / "slow.jsonl"

        async def main():
            registry = ModelRegistry()
            registry.register_catalog("indian_gpa")
            service, client = await _serve(
                registry, workers=0,
                slow_query_ms=0.0, slow_query_log=str(log_path),
            )
            assert service.trace_sample == 1.0  # implied
            try:
                await client.query(
                    {"model": "indian_gpa", "kind": "logprob", "event": "GPA > 3"}
                )
                stats = await client.stats()
                return stats
            finally:
                await service.close()

        stats = asyncio.run(main())
        assert stats["trace"]["slow_logged"] >= 1
        record = json.loads(log_path.read_text().splitlines()[0])
        assert record["model"] == "indian_gpa"
        assert "scheduler.queue" in names_of(record["spans"])


class TestLatencyHistogramSum:
    def test_total_accumulates_recorded_seconds(self):
        histogram = LatencyHistogram()
        histogram.record(0.25)
        histogram.record(0.5)
        assert histogram.total == pytest.approx(0.75)
        assert histogram.count == 2
