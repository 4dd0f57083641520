"""Serve hardening tests: backpressure, dynamic lifecycle, observability.

Covers the PR-4 surface end to end:

* per-key queue bounds shed with 429-style responses instead of growing
  queues (scheduler-level and over the real wire),
* per-connection pipeline bounds shed with real HTTP 429s and the
  connection survives,
* a malformed NDJSON line or an oversized (well-framed) body fails only
  its own request — later pipelined requests on the same connection are
  still serviced,
* SIGTERM-style shutdown drains in-flight micro-batches and flushes
  their responses before teardown,
* ``/v1/clear_cache`` clears result caches and parsed-event LRUs too,
* ``POST /v1/models/register``/``unregister`` on a running service with
  the digest-ack worker handshake,
* per-kind latency percentiles and eviction pressure on ``/v1/stats``,
* ``--workers auto`` resolution.

The expensive 2-worker scenario (overload with zero worker crashes,
cross-shard cache clear, live register/unregister, and the differential
check afterwards) runs as one test against one spawned pool.
"""

import asyncio
import json

import pytest

from repro.engine import SpplModel
from repro.serve import AsyncServeClient
from repro.serve import InferenceService
from repro.serve import LatencyHistogram
from repro.serve import MicroBatcher
from repro.serve import ModelRegistry
from repro.serve import OverloadedError
from repro.serve import value_of
from repro.serve import wire
from repro.serve.client import _Connection
from repro.serve.wire import Request
from repro.workloads import hmm
from repro.workloads import indian_gpa


def run(coroutine):
    return asyncio.run(coroutine)


def slow_backend(service, delay):
    """Wrap the service's backend so every batch takes at least ``delay``."""
    original = service.backend.run_batch

    async def slowed(*args, **kwargs):
        await asyncio.sleep(delay)
        return await original(*args, **kwargs)

    service.backend.run_batch = slowed


async def start_service(models=("indian_gpa",), **kwargs):
    registry = ModelRegistry()
    for name in models:
        registry.register_catalog(name)
    service = InferenceService(registry, **kwargs)
    host, port = await service.start()
    return service, AsyncServeClient(host, port)


# ---------------------------------------------------------------------------
# Latency histogram (unit).
# ---------------------------------------------------------------------------

class TestLatencyHistogram:
    def test_empty_histogram_reports_zero(self):
        histogram = LatencyHistogram()
        assert histogram.quantile(0.5) == 0.0
        assert histogram.summary() == {
            "count": 0, "p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0,
        }

    def test_quantile_is_an_upper_bound(self):
        histogram = LatencyHistogram()
        for latency in (0.001, 0.002, 0.004, 0.032):
            histogram.record(latency)
        assert histogram.quantile(1.0) >= 0.032
        assert histogram.quantile(0.25) >= 0.001
        # Log-bucketed: the bound is within 2x of the true value.
        assert histogram.quantile(1.0) <= 0.064

    def test_percentiles_are_monotone(self):
        histogram = LatencyHistogram()
        for i in range(1, 200):
            histogram.record(i * 1e-4)
        summary = histogram.summary()
        assert summary["count"] == 199
        assert 0 < summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]

    def test_extreme_values_stay_in_range(self):
        histogram = LatencyHistogram()
        histogram.record(0.0)
        histogram.record(1e9)  # clamps into the last bucket
        assert histogram.count == 2
        assert histogram.quantile(1.0) > 0


# ---------------------------------------------------------------------------
# Scheduler backpressure (unit, fake backend).
# ---------------------------------------------------------------------------

class GatedBackend:
    """Backend whose batches block until the test releases them."""

    n_shards = 1

    def __init__(self):
        self.release = None  # created on the loop
        self.batches = 0

    def route(self, model, condition):
        return 0

    async def run_batch(self, model, kind, condition, shard, payloads):
        self.batches += 1
        await self.release.wait()
        return [wire.ok(payload) for payload in payloads]


def logprob_request(event, model="m"):
    return Request(None, model, "logprob", event)


class TestSchedulerBackpressure:
    def test_requests_past_the_key_bound_are_shed(self):
        backend = GatedBackend()
        batcher = MicroBatcher(backend, max_queued_per_key=4)

        async def main():
            backend.release = asyncio.Event()
            submissions = [
                asyncio.ensure_future(batcher.submit(logprob_request("e%d" % i)))
                for i in range(12)
            ]
            await asyncio.sleep(0.02)  # first batch in flight, gated
            shed = [task for task in submissions if task.done()]
            assert len(shed) == 8
            for task in shed:
                with pytest.raises(OverloadedError):
                    task.result()
            backend.release.set()
            admitted = [
                await task for task in submissions if task not in shed
            ]
            assert sorted(result[1] for result in admitted) == [
                "e0", "e1", "e2", "e3"
            ]
            # The bound releases with the batch: new requests are admitted.
            assert (await batcher.submit(logprob_request("late")))[1] == "late"

        run(main())
        assert batcher.metrics.snapshot()["repro.scheduler.shed_requests"] == 8
        stats = batcher.stats()
        assert stats["shed"] == 8
        assert stats["max_queued_per_key"] == 4
        assert stats["requests"] == 5  # admitted only

    def test_unbounded_scheduler_never_sheds(self):
        backend = GatedBackend()
        batcher = MicroBatcher(backend, max_queued_per_key=None)

        async def main():
            backend.release = asyncio.Event()
            backend.release.set()
            return await asyncio.gather(
                *[batcher.submit(logprob_request("e%d" % i)) for i in range(50)]
            )

        assert len(run(main())) == 50
        assert batcher.metrics.snapshot()["repro.scheduler.shed_requests"] == 0

    def test_latency_recorded_per_kind(self):
        backend = GatedBackend()
        batcher = MicroBatcher(backend)

        async def main():
            backend.release = asyncio.Event()
            backend.release.set()
            await batcher.submit(logprob_request("a"))
            await batcher.submit(
                Request(None, "m", "logpdf", {"X": 1.0})
            )

        run(main())
        latency = batcher.stats()["latency"]
        assert set(latency) == {"logprob", "logpdf"}
        assert latency["logprob"]["count"] == 1
        assert latency["logprob"]["p99_ms"] > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            MicroBatcher(GatedBackend(), max_queued_per_key=0)

    def test_inflight_by_model_tracks_admissions(self):
        backend = GatedBackend()
        batcher = MicroBatcher(backend)

        async def main():
            backend.release = asyncio.Event()
            task = asyncio.ensure_future(batcher.submit(logprob_request("a")))
            await asyncio.sleep(0.01)
            assert batcher.inflight("m") == 1
            assert batcher.inflight("other") == 0
            backend.release.set()
            await task
            assert batcher.inflight("m") == 0

        run(main())


# ---------------------------------------------------------------------------
# Service-level backpressure over the wire.
# ---------------------------------------------------------------------------

class TestServiceBackpressure:
    def test_overload_yields_mixed_results_and_429_lines(self):
        bound = 8

        async def main():
            service, client = await start_service(
                max_queued_per_key=bound
            )
            slow_backend(service, 0.15)
            try:
                requests = [
                    {"id": i, "model": "indian_gpa", "kind": "logprob",
                     "event": "GPA > %r" % (0.01 * i)}
                    for i in range(4 * bound)
                ]
                responses = await client.query_many(requests, connections=4)
                stats = await client.stats()
                return requests, responses, stats
            finally:
                await service.close()

        requests, responses, stats = run(main())
        assert len(responses) == 32
        ok = [r for r in responses if r["ok"]]
        shed = [r for r in responses if r.get("error_kind") == "Overloaded"]
        assert len(ok) + len(shed) == 32
        assert len(ok) >= 8 and len(shed) >= 1  # a genuine mix
        for response in shed:
            assert response["error"] == "overloaded"
            assert response["retry_after_ms"] >= 1
        # Admitted requests still answer bit-identically.
        model = indian_gpa.model()
        by_id = {request["id"]: request for request in requests}
        for response in ok:
            assert value_of(response) == model.logprob(by_id[response["id"]]["event"])
        assert stats["scheduler"]["shed"] == len(shed)

    def test_per_connection_pipeline_bound_gets_http_429(self):
        async def main():
            service, client = await start_service(
                max_inflight_per_connection=4
            )
            slow_backend(service, 0.2)
            try:
                connection = await _Connection.open(client.host, client.port)
                for i in range(10):
                    body = json.dumps(
                        {"id": i, "model": "indian_gpa", "kind": "logprob",
                         "event": "GPA > %r" % (0.1 * i)}
                    ).encode() + b"\n"
                    connection.send_request("POST", "/v1/query", body)
                await connection.writer.drain()
                statuses = []
                for _ in range(10):
                    head = await connection.reader.readuntil(b"\r\n\r\n")
                    status = int(head.split(b" ", 2)[1])
                    length = 0
                    for line in head.decode("latin-1").split("\r\n"):
                        if line.lower().startswith("content-length"):
                            length = int(line.partition(":")[2])
                    body = await connection.reader.readexactly(length)
                    statuses.append((status, body))
                # The connection survives the sheds: one more request works.
                final_body = json.dumps(
                    {"model": "indian_gpa", "kind": "logprob", "event": "GPA > 3"}
                ).encode() + b"\n"
                final = await connection.round_trip("POST", "/v1/query", final_body)
                await connection.close()
                stats_client = AsyncServeClient(client.host, client.port)
                stats = await stats_client.stats()
                return statuses, final, stats
            finally:
                await service.close()

        statuses, final, stats = run(main())
        assert [status for status, _ in statuses[:4]] == [200] * 4
        assert [status for status, _ in statuses[4:]] == [429] * 6
        for _, body in statuses[4:]:
            payload = json.loads(body)
            assert payload["error"] == "overloaded"
            assert payload["retry_after_ms"] >= 1
        (line,) = [l for l in final.split(b"\n") if l.strip()]
        assert json.loads(line)["ok"]
        assert stats["http"]["connection_sheds"] == 6

    def test_shed_budget_closes_a_non_backing_off_connection(self, monkeypatch):
        # A peer that keeps pipelining past the bound without backing off
        # must eventually be disconnected, or even the small 429 lines
        # grow the response queue forever (slow-loris).
        import repro.serve.http as http_module

        monkeypatch.setattr(http_module, "MAX_SHEDS_PER_CONNECTION", 3)

        async def main():
            service, client = await start_service(
                max_inflight_per_connection=2
            )
            slow_backend(service, 0.3)
            try:
                connection = await _Connection.open(client.host, client.port)
                body = json.dumps(
                    {"model": "indian_gpa", "kind": "logprob", "event": "GPA > 3"}
                ).encode() + b"\n"
                for _ in range(20):
                    connection.send_request("POST", "/v1/query", body)
                await connection.writer.drain()
                # 2 admitted + 3 sheds, then the server closes on us.
                statuses = []
                try:
                    while True:
                        head = await connection.reader.readuntil(b"\r\n\r\n")
                        statuses.append(int(head.split(b" ", 2)[1]))
                        length = 0
                        for line in head.decode("latin-1").split("\r\n"):
                            if line.lower().startswith("content-length"):
                                length = int(line.partition(":")[2])
                        await connection.reader.readexactly(length)
                except asyncio.IncompleteReadError:
                    pass  # EOF: the server hung up, as it should
                await connection.close()
                return statuses
            finally:
                await service.close()

        statuses = run(main())
        assert statuses.count(429) == 3
        assert statuses.count(200) == 2
        assert len(statuses) == 5  # nothing served past the budget

    def test_query_many_survives_connection_level_429s(self):
        # The shipped pipelining client must turn an interleaved HTTP 429
        # into a per-request Overloaded response, not a lost stream.
        async def main():
            service, client = await start_service(
                max_inflight_per_connection=4
            )
            slow_backend(service, 0.15)
            try:
                requests = [
                    {"id": i, "model": "indian_gpa", "kind": "logprob",
                     "event": "GPA > %r" % (0.1 * i)}
                    for i in range(12)
                ]
                return requests, await client.query_many(requests, connections=1)
            finally:
                await service.close()

        requests, responses = run(main())
        assert len(responses) == 12
        ok = [r for r in responses if r["ok"]]
        shed = [r for r in responses if r.get("error_kind") == "Overloaded"]
        assert len(ok) == 4 and len(shed) == 8
        for response in shed:
            assert response["retry_after_ms"] >= 1
        model = indian_gpa.model()
        by_id = {request["id"]: request for request in requests}
        for response in ok:
            assert value_of(response) == model.logprob(by_id[response["id"]]["event"])


# ---------------------------------------------------------------------------
# Satellite: malformed / oversized requests leave the connection alive.
# ---------------------------------------------------------------------------

class TestConnectionSurvivesBadRequests:
    def test_malformed_ndjson_line_fails_only_itself(self):
        async def main():
            service, client = await start_service()
            try:
                connection = await _Connection.open(client.host, client.port)
                good = json.dumps(
                    {"id": "good", "model": "indian_gpa", "kind": "logprob",
                     "event": "GPA > 3"}
                ).encode() + b"\n"
                # Pipeline: valid, malformed, valid — on one connection.
                connection.send_request("POST", "/v1/query", good)
                connection.send_request("POST", "/v1/query", b"this is not json\n")
                connection.send_request("POST", "/v1/query", good)
                await connection.writer.drain()
                bodies = [await connection.read_response() for _ in range(3)]
                await connection.close()
                return bodies
            finally:
                await service.close()

        bodies = run(main())
        first = json.loads(bodies[0].strip())
        broken = json.loads(bodies[1].strip())
        last = json.loads(bodies[2].strip())
        assert first["ok"] and last["ok"]
        assert first["value"] == last["value"]
        assert not broken["ok"]
        assert broken["error_kind"] == "WireError"

    def test_nesting_bomb_line_fails_only_itself(self):
        async def main():
            service, client = await start_service()
            try:
                connection = await _Connection.open(client.host, client.port)
                good = json.dumps(
                    {"id": "good", "model": "indian_gpa", "kind": "logprob",
                     "event": "GPA > 3"}
                ).encode()
                # One body: a valid line, then a line nested past the
                # JSON decoder's recursion limit.
                connection.send_request(
                    "POST", "/v1/query", good + b"\n" + b"[" * 100000 + b"\n"
                )
                await connection.writer.drain()
                body = await connection.read_response()
                await connection.close()
                return body
            finally:
                await service.close()

        lines = [json.loads(line) for line in run(main()).splitlines() if line.strip()]
        assert len(lines) == 2
        answer, broken = lines
        assert answer["ok"] and answer["id"] == "good"
        assert value_of(answer) == indian_gpa.model().logprob("GPA > 3")
        assert not broken["ok"]
        assert broken["error_kind"] == "WireError"

    def test_oversized_body_gets_400_and_connection_survives(self, monkeypatch):
        import repro.serve.http as http_module

        monkeypatch.setattr(http_module, "MAX_BODY_BYTES", 256)
        monkeypatch.setattr(http_module, "MAX_DRAIN_BYTES", 4096)

        async def main():
            service, client = await start_service()
            try:
                connection = await _Connection.open(client.host, client.port)
                oversized = b"x" * 1000  # > MAX_BODY_BYTES, drainable
                connection.send_request("POST", "/v1/query", oversized)
                good = json.dumps(
                    {"model": "indian_gpa", "kind": "logprob", "event": "GPA > 3"}
                ).encode() + b"\n"
                connection.send_request("POST", "/v1/query", good)
                await connection.writer.drain()
                head = await connection.reader.readuntil(b"\r\n\r\n")
                status = int(head.split(b" ", 2)[1])
                length = 0
                for line in head.decode("latin-1").split("\r\n"):
                    if line.lower().startswith("content-length"):
                        length = int(line.partition(":")[2])
                first_body = await connection.reader.readexactly(length)
                second = await connection.read_response()
                await connection.close()
                return status, first_body, second
            finally:
                await service.close()

        status, first_body, second = run(main())
        assert status == 400
        assert b"too large" in first_body
        (line,) = [l for l in second.split(b"\n") if l.strip()]
        assert json.loads(line)["ok"]

    def test_undrainably_large_body_closes_the_connection(self, monkeypatch):
        import repro.serve.http as http_module

        monkeypatch.setattr(http_module, "MAX_BODY_BYTES", 256)
        monkeypatch.setattr(http_module, "MAX_DRAIN_BYTES", 512)

        async def main():
            service, client = await start_service()
            try:
                reader, writer = await asyncio.open_connection(
                    client.host, client.port
                )
                writer.write(
                    b"POST /v1/query HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: 100000\r\n\r\n"
                )
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                assert b"400" in head.split(b"\r\n", 1)[0]
                writer.close()
            finally:
                await service.close()

        run(main())


# ---------------------------------------------------------------------------
# Satellite: graceful shutdown drains in-flight batches.
# ---------------------------------------------------------------------------

class TestGracefulShutdown:
    def test_inflight_batch_is_answered_before_teardown(self):
        async def main():
            service, client = await start_service()
            slow_backend(service, 0.3)
            connection = await _Connection.open(client.host, client.port)
            body = json.dumps(
                {"id": "inflight", "model": "indian_gpa", "kind": "logprob",
                 "event": "GPA > 3"}
            ).encode() + b"\n"
            connection.send_request("POST", "/v1/query", body)
            await connection.writer.drain()
            await asyncio.sleep(0.05)  # accepted; batch sleeping in-flight
            await service.close()  # SIGTERM path: must drain, not drop
            response_body = await connection.read_response()
            await connection.close()
            return response_body

        body = run(main())
        (line,) = [l for l in body.split(b"\n") if l.strip()]
        response = json.loads(line)
        assert response["ok"], response
        assert wire.decode_value(response["value"]) == indian_gpa.model().logprob(
            "GPA > 3"
        )


# ---------------------------------------------------------------------------
# Satellite: clear_cache clears result caches and parsed-event LRUs.
# ---------------------------------------------------------------------------

class TestClearCacheEverywhere:
    def test_clear_drops_result_cache_and_event_lru(self):
        async def main():
            service, client = await start_service()
            try:
                request = {
                    "model": "indian_gpa", "kind": "logprob", "event": "GPA > 3",
                }
                await client.query(request)
                await client.query(request)  # result-cache hit
                before = await client.stats()
                await client.clear_cache()
                after = await client.stats()
                return before, after
            finally:
                await service.close()

        before, after = run(main())
        results_before = before["scheduler"]["result_cache"]["indian_gpa"]
        results_after = after["scheduler"]["result_cache"]["indian_gpa"]
        before = before["backend"]["models"]["indian_gpa"]
        after = after["backend"]["models"]["indian_gpa"]
        assert results_before["entries"] > 0
        assert before["event_cache_entries"] > 0
        assert before["logprob"] > 0
        assert results_after["entries"] == 0
        assert after["event_cache_entries"] == 0
        assert after["logprob"] == 0


# ---------------------------------------------------------------------------
# Dynamic model lifecycle (in-process backend).
# ---------------------------------------------------------------------------

class TestLifecycleInProcess:
    def test_register_query_unregister_cycle(self):
        async def main():
            service, client = await start_service()
            try:
                # Register by catalog name on the live service.
                reply = await client.register_model("hmm2", catalog="hmm2")
                assert reply["ok"] and reply["model"] == "hmm2"
                value = value_of(await client.query(
                    {"model": "hmm2", "kind": "logprob", "event": "X[0] < 0.4"}
                ))
                assert value == hmm.model(2).logprob("X[0] < 0.4")
                # Register from a serialized payload (the deployment shape).
                payload = hmm.model(1).to_json()
                reply = await client.register_model(
                    "hmm1_live", payload=payload, cache_size=500
                )
                assert reply["ok"]
                models = await client.models()
                assert models["hmm1_live"]["cache_max_entries"] == 500
                value = value_of(await client.query(
                    {"model": "hmm1_live", "kind": "logprob", "event": "X[0] < 0.7"}
                ))
                assert value == hmm.model(1).logprob("X[0] < 0.7")
                # Unregister: later queries are rejected at the boundary.
                reply = await client.unregister_model("hmm2")
                assert reply["ok"] and reply["drained"]
                response = await client.query(
                    {"model": "hmm2", "kind": "logprob", "event": "X[0] < 0.4"}
                )
                assert response["error_kind"] == "RegistryError"
                assert "hmm2" not in await client.models()
            finally:
                await service.close()

        run(main())

    def test_batch_in_flight_across_reregistration_stays_out_of_the_new_cache(
        self,
    ):
        """Regression: a batch of the old program, still in flight when
        its name is unregistered (drain timed out) and a different
        program registered under it, writes back into the cache it was
        looked up in -- never into the new program's cache."""
        old = SpplModel.from_source("X ~ normal(0, 1)")
        new = SpplModel.from_source("X ~ normal(1, 1)")
        query = {"model": "m", "kind": "logprob", "event": "X < 0.5"}

        async def main():
            service, client = await start_service()
            try:
                await client.register_model("m", payload=old.to_json())
                original = service.backend.run_batch
                computed, release = asyncio.Event(), asyncio.Event()

                async def computed_then_held(*args):
                    results = await original(*args)
                    computed.set()
                    await release.wait()
                    return results

                service.backend.run_batch = computed_then_held
                in_flight = asyncio.ensure_future(client.query(query))
                await computed.wait()
                await service._handle_unregister(
                    json.dumps({"name": "m"}).encode(), drain_timeout=0.0
                )
                await client.register_model("m", payload=new.to_json())
                release.set()
                stale = value_of(await in_flight)
                service.backend.run_batch = original
                fresh = value_of(await client.query(query))
                return stale, fresh, await client.stats()
            finally:
                await service.close()

        stale, fresh, stats = run(main())
        assert stale == old.logprob("X < 0.5") != new.logprob("X < 0.5")
        assert fresh == new.logprob("X < 0.5")
        assert stats["scheduler"]["result_cache"]["m"]["hits"] == 0

    def test_register_errors(self):
        from repro.serve import ServeClientError

        async def main():
            service, client = await start_service()
            try:
                # Duplicate name: 409.
                with pytest.raises(ServeClientError, match="409"):
                    await client.register_model("indian_gpa", catalog="indian_gpa")
                # Unknown catalog name: 400.
                with pytest.raises(ServeClientError, match="400"):
                    await client.register_model("x", catalog="nope")
                # Garbage payload: 400.
                with pytest.raises(ServeClientError, match="400"):
                    await client.register_model("y", payload="{not json")
                # Both or neither of catalog/payload: 400.
                with pytest.raises(ServeClientError, match="400"):
                    await client.register_model("z")
                # Unregister of an unknown model: 404.
                with pytest.raises(ServeClientError, match="404"):
                    await client.unregister_model("ghost")
                # The service is untouched by all the failures.
                response = await client.query(
                    {"model": "indian_gpa", "kind": "logprob", "event": "GPA > 3"}
                )
                assert response["ok"]
            finally:
                await service.close()

        run(main())

    def test_register_payload_with_invalid_leaf_parameters_is_a_400(self):
        from repro.serve import ServeClientError

        payload = SpplModel.from_source("X ~ normal(0, 1)").to_json()
        assert '"scale": 1' in payload
        invalid = payload.replace('"scale": 1', '"scale": -1')

        async def main():
            service, client = await start_service()
            try:
                with pytest.raises(ServeClientError, match="400") as error:
                    await client.register_model("bad", payload=invalid)
                assert "Invalid parameters for norm(loc=0, scale=-1)" in str(
                    error.value
                )
                assert "bad" not in await client.models()
            finally:
                await service.close()

        run(main())


# ---------------------------------------------------------------------------
# Latency percentiles and eviction pressure on /v1/stats.
# ---------------------------------------------------------------------------

class TestObservabilityEndpoint:
    def test_stats_reports_per_kind_percentiles_and_eviction_pressure(self):
        async def main():
            service, client = await start_service()
            try:
                requests = [
                    {"model": "indian_gpa", "kind": "logprob",
                     "event": "GPA > %r" % (0.2 * i)}
                    for i in range(10)
                ] + [
                    {"model": "indian_gpa", "kind": "logpdf",
                     "assignment": {"GPA": 2.5}}
                ]
                await client.query_many(requests, connections=4)
                return await client.stats()
            finally:
                await service.close()

        stats = run(main())
        latency = stats["scheduler"]["latency"]
        assert set(latency) == {"logprob", "logpdf"}
        assert latency["logprob"]["count"] == 10
        assert latency["logpdf"]["count"] == 1
        summary = latency["logprob"]
        assert 0 < summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]
        assert stats["http"]["connection_sheds"] == 0
        assert stats["scheduler"]["shed"] == 0


class TestEvictionRateEngine:
    def test_eviction_pressure_shows_up_in_cache_stats(self):
        model = SpplModel(indian_gpa.model().spe, cache_size=4)
        for i in range(40):
            model.logprob("GPA > %r" % (0.1 * i))
        stats = model.cache_stats()
        assert stats["evictions"] > 0
        # Reading stats changes nothing: a second read is identical.
        assert model.cache_stats() == stats

    def test_event_cache_clear_and_count(self):
        model = SpplModel(indian_gpa.model().spe)
        model.logprob("GPA > 3")
        assert model.cache_stats()["event_cache_entries"] == 1
        model.clear_event_cache()
        assert model.cache_stats()["event_cache_entries"] == 0
        assert model.logprob("GPA > 3") == model.logprob("GPA > 3")


# ---------------------------------------------------------------------------
# --workers auto resolution.
# ---------------------------------------------------------------------------

class TestResolveWorkers:
    def test_auto_resolution(self, monkeypatch):
        import repro.serve.__main__ as cli

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
        assert cli.resolve_workers("auto") == 0  # single core: in-process
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        assert cli.resolve_workers("auto") == 4
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        assert cli.resolve_workers("auto") == cli.AUTO_WORKERS_CAP
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert cli.resolve_workers("auto") == 0

    def test_integer_specs(self):
        from repro.serve.__main__ import resolve_workers

        assert resolve_workers("0") == 0
        assert resolve_workers("3") == 3
        assert resolve_workers(2) == 2
        with pytest.raises(SystemExit):
            resolve_workers("-1")
        with pytest.raises(SystemExit):
            resolve_workers("many")

    def test_option_values_are_validated_by_the_constructors(self):
        """A bad option value is a usage error raised before any shard
        starts; the range checks live in the constructors."""
        from repro.serve.__main__ import main

        for flags in (["--slow-query-ms", "-1"],
                      ["--workers", "1", "--probe-interval-ms", "-5"],
                      ["--max-sessions", "0"],
                      ["--max-queued-per-key", "-1"]):
            with pytest.raises(SystemExit, match="repro.serve: "):
                main(["--model", "indian_gpa", "--workers", "0"] + flags)


# ---------------------------------------------------------------------------
# The 2-worker hardening scenario (overload, clear, lifecycle, differential).
# ---------------------------------------------------------------------------

def mixed_requests(n=24):
    requests = []
    for i in range(n):
        if i % 3 == 0:
            requests.append(
                {"id": i, "model": "indian_gpa", "kind": "logprob",
                 "event": "GPA > %r" % (0.25 * i)}
            )
        elif i % 3 == 1:
            requests.append(
                {"id": i, "model": "indian_gpa", "kind": "logpdf",
                 "assignment": {"GPA": 0.2 * i}}
            )
        else:
            requests.append(
                {"id": i, "model": "indian_gpa", "kind": "logprob",
                 "event": "GPA > %r" % (0.1 * i),
                 "condition": "Nationality == 'India'"}
            )
    return requests


def assert_parse_error_then_answers(event):
    """Serve ``event`` on one shard, then ``GPA > 3``: the first fails as a
    parse error, and the same shard pid answers the second bit-identically
    to the library."""

    async def main():
        registry = ModelRegistry()
        registry.register_catalog("indian_gpa")
        service = InferenceService(registry, workers=1)
        host, port = await service.start()
        client = AsyncServeClient(host, port)
        try:
            before = service.backend.fault_points()
            rejected = await client.query(
                {"model": "indian_gpa", "kind": "logprob", "event": event}
            )
            after = service.backend.fault_points()
            followup = await client.query({
                "model": "indian_gpa", "kind": "logprob", "event": "GPA > 3",
            })
            return before, rejected, after, followup
        finally:
            await service.close()

    before, rejected, after, followup = run(main())
    assert not rejected["ok"]
    assert rejected["error_kind"] == "SpplParseError"
    assert after == before
    assert repr(value_of(followup)) == repr(indian_gpa.model().logprob("GPA > 3"))


class TestShardedHardening:
    @pytest.mark.parametrize(
        "event", ["GPA ** 100000 < 1", "(GPA ** 40) ** 40 < 1"]
    )
    def test_polynomial_degree_bound_is_a_parse_error(self, event):
        """An event whose polynomial degree passes the bound fails as a
        parse error on the shard, which stays up and keeps answering."""
        assert_parse_error_then_answers(event)

    @pytest.mark.parametrize(
        "event",
        [
            "GPA < 10 ** 3000000",
            "GPA < 9 * 9 ** 999999 // 9 ** 999998",
            "GPA < max(range(10 ** 8))",
            "GPA < len([0] * 10 ** 8)",
            "GPA < len(range(10 ** 30))",
        ],
    )
    def test_constant_folding_bound_is_a_parse_error(self, event):
        """A folded integer constant past the float range, or a range or
        repeated list past 10**6 items, fails as a parse error on the
        shard, which stays up and keeps answering."""
        assert_parse_error_then_answers(event)

    def test_dnf_clause_bound_is_a_parse_error(self):
        """An event whose DNF passes the clause bound fails as a parse
        error on the shard before it is expanded, and the shard keeps
        answering."""
        assert_parse_error_then_answers(" and ".join(
            "(GPA > %d or Nationality == 'India')" % (i,) for i in range(10)))

    def test_overload_lifecycle_and_differential_on_two_workers(self):
        bound = 8

        async def main():
            registry = ModelRegistry()
            registry.register_catalog("indian_gpa")
            service = InferenceService(
                registry, workers=2, max_queued_per_key=bound
            )
            host, port = await service.start()
            client = AsyncServeClient(host, port)
            try:
                # -- Overload: 4x the bound on one batch key ------------------
                original = service.backend.run_batch

                async def slowed(*args, **kwargs):
                    await asyncio.sleep(0.1)
                    return await original(*args, **kwargs)

                service.backend.run_batch = slowed
                overload = [
                    {"id": i, "model": "indian_gpa", "kind": "logprob",
                     "event": "GPA > %r" % (0.02 * i),
                     "condition": "Nationality == 'India'"}
                    for i in range(4 * bound)
                ]
                responses = await client.query_many(overload, connections=4)
                service.backend.run_batch = original
                ok = [r for r in responses if r["ok"]]
                shed = [r for r in responses if r.get("error_kind") == "Overloaded"]
                assert len(ok) + len(shed) == len(overload)
                assert ok and shed  # a genuine mix
                posterior = indian_gpa.model().condition("Nationality == 'India'")
                by_id = {r["id"]: r for r in overload}
                for response in ok:
                    expected = posterior.logprob(by_id[response["id"]]["event"])
                    assert value_of(response) == expected
                # -- Zero worker crashes -------------------------------------
                for worker in service.backend._workers:
                    assert worker.transport.process.is_alive()
                stats = await client.stats()
                assert stats["scheduler"]["shed"] == len(shed)
                # -- Cross-shard cache clear (satellite) ---------------------
                shards = stats["backend"]["shards"]
                assert stats["scheduler"]["result_cache"]["indian_gpa"][
                    "entries"
                ] > 0
                assert any(
                    s["indian_gpa"]["event_cache_entries"] > 0 for s in shards
                )
                await client.clear_cache()
                stats = await client.stats()
                assert stats["scheduler"]["result_cache"]["indian_gpa"][
                    "entries"
                ] == 0
                for shard_stats in stats["backend"]["shards"]:
                    assert "results" not in shard_stats["indian_gpa"]
                    assert shard_stats["indian_gpa"]["event_cache_entries"] == 0
                    assert shard_stats["indian_gpa"]["logprob"] == 0
                # -- Failed handshake rolls back everywhere ------------------
                from repro.serve import RegisteredModel
                from repro.serve import WorkerError

                payload = hmm.model(2).to_json()
                tampered = RegisteredModel("hmm2_live", hmm.model(2), None)
                tampered.digest = "tampered"
                with pytest.raises(WorkerError, match="digest"):
                    await service.backend.register_model("hmm2_live", tampered)
                # -- Live registration with the digest-ack handshake ---------
                reply = await client.register_model("hmm2_live", payload=payload)
                assert reply["ok"] and reply["shards_acked"] == 2
                requests = [
                    {"id": i, "model": "hmm2_live", "kind": "logprob",
                     "event": "X[%d] < %r" % (i % 2, 0.1 + 0.05 * i)}
                    for i in range(12)
                ]
                responses = await client.query_many(requests, connections=4)
                reference = hmm.model(2)
                for request, response in zip(requests, responses):
                    assert response["ok"], response
                    assert value_of(response) == reference.logprob(request["event"])
                # -- Unregister: rejected at the boundary afterwards ---------
                reply = await client.unregister_model("hmm2_live")
                assert reply["ok"]
                response = await client.query(
                    {"model": "hmm2_live", "kind": "logprob", "event": "X[0] < 0.5"}
                )
                assert response["error_kind"] == "RegistryError"
                # -- Differential still passes after all of the above --------
                requests = mixed_requests()
                responses = await client.query_many(requests, connections=8)
                return requests, responses
            finally:
                await service.close()

        requests, responses = run(main())
        model = indian_gpa.model()
        for request, response in zip(requests, responses):
            assert response["ok"], response
            target = (
                model.condition(request["condition"])
                if "condition" in request
                else model
            )
            if request["kind"] == "logprob":
                expected = target.logprob(request["event"])
            else:
                expected = target.logpdf(request["assignment"])
            assert value_of(response) == expected  # bit-identical, no tolerance
