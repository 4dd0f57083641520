"""Fault-injection tests: worker kill -> respawn, and restart durability.

The chaos CI lane runs this file.  The acceptance checks it pins:

* SIGKILL a worker shard during a 4x-overload run: every client-visible
  response is either a correct result or a 429-style ``Overloaded`` shed
  -- never any other error -- the dead shard respawns (passing the
  digest-ack handshake), and the sharded differential (sharded ==
  in-process, no tolerance) still passes afterwards.
* Register a model on a live journal-backed service, stop it, restart
  against the same journal: the model is queryable with bit-identical
  answers.

Worker kills use real ``SIGKILL`` against the local pids of
:meth:`WorkerPool.fault_points` (the fault-injection hook) -- no
cooperation from the victim -- plus a wrapper on the transport's
``send`` that kills the shard immediately after a batch hits its
socket, which makes the "died with a batch in flight" path
deterministic.
"""

import asyncio
import os
import signal

import pytest

from repro.serve import AsyncServeClient
from repro.serve import InferenceService
from repro.serve import ModelRegistry
from repro.serve import RegistryJournal
from repro.serve import value_of
from repro.serve.sharding import WorkerPool
from repro.workloads import indian_gpa


def _spec(registered):
    return {
        "payload": registered.payload,
        "digest": registered.digest,
        "cache_size": None,
    }


def _gpa_pool(n_workers):
    registry = ModelRegistry()
    registered = registry.register_catalog("indian_gpa")
    pool = WorkerPool(n_workers)
    pool.start({"indian_gpa": _spec(registered)})
    return pool


def local_pids(pool):
    """Pids of the pool's local shard processes (its killable fault points)."""
    return [pid for _, kind, pid in pool.fault_points() if kind == "local"]


class _KillAfterSend:
    """One-shot ``send`` wrapper that SIGKILLs the shard right after a send lands.

    Deterministic mid-batch death: the shard is frozen with SIGSTOP
    *before* the message hits its socket (so it can never answer first --
    without the freeze, a fast shard occasionally writes its reply
    before the SIGKILL lands and no crash is observed), then killed with
    the batch in flight; the parent's blocking ``recv`` observes EOF.
    The wrapper disarms itself as it fires, so the resent batch goes
    through to the respawned shard.
    """

    def __init__(self, transport):
        self._transport = transport
        transport.send = self

    @classmethod
    def arm(cls, transport):
        if not isinstance(transport.send, cls):
            cls(transport)

    def __call__(self, message):
        del self._transport.send  # back to the plain method
        process = self._transport.process
        os.kill(process.pid, signal.SIGSTOP)
        self._transport.send(message)
        process.kill()
        process.join(5)


class TestWorkerRespawn:
    def test_kill_between_batches_respawns_and_answers(self):
        pool = _gpa_pool(1)

        async def main():
            try:
                (before,) = await pool.run_batch(
                    "indian_gpa", "logprob", None, 0, ["GPA > 3"]
                )
                victim = local_pids(pool)[0]
                os.kill(victim, signal.SIGKILL)
                (after,) = await pool.run_batch(
                    "indian_gpa", "logprob", None, 0, ["GPA > 3"]
                )
                # Bit-identical across the respawn: the replacement
                # deserialized the same payload and passed the same
                # digest handshake.
                assert after == before
                assert after == ("ok", indian_gpa.model().logprob("GPA > 3"))
                assert pool.metrics.snapshot()["repro.pool.respawns"] == 1
                assert pool.metrics.snapshot()["repro.pool.requeued_batches"] == 1
                assert local_pids(pool)[0] != victim
            finally:
                await pool.close()

        asyncio.run(main())

    def test_kill_mid_batch_requeues_the_inflight_batch(self):
        pool = _gpa_pool(1)

        async def main():
            try:
                _KillAfterSend.arm(pool._workers[0].transport)
                events = ["GPA > 3", "GPA > 2", "Nationality == 'India'"]
                results = await pool.run_batch(
                    "indian_gpa", "logprob", None, 0, events
                )
                model = indian_gpa.model()
                assert results == [
                    ("ok", model.logprob(event)) for event in events
                ]
                assert pool.metrics.snapshot()["repro.pool.respawns"] == 1
                assert pool.metrics.snapshot()["repro.pool.requeued_batches"] == 1
            finally:
                await pool.close()

        asyncio.run(main())

    def test_stats_and_clear_survive_a_dead_worker(self):
        pool = _gpa_pool(2)

        async def main():
            try:
                await pool.run_batch("indian_gpa", "logprob", None, 0, ["GPA > 3"])
                os.kill(local_pids(pool)[1], signal.SIGKILL)
                stats = await pool.shard_stats()
                assert len(stats) == 2  # the dead shard answered post-respawn
                await pool.clear_caches()
                assert pool.metrics.snapshot()["repro.pool.respawns"] == 1
                # Control ops are not batches: no batch was requeued.
                assert pool.metrics.snapshot()["repro.pool.requeued_batches"] == 0
            finally:
                await pool.close()

        asyncio.run(main())

    def test_poison_crash_loop_gives_up_with_an_error(self):
        """A shard that dies on every resend must not respawn forever."""
        from repro.serve import WorkerError
        from repro.serve.sharding import MAX_RESPAWNS_PER_CALL

        pool = _gpa_pool(1)

        async def main():
            try:
                def rewrap():
                    # Re-arm the kill wrapper after every respawn, so the
                    # batch murders each replacement too.
                    _KillAfterSend.arm(pool._workers[0].transport)

                original_respawn = pool._respawn

                async def respawn_and_rearm(shard, w):
                    await original_respawn(shard, w)
                    rewrap()

                pool._respawn = respawn_and_rearm
                rewrap()
                with pytest.raises(WorkerError, match="died"):
                    await pool.run_batch(
                        "indian_gpa", "logprob", None, 0, ["GPA > 3"]
                    )
                assert (
                    pool.metrics.snapshot()["repro.pool.respawns"]
                    == MAX_RESPAWNS_PER_CALL
                )
            finally:
                await pool.close()

        asyncio.run(main())


class TestBlobSeededRespawn:
    def test_sigkill_worker_seeded_by_path_respawns_from_same_blob(self, tmp_path):
        """A worker seeded with a path+digest spec dies; its replacement
        re-maps the same content-addressed ``.spz`` blob (re-verifying the
        digest in the handshake) and answers bit-identically."""
        from repro.serve import wire

        registry = ModelRegistry(blob_dir=tmp_path)
        registered = registry.register_catalog("indian_gpa")
        spec = wire.model_spec(registered)
        assert "path" in spec and "payload" not in spec
        pool = WorkerPool(1)
        pool.start({"indian_gpa": spec})

        async def main():
            try:
                (before,) = await pool.run_batch(
                    "indian_gpa", "logprob", None, 0, ["GPA > 3"]
                )
                victim = local_pids(pool)[0]
                os.kill(victim, signal.SIGKILL)
                (after,) = await pool.run_batch(
                    "indian_gpa", "logprob", None, 0, ["GPA > 3"]
                )
                stats = await pool.shard_stats()
                return before, after, victim, stats
            finally:
                await pool.close()

        before, after, victim, stats = asyncio.run(main())
        assert after == before
        assert after == ("ok", indian_gpa.model().logprob("GPA > 3"))
        assert pool.metrics.snapshot()["repro.pool.respawns"] == 1
        assert local_pids(pool)[0] != victim
        # The replacement answered from the same mmap'd blob, not a
        # deserialized payload copy.
        compiled = stats[0]["indian_gpa"]["compiled"]
        assert compiled["digest"] == registered.digest
        assert compiled["mmap"] is True
        assert compiled["path"] == spec["path"]

    def test_blob_seeded_service_survives_kill_under_load(self, tmp_path):
        """End to end over the wire: a 2-shard service whose workers mmap
        one shared blob keeps the chaos acceptance bar (correct results or
        explicit sheds, respawn, bit-identical differential)."""
        async def main():
            registry = ModelRegistry(blob_dir=tmp_path / "blobs")
            registry.register_catalog("indian_gpa")
            service = InferenceService(
                registry, workers=2, max_batch=8
            )
            host, port = await service.start()
            client = AsyncServeClient(host, port)
            try:
                os.kill(local_pids(service.backend)[0], signal.SIGKILL)
                requests = mixed_requests()
                responses = await client.query_many(
                    requests, connections=8, retry_overloaded=8
                )
                stats = await client.stats()
                return requests, responses, stats
            finally:
                await service.close()

        requests, responses, stats = asyncio.run(main())
        assert stats["backend"]["respawns"] >= 1
        model = indian_gpa.model()
        posterior = model.condition("Nationality == 'India'")
        for request, response in zip(requests, responses):
            assert response["ok"], response
            target = posterior if "condition" in request else model
            if request["kind"] == "logprob":
                expected = target.logprob(request["event"])
            else:
                expected = target.logpdf(request["assignment"])
            assert value_of(response) == expected  # bit-identical


def mixed_requests():
    """The differential mix from the sharded tests (logprob/prob/logpdf,
    conditioned and not)."""
    requests = []
    for i in range(24):
        variant = i % 3
        if variant == 0:
            requests.append(
                {"id": i, "model": "indian_gpa", "kind": "logprob",
                 "event": "GPA > %r" % (0.3 * (i % 12))}
            )
        elif variant == 1:
            requests.append(
                {"id": i, "model": "indian_gpa", "kind": "logpdf",
                 "assignment": {"GPA": 0.25 * (i % 16)}}
            )
        else:
            requests.append(
                {"id": i, "model": "indian_gpa", "kind": "logprob",
                 "event": "GPA > %r" % (0.1 * i),
                 "condition": "Nationality == 'India'"}
            )
    return requests


class TestRespawn:
    def test_respawned_shard_stays_bit_identical(self):
        """A SIGKILLed shard respawns from its spec and answers a
        multi-scope query bit-identically to a local library model."""
        from repro.compiler import compile_command
        from repro.engine import SpplModel
        from repro.serve import wire
        from repro.workloads import table1_models

        registry = ModelRegistry()
        registered = registry.register_catalog("noisy_or")
        spec = wire.model_spec(registered)
        pool = WorkerPool(1)
        pool.start({"noisy_or": spec})
        # A conjunction over both root-product children.
        event = "disease_0 == 1 and disease_1 == 1"

        async def main():
            try:
                (before,) = await pool.run_batch(
                    "noisy_or", "logprob", None, 0, [event]
                )
                victim = local_pids(pool)[0]
                os.kill(victim, signal.SIGKILL)
                (after,) = await pool.run_batch(
                    "noisy_or", "logprob", None, 0, [event]
                )
                return before, after, victim
            finally:
                await pool.close()

        before, after, victim = asyncio.run(main())
        assert after == before
        library = SpplModel(
            compile_command(table1_models.noisy_or()), cache=False
        )
        assert after == ("ok", library.logprob(event))  # bit-identical
        assert pool.metrics.snapshot()["repro.pool.respawns"] == 1
        assert local_pids(pool)[0] != victim


class TestChaosUnderOverload:
    def test_sigkill_during_4x_overload(self):
        """The PR's acceptance check, end to end over the real wire."""
        bound = 16

        async def main():
            registry = ModelRegistry()
            registry.register_catalog("indian_gpa")
            service = InferenceService(
                registry, workers=2, max_batch=8,
                max_queued_per_key=bound,
            )
            host, port = await service.start()
            client = AsyncServeClient(host, port)
            try:
                overload = [
                    {"id": i, "model": "indian_gpa", "kind": "logprob",
                     "event": "GPA > %r" % (0.002 * i)}
                    for i in range(4 * bound)
                ]
                pids = local_pids(service.backend)

                async def kill_one_shard_midway():
                    await asyncio.sleep(0.02)
                    os.kill(pids[0], signal.SIGKILL)

                killer = asyncio.ensure_future(kill_one_shard_midway())
                responses = await client.query_many(overload, connections=16)
                await killer
                # Post-kill differential: every request eventually served
                # (adaptive back-off retries), bit-identically, which
                # requires the respawned shard to answer -- round-robin
                # spreads unconditioned load over both shards.
                differential = mixed_requests()
                followup = await client.query_many(
                    differential, connections=8, retry_overloaded=8
                )
                stats = await client.stats()
                return overload, responses, differential, followup, stats
            finally:
                await service.close()

        overload, responses, differential, followup, stats = asyncio.run(main())
        model = indian_gpa.model()
        served = shed = 0
        for request, response in zip(overload, responses):
            if response["ok"]:
                served += 1
                assert value_of(response) == model.logprob(request["event"])
            else:
                # Zero client-visible errors beyond 429-style sheds.
                assert response["error_kind"] == "Overloaded", response
                assert response["retry_after_ms"] >= 1
                shed += 1
        assert served + shed == len(overload)
        assert served > 0
        # The killed shard respawned (and its handshake passed, or the
        # follow-up differential could not have been answered).
        assert stats["backend"]["respawns"] >= 1
        assert stats["backend"]["mode"] == "sharded"
        posterior = model.condition("Nationality == 'India'")
        for request, response in zip(differential, followup):
            assert response["ok"], response
            target = posterior if "condition" in request else model
            if request["kind"] == "logprob":
                expected = target.logprob(request["event"])
            else:
                expected = target.logpdf(request["assignment"])
            assert value_of(response) == expected  # bit-identical

    def test_adaptive_retry_after_tracks_latency(self):
        """Shed advice grows out of the live histograms once they have
        data, and is surfaced on /v1/stats."""

        async def main():
            registry = ModelRegistry()
            registry.register_catalog("indian_gpa")
            service = InferenceService(
                registry, workers=0, max_batch=8,
                max_queued_per_key=4,
            )
            host, port = await service.start()
            client = AsyncServeClient(host, port)
            try:
                original = service.backend.run_batch

                async def slowed(*args, **kwargs):
                    await asyncio.sleep(0.05)
                    return await original(*args, **kwargs)

                service.backend.run_batch = slowed
                requests = [
                    {"id": i, "model": "indian_gpa", "kind": "logprob",
                     "event": "GPA > %r" % (0.01 * i)}
                    for i in range(32)
                ]
                responses = await client.query_many(requests, connections=8)
                stats = await client.stats()
                service.backend.run_batch = original
                return responses, stats
            finally:
                await service.close()

        responses, stats = asyncio.run(main())
        shed = [r for r in responses if r.get("error_kind") == "Overloaded"]
        assert shed, "expected backpressure sheds under a 4-entry bound"
        advice = stats["scheduler"]["retry_after_ms"]
        # Batches took >= 50ms, so the p95-derived advice must reflect
        # that -- not the static 25ms floor of an idle service.
        assert advice["logprob"] >= 50
        assert advice["any"] >= 50
        p95 = stats["scheduler"]["latency"]["logprob"]["p95_ms"]
        assert p95 >= 50


class TestTracedRespawn:
    def test_trace_records_respawn_and_requeue_of_a_killed_batch(self):
        """A traced request whose worker is SIGKILLed mid-batch comes
        back bit-identical AND its retrieved span tree records the
        recovery: a ``shard.respawn`` and a ``batch.requeue`` event
        under the dispatch span, followed by the resent batch's worker
        fragment."""

        async def main():
            registry = ModelRegistry()
            registry.register_catalog("indian_gpa")
            service = InferenceService(registry, workers=1)
            host, port = await service.start()
            client = AsyncServeClient(host, port)
            try:
                # Arm the deterministic mid-batch kill: the worker dies
                # with the (traced) batch on its socket.
                _KillAfterSend.arm(service.backend._workers[0].transport)
                response = await client.query({
                    "model": "indian_gpa", "kind": "logprob",
                    "event": "GPA > 3", "trace": True,
                })
                entry = await client.trace(response["trace"])
                stats = await client.stats()
                return response, entry, stats
            finally:
                await service.close()

        response, entry, stats = asyncio.run(main())
        assert response["ok"], response
        # Bit-identical despite the death: the respawned shard re-ran
        # the exact same deterministic batch.
        assert value_of(response) == indian_gpa.model().logprob("GPA > 3")
        assert stats["backend"]["respawns"] == 1
        assert stats["backend"]["requeued_batches"] == 1

        def spans(node):
            yield node
            for child in node.get("children", []):
                yield from spans(child)

        tree = entry["spans"]
        by_name = {}
        for node in spans(tree):
            by_name.setdefault(node["name"], []).append(node)
        (dispatch,) = by_name["shard.dispatch"]
        dispatch_children = [c["name"] for c in dispatch.get("children", [])]
        # The recovery is recorded inside the dispatch span, and the
        # resent batch's worker fragment follows the requeue.
        assert "shard.respawn" in dispatch_children
        assert "batch.requeue" in dispatch_children
        assert "worker.batch" in dispatch_children
        (respawn,) = by_name["shard.respawn"]
        assert respawn["tags"] == {"shard": 0, "attempt": 1}
        (requeue,) = by_name["batch.requeue"]
        assert requeue["tags"] == {"shard": 0, "attempt": 1}
        assert dispatch_children.index("batch.requeue") < dispatch_children.index(
            "worker.batch"
        )


class TestJournalRestart:
    def test_register_stop_restart_bit_identical(self, tmp_path):
        """The durability acceptance check: a live registration survives
        a full service restart via the journal, answering identically."""
        journal_path = tmp_path / "registry.journal"
        probe = {"model": "gpa_live", "kind": "logprob", "event": "GPA > 2.5"}

        async def first_life():
            registry = ModelRegistry()
            journal = RegistryJournal(journal_path)
            journal.restore(registry)
            service = InferenceService(registry, workers=0, journal=journal)
            host, port = await service.start()
            client = AsyncServeClient(host, port)
            try:
                reply = await client.register_model(
                    "gpa_live", catalog="indian_gpa", cache_size=512
                )
                assert reply["ok"] and reply["journaled"], reply
                return value_of(await client.query(probe))
            finally:
                await service.close()

        async def second_life():
            registry = ModelRegistry()
            journal = RegistryJournal(journal_path)
            restored = journal.restore(registry)
            assert restored == ["gpa_live"]
            service = InferenceService(registry, workers=0, journal=journal)
            host, port = await service.start()
            client = AsyncServeClient(host, port)
            try:
                models = await client.models()
                value = value_of(await client.query(probe))
                stats = await client.stats()
                return models, value, stats
            finally:
                await service.close()

        first_value = asyncio.run(first_life())
        models, second_value, stats = asyncio.run(second_life())
        assert second_value == first_value  # bit-identical, no tolerance
        assert models["gpa_live"]["cache_max_entries"] == 512
        assert stats["journal"]["live"] == 1

    def test_restart_on_a_sharded_service(self, tmp_path):
        """Journal-restored models reach worker shards through the same
        digest-verified startup handshake as static ones."""
        journal_path = tmp_path / "registry.journal"

        async def first_life():
            registry = ModelRegistry()
            journal = RegistryJournal(journal_path)
            service = InferenceService(registry, workers=0, journal=journal)
            await service.start()
            client = AsyncServeClient(service.host, service.port)
            try:
                reply = await client.register_model(
                    "gpa_live", catalog="indian_gpa"
                )
                assert reply["ok"], reply
            finally:
                await service.close()

        async def sharded_life():
            registry = ModelRegistry()
            journal = RegistryJournal(journal_path)
            journal.restore(registry)
            service = InferenceService(registry, workers=2, journal=journal)
            host, port = await service.start()
            client = AsyncServeClient(host, port)
            try:
                requests = [
                    {"id": i, "model": "gpa_live", "kind": "logprob",
                     "event": "GPA > %r" % (0.25 * i)}
                    for i in range(12)
                ]
                return requests, await client.query_many(requests, connections=4)
            finally:
                await service.close()

        asyncio.run(first_life())
        requests, responses = asyncio.run(sharded_life())
        model = indian_gpa.model()
        for request, response in zip(requests, responses):
            assert response["ok"], response
            assert value_of(response) == model.logprob(request["event"])

    def test_unregister_is_durable_too(self, tmp_path):
        journal_path = tmp_path / "registry.journal"

        async def live_cycle():
            registry = ModelRegistry()
            journal = RegistryJournal(journal_path)
            service = InferenceService(registry, workers=0, journal=journal)
            await service.start()
            client = AsyncServeClient(service.host, service.port)
            try:
                await client.register_model("gpa_live", catalog="indian_gpa")
                reply = await client.unregister_model("gpa_live")
                assert reply["ok"], reply
            finally:
                await service.close()

        asyncio.run(live_cycle())
        registry = ModelRegistry()
        assert RegistryJournal(journal_path).restore(registry) == []
        assert len(registry) == 0

    def test_unregister_tombstone_precedes_worker_teardown(self, tmp_path):
        """Even when worker teardown fails (500), the tombstone is
        durable: a model the live service stopped serving must not
        resurrect on restart."""
        from repro.serve import ServeClientError
        from repro.serve import WorkerError

        journal_path = tmp_path / "registry.journal"

        async def live_cycle():
            registry = ModelRegistry()
            journal = RegistryJournal(journal_path)
            service = InferenceService(registry, workers=0, journal=journal)
            await service.start()
            client = AsyncServeClient(service.host, service.port)
            try:
                await client.register_model("gpa_live", catalog="indian_gpa")

                async def broken_teardown(name):
                    raise WorkerError("shard exploded during teardown")

                service.backend.unregister_model = broken_teardown
                with pytest.raises(ServeClientError, match="teardown"):
                    await client.unregister_model("gpa_live")
            finally:
                await service.close()

        asyncio.run(live_cycle())
        assert RegistryJournal(journal_path).replay() == {}
