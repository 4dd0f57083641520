"""Session-tier fault injection: noisy neighbors and mid-session worker death.

Two acceptance scenarios:

* **Noisy neighbor**: one tenant floods the scheduler at 4x its queue
  quota while a victim tenant runs a normal sequential stream.  The
  aggressor's overflow is shed with 429s carrying adaptive
  ``retry_after_ms``; the victim's success rate is unaffected and it
  accrues zero sheds.
* **Worker SIGKILL mid-session**: every worker shard is killed between
  two observes of a live session.  Because a session's state is only its
  condition chain (shipped with every batch), the respawned shard
  re-establishes the posterior by deterministic replay, and the finished
  session is bit-identical to the in-process library chain.

The kill point and scenario seed come from ``chaos_rng``
(``REPRO_CHAOS_SEED``): deterministic by default, randomized by the
nightly CI chaos lane with the seed printed for replay.
"""

import asyncio
import os
import signal
import time

from repro.engine import PosteriorChain
from repro.serve import AsyncServeClient
from repro.serve import InferenceService
from repro.serve import ModelRegistry
from repro.workloads import hmm
from repro.workloads import scenarios


def run_service(test, models=("hmm3",), **service_kwargs):
    async def main():
        registry = ModelRegistry()
        for name in models:
            registry.register_catalog(name)
        service = InferenceService(registry, **service_kwargs)
        host, port = await service.start()
        try:
            return await test(AsyncServeClient(host, port), service)
        finally:
            await service.close()

    return asyncio.run(main())


def hold_first_batch_until(service, condition, timeout=10.0):
    """Keep the service's first batch in flight until ``condition()`` holds.

    While that batch is held, every request on its batch key stays
    admitted-but-unanswered, so a burst piles up against its quota.
    """
    original = service.backend.run_batch
    held = []

    async def gated(*args, **kwargs):
        if not held:
            held.append(True)
            deadline = time.monotonic() + timeout
            while not condition() and time.monotonic() < deadline:
                await asyncio.sleep(0.001)
        return await original(*args, **kwargs)

    service.backend.run_batch = gated


def tenant_shed(service, tenant):
    return lambda: service.scheduler.tenant_sheds.get(tenant, 0) > 0


class TestNoisyNeighbor:
    def test_aggressor_sheds_victim_unaffected(self):
        quota = 8
        aggressor_burst = 4 * quota

        async def test(client, service):
            hold_first_batch_until(service, tenant_shed(service, "mallory"))
            flood = [
                {
                    "id": i,
                    "model": "hmm3",
                    "kind": "logprob",
                    "event": "X[0] < %r" % (0.1 + 0.01 * i),
                    "tenant": "mallory",
                }
                for i in range(aggressor_burst)
            ]
            victim_stream = [
                {
                    "id": i,
                    "model": "hmm3",
                    "kind": "logprob",
                    "event": "X[1] < %r" % (0.2 + 0.01 * i),
                    "tenant": "alice",
                }
                for i in range(10)
            ]
            flood_results, victim_results = await asyncio.gather(
                client.query_many(flood, connections=8),
                client.query_seq(victim_stream),
            )
            stats = await client.stats()
            return flood_results, victim_results, stats

        flood_results, victim_results, stats = run_service(
            test,
            models=("hmm3",),
            max_queued_per_tenant=quota,
        )
        # The victim's error rate is unchanged: every request succeeded,
        # bit-identical to the library, and it accrued zero sheds.
        model = hmm.model(3)
        for request, response in zip(
            [
                {"event": "X[1] < %r" % (0.2 + 0.01 * i)}
                for i in range(10)
            ],
            victim_results,
        ):
            assert response["ok"], response
            assert response["value"] == model.logprob(request["event"])
        sheds = [
            response
            for response in flood_results
            if response.get("error_kind") == "Overloaded"
        ]
        # The aggressor pipelines 4x its quota concurrently: the overflow
        # must shed, with back-off advice on every shed line.
        assert sheds, "aggressor at 4x quota never shed"
        assert all(shed["retry_after_ms"] >= 1 for shed in sheds)
        answered = [r for r in flood_results if r.get("ok")]
        for response in answered:
            event = "X[0] < %r" % (0.1 + 0.01 * response["id"])
            assert response["value"] == model.logprob(event)
        tenant_sheds = stats["scheduler"]["tenant_sheds"]
        assert tenant_sheds.get("mallory", 0) == len(sheds)
        assert "alice" not in tenant_sheds

    def test_quota_resets_after_backlog_drains(self):
        async def test(client, service):
            hold_first_batch_until(service, tenant_shed(service, "mallory"))
            burst = [
                {
                    "id": i,
                    "model": "hmm3",
                    "kind": "logprob",
                    "event": "X[0] < %r" % (0.5 + 0.01 * i),
                    "tenant": "mallory",
                }
                for i in range(16)
            ]
            first = await client.query_many(burst, connections=8)
            # After the backlog drains the tenant is admitted again.
            retry = await client.query_many(burst, connections=1)
            return first, retry

        first, retry = run_service(
            test, models=("hmm3",), max_queued_per_tenant=4
        )
        assert any(r.get("error_kind") == "Overloaded" for r in first)
        assert sum(1 for r in retry if r.get("ok")) >= 4


class TestSessionSurvivesWorkerDeath:
    def test_sigkill_mid_session_chain_reestablished_bit_identical(
        self, chaos_rng
    ):
        seed = chaos_rng.randrange(1000)
        script = scenarios.hmm_sensor_fusion(3, seed=seed)
        kill_after = chaos_rng.randrange(1, len(script["observes"]))

        async def test(client, service):
            await client.create_session("fusion", "hmm3", tenant="acme")
            probe = script["queries"][0]
            before_kill = None
            for step, event in enumerate(script["observes"]):
                if step == kill_after:
                    before_kill = await client.session_logprob(
                        "fusion", probe, tenant="acme"
                    )
                    # Kill every shard: whichever one held the session's
                    # warm chain is certainly dead.
                    for _, _, pid in service.backend.fault_points():
                        os.kill(pid, signal.SIGKILL)
                    # The very next read replays the chain on a respawned
                    # shard and must agree with the pre-kill posterior.
                    after_kill = await client.session_logprob(
                        "fusion", probe, tenant="acme"
                    )
                    assert after_kill == before_kill
                response = await client.observe("fusion", event, tenant="acme")
                assert response["ok"], response
            assert service.backend.metrics.snapshot()["repro.pool.respawns"] >= 1
            described = await client.describe_session("fusion", tenant="acme")
            assert described["chain"] == script["observes"]
            return [
                await client.session_logprob("fusion", query, tenant="acme")
                for query in script["queries"]
            ]

        wire_values = run_service(test, models=("hmm3",), workers=2)
        with PosteriorChain(hmm.model(3), script["observes"]) as chain:
            library_values = [
                chain.current.logprob(query) for query in script["queries"]
            ]
        assert wire_values == library_values
