"""Sharded worker-pool tests: consistent hashing, differential fidelity.

The differential test is the PR's acceptance check: a service sharded
across two worker processes answers a mixed query stream bit-identically
to a single in-process model.
"""

import asyncio
import collections

import pytest

from repro.serve import AsyncServeClient
from repro.serve import InferenceService
from repro.serve import ModelRegistry
from repro.serve import WorkerError
from repro.serve import value_of
from repro.serve.sharding import HashRing
from repro.serve.sharding import WorkerPool
from repro.workloads import indian_gpa


class TestHashRing:
    def test_routes_are_stable(self):
        ring = HashRing(4)
        keys = ["m|X < %d" % i for i in range(50)]
        assert [ring.route(k) for k in keys] == [ring.route(k) for k in keys]
        assert [ring.route(k) for k in keys] == [HashRing(4).route(k) for k in keys]

    def test_load_roughly_uniform(self):
        ring = HashRing(4)
        counts = collections.Counter(ring.route("key-%d" % i) for i in range(4000))
        assert set(counts) == {0, 1, 2, 3}
        assert min(counts.values()) > 4000 / 4 * 0.5

    def test_removing_a_shard_only_remaps_its_keys(self):
        before = HashRing(4)
        after = HashRing(3)  # shards 0..2 keep their ring points
        moved = 0
        for i in range(1000):
            key = "key-%d" % i
            if before.route(key) != 3 and after.route(key) != before.route(key):
                moved += 1
        assert moved == 0  # keys not owned by the removed shard stay put

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing(0)


@pytest.fixture(scope="module")
def sharded_responses():
    """One 2-worker service answering a mixed stream (expensive: spawns)."""
    requests = []
    for i in range(40):
        variant = i % 4
        if variant == 0:
            requests.append(
                {"id": i, "model": "indian_gpa", "kind": "logprob",
                 "event": "GPA > %r" % (0.25 * (i % 40))}
            )
        elif variant == 1:
            requests.append(
                {"id": i, "model": "indian_gpa", "kind": "prob",
                 "event": "Nationality == 'India'"}
            )
        elif variant == 2:
            requests.append(
                {"id": i, "model": "indian_gpa", "kind": "logpdf",
                 "assignment": {"GPA": 0.2 * (i % 20)}}
            )
        else:
            requests.append(
                {"id": i, "model": "indian_gpa", "kind": "logprob",
                 "event": "GPA > %r" % (0.1 * i),
                 "condition": "Nationality == 'India'"}
            )

    async def main():
        registry = ModelRegistry()
        registry.register_catalog("indian_gpa")
        service = InferenceService(registry, workers=2)
        host, port = await service.start()
        try:
            client = AsyncServeClient(host, port)
            responses = await client.query_many(requests, connections=8)
            stats = await client.stats()
            return responses, stats
        finally:
            await service.close()

    responses, stats = asyncio.run(main())
    return requests, responses, stats


class TestShardedDifferential:
    def test_two_workers_bit_identical_to_in_process_model(self, sharded_responses):
        requests, responses, _ = sharded_responses
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
            elif request["kind"] == "prob":
                expected = target.prob(request["event"])
            else:
                expected = target.logpdf(request["assignment"])
            assert value_of(response) == expected  # bit-identical, no tolerance

    def test_both_shards_participated(self, sharded_responses):
        _, _, stats = sharded_responses
        assert stats["backend"]["mode"] == "sharded"
        shards = stats["backend"]["shards"]
        assert len(shards) == 2
        # Round-robin spread unconditioned load across both shards.
        assert all(s["indian_gpa"]["misses"] > 0 for s in shards)

    def test_condition_chain_stays_on_one_shard(self, sharded_responses):
        _, _, stats = sharded_responses
        shards = stats["backend"]["shards"]
        # The 10 conditioned queries share one condition string, so only
        # one shard should hold condition-section entries for it.
        condition_entries = [s["indian_gpa"]["condition"] for s in shards]
        assert min(condition_entries) == 0
        assert max(condition_entries) > 0


class TestWorkerPoolLifecycle:
    def test_digest_mismatch_refuses_to_start(self):
        registry = ModelRegistry()
        registered = registry.register_catalog("indian_gpa")
        pool = WorkerPool(1)
        specs = {
            "indian_gpa": {
                "payload": registered.payload,
                "digest": "tampered",
                "cache_size": None,
            }
        }
        with pytest.raises(WorkerError, match="digest mismatch"):
            pool.start(specs)

    def test_unknown_model_on_worker_is_an_error_result(self):
        registry = ModelRegistry()
        registered = registry.register_catalog("indian_gpa")
        pool = WorkerPool(1)
        pool.start(
            {
                "indian_gpa": {
                    "payload": registered.payload,
                    "digest": registered.digest,
                    "cache_size": None,
                }
            }
        )

        async def main():
            try:
                results = await pool.run_batch(0, "ghost", "logprob", None, ["x"])
                assert results[0][0] == "error"
                (result,) = await pool.run_batch(
                    0, "indian_gpa", "logprob", None, ["GPA > 3"]
                )
                assert result == ("ok", indian_gpa.model().logprob("GPA > 3"))
            finally:
                await pool.close()

        asyncio.run(main())


class TestFrontEndResultCacheDifferential:
    """Repeated queries over a 2-worker service are answered by the
    scheduler's result cache, ``repr``-equal to the first (miss) answer
    and to a fresh library model."""

    HOT = [
        {"model": "hmm20", "kind": "logprob", "event": "X[3] < 0.5"},
        {"model": "hmm20", "kind": "logprob", "event": "Z[7] == 1"},
        {"model": "hmm20", "kind": "prob", "event": "X[0] < 0.25 and Z[1] == 0"},
        {"model": "hmm20", "kind": "logpdf", "assignment": {"X[0]": 0.3}},
        {"model": "noisy_or", "kind": "logprob", "event": "disease_0 == 1"},
        {"model": "noisy_or", "kind": "prob",
         "event": "disease_0 == 1 or symptom_0 == 1"},
        {"model": "noisy_or", "kind": "logpdf", "assignment": {"disease_0": 1}},
    ]
    CHAIN = ["X[0] < 0.5", "Z[1] == 1"]
    READS = [("logprob", {"event": "Z[2] == 1"}), ("query", {"event": "X[4] < 1"})]
    ZERO = {"model": "hmm20", "kind": "logprob", "event": "X[1] < 0.5",
            "condition": "X[0] > 1000000000.0"}

    @staticmethod
    def library(registry, name):
        from repro.engine import SpplModel

        return SpplModel(registry.get(name).model.spe)

    @staticmethod
    def answer(model, request):
        if request["kind"] == "logpdf":
            return model.logpdf(request["assignment"])
        return getattr(model, request["kind"])(request["event"])

    def test_repeats_come_from_the_front_end_cache_bit_for_bit(self):
        registry = ModelRegistry()
        registry.register_catalog("hmm20")
        registry.register_catalog("noisy_or")
        hot = [dict(request, id=i) for i, request in enumerate(self.HOT)]

        async def main():
            service = InferenceService(registry, workers=2)
            host, port = await service.start()
            try:
                client = AsyncServeClient(host, port)
                snapshots = []

                async def snapshot():
                    snapshots.append((await client.stats())["scheduler"])

                first = await client.query_many(hot, connections=4)
                await snapshot()
                again = [await client.query_many(hot, connections=4)
                         for _ in range(2)]
                await snapshot()
                await client.create_session("s", "hmm20")
                for event in self.CHAIN:
                    await client.observe("s", event)
                await snapshot()
                reads = [
                    [value_of(await client.session_query("s", verb, payload))
                     for _ in range(2)]
                    for verb, payload in self.READS
                ]
                await snapshot()
                zero = [await client.query(self.ZERO) for _ in range(3)]
                await snapshot()
                return first, again, reads, zero, snapshots
            finally:
                await service.close()

        first, again, reads, zero, snapshots = asyncio.run(main())
        warm, repeated, observed, after_reads, after_zero = snapshots
        # Hot keys: every repeat is a front-end hit, repr-equal to the
        # miss and to the library.
        for request, response in zip(hot, first):
            expected = self.answer(self.library(registry, request["model"]), request)
            assert repr(value_of(response)) == repr(expected), request
        for responses in again:
            assert [repr(value_of(r)) for r in responses] == [
                repr(value_of(r)) for r in first
            ]
        assert repeated["requests"] == warm["requests"]
        assert repeated["batches"] == warm["batches"]
        hits = {name: repeated["result_cache"][name]["hits"]
                - warm["result_cache"][name]["hits"]
                for name in ("hmm20", "noisy_or")}
        assert hits == {"hmm20": 8, "noisy_or": 6}
        # Session reads on a committed chain: the repeat is a hit.
        posterior = self.library(registry, "hmm20")
        for event in self.CHAIN:
            posterior = posterior.condition(event)
        for (verb, payload), (miss, hit) in zip(self.READS, reads):
            kind = {"logprob": "logprob", "query": "prob"}[verb]
            expected = getattr(posterior, kind)(payload["event"])
            assert repr(miss) == repr(hit) == repr(expected)
        assert after_reads["requests"] - observed["requests"] == len(self.READS)
        # A zero-probability condition is never cached: each repeat
        # reaches the backend and returns its error.
        assert [r["error_kind"] for r in zero] == ["ZeroProbabilityError"] * 3
        assert after_zero["requests"] - after_reads["requests"] == 3
        assert (after_zero["result_cache"]["hmm20"]["entries"]
                == after_reads["result_cache"]["hmm20"]["entries"])
