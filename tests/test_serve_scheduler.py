"""Micro-batching scheduler tests: coalescing, idle dispatch, pinning, fallback."""

import asyncio
import math

import pytest

from repro.serve import InProcessBackend
from repro.serve import MicroBatcher
from repro.serve import ModelRegistry
from repro.serve import OverloadedError
from repro.serve import wire
from repro.serve.scheduler import ResultCache
from repro.serve.scheduler import evaluate_batch
from repro.serve.wire import Request
from repro.spe import ZeroProbabilityError
from repro.workloads import indian_gpa


def run(coroutine):
    return asyncio.run(coroutine)


def logprob_request(event, model="m", condition=None):
    return Request(None, model, "logprob", event, condition)


class FakeBackend:
    """Records batches; answers each payload with its own text."""

    def __init__(self, n_shards=1, fail=False):
        self.n_shards = n_shards
        self.batches = []
        self.fail = fail
        self._rr = 0

    def route(self, model, condition):
        if condition is not None:
            return hash((model, condition)) % self.n_shards
        self._rr = (self._rr + 1) % self.n_shards
        return self._rr

    async def run_batch(self, model, kind, condition, shard, payloads):
        self.batches.append((model, kind, condition, shard, list(payloads)))
        if self.fail:
            raise RuntimeError("backend down")
        return [wire.ok(payload) for payload in payloads]


class TestCoalescing:
    def test_concurrent_requests_coalesce_into_one_batch(self):
        backend = FakeBackend()
        batcher = MicroBatcher(backend, max_batch=64)

        async def main():
            return await asyncio.gather(
                *[batcher.submit(logprob_request("e%d" % i)) for i in range(10)]
            )

        results = run(main())
        assert [result[1] for result in results] == ["e%d" % i for i in range(10)]
        assert len(backend.batches) == 1
        assert batcher.stats()["largest_batch"] == 10

    def test_distinct_keys_get_distinct_batches(self):
        backend = FakeBackend()
        batcher = MicroBatcher(backend)

        async def main():
            return await asyncio.gather(
                batcher.submit(logprob_request("a", model="m1")),
                batcher.submit(logprob_request("b", model="m2")),
                batcher.submit(logprob_request("c", model="m1", condition="C")),
            )

        run(main())
        keys = {(model, condition) for model, _, condition, _, _ in backend.batches}
        assert keys == {("m1", None), ("m2", None), ("m1", "C")}

    def test_max_batch_flushes_early(self):
        backend = FakeBackend()
        batcher = MicroBatcher(backend, max_batch=4)

        async def main():
            return await asyncio.wait_for(
                asyncio.gather(
                    *[batcher.submit(logprob_request("e%d" % i)) for i in range(8)]
                ),
                timeout=5,
            )

        results = run(main())
        assert len(results) == 8
        assert len(backend.batches) == 2
        assert all(len(payloads) == 4 for *_, payloads in backend.batches)

    def test_backend_failure_errors_every_request(self):
        backend = FakeBackend(fail=True)
        batcher = MicroBatcher(backend)

        async def main():
            return await asyncio.gather(
                *[batcher.submit(logprob_request("e%d" % i)) for i in range(3)]
            )

        results = run(main())
        assert all(result[0] == "error" for result in results)
        assert all(result[1] == "RuntimeError" for result in results)

    def test_sharded_conditions_stick_round_robin_spreads(self):
        backend = FakeBackend(n_shards=4)
        batcher = MicroBatcher(backend)

        async def main():
            conditioned = [
                batcher.submit(logprob_request("e%d" % i, condition="C"))
                for i in range(8)
            ]
            plain = [batcher.submit(logprob_request("p%d" % i)) for i in range(8)]
            await asyncio.gather(*conditioned, *plain)

        run(main())
        conditioned_shards = {
            shard for _, _, condition, shard, _ in backend.batches if condition
        }
        plain_shards = {
            shard for _, _, condition, shard, _ in backend.batches if not condition
        }
        assert len(conditioned_shards) == 1  # cache affinity
        assert len(plain_shards) == 4  # load spreading

    def test_validation(self):
        with pytest.raises(ValueError):
            MicroBatcher(FakeBackend(), max_batch=0)


class GatedBackend(FakeBackend):
    """Holds every batch until ``gate`` opens, then answers each payload
    with ``(program, payload)`` -- ``program`` as it is at completion.

    ``first_raises`` is raised by the first batch once the gate opens:
    a ``RuntimeError`` for a failed batch, ``asyncio.CancelledError`` for
    a batch task cancelled mid-evaluation.
    """

    def __init__(self, first_raises=None):
        super().__init__()
        self.gate = None  # created on the loop
        self.program = "old"
        self.first_raises = first_raises

    async def run_batch(self, model, kind, condition, shard, payloads):
        self.batches.append((model, kind, condition, shard, list(payloads)))
        await self.gate.wait()
        if self.first_raises is not None and len(self.batches) == 1:
            raise self.first_raises
        return [wire.ok((self.program, payload)) for payload in payloads]


def answers(results):
    return [result[1][1] for result in results]


def dispatched(backend):
    return [payloads for *_, payloads in backend.batches]


async def ticks(n):
    for _ in range(n):
        await asyncio.sleep(0)


class TestIdleDispatch:
    """A key with no batch in flight dispatches at once; a busy key
    gathers arrivals into one group that goes when its batch returns."""

    def test_idle_key_reaches_backend_without_a_timer(self):
        backend = GatedBackend()
        batcher = MicroBatcher(backend)

        async def main():
            backend.gate = asyncio.Event()
            loop = asyncio.get_running_loop()
            start = loop.time()
            task = asyncio.ensure_future(batcher.submit(logprob_request("solo")))
            # Three loop ticks -- submit, flush, batch start -- and no
            # clock: nothing sleeps for a nonzero time.
            await ticks(3)
            assert dispatched(backend) == [["solo"]]
            assert loop.time() - start < 0.5
            backend.gate.set()
            return await task

        assert run(main()) == ("ok", ("old", "solo"))

    def test_arrivals_during_a_batch_form_the_next_batch(self):
        backend = GatedBackend()
        batcher = MicroBatcher(backend)

        async def main():
            backend.gate = asyncio.Event()
            first = asyncio.ensure_future(batcher.submit(logprob_request("a")))
            await ticks(3)
            assert dispatched(backend) == [["a"]]
            later = []
            for i in range(4):
                later.append(
                    asyncio.ensure_future(batcher.submit(logprob_request("b%d" % i)))
                )
                await ticks(2)  # separate ticks: no same-tick coalescing
            # The key is busy: the arrivals wait as one group.
            assert dispatched(backend) == [["a"]]
            backend.gate.set()
            return await asyncio.wait_for(asyncio.gather(first, *later), timeout=5)

        results = run(main())
        assert answers(results) == ["a", "b0", "b1", "b2", "b3"]
        assert dispatched(backend) == [["a"], ["b0", "b1", "b2", "b3"]]
        assert batcher.stats()["mean_batch_size"] == 2.5

    def test_max_batch_flushes_a_busy_key(self):
        backend = GatedBackend()
        batcher = MicroBatcher(backend, max_batch=3)

        async def main():
            backend.gate = asyncio.Event()
            first = asyncio.ensure_future(batcher.submit(logprob_request("a")))
            await ticks(3)
            later = [
                asyncio.ensure_future(batcher.submit(logprob_request("b%d" % i)))
                for i in range(7)
            ]
            await ticks(4)
            # Two full groups went while "a" was still in flight; the
            # seventh arrival waits for a batch to return.
            assert dispatched(backend) == [
                ["a"], ["b0", "b1", "b2"], ["b3", "b4", "b5"]
            ]
            backend.gate.set()
            return await asyncio.wait_for(asyncio.gather(first, *later), timeout=5)

        assert len(run(main())) == 8
        assert dispatched(backend)[3:] == [["b6"]]

    @staticmethod
    def _fail_first_batch(error):
        """Run "a" into a batch that raises ``error``, with "b" waiting."""
        backend = GatedBackend(first_raises=error)
        batcher = MicroBatcher(backend)

        async def main():
            backend.gate = asyncio.Event()
            first = asyncio.ensure_future(batcher.submit(logprob_request("a")))
            await ticks(3)
            second = asyncio.ensure_future(batcher.submit(logprob_request("b")))
            await ticks(2)
            backend.gate.set()
            outcomes = await asyncio.wait_for(
                asyncio.gather(first, second, return_exceptions=True), timeout=5
            )
            return outcomes

        outcomes = run(main())
        assert dispatched(backend) == [["a"], ["b"]]
        assert batcher.stats()["queued"] == 0
        return outcomes

    def test_failed_batch_still_flushes_the_waiting_group(self):
        first, second = self._fail_first_batch(RuntimeError("backend down"))
        assert first[:2] == ("error", "RuntimeError")
        assert second == ("ok", ("old", "b"))

    def test_cancelled_batch_still_flushes_the_waiting_group(self):
        first, second = self._fail_first_batch(asyncio.CancelledError())
        assert isinstance(first, asyncio.CancelledError)
        assert second == ("ok", ("old", "b"))

    def test_drain_flushes_a_group_waiting_on_a_busy_key(self):
        backend = GatedBackend()
        batcher = MicroBatcher(backend)

        async def main():
            backend.gate = asyncio.Event()
            first = asyncio.ensure_future(batcher.submit(logprob_request("a")))
            await ticks(3)
            second = asyncio.ensure_future(batcher.submit(logprob_request("b")))
            await ticks(2)
            await batcher.drain()
            await ticks(1)
            assert dispatched(backend) == [["a"], ["b"]]
            backend.gate.set()
            return await asyncio.wait_for(asyncio.gather(first, second), timeout=5)

        assert answers(run(main())) == ["a", "b"]


class TestEvaluateBatch:
    def setup_method(self):
        self.model = indian_gpa.model()

    def test_logprob_batch_matches_direct(self):
        events = ["GPA > %r" % (0.5 * i) for i in range(8)]
        results = evaluate_batch(self.model, "logprob", None, events)
        assert [r[1] for r in results] == [self.model.logprob(e) for e in events]

    def test_prob_exponentiates(self):
        (result,) = evaluate_batch(self.model, "prob", None, ["GPA > 3"])
        assert result == ("ok", self.model.prob("GPA > 3"))

    def test_logpdf(self):
        (result,) = evaluate_batch(self.model, "logpdf", None, [{"GPA": 2.5}])
        assert result == ("ok", self.model.logpdf({"GPA": 2.5}))

    def test_conditioned_batch(self):
        (result,) = evaluate_batch(
            self.model, "logprob", "Nationality == 'India'", ["GPA > 9"]
        )
        posterior = self.model.condition("Nationality == 'India'")
        assert result == ("ok", posterior.logprob("GPA > 9"))

    def test_zero_probability_condition_fails_whole_batch(self):
        results = evaluate_batch(
            self.model, "logprob", "GPA > 99", ["GPA > 1", "GPA > 2"]
        )
        assert [r[:2] for r in results] == [("error", "ZeroProbabilityError")] * 2

    def test_bad_event_isolated_from_batch_mates(self):
        results = evaluate_batch(
            self.model, "logprob", None, ["GPA > 1", "NoSuchVar > 0", "GPA > 2"]
        )
        assert results[0] == ("ok", self.model.logprob("GPA > 1"))
        assert results[1][0] == "error"
        assert results[2] == ("ok", self.model.logprob("GPA > 2"))

    def test_sample_respects_seed(self):
        results = evaluate_batch(
            self.model, "sample", None, [{"n": 3, "seed": 7}, {"n": 3, "seed": 7}]
        )
        assert results[0] == results[1]
        assert len(results[0][1]) == 3

    def test_unknown_kind(self):
        (result,) = evaluate_batch(self.model, "wat", None, ["x"])
        assert result[0] == "error"


class ModelBackend(FakeBackend):
    """Evaluates every batch on one live model, as a shard does."""

    def __init__(self, model):
        super().__init__()
        self.model = model

    async def run_batch(self, model, kind, condition, shard, payloads):
        self.batches.append((model, kind, condition, shard, list(payloads)))
        return evaluate_batch(self.model, kind, condition, payloads)


def submit_in_turn(batcher, kind, payloads, rounds=1, condition=None):
    """Submit each payload ``rounds`` times, one request at a time."""

    async def main():
        return [
            await batcher.submit(Request(None, "m", kind, payload, condition))
            for _ in range(rounds)
            for payload in payloads
        ]

    return run(main())


class TestResultCache:
    """The scheduler's per-model cache, consulted before coalescing."""

    def test_fills_and_replays(self):
        backend = ModelBackend(indian_gpa.model())
        batcher = MicroBatcher(backend)
        events = ["GPA > 1", "GPA > 2"]
        first, second, *again = submit_in_turn(batcher, "logprob", events, rounds=2)
        assert [first, second] == again
        stats = batcher.result_cache("m").stats()
        assert stats["entries"] == 2
        assert stats["hits"] == 2
        assert stats["misses"] == 2
        assert [batch[4] for batch in backend.batches] == [["GPA > 1"], ["GPA > 2"]]

    def test_hit_miss_counts(self):
        batcher = MicroBatcher(ModelBackend(indian_gpa.model()))
        submit_in_turn(batcher, "logprob", ["GPA > 1"], rounds=2)
        assert batcher.result_cache("m").stats()["misses"] == 1
        assert batcher.result_cache("m").stats()["hits"] == 1

    def test_errors_not_cached(self):
        backend = ModelBackend(indian_gpa.model())
        batcher = MicroBatcher(backend)
        results = submit_in_turn(batcher, "logprob", ["NoVar > 1"], rounds=2)
        assert [result[0] for result in results] == ["error", "error"]
        assert batcher.result_cache("m").stats()["entries"] == 0
        assert len(backend.batches) == 2

    def test_sample_never_cached(self):
        backend = ModelBackend(indian_gpa.model())
        batcher = MicroBatcher(backend)
        submit_in_turn(batcher, "sample", [{"n": 2, "seed": 3}], rounds=2)
        assert batcher.stats()["result_cache"] == {}
        assert len(backend.batches) == 2

    def test_bound_evicts_lru(self):
        cache = ResultCache(max_entries=2)
        for i in range(4):
            cache.put(("logprob", None, "e%d" % i), wire.ok(float(i)))
        assert cache.stats()["entries"] == 2
        assert cache.get(("logprob", None, "e3")) == ("ok", 3.0)
        assert cache.get(("logprob", None, "e0")) is None

    def test_condition_part_of_key(self):
        cache = ResultCache()
        cache.put(ResultCache.key("logprob", "C", "e"), wire.ok(1.0))
        assert cache.get(ResultCache.key("logprob", None, "e")) is None

    def test_non_finite_values_survive_the_cache(self):
        batcher = MicroBatcher(ModelBackend(indian_gpa.model()))
        first, again = submit_in_turn(batcher, "logprob", ["GPA > 99"], rounds=2)
        assert first == again == ("ok", -math.inf)
        assert batcher.result_cache("m").stats()["hits"] == 1


class TestFrontEndResultCache:
    def test_hit_bypasses_coalescer_counters_and_latency(self):
        backend = FakeBackend()
        batcher = MicroBatcher(backend)
        results = submit_in_turn(batcher, "logprob", ["e"], rounds=3)
        assert results == [("ok", "e")] * 3
        assert len(backend.batches) == 1
        stats = batcher.stats()
        assert (stats["requests"], stats["batches"]) == (1, 1)
        assert stats["latency"]["logprob"]["count"] == 1
        assert stats["result_cache"]["m"] == {
            "entries": 1, "hits": 2, "misses": 1, "max_entries": 65536,
        }

    def test_hit_holds_no_queue_slot_and_is_never_shed(self):
        backend = GatedBackend()
        batcher = MicroBatcher(
            backend, max_queued_per_key=1, max_queued_per_tenant=1
        )

        async def main():
            backend.gate = asyncio.Event()
            backend.gate.set()
            await batcher.submit(logprob_request("warm"))
            backend.gate.clear()
            blocked = asyncio.ensure_future(batcher.submit(logprob_request("slow")))
            await asyncio.sleep(0)
            hit = await batcher.submit(logprob_request("warm"))
            with pytest.raises(OverloadedError):
                await batcher.submit(logprob_request("other"))
            backend.gate.set()
            return hit, await blocked

        hit, slow = run(main())
        assert hit == ("ok", ("old", "warm"))
        assert slow == ("ok", ("old", "slow"))
        assert batcher.stats()["shed"] == 1

    @pytest.mark.parametrize("lifecycle", ["re-register", "clear"])
    def test_in_flight_batch_writes_back_into_the_cache_it_was_looked_up_in(
        self, lifecycle
    ):
        """Regression: a batch in flight across ``unregister`` + ``register``
        of a different program under the same name (or across a cache
        clear) must not leave its answers in the new cache."""
        backend = GatedBackend()
        batcher = MicroBatcher(backend)

        async def main():
            backend.gate = asyncio.Event()
            in_flight = asyncio.ensure_future(batcher.submit(logprob_request("e")))
            while not backend.batches:  # the batch is at the backend
                await asyncio.sleep(0)
            if lifecycle == "re-register":
                batcher.drop_result_cache("m")
                batcher.reset_result_cache("m")
            else:
                batcher.reset_result_cache()
            backend.gate.set()
            stale = await in_flight
            backend.program = "new"
            return stale, await batcher.submit(logprob_request("e"))

        stale, fresh = run(main())
        assert stale == ("ok", ("old", "e"))
        assert fresh == ("ok", ("new", "e"))
        assert len(backend.batches) == 2  # the repeat missed the new cache
        assert batcher.result_cache("m").stats() == {
            "entries": 1, "hits": 0, "misses": 1, "max_entries": 65536,
        }

    def test_observe_and_failed_conditions_always_reach_the_backend(self):
        backend = ModelBackend(indian_gpa.model())
        batcher = MicroBatcher(backend)
        observed = submit_in_turn(batcher, "observe", ["GPA > 1"], rounds=2)
        assert observed == [("ok", True)] * 2
        failed = submit_in_turn(
            batcher, "logprob", ["GPA > 1"], rounds=2, condition="GPA > 99"
        )
        assert [r[:2] for r in failed] == [("error", "ZeroProbabilityError")] * 2
        assert len(backend.batches) == 4
        assert batcher.result_cache("m").stats()["entries"] == 0


class TestServeResultCacheIdentity:
    """Every spelling is cached under its own text and answered what a
    fresh library model answers for that text, bit for bit."""

    @pytest.fixture(scope="class")
    def heart_disease_spe(self):
        from repro.compiler import compile_command
        from repro.workloads import table1_models

        return compile_command(table1_models.heart_disease())

    @pytest.fixture(scope="class")
    def noisy_or_spe(self):
        from repro.compiler import compile_command
        from repro.workloads import table1_models

        return compile_command(table1_models.noisy_or())

    def test_answers_independent_of_spelling_order(
        self, heart_disease_spe, heart_pair
    ):
        """Regression: a spelling must not resolve to whichever
        equivalent spelling arrived first.  Both orders of the pair, on
        the model and through the scheduler's ResultCache, answer what a
        fresh model answers for each text."""
        from repro.engine import SpplModel

        want = {
            text: repr(SpplModel(heart_disease_spe).logprob(text))
            for text in heart_pair
        }
        assert want[heart_pair[0]] != want[heart_pair[1]]
        for order in (heart_pair, heart_pair[::-1]):
            model = SpplModel(heart_disease_spe)
            for text in order:
                assert repr(model.logprob(text)) == want[text]
            batcher = MicroBatcher(
                ModelBackend(SpplModel(heart_disease_spe))
            )
            answers = submit_in_turn(batcher, "logprob", order)
            for text, (status, value) in zip(order, answers):
                assert status == "ok" and repr(value) == want[text]
            cache = batcher.result_cache("m")
            assert cache.hits == 0 and cache.misses == 2

    def test_duplicate_misses_evaluate_once(self, noisy_or_spe):
        from repro.engine import SpplModel

        model = SpplModel(noisy_or_spe)
        calls = []
        original = model.logprob_batch

        def counting(events, **kwargs):
            calls.append(len(events))
            return original(events, **kwargs)

        model.logprob_batch = counting
        results = evaluate_batch(
            model, "logprob", None,
            ["disease_0 == 1", "disease_0  ==  1", "disease_0 == 1"],
        )
        assert results[0] == results[1] == results[2]
        # One representative per distinct text reached the engine.
        assert calls == [2]

    def test_each_spelling_is_its_own_entry(self, noisy_or_spe):
        """Raw-text keys: a whitespace variant misses and is answered
        for its own text; asking a text again is a hit."""
        from repro.engine import SpplModel

        batcher = MicroBatcher(ModelBackend(SpplModel(noisy_or_spe)))
        texts = ["disease_0 == 1", "disease_0  ==  1", "disease_0 == 1"]
        answers = submit_in_turn(batcher, "logprob", texts)
        plain = SpplModel(noisy_or_spe)
        assert [repr(value) for _, value in answers] == [
            repr(plain.logprob(text)) for text in texts
        ]
        cache = batcher.result_cache("m")
        assert (cache.misses, cache.hits) == (2, 1)

    @pytest.mark.parametrize("name", ["heart_disease", "hmm20", "noisy_or"])
    def test_served_answers_bit_identical_to_library(self, name, spelling_batches):
        """End to end through the HTTP service: a pipelined batch of
        repeated and reordered spellings equals a fresh library model
        per text."""
        from repro.engine import SpplModel
        from repro.serve import AsyncServeClient
        from repro.serve import InferenceService
        from repro.serve import ModelRegistry

        registry = ModelRegistry()
        registered = registry.register_catalog(name)
        batch = spelling_batches[name]

        async def main():
            service = InferenceService(registry)
            host, port = await service.start()
            try:
                return await AsyncServeClient(host, port).query_many(
                    [
                        {"id": i, "model": name, "kind": "logprob", "event": text}
                        for i, text in enumerate(batch + batch[::-1])
                    ],
                    connections=2,
                )
            finally:
                await service.close()

        responses = run(main())
        plain = SpplModel(registered.model.spe)
        want = {text: repr(plain.logprob(text)) for text in batch}
        for response in responses:
            assert response["ok"], response
            text = (batch + batch[::-1])[response["id"]]
            assert repr(response["value"]) == want[text], (name, text)


class TestInProcessBackend:
    def test_clear_caches(self):
        registry = ModelRegistry()
        registered = registry.register_catalog("indian_gpa")
        registered.model.logprob("GPA > 3")
        assert registered.model.cache.total_entries() > 0
        run(InProcessBackend(registry).clear_caches())
        assert registered.model.cache.total_entries() == 0


class TestZeroProbabilityErrorType:
    def test_is_value_error(self):
        assert issubclass(ZeroProbabilityError, ValueError)
