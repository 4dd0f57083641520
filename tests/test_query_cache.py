"""The bounded QueryCache subsystem: eviction, scoping, errors, threads.

Covers the hardening pass on the persistent cache:

* the entry bound with LRU eviction and observable stats, held at every
  step (also while a posterior chain is open, and during one query that
  touches more entries than the bound),
* bit-identical recomputation of evicted results,
* clear() scoped to one model's reachable sub-expressions,
* ZeroProbabilityError from both condition() and constrain(), leaving the
  shared cache uncorrupted,
* concurrent queries against one bounded shared cache,
* one counted lookup per traversal and one shared lookup per key.
"""

import math
import sys
import threading

import numpy as np
import pytest

from repro.distributions import bernoulli
from repro.distributions import normal
from repro.engine import PosteriorChain
from repro.engine import SpplModel
from repro.spe import DEFAULT_CACHE_ENTRIES
from repro.spe import Memo
from repro.spe import QueryCache
from repro.spe import ZeroProbabilityError
from repro.spe import spe_leaf
from repro.spe import spe_product
from repro.spe import spe_sum
from repro.transforms import Id
from repro.workloads import hmm

X = Id("X")
K = Id("K")


def _model(**kwargs):
    spe = spe_sum(
        [
            spe_product([spe_leaf("X", normal(0, 1)), spe_leaf("K", bernoulli(0.9))]),
            spe_product([spe_leaf("X", normal(5, 2)), spe_leaf("K", bernoulli(0.2))]),
        ],
        [math.log(0.4), math.log(0.6)],
    )
    return SpplModel(spe, **kwargs)


class TestBoundedCache:
    def test_default_cache_is_bounded(self):
        model = _model()
        assert model.cache.max_entries == DEFAULT_CACHE_ENTRIES

    def test_cache_size_parameter(self):
        model = _model(cache_size=16)
        assert model.cache.max_entries == 16
        assert model.cache_stats()["max_entries"] == 16

    def test_cache_size_rejected_with_adopted_or_disabled_cache(self):
        with pytest.raises(ValueError):
            _model(cache=QueryCache(), cache_size=16)
        with pytest.raises(ValueError):
            _model(cache=False, cache_size=16)

    def test_max_entries_validation(self):
        with pytest.raises(ValueError):
            QueryCache(max_entries=0)
        assert QueryCache(max_entries=None).max_entries is None

    def test_unbounded_cache_never_evicts(self):
        model = _model(cache=QueryCache(max_entries=None))
        for i in range(200):
            model.logprob(X < i * 0.1)
        assert model.cache.evictions == 0
        assert model.cache.total_entries() > 200

    def test_10k_distinct_condition_logprob_queries_stay_under_bound(self):
        """Acceptance: 10k distinct condition+logprob queries against an
        HMM model keep the entry count under the configured bound, with
        eviction stats observable and evicted results recomputing
        identically."""
        bound = 512
        model = hmm.model(1)
        model = SpplModel(model.spe, cache_size=bound)
        x0, z0 = Id(hmm.x(0)), Id(hmm.z(0))

        first_event = x0 < 0.5
        posterior = model.condition(first_event)
        first_answer = posterior.logprob(z0 == 1)

        for i in range(10_000):
            post = model.condition(x0 < 0.5 + (i + 1) * 1e-4)
            post.logprob(z0 == 1)
            if i % 1000 == 0:
                assert model.cache.total_entries() <= bound
        stats = model.cache.stats()
        assert model.cache.total_entries() <= bound
        assert stats["evictions"] > 0
        assert stats["max_entries"] == bound
        # The very first query was long evicted; recomputing it must give a
        # bit-identical answer.
        again = model.condition(first_event).logprob(z0 == 1)
        assert again == first_answer

    def test_evicted_results_recompute_bit_identical_property(self):
        """Property test: an aggressively evicting cache answers a random
        query sequence bit-identically to an uncached model."""
        events = [X < t for t in np.linspace(-2, 7, 25)]
        events += [(X > t) & (K == 1) for t in np.linspace(-2, 7, 25)]
        events += [(X < t) | (K == 0) for t in np.linspace(-2, 7, 25)]
        rng = np.random.default_rng(7)
        bounded = _model(cache_size=8)  # far smaller than one query's entries
        reference = _model(cache=False)
        for trial in rng.integers(0, len(events), size=200):
            event = events[int(trial)]
            assert bounded.logprob(event) == reference.logprob(event)
        assert bounded.cache.evictions > 0
        assert bounded.cache.total_entries() <= 8

    def test_single_query_larger_than_bound_never_overshoots(self):
        # One query writes more entries than the bound: it completes
        # correctly from its own working set, and the shared cache is
        # within its bound after every single write.
        class WatchedCache(QueryCache):
            peak = 0

            def put(self, key, value):
                super().put(key, value)
                self.peak = max(self.peak, self.total_entries())

        cache = WatchedCache(max_entries=2)
        model = _model(cache=cache)
        reference = _model(cache=False)
        event = (X < 1) | ((X > 2) & (K == 1))
        assert model.logprob(event) == reference.logprob(event)
        posterior = model.condition(event)
        assert posterior.logprob(K == 1) == reference.condition(event).logprob(K == 1)
        assert model.logpdf({"X": 0.5, "K": 1}) == reference.logpdf({"X": 0.5, "K": 1})
        assert cache.evictions > 0
        assert cache.peak == 2

    def test_bound_holds_with_a_posterior_chain_open(self):
        """Regression: an open PosteriorChain used to pin every entry
        touched after it opened, so the cache grew past its bound for as
        long as the chain lived."""
        bound = 64
        model = SpplModel(hmm.model(2).spe, cache_size=bound)
        reference = SpplModel(hmm.model(2).spe, cache=False)
        x0, x1, z1 = Id(hmm.x(0)), Id(hmm.x(1)), Id(hmm.z(1))
        with PosteriorChain(model) as chain:
            chain.observe(x0 < 0.5)
            ref_posterior = reference.condition(x0 < 0.5)
            for i in range(60):
                event = x1 < 0.05 * i
                assert model.logprob(event) == reference.logprob(event)
                assert model.cache.total_entries() <= bound
                assert chain.current.logprob(z1 == i % 2) == ref_posterior.logprob(
                    z1 == i % 2
                )
                assert model.cache.total_entries() <= bound
            chain.observe(x1 > 0.25)
            assert model.cache.total_entries() <= bound
        assert model.cache.evictions > 0

    def test_stats_expose_hits_misses_evictions(self):
        model = _model(cache_size=64)
        model.logprob(K == 1)
        model.logprob(K == 1)
        stats = model.cache_stats()
        assert stats["hits"] > 0
        assert stats["misses"] > 0
        assert stats["evictions"] == 0
        assert stats["enabled"] == 1


class TestScopedClear:
    def test_posterior_clear_does_not_wipe_parent_entries(self):
        """Regression: clear_cache() on a conditioned model used to wipe
        the shared cache, nuking the parent's entries too."""
        model = _model()
        model.logprob(K == 1)
        posterior = model.condition(K == 1)
        posterior.logprob(X < 1)
        assert posterior.cache is model.cache

        misses_before = model.cache.misses
        posterior.clear_cache()
        # Entries keyed on parent-only nodes survive: repeating the parent
        # query is answered from cache (no new misses at the top level).
        model.logprob(K == 1)
        assert model.cache.misses == misses_before

    def test_posterior_clear_drops_posterior_entries(self):
        model = _model()
        posterior = model.condition(K == 1)
        posterior.logprob(X < 1)
        entries = model.cache.total_entries()
        misses = model.cache.misses
        posterior.clear_cache()
        assert model.cache.total_entries() < entries
        # The posterior query is no longer cached: repeating it misses.
        posterior.logprob(X < 1)
        assert model.cache.misses == misses + 1

    def test_clear_everything_wipes_shared_cache(self):
        model = _model()
        model.logprob(K == 1)
        posterior = model.condition(K == 1)
        posterior.clear_cache(everything=True)
        assert model.cache.total_entries() == 0

    def test_scoped_clear_keeps_counters(self):
        model = _model()
        model.logprob(K == 1)
        model.logprob(K == 1)
        hits = model.cache.hits
        assert hits > 0
        model.clear_cache()  # scoped clear: entries go, counters stay
        assert model.cache.hits == hits
        model.clear_cache(everything=True)
        assert model.cache.hits == 0

    def test_results_identical_after_scoped_clear(self):
        model = _model()
        posterior = model.condition(K == 1)
        before = posterior.logprob(X < 1)
        posterior.clear_cache()
        assert posterior.logprob(X < 1) == before


class TestZeroProbabilityErrors:
    def test_condition_and_constrain_raise_same_type(self):
        model = _model()
        with pytest.raises(ZeroProbabilityError):
            model.condition(X > 1e9)
        with pytest.raises(ZeroProbabilityError):
            model.constrain({"X": math.nan})

    def test_zero_probability_error_is_a_valueerror(self):
        assert issubclass(ZeroProbabilityError, ValueError)

    def test_offending_event_rendered_in_message(self):
        model = _model()
        with pytest.raises(ZeroProbabilityError) as cond_err:
            model.condition(X > 1e9)
        assert "'X'" in str(cond_err.value) and "1000000000.0" in str(cond_err.value)
        with pytest.raises(ZeroProbabilityError) as cons_err:
            model.constrain({"K": 7.0})
        assert "'K'" in str(cons_err.value) and "7.0" in str(cons_err.value)
        assert cons_err.value.event == {"K": 7.0}

    def test_cache_uncorrupted_after_failed_condition(self):
        model = _model()
        reference = _model(cache=False)
        with pytest.raises(ZeroProbabilityError):
            model.condition(X > 1e9)
        with pytest.raises(ZeroProbabilityError):
            model.constrain({"K": 7.0})
        # Every entry written up to the failure is a complete traversal
        # result: subsequent queries through the shared cache match an
        # uncached model bit-for-bit.
        events = [K == 1, X < 1, (X > 1) & (K == 0), X > 1e9]
        for event in events:
            assert model.logprob(event) == reference.logprob(event)
        posterior = model.condition(K == 1)
        ref_posterior = reference.condition(K == 1)
        assert posterior.logprob(X < 1) == ref_posterior.logprob(X < 1)

    def test_failed_query_scope_does_not_pin_forever(self):
        model = _model(cache_size=4)
        with pytest.raises(ZeroProbabilityError):
            model.condition(X > 1e9)
        # The failed query holds nothing: later inserts may evict its
        # entries, keeping the cache within bound.
        for i in range(50):
            model.logprob(X < i * 0.1)
        assert model.cache.total_entries() <= 4


class TestConcurrentCache:
    def test_concurrent_queries_on_shared_bounded_cache(self):
        model = _model(cache_size=32)
        reference = _model(cache=False)
        events = [X < t for t in np.linspace(-2, 7, 40)]
        expected = [reference.logprob(e) for e in events]
        errors = []
        barrier = threading.Barrier(8)

        def worker(offset):
            try:
                barrier.wait()
                for i in range(len(events)):
                    event = events[(i + offset * 5) % len(events)]
                    expect = expected[(i + offset * 5) % len(events)]
                    for _ in range(3):
                        assert model.logprob(event) == expect
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert model.cache.total_entries() <= 32

    def test_eight_threads_on_a_tiny_cache_answer_bit_identically(self):
        # cache_size=8 is far below one query's entry count, so every
        # thread's traversals run while the others evict their entries.
        model = _model(cache_size=8)
        reference = _model(cache=False)
        thresholds = np.linspace(-2, 7, 12)
        queries = []
        for t in thresholds:
            event = (X < t) | (K == 0)
            queries.append(("logprob", event, reference.logprob(event)))
            posterior = reference.condition(X > t - 3)
            queries.append(
                ("condition", X > t - 3, posterior.logprob((X < t) & (K == 1)))
            )
            queries.append(("logpdf", {"X": t, "K": 1}, reference.logpdf({"X": t, "K": 1})))
            observed = reference.constrain({"X": t})
            queries.append(("constrain", {"X": t}, observed.logprob(K == 1)))

        def answer(kind, query, t_index):
            if kind == "logprob":
                return model.logprob(query)
            if kind == "condition":
                t = thresholds[t_index]
                return model.condition(query).logprob((X < t) & (K == 1))
            if kind == "logpdf":
                return model.logpdf(query)
            return model.constrain(query).logprob(K == 1)

        errors = []
        barrier = threading.Barrier(8)

        def worker(offset):
            try:
                barrier.wait()
                for i in range(len(queries)):
                    j = (i + offset * 7) % len(queries)
                    kind, query, expect = queries[j]
                    assert answer(kind, query, j // 4) == expect, (kind, query)
                    assert model.cache.total_entries() <= 8
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads inside cache operations
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert model.cache.evictions > 0
        assert model.cache.total_entries() <= 8

    def test_concurrent_clear_during_queries_never_corrupts(self):
        model = _model(cache_size=64)
        reference = _model(cache=False)
        events = [X < t for t in np.linspace(-2, 7, 30)]
        expected = [reference.logprob(e) for e in events]
        errors = []
        stop = threading.Event()

        def querier():
            try:
                for _ in range(10):
                    for event, expect in zip(events, expected):
                        assert model.logprob(event) == expect
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                stop.set()

        def clearer():
            while not stop.is_set():
                model.clear_cache()
                model.clear_cache(everything=True)

        threads = [threading.Thread(target=querier) for _ in range(4)]
        threads.append(threading.Thread(target=clearer))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestExactCounters:
    def test_hits_misses_exact_under_contention(self):
        # 8 threads x 200 repeats of the same top-level queries: every
        # top-level lookup is either a hit or a miss, and with the
        # counters incremented under the section lock the totals are
        # exact, not best-effort (the serve stats endpoint reports them).
        model = _model()
        events = [X < t for t in np.linspace(-1, 6, 10)]
        model.logprob_batch(events)  # 10 misses, all entries present
        repeats, n_threads = 200, 8
        barrier = threading.Barrier(n_threads)
        base_hits = model.cache.hits
        base_misses = model.cache.misses

        def worker():
            barrier.wait()
            for _ in range(repeats):
                for event in events:
                    model.logprob(event)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Every one of the n_threads * repeats * len(events) queries was a
        # top-level hit; an approximate (racy) counter would drop some.
        assert model.cache.hits - base_hits == n_threads * repeats * len(events)
        assert model.cache.misses == base_misses

    def test_counted_lookups_on_query_cache(self):
        cache = QueryCache()
        key = ("logprob", 1, frozenset())
        assert cache.get(key, count=True) is None
        cache.put(key, -0.5)
        assert cache.get(key, count=True) == -0.5
        assert cache.get(key) == -0.5  # uncounted (interior) lookup
        assert (cache.hits, cache.misses) == (1, 1)
        cache.clear()
        assert (cache.hits, cache.misses) == (0, 0)

    def test_plain_memo_counters_still_work(self):
        memo = Memo()
        key = ("logpdf", 1, frozenset())
        memo.get(key, count=True)
        memo.put(key, (0, -1.0))
        memo.get(key, count=True)
        assert (memo.hits, memo.misses) == (1, 1)
        memo.clear()
        assert (memo.hits, memo.misses) == (0, 0)


@pytest.fixture(scope="module")
def hmm20():
    """A fresh-model factory over one hmm20 expression (a function, so a
    failure report does not print the expression graph)."""
    spe = hmm.model(20).spe
    return lambda cache: SpplModel(spe, cache=cache)


class CountingCache(QueryCache):
    """An unbounded QueryCache that records its shared lookups."""

    def __init__(self):
        super().__init__(max_entries=None)
        self.looked_up = []
        self.puts = 0

    def get(self, key, default=None, count=False):
        self.looked_up.append(key)
        return super().get(key, default, count)

    def put(self, key, value):
        self.puts += 1
        super().put(key, value)


def _observations(n):
    data = hmm.simulate_data(20, seed=0)
    return hmm.observation_assignment(data["x"][:n], data["y"][:n])


class TestTraversalLookups:
    """One post-order walk per query: the root lookup is the only counted
    one, and every key is looked up in the shared cache once."""

    def test_condition_counts_its_two_top_level_lookups(self, hmm20):
        # condition() runs one logprob and one condition traversal; the
        # logprob values its sum frames need are not top-level lookups.
        model = hmm20(QueryCache(max_entries=None))
        model.condition("X[4] > 0.3")
        assert (model.cache.hits, model.cache.misses) == (0, 2)
        model.condition("X[4] > 0.3")
        assert (model.cache.hits, model.cache.misses) == (2, 2)

    def test_constrain_counts_one_top_level_lookup(self, hmm20):
        model = hmm20(QueryCache(max_entries=None))
        model.constrain(_observations(3))
        assert (model.cache.hits, model.cache.misses) == (0, 1)

    @pytest.mark.parametrize("query", ["logprob", "logpdf"])
    def test_one_shared_lookup_per_key(self, hmm20, query):
        cache = CountingCache()
        model = hmm20(cache)
        if query == "logprob":
            model.logprob("X[4] > 0.3")
        else:
            model.logpdf(_observations(3))
        assert cache.total_entries() > 100
        assert len(cache.looked_up) == cache.puts == cache.total_entries()

    def test_condition_walk_looks_up_each_key_once(self, hmm20):
        # The sum frames of the condition walk read their children's
        # probabilities as ordinary dependencies, each key once.
        cache = CountingCache()
        model = hmm20(cache)
        model.logprob("X[4] > 0.3")  # the walk condition() runs first
        del cache.looked_up[:]
        model.condition("X[4] > 0.3")
        assert len(cache.looked_up) == len(set(cache.looked_up))
        assert cache.puts == cache.total_entries()


class TestMemoCompatibility:
    def test_scratch_memo_unaffected_by_bounds(self):
        model = _model()
        memo = Memo()
        model.logprob(K == 1, memo=memo)
        assert memo.stats()["logprob"] > 0
        assert model.cache.total_entries() == 0

    def test_query_cache_get_put_surface(self):
        cache = QueryCache(max_entries=2)
        cache.put(("logprob", 1, "a"), 0.5)
        cache.put(("condition", 1, "a"), None)
        assert cache.get(("logprob", 1, "a")) == 0.5
        assert cache.get(("condition", 1, "a"), "absent") is None
        assert cache.get(("logprob", 2, "b")) is None
        # Reads refresh recency: the logprob entry is now the LRU one.
        cache.put(("logpdf", 2, "b"), (1, 0.0))
        assert cache.get(("logprob", 1, "a"), "absent") == "absent"
        assert cache.stats() == {
            "logprob": 0, "condition": 1, "logpdf": 1, "constrain": 0,
            "evictions": 1, "max_entries": 2,
        }
        cache.clear(uids=[2])
        assert cache.total_entries() == 1
        cache.clear()
        assert cache.total_entries() == 0
