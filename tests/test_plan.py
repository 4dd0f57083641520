"""The query planner: passes, plan modes, and engine/serve routing.

Covers the planner's promise end to end: ``"validated"`` answers are bit
for bit the unplanned answers however queries are spelled, ordered or
repeated, ``"all"`` rewrites preserve answers, and ragged
``logpdf_batch`` rows reach the compiled kernel per scope-signature
group.
"""

import math

import pytest

from repro.compiler import compile_command
from repro.compiler import compile_sppl
from repro.engine import PosteriorChain
from repro.engine import SpplModel
from repro.engine import parse_event
from repro.events import event_digest
from repro.plan import QueryPlanner
from repro.plan import chain_order
from repro.plan import condition_pushdown
from repro.plan import disjoint_factor
from repro.plan import fuse_union
from repro.plan import normalize_pass
from repro.workloads import hmm
from repro.workloads import table1_models

#: Synthetic product-root program: independent blocks of different sizes,
#: so condition chains have genuinely different per-step costs (the
#: mixture block is more expensive to traverse than the plain leaves).
INDEPENDENT_SOURCE = """
W ~ choice({'a': 0.4, 'b': 0.6})
if W == 'a':
    X ~ normal(0, 1)
else:
    X ~ normal(3, 1)
Y ~ normal(0, 1)
Z ~ normal(1, 2)
U ~ uniform(0, 4)
M ~ choice({'lo': 0.3, 'mid': 0.4, 'hi': 0.3})
"""

#: Two spellings of one predicate whose unplanned answers differ in the
#: last bit (the disjunction's clause order reaches ``log_add``).
HEART_PAIR = (
    "cholesterol < 170.0 or fatigue == 1",
    "fatigue == 1 or cholesterol < 170.0",
)

#: Per served model: batches mixing duplicate texts with reordered
#: spellings; each ``or`` pair's unplanned answers differ in the last bit.
SPELLING_BATCHES = {
    "noisy_or": [
        "disease_0 == 1 or symptom_0 == 1",
        "symptom_0 == 1 or disease_0 == 1",
        "disease_0 == 1 or symptom_0 == 1",
        "disease_1 == 1 and disease_0 == 1",
        "disease_0 == 1 and disease_1 == 1",
        "symptom_1 == 1 or disease_1 == 1",
        "symptom_0 == 1 or disease_0 == 1",
    ],
    "heart_disease": [
        HEART_PAIR[1],
        HEART_PAIR[0],
        HEART_PAIR[1],
        "heart_disease == 1 or chest_pain == 1",
        "chest_pain == 1 or heart_disease == 1",
        "fatigue == 1 and cholesterol < 170.0",
        HEART_PAIR[0],
    ],
    "hmm20": [
        "Z[0] == 1 or Z[3] == 0",
        "Z[3] == 0 or Z[0] == 1",
        "X[1] > 1.5 or Y[2] == 3",
        "Y[2] == 3 or X[1] > 1.5",
        "Z[0] == 1 or Z[3] == 0",
        "Z[5] == 1 and X[1] > 1.5",
        "Y[2] == 3 or X[1] > 1.5",
    ],
}


@pytest.fixture(scope="module")
def independent_spe():
    return compile_sppl(INDEPENDENT_SOURCE)


@pytest.fixture(scope="module")
def noisy_or_spe():
    return compile_command(table1_models.noisy_or())


@pytest.fixture(scope="module")
def heart_disease_spe():
    return compile_command(table1_models.heart_disease())


@pytest.fixture(scope="module")
def served_spes(noisy_or_spe, heart_disease_spe):
    return {
        "noisy_or": noisy_or_spe,
        "heart_disease": heart_disease_spe,
        "hmm20": hmm.model(20).spe,
    }


class TestPasses:
    def test_fuse_union_merges_same_symbol_literals(self, independent_spe):
        event = parse_event("X < -1 or X > 1", independent_spe.scope)
        fused = fuse_union(event)
        assert fused is not None
        assert len(fused.get_symbols()) == 1
        assert fuse_union(fused) is None  # idempotent: nothing left to fuse

    def test_fuse_union_preserves_branch_order_and_semantics(self, independent_spe):
        event = parse_event("Y > 2 or X < -1 or X > 1", independent_spe.scope)
        fused = fuse_union(event)
        # Y's literal survives untouched; the X literals fuse in place.
        assert "Y" in {s for s in fused.get_symbols()}
        assert event_digest(fused) == event_digest(event)

    def test_normalize_pass_returns_none_when_canonical(self, independent_spe):
        event = parse_event("X < 1", independent_spe.scope)
        assert normalize_pass(event) is None

    def test_disjoint_factor_splits_product_scopes(self, independent_spe):
        event = parse_event("X < 1 and Y > 0 and Z < 2", independent_spe.scope)
        groups = disjoint_factor(independent_spe, event)
        assert groups is not None and len(groups) == 3
        assert sorted("".join(sorted(g.get_symbols())) for g in groups) == [
            "X", "Y", "Z",
        ]

    def test_disjoint_factor_keeps_dependent_scopes_together(self, independent_spe):
        # W and X live in one mixture block: no split between them.
        event = parse_event("W == 'a' and X < 1", independent_spe.scope)
        assert disjoint_factor(independent_spe, event) is None

    def test_disjoint_factor_declines_sum_roots(self):
        spe = compile_command(table1_models.alarm())
        event = parse_event(
            "burglary == 1 and earthquake == 1", spe.scope
        )
        assert disjoint_factor(spe, event) is None

    def test_condition_pushdown_chain_equals_monolithic(self, independent_spe):
        event = parse_event("X < 1 and Y > 0", independent_spe.scope)
        chain = condition_pushdown(independent_spe, event)
        assert chain is not None and len(chain) == 2
        monolithic = independent_spe.condition(event)
        chained = independent_spe
        for step in chain:
            chained = chained.condition(step)
        assert chained is monolithic  # the identical interned node

    def test_chain_order_puts_cheap_scopes_first(self, independent_spe):
        # The W/X mixture block is bigger than the Y leaf, so a chain
        # that conditions it first gets reordered.
        expensive = parse_event("X < 1", independent_spe.scope)
        cheap = parse_event("Y > 0", independent_spe.scope)
        reordered = chain_order(independent_spe, [expensive, cheap])
        assert reordered == [cheap, expensive]
        assert chain_order(independent_spe, [cheap, expensive]) is None

    def test_factored_logprob_is_bit_identical(self, independent_spe):
        from repro.plan import execute_logprob_plan
        from repro.spe import Memo

        event = parse_event(
            "X < 2 and Y > -1 and Z < 3 and U > 1", independent_spe.scope
        )
        groups = disjoint_factor(independent_spe, event)
        baseline = independent_spe.logprob(event, memo=Memo())
        planned = execute_logprob_plan(
            independent_spe, ("sum", groups), Memo()
        )
        assert planned == baseline


class TestPlannerModes:
    def test_dedup_batch_is_always_exact(self):
        planner = QueryPlanner("validated")
        a = parse_event("X < 1", {"X"})
        b = parse_event("X  <  1", {"X"})  # equal digest, another object
        unique, back_refs = planner.dedup_batch([a, b, a])
        assert unique == [a, b] and back_refs == [0, 1, 0]
        assert planner.stats()["passes"]["dedup_batch"]["hits"] == 1

    def test_planner_rejects_off_and_unknown_modes(self):
        with pytest.raises(ValueError):
            QueryPlanner("off")
        with pytest.raises(ValueError):
            QueryPlanner("sometimes")

    def test_validated_mode_computes_no_rewrites_or_digests(
        self, independent_spe, monkeypatch
    ):
        """Validated planning never calls a structural pass or the
        digest: the planner module's pass and digest entry points are
        replaced by tripwires and every query route still answers."""
        from repro.plan import planner as planner_module

        def tripwire(*args, **kwargs):
            raise AssertionError("validated mode reached a rewrite/digest")

        for name in ("chain_order", "condition_pushdown", "disjoint_factor",
                     "fuse_union", "normalize_pass", "event_digest",
                     "chain_digest"):
            monkeypatch.setattr(planner_module, name, tripwire)
        plain = SpplModel(independent_spe, cache=False)
        planned = SpplModel(independent_spe, cache=False, plan="validated")
        text = "X < 1 and Y > 0 and Z < 2"
        assert planned.logprob(text) == plain.logprob(text)
        assert planned.prob(text) == plain.prob(text)
        assert planned.logprob_batch([text, "U < 3", text]) == (
            plain.logprob_batch([text, "U < 3", text])
        )
        posterior = planned.condition(text)
        assert posterior.logprob("M == 'hi'") == (
            plain.condition(text).logprob("M == 'hi'")
        )

    def test_all_mode_still_applies_structural_passes(self, independent_spe):
        plain = SpplModel(independent_spe, cache=False)
        planned = SpplModel(independent_spe, cache=False, plan="all")
        text = "X < 1 and Y > 0 and Z < 2"
        assert math.isclose(
            planned.logprob(text), plain.logprob(text), rel_tol=1e-12
        )
        posterior = planned.condition(text)
        assert math.isclose(
            posterior.logprob("M == 'hi'"),
            plain.condition(text).logprob("M == 'hi'"),
            rel_tol=1e-12,
        )
        passes = planned.plan_stats()["passes"]
        assert passes["disjoint_factor"]["applied"] >= 1
        assert passes["condition_pushdown"]["applied"] >= 1


class TestEngineRouting:
    def test_validated_queries_bit_identical_to_unplanned(
        self, independent_spe, served_spes
    ):
        """Every spelling, repeat and arrival order answers what a fresh
        unplanned model answers for that text, bit for bit, on the
        interpreted and the compiled-kernel route."""
        spes = dict(served_spes, independent=independent_spe)
        batches = dict(SPELLING_BATCHES, independent=[
            "X < 1 and Y > 0",
            "Y > 0 and Z < 2 and U < 3",
            "X < -1 or X > 1",
            "X < 2 and X < 1",
            "W == 'a' and Y < 1",
            "Y > 0 and X < 1",
            "X < 1 and Y > 0",
        ])
        for name, batch in batches.items():
            spe = spes[name]
            want = {}
            for query in batch:
                plain = SpplModel(spe, cache=False)
                want[query] = (repr(plain.logprob(query)), repr(plain.prob(query)))
            for order in (batch, batch[::-1]):
                expected = [want[query][0] for query in order]
                planned = SpplModel(spe, plan="validated")
                for query in order:
                    assert (
                        repr(planned.logprob(query)), repr(planned.prob(query))
                    ) == want[query], (name, query)
                batched = SpplModel(spe, plan="validated")
                assert [repr(v) for v in batched.logprob_batch(order)] == expected
                batched.compile()
                try:
                    assert [
                        repr(v) for v in batched.logprob_batch(order)
                    ] == expected, name
                finally:
                    batched.detach_compiled()
                # Duplicate removal is the only pass validated mode runs.
                assert set(batched.plan_stats()["passes"]) <= {"dedup_batch"}
                assert planned.plan_stats()["passes"] == {}

    def test_condition_chain_lands_on_identical_posterior(self, independent_spe):
        plain = SpplModel(independent_spe, cache=False)
        planned = SpplModel(independent_spe, cache=False, plan="validated")
        text = "X < 2 and Y > -1 and Z < 3 and U > 1"
        a, b = plain.condition(text), planned.condition(text)
        assert a.spe is b.spe  # the identical interned node
        assert b.planner is planned.planner  # family shares one planner
        assert b.logprob("M == 'mid'") == a.logprob("M == 'mid'")

    def test_no_digest_canonicalization_without_planning(self, independent_spe):
        plain = SpplModel(independent_spe, cache=False)
        a = plain._resolve_event("X < 3 and Y > 1")
        b = plain._resolve_event("Y > 1 and X < 3")
        assert a is not b

    def test_kernel_batch_with_planning_matches_interpreter(self, independent_spe):
        planned = SpplModel(independent_spe, cache=False, plan="validated")
        plain = SpplModel(independent_spe, cache=False)
        queries = [
            "X < 1 and Y > 0",
            "X < 1 and Y > 0",  # duplicate: exercises dedup + fan-out
            "Y > 0 and Z < 2 and U < 3",
            "X < -1 or X > 1",
        ]
        expected = plain.logprob_batch(queries)
        assert planned.logprob_batch(queries) == expected
        planned.compile()
        try:
            assert planned.logprob_batch(queries) == expected
        finally:
            planned.detach_compiled()

    def test_repeated_text_is_evaluated_once_per_batch(self, independent_spe):
        planned = SpplModel(independent_spe, plan="validated")
        first = planned._resolve_event("X < 1 and Y > 0")
        assert planned._resolve_event("X < 1 and Y > 0") is first
        batch = ["X < 1 and Y > 0", "U < 3", "X < 1 and Y > 0",
                 "X < 1 and Y > 0", "U < 3"]
        plain = SpplModel(independent_spe, cache=False)
        assert [repr(v) for v in planned.logprob_batch(batch)] == [
            repr(plain.logprob(text)) for text in batch
        ]
        dedup = planned.plan_stats()["passes"]["dedup_batch"]
        assert dedup == {"applied": 1, "hits": 3}

    def test_posterior_chain_bit_identical_to_unplanned(self, served_spes):
        observes = ["Z[0] == 1", "X[1] > 0.5", "Y[2] == 3 or Z[3] == 0"]
        queries = ["Z[5] == 1", "X[4] < 0.0 or Z[4] == 1"]
        values = {}
        for mode in ("off", "validated"):
            model = SpplModel(served_spes["hmm20"], plan=mode)
            with PosteriorChain(model, observes) as chain:
                values[mode] = [
                    repr(chain.current.logprob(query)) for query in queries
                ]
        assert values["validated"] == values["off"]

    def test_zero_probability_condition_still_raises(self, independent_spe):
        from repro.spe import ZeroProbabilityError

        planned = SpplModel(independent_spe, cache=False, plan="validated")
        with pytest.raises(ZeroProbabilityError):
            planned.condition("Y > 0 and Y < -1")

    def test_prob_routes_through_logprob_when_planned(self, independent_spe):
        planned = SpplModel(independent_spe, cache=False, plan="validated")
        lp = planned.logprob("X < 1 and Y > 0")
        assert planned.prob("X < 1 and Y > 0") == math.exp(lp)


class TestRaggedLogpdfBatch:
    def test_grouped_dispatch_matches_interpreter(self, independent_spe):
        """Satellite differential: a ragged batch (mixed scope
        signatures) groups per signature, each group through the compiled
        kernel, bit-identical to the interpreter."""
        model = SpplModel(independent_spe, cache=False)
        model.compile()
        try:
            rows = [
                {"X": 0.1, "Y": 0.2},
                {"X": 0.3},
                {"Y": -0.4, "Z": 1.0},
                {"X": 0.5, "Y": -0.1},
                {"Z": 0.0},
                {"X": 0.3},
            ]
            expected = [independent_spe.logpdf(row) for row in rows]
            assert model.logpdf_batch(rows) == expected
            stats = model.cache_stats()
            assert stats["logpdf_grouped_batches"] == 1
            assert stats["logpdf_grouped_fallbacks"] == 0
        finally:
            model.detach_compiled()

    def test_uniform_batches_skip_grouping(self, independent_spe):
        model = SpplModel(independent_spe, cache=False)
        model.compile()
        try:
            rows = [{"X": 0.1}, {"X": 0.2}]
            model.logpdf_batch(rows)
            assert "logpdf_grouped_batches" not in model.cache_stats()
        finally:
            model.detach_compiled()


def _scheduler_over(model):
    """A MicroBatcher whose backend evaluates batches on ``model``."""
    from repro.serve import MicroBatcher
    from repro.serve.scheduler import evaluate_batch

    class Backend:
        n_shards = 1

        def route(self, name, condition):
            return 0

        async def run_batch(self, name, kind, condition, shard, payloads):
            return evaluate_batch(model, kind, condition, payloads)

    return MicroBatcher(Backend(), window=0)


def _ask_in_turn(batcher, texts):
    import asyncio

    from repro.serve.wire import Request

    async def main():
        return [
            await batcher.submit(Request(None, "m", "logprob", text))
            for text in texts
        ]

    return asyncio.run(main())


class TestServeResultCache:
    def test_answers_independent_of_spelling_order(self, heart_disease_spe):
        """Regression: a spelling must not resolve to whichever
        equivalent spelling arrived first.  Both orders of the pair, on
        the model and through the scheduler's ResultCache, answer what a
        fresh unplanned model answers for each text."""
        want = {
            text: repr(SpplModel(heart_disease_spe, plan="off").logprob(text))
            for text in HEART_PAIR
        }
        assert want[HEART_PAIR[0]] != want[HEART_PAIR[1]]
        for order in (HEART_PAIR, HEART_PAIR[::-1]):
            model = SpplModel(heart_disease_spe, plan="validated")
            for text in order:
                assert repr(model.logprob(text)) == want[text]
            batcher = _scheduler_over(SpplModel(heart_disease_spe, plan="validated"))
            for text, (status, value) in zip(order, _ask_in_turn(batcher, order)):
                assert status == "ok" and repr(value) == want[text]
            cache = batcher.result_cache("m")
            assert cache.hits == 0 and cache.misses == 2

    def test_duplicate_misses_evaluate_once(self, noisy_or_spe):
        from repro.serve.scheduler import evaluate_batch

        model = SpplModel(noisy_or_spe, plan="validated")
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
        batcher = _scheduler_over(SpplModel(noisy_or_spe, plan="validated"))
        texts = ["disease_0 == 1", "disease_0  ==  1", "disease_0 == 1"]
        answers = _ask_in_turn(batcher, texts)
        plain = SpplModel(noisy_or_spe, plan="off")
        assert [repr(value) for _, value in answers] == [
            repr(plain.logprob(text)) for text in texts
        ]
        cache = batcher.result_cache("m")
        assert (cache.misses, cache.hits) == (2, 1)

    @pytest.mark.parametrize("name", sorted(SPELLING_BATCHES))
    def test_served_answers_bit_identical_to_unplanned(self, name):
        """End to end through the HTTP service: a pipelined batch of
        repeated and reordered spellings, answered by the registry's
        default validated plan, equals a fresh unplanned model per text."""
        import asyncio

        from repro.serve import AsyncServeClient
        from repro.serve import InferenceService
        from repro.serve import ModelRegistry

        registry = ModelRegistry()
        registered = registry.register_catalog(name)
        assert registered.plan == "validated"
        batch = SPELLING_BATCHES[name]

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

        responses = asyncio.run(main())
        plain = SpplModel(registered.model.spe, plan="off")
        want = {text: repr(plain.logprob(text)) for text in batch}
        for response in responses:
            assert response["ok"], response
            text = (batch + batch[::-1])[response["id"]]
            assert repr(response["value"]) == want[text], (name, text)

    def test_registry_default_plans_and_reports(self):
        from repro.serve import ModelRegistry

        registry = ModelRegistry()
        registered = registry.register_catalog("noisy_or")
        assert registered.plan == "validated"
        assert registered.model.plan_mode == "validated"
        assert registry.describe()["noisy_or"]["plan"] == "validated"
        assert registered.model.cache_stats()["plan"]["mode"] == "validated"

    def test_registry_plan_off_restores_unplanned_models(self):
        from repro.serve import ModelRegistry

        registry = ModelRegistry(plan="off")
        registered = registry.register_catalog("noisy_or")
        assert registered.model.plan_mode == "off"
        assert "plan" not in registered.model.cache_stats()
