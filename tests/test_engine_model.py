"""Tests for the high-level SpplModel API (the Fig. 1 workflow)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings
from hypothesis import strategies as st

from repro.engine import SpplModel
from repro.engine import parse_event
from repro.compiler import Sample
from repro.compiler import Sequence
from repro.distributions import normal
from repro.distributions import uniform
from repro.transforms import Id

X = Id("X")
Y = Id("Y")

SOURCE = """
X ~ uniform(0, 10)
if X < 4:
    Y ~ bernoulli(p=0.9)
else:
    Y ~ bernoulli(p=0.1)
"""


@pytest.fixture(scope="module")
def model():
    return SpplModel.from_source(SOURCE)


class TestConstruction:
    def test_from_source(self, model):
        assert set(model.variables) == {"X", "Y"}

    def test_from_command(self):
        command = Sequence([Sample("X", normal(0, 1)), Sample("Y", uniform(0, 1))])
        model = SpplModel.from_command(command)
        assert set(model.variables) == {"X", "Y"}

    def test_requires_spe(self):
        with pytest.raises(TypeError):
            SpplModel("not an spe")

    def test_size_and_tree_size(self, model):
        assert 0 < model.size() <= model.tree_size()

    def test_repr(self, model):
        assert "SpplModel" in repr(model)

    def test_to_source_roundtrip(self, model):
        recompiled = SpplModel.from_source(model.to_source())
        assert recompiled.prob(Y == 1) == pytest.approx(model.prob(Y == 1))


class TestQueries:
    def test_prob_and_logprob(self, model):
        p = model.prob(Y == 1)
        assert p == pytest.approx(0.4 * 0.9 + 0.6 * 0.1)
        assert np.exp(model.logprob(Y == 1)) == pytest.approx(p)

    def test_string_event_queries(self, model):
        assert model.prob("Y == 1") == pytest.approx(model.prob(Y == 1))
        assert model.prob("X < 4 and Y == 1") == pytest.approx(
            model.prob((X < 4) & (Y == 1))
        )

    def test_invalid_event_string(self, model):
        with pytest.raises(ValueError):
            model.prob("X <")

    @pytest.mark.parametrize(
        "event", ["GPA ** 100000 < 1", "(GPA ** 40) ** 40 < 1"]
    )
    def test_polynomial_degree_is_bounded(self, event):
        import time

        from repro.compiler import SpplParseError
        from repro.workloads import indian_gpa

        gpa = indian_gpa.model()
        start = time.perf_counter()
        with pytest.raises(SpplParseError, match="degree"):
            gpa.logprob(event)
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize(
        "event",
        [
            "GPA < 10 ** 3000000",
            "GPA < 9 * 9 ** 999999 // 9 ** 999998",
            "GPA < 2 ** 1024",
            "GPA < " + " * ".join(["9 ** 300"] * 4),
            "GPA < 10.0 ** 400",
            "GPA < max(range(10 ** 8))",
            "GPA < len([0] * 10 ** 8)",
            "GPA < len(10 ** 8 * (0,))",
            "GPA < len('ab' * 10 ** 7)",
            "GPA < len([0] * 10 ** 6 + [0])",
            # Past a machine word: the only way to reach the overflow,
            # and an unbounded range of it neither allocates nor loops.
            "GPA < len(range(10 ** 30))",
        ],
    )
    def test_constant_folding_is_bounded(self, event):
        """Folded constants past the float range, and ranges or repeated
        or concatenated sequences past 10**6 items, are parse errors,
        raised before Python computes them."""
        import time

        from repro.compiler import SpplParseError
        from repro.workloads import indian_gpa

        gpa = indian_gpa.model()
        start = time.perf_counter()
        with pytest.raises(SpplParseError):
            gpa.logprob(event)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize(
        "folded, plain",
        [
            ("2 ** 10", "1024"),
            ("10 ** -3", "0.001"),
            ("(-2) ** 3", "-8"),
            ("1 ** 10 ** 300", "1"),
            ("2 ** 1023 // 2 ** 1021", "4"),
            ("len(range(10 ** 6)) / 10 ** 5", "10.0"),
            ("len([0] * 10 ** 6) / 10 ** 5", "10.0"),
        ],
    )
    def test_constant_folding_within_float_range(self, folded, plain):
        from repro.workloads import indian_gpa

        gpa = indian_gpa.model()
        assert gpa.logprob("GPA < " + folded) == gpa.logprob("GPA < " + plain)

    def test_polynomial_at_degree_bound_still_answers(self):
        from repro.transforms import MAX_POLY_DEGREE
        from repro.workloads import indian_gpa

        gpa = indian_gpa.model()
        # GPA is non-negative, so GPA ** d < 1 exactly when GPA < 1.
        event = "GPA ** %d < 1" % (MAX_POLY_DEGREE,)
        assert gpa.prob(event) == pytest.approx(gpa.prob("GPA < 1"), abs=1e-9)

    def test_invalid_event_type(self, model):
        with pytest.raises(TypeError):
            model.prob(42)

    def test_logpdf(self, model):
        assert model.logpdf({"X": 2.0}) == pytest.approx(np.log(0.1))

    def test_condition_returns_new_model(self, model):
        posterior = model.condition(Y == 1)
        assert isinstance(posterior, SpplModel)
        assert posterior.prob(X < 4) == pytest.approx(
            model.prob((X < 4) & (Y == 1)) / model.prob(Y == 1)
        )
        # The prior model is unchanged (the workflow is non-destructive).
        assert model.prob(X < 4) == pytest.approx(0.4)

    def test_condition_with_string_event(self, model):
        posterior = model.condition("Y == 1")
        assert posterior.prob(X < 4) == pytest.approx(
            model.condition(Y == 1).prob(X < 4)
        )

    def test_constrain_and_observe_alias(self, model):
        constrained = model.constrain({"X": 2.0})
        observed = model.observe({"X": 2.0})
        assert constrained.prob(Y == 1) == pytest.approx(observed.prob(Y == 1))
        assert constrained.prob(Y == 1) == pytest.approx(0.9)

    def test_posterior_reuse_across_queries(self, model):
        posterior = model.condition(Y == 1)
        total = posterior.prob(X < 4) + posterior.prob(X >= 4)
        assert total == pytest.approx(1.0)


class TestSampling:
    def test_sample_single_and_many(self, model):
        assert set(model.sample(seed=0)) == {"X", "Y"}
        samples = model.sample(10, seed=0)
        assert len(samples) == 10

    def test_simulate_alias(self, model):
        assert set(model.simulate(seed=1)) == {"X", "Y"}

    def test_sample_subset(self, model):
        subset = model.sample_subset(["Y"], n=5, seed=0)
        assert all(set(s) == {"Y"} for s in subset)

    def test_seed_reproducibility(self, model):
        assert model.sample(5, seed=123) == model.sample(5, seed=123)

    def test_explicit_rng(self, model):
        rng = np.random.default_rng(9)
        sample = model.sample(rng=rng)
        assert "X" in sample

    def test_sampling_frequency_matches_probability(self, model):
        samples = model.sample(3000, seed=11)
        frequency = sum(1 for s in samples if s["Y"] == 1) / len(samples)
        assert frequency == pytest.approx(model.prob(Y == 1), abs=0.03)


class TestParseEvent:
    def test_basic(self):
        event = parse_event("X > 1", ["X"])
        assert event.evaluate({"X": 2})

    def test_nominal_and_membership(self):
        event = parse_event("N in {'a', 'b'}", ["N"])
        assert event.evaluate({"N": "a"})
        assert not event.evaluate({"N": "c"})

    def test_unknown_variable_rejected(self):
        with pytest.raises(Exception):
            parse_event("Q > 1", ["X"])


# ---------------------------------------------------------------------------
# Query identity: every spelling is answered as written, on every route.
# ---------------------------------------------------------------------------

#: Synthetic product-root program: independent blocks of different sizes
#: (a mixture block over W/X next to plain leaves).
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

@pytest.fixture(scope="module")
def independent_spe():
    from repro.compiler import compile_sppl

    return compile_sppl(INDEPENDENT_SOURCE)


@pytest.fixture(scope="module")
def served_spes():
    from repro.compiler import compile_command
    from repro.workloads import hmm
    from repro.workloads import table1_models

    return {
        "noisy_or": compile_command(table1_models.noisy_or()),
        "heart_disease": compile_command(table1_models.heart_disease()),
        "hmm20": hmm.model(20).spe,
    }


#: Event pools of the batch-composition property: reordered spellings
#: whose answers differ in the last bit, thresholds, conjunctions,
#: an impossible event and a certain one.
COMPOSITION_POOLS = {
    "heart_disease": [
        "cholesterol < 170.0 or fatigue == 1",
        "fatigue == 1 or cholesterol < 170.0",
        "heart_disease == 1 or chest_pain == 1",
        "chest_pain == 1 or heart_disease == 1",
        "fatigue == 1 and cholesterol < 170.0",
        "blood_pressure > 140.0",
        "age_group == 'old' and smoker == 1",
        "cholesterol > 240.0 and blood_pressure > 140.0",
        "exercise == 1 or abnormal_ecg == 1",
        "cholesterol < 0.0 and cholesterol > 1.0",
        "smoker == 0 or smoker == 1",
    ],
    "hmm20": [
        "Z[0] == 1 or Z[3] == 0",
        "Z[3] == 0 or Z[0] == 1",
        "X[1] > 1.5 or Y[2] == 3",
        "Y[2] == 3 or X[1] > 1.5",
        "Z[5] == 1 and X[1] > 1.5",
        "X[0] < 0.5",
        "X[19] < 0.25 and Z[19] == 0",
        "Y[7] == 1",
        "X[3] > 2.0 or X[4] > 2.0",
        "X[2] < 0.0 and X[2] > 1.0",
    ],
}


class TestQueryIdentity:
    @pytest.mark.parametrize("route", ["interpreted", "compiled"])
    @pytest.mark.parametrize("name", ["hmm20", "heart_disease"])
    @settings(max_examples=30)
    @given(data=st.data())
    def test_batch_composition_never_changes_an_answer(
        self, served_spes, name, route, data
    ):
        """However a batch is composed -- the event alone, among random
        other events, duplicated, in any order -- ``logprob_batch`` gives
        each event the bits a fresh uncached model gives it alone.  The
        serve tier batches by arrival timing, so this is what keeps its
        answers exact."""
        spe = served_spes[name]
        pool = COMPOSITION_POOLS[name]
        target = data.draw(st.sampled_from(pool), label="target")
        others = data.draw(
            st.lists(st.sampled_from(pool), max_size=12), label="others"
        )
        position = data.draw(st.integers(0, len(others)), label="position")
        batch = others[:position] + [target] + others[position:]
        order = data.draw(st.permutations(batch), label="order")
        alone = {
            text: repr(SpplModel(spe, cache=False).logprob_batch([text])[0])
            for text in set(batch)
        }
        model = SpplModel(spe)
        if route == "compiled":
            model.compile()
        try:
            for composed in ([target], batch, order):
                assert [repr(v) for v in model.logprob_batch(composed)] == [
                    alone[text] for text in composed
                ], composed
        finally:
            model.detach_compiled()

    def test_queries_bit_identical_however_ordered(
        self, independent_spe, served_spes, spelling_batches
    ):
        """Every spelling, repeat and arrival order answers what a fresh
        uncached model answers for that text, bit for bit, on the
        interpreted and the compiled-kernel route."""
        spes = dict(served_spes, independent=independent_spe)
        batches = dict(spelling_batches, independent=[
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
                cached = SpplModel(spe)
                for query in order:
                    assert (
                        repr(cached.logprob(query)), repr(cached.prob(query))
                    ) == want[query], (name, query)
                batched = SpplModel(spe)
                assert [repr(v) for v in batched.logprob_batch(order)] == expected
                batched.compile()
                try:
                    assert [
                        repr(v) for v in batched.logprob_batch(order)
                    ] == expected, name
                finally:
                    batched.detach_compiled()

    def test_condition_chain_lands_on_monolithic_posterior(self, independent_spe):
        """Conditioning on independent scopes one at a time lands on the
        identical interned node as one monolithic condition."""
        event = parse_event("X < 1 and Y > 0", independent_spe.scope)
        monolithic = independent_spe.condition(event)
        chained = independent_spe
        for text in ("X < 1", "Y > 0"):
            chained = chained.condition(parse_event(text, independent_spe.scope))
        assert chained is monolithic

    def test_equal_conditions_share_one_posterior(self, independent_spe):
        """Two models conditioning on one text land on the identical
        interned posterior node."""
        a = SpplModel(independent_spe, cache=False)
        b = SpplModel(independent_spe, cache=False)
        text = "X < 2 and Y > -1 and Z < 3 and U > 1"
        posterior_a, posterior_b = a.condition(text), b.condition(text)
        assert posterior_a.spe is posterior_b.spe
        assert posterior_b.logprob("M == 'mid'") == posterior_a.logprob("M == 'mid'")

    def test_spellings_resolve_to_distinct_events(self, independent_spe):
        plain = SpplModel(independent_spe, cache=False)
        a = plain._resolve_event("X < 3 and Y > 1")
        b = plain._resolve_event("Y > 1 and X < 3")
        assert a is not b

    def test_kernel_batch_matches_interpreter(self, independent_spe):
        model = SpplModel(independent_spe, cache=False)
        plain = SpplModel(independent_spe, cache=False)
        queries = [
            "X < 1 and Y > 0",
            "X < 1 and Y > 0",  # duplicate text in one batch
            "Y > 0 and Z < 2 and U < 3",
            "X < -1 or X > 1",
        ]
        expected = plain.logprob_batch(queries)
        assert model.logprob_batch(queries) == expected
        model.compile()
        try:
            assert model.logprob_batch(queries) == expected
        finally:
            model.detach_compiled()

    def test_repeated_text_resolves_once(self, independent_spe):
        model = SpplModel(independent_spe)
        first = model._resolve_event("X < 1 and Y > 0")
        assert model._resolve_event("X < 1 and Y > 0") is first
        batch = ["X < 1 and Y > 0", "U < 3", "X < 1 and Y > 0",
                 "X < 1 and Y > 0", "U < 3"]
        plain = SpplModel(independent_spe, cache=False)
        assert [repr(v) for v in model.logprob_batch(batch)] == [
            repr(plain.logprob(text)) for text in batch
        ]

    def test_zero_probability_condition_raises(self, independent_spe):
        from repro.spe import ZeroProbabilityError

        model = SpplModel(independent_spe, cache=False)
        with pytest.raises(ZeroProbabilityError):
            model.condition("Y > 0 and Y < -1")

    def test_prob_is_exp_of_logprob(self, independent_spe):
        import math

        model = SpplModel(independent_spe, cache=False)
        lp = model.logprob("X < 1 and Y > 0")
        assert model.prob("X < 1 and Y > 0") == math.exp(lp)

    @pytest.mark.parametrize("route", ["interpreted", "compiled"])
    def test_prob_batch_bit_identical_to_prob(self, route):
        """``prob_batch`` exponentiates exactly as ``prob`` does: numpy's
        vectorized ``exp`` differs from ``math.exp`` in the last bit on
        some of these thresholds."""
        from repro.workloads import indian_gpa

        model = indian_gpa.model()
        if route == "compiled":
            model.compile()
        rng = np.random.default_rng(0)
        events = ["GPA < %r" % float(x) for x in rng.uniform(0, 10, 400)]
        events.append("GPA < 3.6883202360367466")
        try:
            batch = model.prob_batch(events)
            assert [repr(v) for v in batch] == [
                repr(model.prob(event)) for event in events
            ]
        finally:
            model.detach_compiled()


class TestRaggedLogpdfBatch:
    def test_grouped_dispatch_matches_interpreter(self, independent_spe):
        """A ragged batch (mixed scope signatures) groups per signature,
        each group through the compiled kernel, bit-identical to the
        interpreter."""
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
