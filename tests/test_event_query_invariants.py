"""Query answers that do not depend on how an event is written.

``SpplModel`` evaluates every event as written: spellings are never
canonicalised. These tests pin the semantic equivalences that hold
anyway, on the one query path: reordered clauses, double negation,
same-symbol fusion, duplicate clauses, transform solving and
contradictions give the same truth values and (up to rounding) the same
probabilities; on a product root, a conjunction over independent scopes
factors into per-scope probabilities, and a condition chain reaches the
same posterior in any order.
"""

import math
import random

from hypothesis import given
from hypothesis import settings
from hypothesis import strategies as st

from repro.compiler import compile_sppl
from repro.engine import SpplModel
from repro.engine import parse_event
from repro.events import Conjunction
from repro.events import Containment
from repro.events import Disjunction
from repro.sets import FiniteNominal
from repro.sets import FiniteReal
from repro.sets import interval
from repro.sets import union
from repro.transforms import Identity

#: Product root over independent real and nominal variables.
PRODUCT_SOURCE = """
X ~ normal(0, 1)
Y ~ normal(1, 2)
Z ~ uniform(-3, 5)
N ~ choice({'a': 0.2, 'b': 0.5, 'c': 0.3})
"""

#: W and X share a mixture block; Y, Z and M are independent of it.
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

_REAL_SYMBOLS = ["X", "Y", "Z"]
_NOMINAL_SYMBOLS = ["N"]
_TEST_POINTS = [-7.5, -2.0, -1.0, -0.5, 0.0, 0.25, 1.0, 1.5, 2.0, 3.5, 8.0]
_TEST_STRINGS = ["a", "b", "c", "zzz"]
_GRID = st.sampled_from([-5.0, -2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 4.0])

_PRODUCT_MODEL = SpplModel(compile_sppl(PRODUCT_SOURCE), cache=False)
_INDEPENDENT_MODEL = SpplModel(compile_sppl(INDEPENDENT_SOURCE), cache=False)


@st.composite
def interval_literals(draw):
    a, b = draw(_GRID), draw(_GRID)
    lo, hi = min(a, b), max(a, b)
    values = interval(lo, hi, draw(st.booleans()), draw(st.booleans()))
    if values.is_empty:
        values = interval(lo, hi)
    return Containment(Identity(draw(st.sampled_from(_REAL_SYMBOLS))), values)


@st.composite
def point_literals(draw):
    points = draw(st.lists(_GRID, min_size=1, max_size=3))
    return Containment(
        Identity(draw(st.sampled_from(_REAL_SYMBOLS))), FiniteReal(points)
    )


@st.composite
def nominal_literals(draw):
    values = draw(st.lists(st.sampled_from(_TEST_STRINGS), min_size=1, max_size=3))
    return Containment(
        Identity(draw(st.sampled_from(_NOMINAL_SYMBOLS))),
        FiniteNominal(values, positive=draw(st.booleans())),
    )


def literals():
    return st.one_of(interval_literals(), point_literals(), nominal_literals())


@st.composite
def event_trees(draw, depth=2):
    if depth == 0:
        return draw(literals())
    kind = draw(st.integers(min_value=0, max_value=3))
    if kind == 0:
        return draw(literals())
    children = draw(
        st.lists(event_trees(depth=depth - 1), min_size=1, max_size=3)
    )
    if kind == 1:
        return Conjunction(children)
    if kind == 2:
        return Disjunction(children)
    return Conjunction(children).negate()  # random "not" over a subtree


def _assignments(seed, n=25):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        assignment = {s: rng.choice(_TEST_POINTS) for s in _REAL_SYMBOLS}
        for s in _NOMINAL_SYMBOLS:
            assignment[s] = rng.choice(_TEST_STRINGS)
        out.append(assignment)
    return out


def _shuffle(event, rng):
    """Recursively permute the children of every connective."""
    if isinstance(event, (Conjunction, Disjunction)):
        children = [_shuffle(child, rng) for child in event.events]
        rng.shuffle(children)
        return type(event)(children)
    return event


def _close(a, b):
    if a == -math.inf or b == -math.inf:
        return a == b
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


class TestEventAlgebra:
    @settings(max_examples=150, deadline=None)
    @given(event_trees(depth=3), st.integers(min_value=0, max_value=1 << 30))
    def test_reordering_evaluates_like_original(self, event, seed):
        reordered = _shuffle(event, random.Random(seed))
        for assignment in _assignments(seed):
            assert reordered.evaluate(assignment) == event.evaluate(assignment)

    @settings(max_examples=150, deadline=None)
    @given(event_trees(depth=3), st.integers(min_value=0, max_value=1 << 30))
    def test_double_negation_evaluates_like_original(self, event, seed):
        try:
            twice = event.negate().negate()
        except ValueError:
            return  # the tree collapsed to EventNever, which has no negation
        for assignment in _assignments(seed):
            assert twice.evaluate(assignment) == event.evaluate(assignment)

    def test_outcome_set_union_is_order_independent(self):
        a = union(interval(0, 1), FiniteReal([5.0]), FiniteNominal(["a"]))
        b = union(FiniteNominal(["a"]), interval(0, 1), FiniteReal([5.0]))
        assert a == b
        for value in (0.5, 5.0, "a", 2.0, "b"):
            assert a.contains(value) == b.contains(value)


class TestProbabilityInvariants:
    @settings(max_examples=60, deadline=None)
    @given(event_trees(), st.integers(min_value=0, max_value=1 << 30))
    def test_reordered_clauses_answer_the_same(self, event, seed):
        reordered = _shuffle(event, random.Random(seed))
        assert _close(
            _PRODUCT_MODEL.logprob(reordered), _PRODUCT_MODEL.logprob(event)
        )

    @settings(max_examples=60, deadline=None)
    @given(event_trees())
    def test_event_and_complement_sum_to_one(self, event):
        try:
            complement = event.negate()
        except ValueError:
            assert _PRODUCT_MODEL.logprob(event) == -math.inf
            return
        total = _PRODUCT_MODEL.prob(event) + _PRODUCT_MODEL.prob(complement)
        assert math.isclose(total, 1.0, rel_tol=1e-9)

    def test_textual_variants_answer_the_same(self):
        a = _PRODUCT_MODEL.logprob("X < 3 and Y > 1")
        b = _PRODUCT_MODEL.logprob("Y > 1  and  X < 3")
        assert _close(a, b)

    def test_transform_solving_matches_interval(self):
        assert _close(
            _PRODUCT_MODEL.logprob("X**2 < 4"),
            _PRODUCT_MODEL.logprob("-2 < X < 2"),
        )

    def test_same_symbol_conjunction_matches_interval(self):
        assert _close(
            _PRODUCT_MODEL.logprob("X > 1 and X < 3"),
            _PRODUCT_MODEL.logprob("1 < X < 3"),
        )

    def test_same_symbol_disjunction_matches_complement(self):
        outside = _PRODUCT_MODEL.prob("X < -1 or X > 1")
        inside = _PRODUCT_MODEL.prob("-1 <= X <= 1")
        assert math.isclose(outside + inside, 1.0, rel_tol=1e-12)
        assert math.isclose(
            _PRODUCT_MODEL.prob("Y > 2 or X < -1 or X > 1"),
            _PRODUCT_MODEL.prob("X > 1 or Y > 2 or X < -1"),
            rel_tol=1e-12,
        )

    def test_duplicate_clauses_answer_like_one(self):
        assert _close(
            _PRODUCT_MODEL.logprob("X < 1 or X < 1 or X < 1"),
            _PRODUCT_MODEL.logprob("X < 1"),
        )
        assert _close(
            _PRODUCT_MODEL.logprob("N == 'a' and N == 'a'"),
            _PRODUCT_MODEL.logprob("N == 'a'"),
        )

    def test_contradiction_has_zero_probability(self):
        event = parse_event("X < 1 and X > 2", _PRODUCT_MODEL.variables)
        for assignment in _assignments(0):
            assert not event.evaluate(assignment)
        assert _PRODUCT_MODEL.logprob(event) == -math.inf
        assert _PRODUCT_MODEL.logprob("X < 0 and X > 1") == -math.inf


class TestFactorisation:
    def test_independent_conjunction_factors_into_scopes(self):
        model = _INDEPENDENT_MODEL
        joint = model.logprob("X < 2 and Y > -1 and Z < 3 and U > 1")
        parts = sum(
            model.logprob(text) for text in ("X < 2", "Y > -1", "Z < 3", "U > 1")
        )
        assert math.isclose(joint, parts, rel_tol=1e-12)

    def test_dependent_scopes_do_not_factor(self):
        model = _INDEPENDENT_MODEL
        joint = model.prob("W == 'a' and X < 1")
        marginals = model.prob("W == 'a'") * model.prob("X < 1")
        assert not math.isclose(joint, marginals, rel_tol=1e-3)
        # The joint is the mixture weight times the branch's conditional.
        branch = model.condition("W == 'a'").prob("X < 1")
        assert math.isclose(joint, 0.4 * branch, rel_tol=1e-12)

    def test_condition_chain_order_lands_on_same_posterior(self):
        model = _INDEPENDENT_MODEL
        forward = model.condition("X < 1").condition("Y > 0")
        backward = model.condition("Y > 0").condition("X < 1")
        for query in ("W == 'a'", "X < 0", "Y > 1", "M == 'hi'"):
            assert math.isclose(
                forward.logprob(query), backward.logprob(query), rel_tol=1e-12
            )

    def test_conditioning_one_scope_leaves_others_untouched(self):
        model = _INDEPENDENT_MODEL
        posterior = model.condition("Y > 0 and Z < 2")
        for query in ("W == 'a'", "X < 1", "U > 1", "M == 'mid'"):
            assert math.isclose(
                posterior.logprob(query), model.logprob(query), rel_tol=1e-12
            )
