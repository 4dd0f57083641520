"""Unit tests for the primitive distributions layer."""

import math

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import given
from hypothesis import settings
from hypothesis import strategies as st

from repro.distributions import AtomicDistribution
from repro.distributions import DiscreteDistribution
from repro.distributions import DiscreteFinite
from repro.distributions import NEG_INF
from repro.distributions import NominalDistribution
from repro.distributions import RealDistribution
from repro.distributions import atomic
from repro.distributions import bernoulli
from repro.distributions import beta
from repro.distributions import binomial
from repro.distributions import cauchy
from repro.distributions import choice
from repro.distributions import discrete
from repro.distributions import exponential
from repro.distributions import gamma
from repro.distributions import geometric
from repro.distributions import laplace
from repro.distributions import log_add
from repro.distributions import log_subtract
from repro.distributions import lognormal
from repro.distributions import negative_binomial
from repro.distributions import normal
from repro.distributions import poisson
from repro.distributions import randint
from repro.distributions import safe_log
from repro.distributions import student_t
from repro.distributions import truncated_normal
from repro.distributions import uniform
from repro.distributions.factories import scipydist
from repro.distributions.real import _interval_probability
from repro.sets import FiniteNominal
from repro.sets import FiniteReal
from repro.sets import Interval
from repro.sets import components
from repro.sets import intersection
from repro.sets import interval
from repro.sets import union
from repro.spe import Leaf
from repro.transforms import Id
from repro.transforms import exp as exp_transform


RNG = np.random.default_rng(0)


class TestLogArithmetic:
    def test_log_add_empty(self):
        assert log_add([]) == NEG_INF

    def test_log_add_matches_linear(self):
        values = [0.1, 0.2, 0.05]
        assert math.exp(log_add([math.log(v) for v in values])) == pytest.approx(sum(values))

    def test_log_add_with_neg_inf(self):
        assert log_add([NEG_INF, math.log(0.5)]) == pytest.approx(math.log(0.5))

    def test_log_subtract(self):
        assert math.exp(log_subtract(math.log(0.7), math.log(0.2))) == pytest.approx(0.5)
        assert log_subtract(math.log(0.5), math.log(0.5)) == NEG_INF
        with pytest.raises(ValueError):
            log_subtract(math.log(0.2), math.log(0.7))


class TestRealDistribution:
    def test_interval_probability(self):
        d = normal(0, 1)
        assert d.prob(interval(-1, 1)) == pytest.approx(0.6826894921, rel=1e-6)

    def test_point_probability_zero(self):
        assert normal(0, 1).logprob(FiniteReal([0])) == NEG_INF

    def test_nominal_probability_zero(self):
        assert normal(0, 1).logprob(FiniteNominal(["a"])) == NEG_INF

    def test_tail_precision(self):
        d = normal(0, 1)
        p = d.prob(interval(8, math.inf))
        assert 0 < p < 1e-14

    def test_truncation_normalizes(self):
        d = RealDistribution(normal(0, 1).dist, 0, math.inf)
        assert d.prob(interval(0, math.inf)) == pytest.approx(1.0)
        assert d.prob(interval(-math.inf, 0)) == pytest.approx(0.0, abs=1e-12)

    def test_logpdf(self):
        d = normal(0, 1)
        assert d.logpdf(0.0) == pytest.approx(-0.5 * math.log(2 * math.pi))
        assert d.logpdf("a") == NEG_INF

    def test_condition_on_interval(self):
        branches = normal(0, 1).condition(interval(0, 1))
        assert len(branches) == 1
        restricted, log_weight = branches[0]
        assert math.exp(log_weight) == pytest.approx(0.34134, rel=1e-3)
        assert restricted.prob(interval(0, 1)) == pytest.approx(1.0)

    def test_condition_on_union_gives_components(self):
        target = union(interval(-2, -1), interval(1, 2))
        branches = normal(0, 1).condition(target)
        assert len(branches) == 2

    def test_condition_zero_probability(self):
        assert normal(0, 1).condition(FiniteReal([3])) == []

    def test_constrain_returns_atom(self):
        result = normal(0, 1).constrain(0.5)
        assert result is not None
        point, log_density = result
        assert isinstance(point, AtomicDistribution)
        assert log_density == pytest.approx(normal(0, 1).logpdf(0.5))

    def test_constrain_outside_support(self):
        d = RealDistribution(normal(0, 1).dist, 0, 1)
        assert d.constrain(2.0) is None

    def test_sampling_within_support(self):
        d = RealDistribution(normal(0, 1).dist, lo=0.5, hi=2.0)
        samples = d.sample_many(RNG, 200)
        assert all(0.5 <= s <= 2.0 for s in samples)

    def test_invalid_truncation(self):
        with pytest.raises(ValueError):
            RealDistribution(normal(0, 1).dist, 5, 5)


class TestDiscreteDistribution:
    def test_poisson_interval(self):
        d = poisson(4)
        expected = sum(math.exp(d.logpdf(k)) for k in range(0, 3))
        assert d.prob(interval(0, 2)) == pytest.approx(expected)

    def test_open_bounds_handled(self):
        d = poisson(4)
        closed = d.prob(interval(1, 3))
        open_ = d.prob(interval(1, 3, left_open=True, right_open=True))
        assert open_ == pytest.approx(math.exp(d.logpdf(2)))
        assert closed > open_

    def test_finite_set_probability(self):
        d = binomial(10, 0.5)
        assert d.prob(FiniteReal([5])) == pytest.approx(0.24609375)
        assert d.prob(FiniteReal([5.5])) == 0.0

    def test_condition_on_interval_truncates(self):
        branches = poisson(4).condition(interval(2, 6))
        assert len(branches) == 1
        truncated, _ = branches[0]
        assert truncated.prob(interval(2, 6)) == pytest.approx(1.0)
        assert truncated.prob(FiniteReal([1])) == 0.0

    def test_condition_on_points(self):
        branches = poisson(4).condition(FiniteReal([2, 3]))
        assert len(branches) == 1
        finite, _ = branches[0]
        assert isinstance(finite, DiscreteFinite)
        assert finite.prob(FiniteReal([2, 3])) == pytest.approx(1.0)

    def test_constrain(self):
        result = binomial(10, 0.5).constrain(3)
        assert result is not None
        _, log_mass = result
        assert math.exp(log_mass) == pytest.approx(0.1171875)
        assert binomial(10, 0.5).constrain(11) is None

    def test_sampling_integer_support(self):
        d = DiscreteDistribution(poisson(4).dist, lo=2, hi=6)
        samples = d.sample_many(RNG, 200)
        assert all(2 <= s <= 6 for s in samples)
        assert all(float(s).is_integer() for s in samples)


class TestDiscreteFiniteAndAtomic:
    def test_normalization(self):
        d = DiscreteFinite({0: 2.0, 1: 6.0})
        assert d.prob(FiniteReal([1])) == pytest.approx(0.75)

    def test_bernoulli_factory(self):
        d = bernoulli(0.3)
        assert d.prob(FiniteReal([1])) == pytest.approx(0.3)
        assert d.prob(FiniteReal([0])) == pytest.approx(0.7)
        assert bernoulli(0.0).prob(FiniteReal([0])) == pytest.approx(1.0)

    def test_bernoulli_validation(self):
        with pytest.raises(ValueError):
            bernoulli(1.5)

    def test_condition(self):
        d = discrete({1: 0.2, 2: 0.3, 3: 0.5})
        branches = d.condition(interval(2, 3))
        assert len(branches) == 1
        conditioned, log_weight = branches[0]
        assert math.exp(log_weight) == pytest.approx(0.8)
        assert conditioned.prob(FiniteReal([2])) == pytest.approx(0.375)

    def test_condition_empty(self):
        assert discrete({1: 1.0}).condition(interval(5, 6)) == []

    def test_atomic(self):
        d = atomic(4)
        assert d.prob(interval(3, 5)) == 1.0
        assert d.prob(interval(5, 6)) == 0.0
        assert d.logpdf(4.0) == 0.0
        assert d.sample(RNG) == 4.0
        assert d.constrain(4.0) is not None
        assert d.constrain(5.0) is None

    def test_finite_sampling(self):
        d = discrete({1: 0.5, 2: 0.5})
        assert set(d.sample_many(RNG, 50)) <= {1.0, 2.0}


class TestNominalDistribution:
    def test_probability(self):
        d = choice({"a": 0.25, "b": 0.75})
        assert d.prob(FiniteNominal(["a"])) == pytest.approx(0.25)
        assert d.prob(FiniteNominal(["a"], positive=False)) == pytest.approx(0.75)
        assert d.prob(interval(0, 1)) == 0.0

    def test_condition(self):
        d = choice({"a": 0.25, "b": 0.5, "c": 0.25})
        branches = d.condition(FiniteNominal(["a", "b"]))
        conditioned, log_weight = branches[0]
        assert math.exp(log_weight) == pytest.approx(0.75)
        assert conditioned.prob(FiniteNominal(["b"])) == pytest.approx(2.0 / 3.0)

    def test_condition_empty(self):
        assert choice({"a": 1.0}).condition(FiniteNominal(["z"])) == []

    def test_constrain(self):
        result = choice({"a": 0.25, "b": 0.75}).constrain("b")
        assert result is not None
        assert math.exp(result[1]) == pytest.approx(0.75)
        assert choice({"a": 1.0}).constrain("z") is None

    def test_sampling(self):
        d = choice({"a": 0.5, "b": 0.5})
        assert set(d.sample_many(RNG, 50)) <= {"a", "b"}

    def test_validation(self):
        with pytest.raises(ValueError):
            NominalDistribution({})
        with pytest.raises(ValueError):
            NominalDistribution({1: 1.0})


class TestFactories:
    def test_uniform_support(self):
        d = uniform(2, 6)
        assert d.prob(interval(2, 4)) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            uniform(3, 3)

    def test_beta_scaled(self):
        d = beta(2, 2, scale=4)
        assert d.prob(interval(0, 2)) == pytest.approx(0.5)

    def test_gamma(self):
        d = gamma(3, 1)
        assert d.prob(interval(0, math.inf)) == pytest.approx(1.0)

    def test_geometric_support_starts_at_one(self):
        d = geometric(0.5)
        assert d.prob(FiniteReal([0])) == 0.0
        assert d.prob(FiniteReal([1])) == pytest.approx(0.5)

    def test_scipydist_continuous_and_discrete(self):
        d = scipydist("norm", loc=1.0, scale=2.0)
        assert isinstance(d, RealDistribution)
        d2 = scipydist("poisson", 3.0, lo=0, hi=10)
        assert isinstance(d2, DiscreteDistribution)


# ---------------------------------------------------------------------------
# Conditioning's scipy work: the stored median, the one-call interval
# probability and the truncated copies, each against the form it replaced.
# ---------------------------------------------------------------------------

#: Every continuous family of ``distributions/factories.py``.
CONTINUOUS = {
    "normal": normal(1.5, 2.0),
    "uniform": uniform(-1.0, 3.0),
    "beta": beta(2.0, 5.0, scale=4.0, loc=-1.0),
    "gamma": gamma(2.5, scale=1.5),
    "exponential": exponential(0.7),
    "cauchy": cauchy(0.5, 2.0),
    "lognormal": lognormal(0.2, 0.8),
    "student_t": student_t(3.0, loc=-0.5, scale=1.2),
    "laplace": laplace(1.0, 0.5),
    "truncated_normal": truncated_normal(0.0, 1.0, -1.0, 2.5),
    "scipydist": scipydist("logistic", loc=0.3, scale=1.1),
}

#: Interval endpoints: infinities, the median, ints and floats.
ENDPOINTS = st.one_of(
    st.sampled_from([-math.inf, math.inf, "median"]),
    st.integers(-12, 12),
    st.floats(-12.0, 12.0, allow_nan=False, allow_infinity=False),
)


def two_call_probability(dist, left, right):
    """The interval probability as first written: a fresh median, then two
    scalar scipy calls."""
    if right <= left:
        return 0.0
    try:
        median = float(dist.median())
    except Exception:
        median = 0.0
    if left >= median:
        p = float(dist.sf(left)) - float(dist.sf(right))
    else:
        p = float(dist.cdf(right)) - float(dist.cdf(left))
    return max(p, 0.0)


def endpoint(value, dist):
    return dist._median if value == "median" else value


def truncated_parent(family, cut):
    """The family's distribution, or its first truncated copy on ``cut``."""
    parent = CONTINUOUS[family]
    if cut is not None:
        left, right = (endpoint(v, parent) for v in cut)
        branches = parent.condition(interval(left, right)) if left < right else []
        if branches:
            parent = branches[0][0]
    return parent


class TestConditioningScipyWork:
    @pytest.mark.parametrize("family", sorted(CONTINUOUS))
    def test_stored_median_is_the_scipy_median(self, family):
        dist = CONTINUOUS[family]
        assert repr(dist._median) == repr(float(dist.dist.median()))

    @settings(max_examples=400)
    @given(st.sampled_from(sorted(CONTINUOUS)), ENDPOINTS, ENDPOINTS)
    def test_one_call_matches_two_scalar_calls(self, family, left, right):
        dist = CONTINUOUS[family]
        left, right = endpoint(left, dist), endpoint(right, dist)
        one = _interval_probability(dist.dist, left, right, dist._median)
        two = two_call_probability(dist.dist, left, right)
        assert repr(one) == repr(two)

    @settings(max_examples=300)
    @given(
        st.sampled_from(sorted(CONTINUOUS)),
        st.none() | st.tuples(ENDPOINTS, ENDPOINTS),
        ENDPOINTS,
        ENDPOINTS,
    )
    def test_truncated_copies_match_fresh_construction(self, family, cut, left, right):
        parent = truncated_parent(family, cut)
        left, right = sorted((endpoint(left, parent), endpoint(right, parent)))
        assume(left < right)
        target = interval(left, right)
        parts = [
            part for part in components(intersection(target, parent.support()))
            if isinstance(part, Interval)
            and two_call_probability(parent.dist, part.left, part.right) > 0.0
        ]
        branches = parent.condition(target)
        assert len(branches) == len(parts)
        for (copy, log_w), part in zip(branches, parts):
            fresh = RealDistribution(parent.dist, part.left, part.right, name=parent.name)
            assert copy.dist is parent.dist
            assert (copy.lo, copy.hi, copy.name) == (fresh.lo, fresh.hi, fresh.name)
            assert repr(copy._mass) == repr(fresh._mass)
            assert repr(copy._log_mass) == repr(fresh._log_mass)
            assert repr(copy._median) == repr(fresh._median)
            expected = safe_log(
                two_call_probability(parent.dist, part.left, part.right)
            ) - parent._log_mass
            assert repr(log_w) == repr(expected)

    @settings(max_examples=100)
    @given(st.lists(
        st.tuples(st.sampled_from(["square", "exp", "shift"]), st.booleans()),
        max_size=5,
    ))
    def test_leaf_scope_is_symbol_and_environment(self, steps):
        leaf = Leaf("X", normal(0, 1))
        for k, (kind, on_previous) in enumerate(steps):
            base = Id("D%d" % (k - 1,)) if on_previous and k else Id("X")
            expression = {
                "square": base ** 2, "exp": exp_transform(base), "shift": base + k,
            }[kind]
            leaf = Leaf("X", leaf.dist, env=dict(leaf.env, **{"D%d" % (k,): expression}))
            assert leaf.scope == frozenset({leaf.symbol}) | frozenset(leaf.env)
        clause = {"X": interval(0, 1), "D0": interval(0, 4), "Y": interval(0, 1)}
        assert leaf._restrict(clause) == {
            s: v for s, v in clause.items() if s in {leaf.symbol} | set(leaf.env)
        }


#: Every integer-valued family of ``distributions/factories.py``.
INTEGER = {
    "poisson": poisson(4.5),
    "binomial": binomial(12, 0.35),
    "geometric": geometric(0.3),
    "negative_binomial": negative_binomial(3.0, 0.4),
    "randint": randint(-3, 9),
}

#: Integer-range endpoints: infinities, integers and non-integers.
INTEGER_ENDPOINTS = st.one_of(
    st.sampled_from([-math.inf, math.inf]),
    st.integers(-6, 20),
    st.floats(-6.0, 20.0, allow_nan=False, allow_infinity=False),
)


class TestDiscreteTruncation:
    @settings(max_examples=300)
    @given(
        st.sampled_from(sorted(INTEGER)),
        st.none() | st.tuples(INTEGER_ENDPOINTS, INTEGER_ENDPOINTS),
        INTEGER_ENDPOINTS,
        INTEGER_ENDPOINTS,
        st.booleans(),
    )
    def test_truncated_copies_match_fresh_construction(
            self, family, cut, left, right, open_ends):
        parent = INTEGER[family]
        if cut is not None:
            branches = parent.condition(interval(min(cut), max(cut)))
            if branches:
                parent = branches[0][0]
        assume(isinstance(parent, DiscreteDistribution))
        left, right = sorted((left, right))
        assume(left < right)
        target = interval(left, right, open_ends, open_ends)
        branches = parent.condition(target)
        assert all(isinstance(copy, DiscreteDistribution) for copy, _ in branches)
        for copy, log_w in branches:
            fresh = DiscreteDistribution(parent.dist, copy.lo, copy.hi, name=parent.name)
            assert copy.dist is parent.dist
            assert (copy.lo, copy.hi, copy.name) == (fresh.lo, fresh.hi, fresh.name)
            assert repr(copy._mass) == repr(fresh._mass)
            assert repr(copy._log_mass) == repr(fresh._log_mass)
            assert repr(log_w) == repr(safe_log(fresh._mass) - parent._log_mass)
            assert copy.structural_key() == fresh.structural_key()
