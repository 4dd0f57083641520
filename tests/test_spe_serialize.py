"""Round-trip tests for JSON serialization of sum-product expressions."""

import math

import pytest

from repro.distributions import atomic
from repro.distributions import bernoulli
from repro.distributions import choice
from repro.distributions import normal
from repro.distributions import poisson
from repro.distributions import uniform
from repro.engine import SpplModel
from repro.spe import Leaf
from repro.spe import spe_from_dict
from repro.spe import spe_from_json
from repro.spe import spe_product
from repro.spe import spe_sum
from repro.spe import spe_to_dict
from repro.spe import spe_to_json
from repro.spe.serialize import SerializationError
from repro.spe.serialize import distribution_from_dict
from repro.spe.serialize import distribution_to_dict
from repro.spe.serialize import transform_from_dict
from repro.spe.serialize import transform_to_dict
from repro.transforms import Id
from repro.transforms import exp
from repro.transforms import log
from repro.transforms import sqrt

X = Id("X")
Y = Id("Y")


def _assert_same_distribution(original, restored, events):
    for event in events:
        assert restored.prob(event) == pytest.approx(original.prob(event), abs=1e-12)


class TestTransformSerialization:
    @pytest.mark.parametrize(
        "transform",
        [
            X,
            2 * X + 1,
            X ** 3 - 4 * X,
            1 / X,
            abs(X),
            sqrt(X),
            exp(X, 2.0),
            log(X, 10.0),
            5 * sqrt(X) + 11,
            1 / exp(X ** 2),
        ],
        ids=lambda t: type(t).__name__ + repr(getattr(t, "coeffs", "")),
    )
    def test_round_trip_evaluates_identically(self, transform):
        restored = transform_from_dict(transform_to_dict(transform))
        for x in (-2.0, -0.5, 0.3, 1.0, 4.0):
            original_value = transform.evaluate(x)
            restored_value = restored.evaluate(x)
            if math.isnan(original_value):
                assert math.isnan(restored_value)
            else:
                assert restored_value == pytest.approx(original_value)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SerializationError):
            transform_from_dict({"kind": "mystery"})

    def test_payload_polynomial_degree_is_bounded(self):
        # A shipped payload is a trust boundary too: its coefficients
        # are checked before any query can solve the polynomial.
        from repro.transforms import PolynomialDegreeError

        payload = transform_to_dict(X ** 2)
        payload["coeffs"] = [0.0] * 100000 + [1.0]
        with pytest.raises(PolynomialDegreeError):
            transform_from_dict(payload)


class TestDistributionSerialization:
    @pytest.mark.parametrize(
        "dist",
        [
            normal(1, 2),
            uniform(0, 4),
            poisson(3),
            bernoulli(0.25),
            atomic(7),
            choice({"a": 0.2, "b": 0.8}),
        ],
        ids=lambda d: type(d).__name__,
    )
    def test_round_trip_preserves_probabilities(self, dist):
        from repro.sets import interval

        restored = distribution_from_dict(distribution_to_dict(dist))
        assert type(restored) is type(dist)
        assert restored.logprob(interval(0, 2)) == pytest.approx(
            dist.logprob(interval(0, 2)), abs=1e-12
        )

    def test_truncated_distribution_round_trip(self):
        from repro.distributions import RealDistribution
        from repro.sets import interval

        dist = RealDistribution(normal(0, 1).dist, lo=0.5, hi=2.0)
        restored = distribution_from_dict(distribution_to_dict(dist))
        assert restored.prob(interval(0.5, 1.0)) == pytest.approx(
            dist.prob(interval(0.5, 1.0))
        )


class TestSpeSerialization:
    def test_leaf_round_trip(self):
        leaf = Leaf("X", normal(0, 2), env={"Z": X ** 2 + 1})
        restored = spe_from_dict(spe_to_dict(leaf))
        _assert_same_distribution(leaf, restored, [X > 0, Id("Z") < 3])

    def test_mixture_round_trip(self):
        model = spe_sum(
            [
                spe_product([Leaf("X", uniform(0, 1)), Leaf("Y", bernoulli(0.2))]),
                spe_product([Leaf("X", normal(5, 1)), Leaf("Y", bernoulli(0.9))]),
            ],
            [math.log(0.3), math.log(0.7)],
        )
        restored = spe_from_json(spe_to_json(model))
        _assert_same_distribution(
            model, restored, [X < 1, Y == 1, (X > 4) & (Y == 1), (X < 0.5) | (Y == 0)]
        )

    def test_sharing_is_preserved(self):
        shared = Leaf("Y", bernoulli(0.5))
        model = spe_sum(
            [
                spe_product([Leaf("X", uniform(0, 1)), shared]),
                spe_product([Leaf("X", uniform(2, 3)), shared]),
            ],
            [math.log(0.5), math.log(0.5)],
        )
        restored = spe_from_dict(spe_to_dict(model))
        assert restored.size() == model.size()
        assert restored.tree_size() == model.tree_size()

    def test_invalid_payload_rejected(self):
        with pytest.raises(SerializationError):
            spe_from_dict({"format": "something-else"})


class TestModelPersistence:
    def test_posterior_round_trip_through_json(self):
        from repro.workloads import indian_gpa

        model = indian_gpa.model()
        posterior = model.condition(indian_gpa.conditioning_event())
        restored = SpplModel.from_json(posterior.to_json())
        for event in [
            indian_gpa.Nationality == "India",
            indian_gpa.Perfect == 1,
            indian_gpa.GPA > 3.9,
        ]:
            assert restored.prob(event) == pytest.approx(posterior.prob(event))

    def test_save_and_load(self, tmp_path):
        model = SpplModel.from_source("X ~ normal(0, 1)\nY ~ bernoulli(p=0.25)")
        path = tmp_path / "model.json"
        model.save(path)
        restored = SpplModel.load(path)
        assert restored.variables == model.variables
        assert restored.prob(Y == 1) == pytest.approx(0.25)

    def test_loaded_model_supports_further_inference(self):
        model = SpplModel.from_source(
            """
X ~ uniform(0, 10)
if X < 4:
    Y ~ bernoulli(p=0.9)
else:
    Y ~ bernoulli(p=0.1)
"""
        )
        restored = SpplModel.from_json(model.to_json())
        posterior = restored.condition(Y == 1)
        assert posterior.prob(X < 4) == pytest.approx(
            model.condition(Y == 1).prob(X < 4)
        )
        assert len(restored.sample(3, seed=0)) == 3
