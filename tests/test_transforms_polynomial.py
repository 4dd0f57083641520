"""Unit tests for polynomial transforms and the polynomial inequality solver."""

import math

import pytest

from repro.sets import EMPTY_SET
from repro.sets import FiniteReal
from repro.sets import Interval
from repro.sets import Reals
from repro.sets import interval
from repro.transforms import Id
from repro.transforms import MAX_POLY_DEGREE
from repro.transforms import Poly
from repro.transforms import PolynomialDegreeError
from repro.transforms import poly_lte
from repro.transforms import poly_roots
from repro.transforms import poly_solve
from repro.transforms.polynomial import poly_evaluate
from repro.transforms.polynomial import poly_limits

X = Id("X")


class TestPolyRoots:
    def test_linear(self):
        assert poly_roots([1, 2], 5) == [2.0]

    def test_quadratic_two_roots(self):
        # x^2 - 1 == 0
        assert poly_roots([-1, 0, 1], 0) == [-1.0, 1.0]

    def test_quadratic_no_real_roots(self):
        assert poly_roots([1, 0, 1], 0) == []

    def test_quadratic_double_root(self):
        assert poly_roots([1, -2, 1], 0) == [1.0]

    def test_cubic(self):
        # x^3 - 6x^2 + 11x - 6 has roots 1, 2, 3
        roots = poly_roots([-6, 11, -6, 1], 0)
        assert len(roots) == 3
        assert roots == pytest.approx([1.0, 2.0, 3.0], abs=1e-6)

    def test_constant_returns_empty(self):
        assert poly_roots([5], 5) == []


class TestPolySolveAndLte:
    def test_solve_constant_everywhere(self):
        assert poly_solve([5], 5) == Reals

    def test_solve_constant_nowhere(self):
        assert poly_solve([5], 4) is EMPTY_SET

    def test_solve_quadratic(self):
        assert poly_solve([0, 0, 1], 4) == FiniteReal([-2, 2])

    def test_solve_infinite_target(self):
        assert poly_solve([0, 1], math.inf) is EMPTY_SET

    def test_lte_linear(self):
        result = poly_lte([0, 1], 3, strict=False)
        assert result.contains(3)
        assert result.contains(-100)
        assert not result.contains(3.1)

    def test_lte_strict_excludes_boundary(self):
        result = poly_lte([0, 1], 3, strict=True)
        assert not result.contains(3)
        assert result.contains(2.999)

    def test_lte_quadratic(self):
        # x^2 <= 4  <=>  -2 <= x <= 2
        result = poly_lte([0, 0, 1], 4, strict=False)
        assert result.contains(-2) and result.contains(2) and result.contains(0)
        assert not result.contains(2.001)

    def test_lt_infinite_bound(self):
        assert poly_lte([0, 0, 1], math.inf, strict=True) == Reals
        assert poly_lte([0, 0, 1], -math.inf, strict=True) is EMPTY_SET

    def test_lte_constant(self):
        assert poly_lte([2], 3, strict=False) == Reals
        assert poly_lte([4], 3, strict=False) is EMPTY_SET

    def test_limits(self):
        assert poly_limits([0, 0, 1]) == (math.inf, math.inf)
        assert poly_limits([0, 1]) == (-math.inf, math.inf)
        assert poly_limits([0, -1]) == (math.inf, -math.inf)
        assert poly_limits([0, 0, -1]) == (-math.inf, -math.inf)
        assert poly_limits([7]) == (7, 7)

    def test_evaluate_horner(self):
        assert poly_evaluate([1, 2, 3], 2) == 1 + 4 + 12


class TestPolyTransform:
    def test_operator_construction(self):
        t = 2 * X + 3
        assert isinstance(t, Poly)
        assert t.coeffs == (3.0, 2.0)

    def test_power_construction(self):
        t = X ** 3
        assert t.coeffs == (0.0, 0.0, 0.0, 1.0)

    def test_addition_of_polynomials(self):
        t = -(X ** 3) + X ** 2 + 6 * X
        assert t.coeffs == (0.0, 6.0, 1.0, -1.0)

    def test_subtraction_and_negation(self):
        t = (X + 1) - (2 * X)
        assert t.coeffs == (1.0, -1.0)

    def test_composition_collapses_nested_polys(self):
        t = (X + 1) ** 2
        assert isinstance(t, Poly)
        assert t.subexpr.symb_eq(X)
        assert t.coeffs == (1.0, 2.0, 1.0)

    def test_power_degree_is_bounded(self):
        assert (X ** MAX_POLY_DEGREE).degree == MAX_POLY_DEGREE
        with pytest.raises(PolynomialDegreeError):
            X ** (MAX_POLY_DEGREE + 1)

    def test_composed_degree_is_bounded(self):
        # The bound is on the composed degree, checked before the
        # coefficients are multiplied out.
        assert ((X ** 8) ** 8).degree == 64 == MAX_POLY_DEGREE
        with pytest.raises(PolynomialDegreeError):
            (X ** 40) ** 40

    def test_division_by_scalar(self):
        t = X / 4
        assert t.coeffs == (0.0, 0.25)

    def test_multiplying_transforms_rejected(self):
        with pytest.raises(TypeError):
            X * X

    def test_adding_unrelated_transforms_rejected(self):
        from repro.transforms import sqrt

        with pytest.raises(TypeError):
            X + sqrt(X)

    def test_evaluate(self):
        t = -(X ** 3) + X ** 2 + 6 * X
        assert t.evaluate(2.0) == pytest.approx(8.0)

    def test_invert_point(self):
        t = X ** 2
        preimage = t.invert(FiniteReal([4]))
        assert preimage == FiniteReal([-2, 2])

    def test_invert_interval(self):
        t = X ** 2
        preimage = t.invert(interval(1, 4))
        assert preimage.contains(-2) and preimage.contains(1.5)
        assert not preimage.contains(0.5)
        assert not preimage.contains(2.5)

    def test_invert_respects_open_bounds(self):
        t = X ** 2
        preimage = t.invert(Interval(1, 4, left_open=True, right_open=True))
        assert not preimage.contains(1)
        assert not preimage.contains(2)
        assert preimage.contains(1.5)

    def test_invert_drops_nominal_values(self):
        from repro.sets import FiniteNominal

        assert (X ** 2).invert(FiniteNominal(["a"])) is EMPTY_SET

    def test_symbols(self):
        assert (X ** 2 + 1).get_symbols() == frozenset(["X"])

    def test_substitute(self):
        t = X ** 2
        substituted = t.substitute("X", Id("Y") + 1)
        assert substituted.get_symbols() == frozenset(["Y"])
        assert substituted.evaluate(1.0) == pytest.approx(4.0)

    def test_rename(self):
        t = (X ** 2).rename({"X": "W"})
        assert t.get_symbols() == frozenset(["W"])

    def test_repr_is_stringable(self):
        assert "Poly" in repr(X ** 2 + 1)
