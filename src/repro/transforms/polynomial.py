"""Polynomial transforms and the symbolic polynomial inequality solver.

Implements the ``Poly`` constructor of the Transform domain together with the
helper functions of Appendix C.2 (``polySolve``, ``polyLte``): finding the set
of real inputs at which a polynomial equals, or is bounded by, a target value.
Roots of degree <= 2 polynomials are computed exactly; higher degrees use the
companion-matrix solver from numpy (semi-symbolic analysis, as in the
reference implementation).
"""

from __future__ import annotations

import math
from typing import FrozenSet
from typing import List
from typing import Sequence

import numpy as np

from ..sets import EMPTY_SET
from ..sets import FiniteNominal
from ..sets import FiniteReal
from ..sets import Interval
from ..sets import OutcomeSet
from ..sets import Reals
from ..sets import complement
from ..sets import components
from ..sets import intersection
from ..sets import interval
from ..sets import union
from .base import Transform

_ROOT_IMAG_TOL = 1e-9
_ROOT_DEDUP_TOL = 1e-9

#: Largest degree a polynomial transform may reach.  Solving an
#: inequality finds the roots of a companion matrix, cubic in the degree,
#: so an unbounded exponent in event text costs unbounded time and
#: memory; the shipped programs stay at degree 5 or below.
MAX_POLY_DEGREE = 64


class PolynomialDegreeError(ValueError):
    """A polynomial transform would exceed :data:`MAX_POLY_DEGREE`."""


def _check_degree(degree: int) -> None:
    if degree > MAX_POLY_DEGREE:
        raise PolynomialDegreeError(
            "Polynomial degree %d exceeds the bound of %d."
            % (degree, MAX_POLY_DEGREE)
        )


def poly_evaluate(coeffs: Sequence[float], x: float) -> float:
    """Evaluate ``sum_i coeffs[i] * x**i`` using Horner's rule."""
    result = 0.0
    for c in reversed(coeffs):
        result = result * x + c
    return result


def _strip_coeffs(coeffs: Sequence[float]) -> List[float]:
    coeffs = [float(c) for c in coeffs]
    while len(coeffs) > 1 and coeffs[-1] == 0.0:
        coeffs.pop()
    return coeffs


def poly_roots(coeffs: Sequence[float], target: float) -> List[float]:
    """Return the sorted real roots of ``p(x) == target``.

    Degree 0 polynomials (constants) return an empty list; callers must
    handle the "everywhere" / "nowhere" cases separately.
    """
    shifted = list(coeffs)
    shifted[0] = shifted[0] - target
    shifted = _strip_coeffs(shifted)
    scale = max(abs(c) for c in shifted)
    if scale > 0:
        shifted = [c / scale for c in shifted]
    # Leading coefficients that are negligible relative to the largest
    # coefficient only contribute roots far outside the representable range
    # and destroy the conditioning of the companion-matrix solver; treat
    # them as zero.
    while len(shifted) > 1 and abs(shifted[-1]) < 1e-12:
        shifted.pop()
    degree = len(shifted) - 1
    if degree == 0:
        return []
    if degree == 1:
        root = -shifted[0] / shifted[1]
        return [root] if math.isfinite(root) else []
    if degree == 2:
        c0, c1, c2 = shifted
        disc = c1 * c1 - 4.0 * c2 * c0
        if disc < 0:
            return []
        if disc == 0:
            return [-c1 / (2.0 * c2)]
        # Numerically stable quadratic formula: avoids catastrophic
        # cancellation when the leading coefficient is tiny.
        sq = math.sqrt(disc)
        q = -(c1 + math.copysign(sq, c1)) / 2.0
        r1 = q / c2
        r2 = c0 / q if q != 0.0 else -c1 / (2.0 * c2)
        return sorted(r for r in (r1, r2) if math.isfinite(r))
    raw = np.roots(list(reversed(shifted)))
    real_roots = []
    for root in raw:
        magnitude = max(1.0, abs(root))
        if abs(root.imag) < _ROOT_IMAG_TOL * magnitude and math.isfinite(root.real):
            real_roots.append(float(root.real))
    real_roots.sort()
    deduped: List[float] = []
    for r in real_roots:
        if not deduped or abs(r - deduped[-1]) > _ROOT_DEDUP_TOL * max(1.0, abs(r)):
            deduped.append(r)
    return deduped


def poly_limits(coeffs: Sequence[float]):
    """Return ``(limit at -inf, limit at +inf)`` of the polynomial."""
    coeffs = _strip_coeffs(coeffs)
    degree = len(coeffs) - 1
    if degree == 0:
        return (coeffs[0], coeffs[0])
    lead = coeffs[-1]
    if degree % 2 == 0:
        lim = math.inf if lead > 0 else -math.inf
        return (lim, lim)
    if lead > 0:
        return (-math.inf, math.inf)
    return (math.inf, -math.inf)


def poly_solve(coeffs: Sequence[float], target: float) -> OutcomeSet:
    """Set of reals where ``p(x) == target`` (``polySolve``)."""
    if math.isinf(target):
        return EMPTY_SET
    stripped = _strip_coeffs(coeffs)
    if len(stripped) == 1:
        return Reals if stripped[0] == target else EMPTY_SET
    roots = poly_roots(coeffs, target)
    if not roots:
        return EMPTY_SET
    return FiniteReal(roots)


def poly_lte(coeffs: Sequence[float], bound: float, strict: bool) -> OutcomeSet:
    """Set of reals where ``p(x) < bound`` (strict) or ``p(x) <= bound``."""
    if bound == math.inf:
        return Reals
    if bound == -math.inf:
        return EMPTY_SET
    stripped = _strip_coeffs(coeffs)
    if len(stripped) == 1:
        constant = stripped[0]
        satisfied = constant < bound if strict else constant <= bound
        return Reals if satisfied else EMPTY_SET
    roots = poly_roots(coeffs, bound)
    boundaries = [-math.inf] + roots + [math.inf]
    pieces: List[OutcomeSet] = []
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        if lo == hi:
            continue
        mid = _midpoint(lo, hi)
        if poly_evaluate(stripped, mid) < bound:
            pieces.append(interval(lo, hi, True, True))
    if not strict and roots:
        pieces.append(FiniteReal(roots))
    if not pieces:
        return EMPTY_SET
    return union(*pieces)


def _midpoint(lo: float, hi: float) -> float:
    if math.isinf(lo) and math.isinf(hi):
        return 0.0
    if math.isinf(lo):
        return hi - max(1.0, abs(hi))
    if math.isinf(hi):
        return lo + max(1.0, abs(lo))
    return (lo + hi) / 2.0


def _poly_compose(outer: Sequence[float], inner: Sequence[float]) -> List[float]:
    """Coefficients of ``p_outer(p_inner(x))``."""
    result = np.array([0.0])
    power = np.array([1.0])
    inner_arr = np.array(list(inner), dtype=float)
    for c in outer:
        term = c * power
        size = max(len(result), len(term))
        result = np.pad(result, (0, size - len(result)))
        term = np.pad(term, (0, size - len(term)))
        result = result + term
        power = np.convolve(power, inner_arr)
    return _strip_coeffs(result.tolist())


class Poly(Transform):
    """Polynomial of a subexpression: ``sum_i coeffs[i] * subexpr**i``."""

    def __init__(self, subexpr: Transform, coeffs: Sequence[float]):
        if not isinstance(subexpr, Transform):
            raise TypeError("Poly subexpr must be a Transform.")
        coeffs = _strip_coeffs(coeffs)
        inner_degree = subexpr.degree if isinstance(subexpr, Poly) else 1
        _check_degree((len(coeffs) - 1) * inner_degree)
        if isinstance(subexpr, Poly):
            coeffs = _poly_compose(coeffs, subexpr.coeffs)
            subexpr = subexpr.subexpr
        self._subexpr = subexpr
        self.coeffs = tuple(coeffs)

    @property
    def subexpr(self) -> Transform:
        return self._subexpr

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def get_symbols(self) -> FrozenSet[str]:
        return self._subexpr.get_symbols()

    def substitute(self, symbol: str, replacement: Transform) -> Transform:
        return Poly(self._subexpr.substitute(symbol, replacement), self.coeffs)

    def rename(self, mapping) -> Transform:
        return Poly(self._subexpr.rename(mapping), self.coeffs)

    def evaluate(self, x: float) -> float:
        inner = self._subexpr.evaluate(x)
        if math.isnan(inner):
            return math.nan
        return poly_evaluate(self.coeffs, inner)

    def evaluate_many(self, xs) -> "np.ndarray":
        inner = self._subexpr.evaluate_many(xs)
        # Same Horner recurrence (and therefore the same rounding and the
        # same 0.0*inf=NaN corner) as the scalar poly_evaluate.
        result = np.zeros_like(inner, dtype=float)
        with np.errstate(invalid="ignore", over="ignore"):
            for c in reversed(self.coeffs):
                result = result * inner + c
        return result

    def invert_level(self, values: OutcomeSet) -> OutcomeSet:
        pieces: List[OutcomeSet] = []
        for piece in components(values):
            if isinstance(piece, FiniteNominal):
                continue
            if isinstance(piece, FiniteReal):
                for r in piece.values:
                    pieces.append(poly_solve(self.coeffs, r))
            elif isinstance(piece, Interval):
                upper = poly_lte(self.coeffs, piece.right, strict=piece.right_open)
                lower = poly_lte(self.coeffs, piece.left, strict=not piece.left_open)
                pieces.append(
                    intersection(upper, complement(lower, universe="real"))
                )
            else:
                raise TypeError("Unexpected outcome component %r." % (piece,))
        if not pieces:
            return EMPTY_SET
        return union(*pieces)

    def _key(self):
        return ("Poly", self._subexpr._key(), self.coeffs)

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0 and len(self.coeffs) > 1:
                continue
            if i == 0:
                terms.append("%g" % (c,))
            elif i == 1:
                terms.append("%g*%r" % (c, self._subexpr))
            else:
                terms.append("%g*%r**%d" % (c, self._subexpr, i))
        return "Poly(%s)" % (" + ".join(terms) if terms else "0")


# ---------------------------------------------------------------------------
# Constructors used by the Transform operator overloads.
# ---------------------------------------------------------------------------

def poly_scale(t, scale) -> Transform:
    """Return the transform ``scale * t``."""
    scale = float(scale)
    if isinstance(t, Poly):
        return Poly(t.subexpr, [scale * c for c in t.coeffs])
    if isinstance(t, Transform):
        return Poly(t, [0.0, scale])
    raise TypeError("poly_scale expects a Transform, got %r." % (t,))


def poly_add(t: Transform, other) -> Transform:
    """Return the transform ``t + other`` (``other`` a number or transform)."""
    if isinstance(other, (int, float)) and not isinstance(other, bool):
        if isinstance(t, Poly):
            coeffs = list(t.coeffs)
            coeffs[0] += float(other)
            return Poly(t.subexpr, coeffs)
        return Poly(t, [float(other), 1.0])
    if isinstance(other, Transform):
        left = t if isinstance(t, Poly) else Poly(t, [0.0, 1.0])
        right = other if isinstance(other, Poly) else Poly(other, [0.0, 1.0])
        if not left.subexpr.symb_eq(right.subexpr):
            raise TypeError(
                "Cannot add transforms with different subexpressions (%r, %r); "
                "multivariate or mixed transforms are ruled out by restriction (R3)."
                % (t, other)
            )
        size = max(len(left.coeffs), len(right.coeffs))
        coeffs = [0.0] * size
        for i, c in enumerate(left.coeffs):
            coeffs[i] += c
        for i, c in enumerate(right.coeffs):
            coeffs[i] += c
        return Poly(left.subexpr, coeffs)
    raise TypeError("Cannot add %r to a transform." % (other,))


def poly_power(t: Transform, exponent: int) -> Transform:
    """Return the transform ``t ** exponent`` for a positive integer exponent."""
    if exponent < 1:
        raise ValueError("poly_power requires a positive integer exponent.")
    _check_degree(exponent)
    coeffs = [0.0] * exponent + [1.0]
    return Poly(t, coeffs)
