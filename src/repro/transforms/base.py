"""Base class for univariate transforms of random variables.

A :class:`Transform` is a symbolic expression denoting a (possibly
many-to-one) real function of a single program variable.  The terminal
subexpression of every transform is an :class:`~repro.transforms.identity.Identity`
naming that variable.  Transforms support:

* numeric evaluation (``t(x)``) and vectorized evaluation over numpy
  arrays (``t.evaluate_many(xs)``), with the scalar ``evaluate`` as the
  reference semantics,
* exact preimage computation (``t.invert(values)``) used by the inference
  engine to solve predicates on transformed variables,
* an operator-overloading DSL for building transforms and events, e.g.
  ``(Id('X')**2 + 3*Id('X') < 4) | (Id('X') > 10)``.
"""

from __future__ import annotations

import math
from abc import ABC
from abc import abstractmethod
from fractions import Fraction
from typing import FrozenSet

import numpy as np

from ..sets import EMPTY_SET
from ..sets import FiniteNominal
from ..sets import FiniteReal
from ..sets import OutcomeSet
from ..sets import Reals
from ..sets import interval
from ..sets import union


class Transform(ABC):
    """A univariate real transform in the SPPL core calculus (Lst. 1b)."""

    # -- Structure ----------------------------------------------------------

    @property
    @abstractmethod
    def subexpr(self) -> "Transform":
        """Return the immediate subexpression (self for Identity)."""

    @abstractmethod
    def get_symbols(self) -> FrozenSet[str]:
        """Return the set of variable names appearing in this transform."""

    @property
    def symbol(self) -> str:
        """Return the unique variable name this transform is defined over."""
        symbols = self.get_symbols()
        if len(symbols) != 1:
            raise ValueError("Transform %r has no unique symbol." % (self,))
        return next(iter(symbols))

    @abstractmethod
    def substitute(self, symbol: str, replacement: "Transform") -> "Transform":
        """Replace ``Identity(symbol)`` with ``replacement`` throughout."""

    @abstractmethod
    def rename(self, mapping) -> "Transform":
        """Rename variables according to ``mapping`` (dict of old -> new)."""

    # -- Semantics ----------------------------------------------------------

    @abstractmethod
    def evaluate(self, x: float) -> float:
        """Evaluate the transform at ``x``; NaN where undefined."""

    def evaluate_many(self, xs) -> "np.ndarray":
        """Vectorized :meth:`evaluate` over a 1-D array of inputs.

        The contract is extensional equality with the scalar semantics:
        ``evaluate_many(xs)[i]`` equals ``evaluate(float(xs[i]))`` for
        every ``i``, bit-for-bit, including NaN (undefined points) and
        ``+/-inf`` inputs.  Subclasses override this with a numpy kernel;
        this base implementation is the per-element reference loop (kept as
        the fallback for exotic transforms and as the baseline the property
        tests and benchmarks compare against).
        """
        arr = np.asarray(xs, dtype=float)
        return np.array([self.evaluate(float(x)) for x in arr], dtype=float)

    @abstractmethod
    def invert_level(self, values: OutcomeSet) -> OutcomeSet:
        """One-level preimage: values of the subexpression mapping into ``values``."""

    def invert(self, values: OutcomeSet) -> OutcomeSet:
        """Full preimage of ``values`` under this transform (``preimg``)."""
        pulled = self.invert_level(values)
        return self.subexpr.invert(pulled)

    def domain(self) -> OutcomeSet:
        """Set of base-variable values at which the transform is defined."""
        return self.invert(Reals)

    def __call__(self, x) -> float:
        if isinstance(x, str):
            return math.nan
        return self.evaluate(float(x))

    # -- Hashing and structural equality ------------------------------------

    @abstractmethod
    def _key(self):
        """Return a hashable structural key."""

    def __hash__(self) -> int:
        return hash(self._key())

    def symb_eq(self, other) -> bool:
        """Structural equality with another transform."""
        return isinstance(other, Transform) and self._key() == other._key()

    # -- Operator overloading: arithmetic -----------------------------------

    def __add__(self, other):
        from .polynomial import poly_add

        return poly_add(self, other)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        from .polynomial import poly_add
        from .polynomial import poly_scale

        return poly_add(self, poly_scale(other, -1) if isinstance(other, Transform) else -other)

    def __rsub__(self, other):
        from .polynomial import poly_add
        from .polynomial import poly_scale

        return poly_add(poly_scale(self, -1), other)

    def __mul__(self, other):
        from .polynomial import poly_scale

        if isinstance(other, Transform):
            raise TypeError(
                "Multivariate transforms are not expressible in SPPL (R3); "
                "cannot multiply two transforms."
            )
        return poly_scale(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        from .polynomial import poly_scale

        return poly_scale(self, -1)

    def __pos__(self):
        return self

    def __truediv__(self, other):
        from .polynomial import poly_scale

        if isinstance(other, Transform):
            raise TypeError(
                "Multivariate transforms are not expressible in SPPL (R3); "
                "cannot divide by a transform."
            )
        return poly_scale(self, 1.0 / other)

    def __rtruediv__(self, other):
        from .arithmetic import Reciprocal
        from .polynomial import poly_scale

        return poly_scale(Reciprocal(self), other)

    def __pow__(self, exponent):
        from .arithmetic import Radical
        from .arithmetic import Reciprocal
        from .polynomial import poly_power

        if isinstance(exponent, Fraction):
            if exponent.numerator == 1 and exponent.denominator > 1:
                return Radical(self, exponent.denominator)
            if exponent.numerator == -1 and exponent.denominator > 1:
                return Reciprocal(Radical(self, exponent.denominator))
            exponent = float(exponent)
        if isinstance(exponent, int) or (
            isinstance(exponent, float) and float(exponent).is_integer()
        ):
            exponent = int(exponent)
            if exponent > 0:
                return poly_power(self, exponent)
            if exponent == 0:
                return poly_power(self, 1) * 0 + 1
            if exponent == -1:
                return Reciprocal(self)
            return poly_power(Reciprocal(self), -exponent)
        if isinstance(exponent, float):
            frac = Fraction(exponent).limit_denominator(64)
            if math.isclose(float(frac), exponent, rel_tol=1e-12):
                return self.__pow__(frac)
        raise TypeError("Unsupported exponent %r for transform." % (exponent,))

    def __abs__(self):
        from .arithmetic import Abs

        return Abs(self)

    # -- Operator overloading: events ---------------------------------------

    def __lt__(self, other):
        return self._comparison_event(interval(-math.inf, _as_float(other), True, True))

    def __le__(self, other):
        return self._comparison_event(interval(-math.inf, _as_float(other), True, False))

    def __gt__(self, other):
        return self._comparison_event(interval(_as_float(other), math.inf, True, True))

    def __ge__(self, other):
        return self._comparison_event(interval(_as_float(other), math.inf, False, True))

    def __eq__(self, other):
        if isinstance(other, Transform):
            return self._key() == other._key()
        if other is None:
            return False
        return self._comparison_event(_as_outcome_set(other))

    def __ne__(self, other):
        if isinstance(other, Transform):
            return self._key() != other._key()
        if other is None:
            return True
        from ..sets import complement

        return self._comparison_event(complement(_as_outcome_set(other), universe="both"))

    def __lshift__(self, other):
        """Containment event: ``X << {'a', 'b'}`` or ``X << {1, 2, 3}``."""
        return self._comparison_event(_as_outcome_set(other))

    def _comparison_event(self, values: OutcomeSet):
        from ..events import Containment

        return Containment(self, values)

    def __bool__(self):
        raise TypeError(
            "Transforms have no truth value; use comparison operators to "
            "construct events."
        )


def _as_float(value) -> float:
    if isinstance(value, bool):
        return float(int(value))
    if isinstance(value, (int, float)):
        return float(value)
    raise TypeError("Expected a number for comparison, got %r." % (value,))


def _as_outcome_set(value) -> OutcomeSet:
    """Coerce a Python value into an outcome set for event construction."""
    if isinstance(value, OutcomeSet):
        return value
    if isinstance(value, str):
        return FiniteNominal([value])
    if isinstance(value, bool):
        return FiniteReal([int(value)])
    if isinstance(value, (int, float)):
        return FiniteReal([value])
    if isinstance(value, (set, frozenset, list, tuple)):
        strings = [v for v in value if isinstance(v, str)]
        numbers = [v for v in value if isinstance(v, bool)] + [
            v for v in value if isinstance(v, (int, float)) and not isinstance(v, bool)
        ]
        pieces = []
        if strings:
            pieces.append(FiniteNominal(strings))
        if numbers:
            pieces.append(FiniteReal([float(int(v)) if isinstance(v, bool) else v for v in numbers]))
        if not pieces:
            return EMPTY_SET
        return union(*pieces)
    raise TypeError("Cannot interpret %r as a set of outcomes." % (value,))

