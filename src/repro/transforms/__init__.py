"""Univariate transforms of random variables and their preimage solver.

The public surface mirrors Lst. 1b / Appendix C of the paper:

* :func:`Id` -- a program variable (the Identity transform),
* arithmetic on transforms via Python operators (``+``, ``-``, ``*``, ``/``,
  ``**``, ``abs``),
* :func:`sqrt`, :func:`exp`, :func:`log` convenience constructors,
* :class:`Piecewise` for case-defined transforms,
* comparisons (``<``, ``<=``, ``>``, ``>=``, ``==``, ``<<``) which build
  :mod:`repro.events` predicates.

Every transform supports two evaluation surfaces:

* ``evaluate(x)`` -- scalar evaluation; returns NaN where the transform is
  undefined.  This is the **reference semantics**.
* ``evaluate_many(xs)`` -- vectorized evaluation over a 1-D numpy array
  (or anything ``np.asarray`` accepts), returning a float ndarray.  The
  contract is elementwise, bit-for-bit agreement with ``evaluate``:
  ``evaluate_many(xs)[i] == evaluate(float(xs[i]))`` for every ``i``,
  with NaN results at exactly the same (undefined) points and identical
  handling of ``+/-inf`` inputs.  Every concrete subclass implements a
  numpy kernel (Horner evaluation for polynomials, masked branch dispatch
  for piecewise transforms); the base-class fallback is the per-element
  reference loop.  ``evaluate_many`` is the hot path of vectorized bulk
  sampling of derived variables (``Leaf._sample_batch``), and is
  property-tested against the scalar semantics in
  ``tests/test_transforms_evaluate_many.py``.
"""

import math

from .arithmetic import Abs
from .arithmetic import Exp
from .arithmetic import Log
from .arithmetic import Radical
from .arithmetic import Reciprocal
from .base import Transform
from .identity import Id
from .identity import Identity
from .piecewise import Piecewise
from .polynomial import MAX_POLY_DEGREE
from .polynomial import Poly
from .polynomial import PolynomialDegreeError
from .polynomial import poly_lte
from .polynomial import poly_roots
from .polynomial import poly_solve


def sqrt(transform: Transform) -> Transform:
    """Square root of a transform."""
    return Radical(transform, 2)


def exp(transform: Transform, base: float = math.e) -> Transform:
    """Exponential ``base ** transform``."""
    return Exp(transform, base)


def log(transform: Transform, base: float = math.e) -> Transform:
    """Logarithm ``log_base(transform)``."""
    return Log(transform, base)


__all__ = [
    "Abs",
    "Exp",
    "Id",
    "Identity",
    "Log",
    "MAX_POLY_DEGREE",
    "Piecewise",
    "Poly",
    "PolynomialDegreeError",
    "Radical",
    "Reciprocal",
    "Transform",
    "exp",
    "log",
    "poly_lte",
    "poly_roots",
    "poly_solve",
    "sqrt",
]
