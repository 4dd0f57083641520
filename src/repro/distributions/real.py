"""Continuous real distributions (``DistR``) and real point masses (atoms)."""

from __future__ import annotations

import math
from typing import List
from typing import Optional
from typing import Tuple

import numpy as np

from ..sets import EMPTY_SET
from ..sets import FiniteNominal
from ..sets import FiniteReal
from ..sets import Interval
from ..sets import OutcomeSet
from ..sets import components
from ..sets import intersection
from ..sets import interval
from .base import Distribution
from .base import NEG_INF
from .base import log_add
from .base import safe_log
from .families import as_leaf_dist


def _interval_probability(dist, left: float, right: float, median: float) -> float:
    """Probability that a continuous leaf variable lies in ``(left, right)``.

    Uses the survival function in the upper tail (``left`` at or above
    ``median``, the distribution's median stored by
    :class:`RealDistribution`) to retain precision for rare events, the
    cdf below.  Both endpoints go in one two-element call.
    """
    if right <= left:
        return 0.0
    ends = np.array((left, right), dtype=float)
    if left >= median:
        upper = dist.sf(ends)
        p = float(upper[0]) - float(upper[1])
    else:
        lower = dist.cdf(ends)
        p = float(lower[1]) - float(lower[0])
    return max(p, 0.0)


class RealDistribution(Distribution):
    """A continuous family distribution restricted to an interval.

    ``dist`` is a frozen continuous family of
    :mod:`~repro.distributions.families` (a frozen ``scipy.stats``
    distribution is wrapped); ``lo`` and ``hi`` give the (possibly
    infinite) truncation interval, which must have positive probability
    under ``dist``.  The median of ``dist`` is computed once here and
    shared by every truncated copy :meth:`condition` makes.
    """

    is_continuous = True

    def __init__(self, dist, lo: float = -math.inf, hi: float = math.inf, name: str = None):
        self.dist = dist = as_leaf_dist(dist)
        self.lo = float(lo)
        self.hi = float(hi)
        self.name = name or dist.name
        if not self.lo < self.hi:
            raise ValueError("RealDistribution requires lo < hi.")
        try:
            self._median = float(dist.median())
        except Exception:  # pragma: no cover - defensive for exotic dists
            self._median = 0.0
        self._mass = _interval_probability(dist, self.lo, self.hi, self._median)
        if not self._mass > 0.0:  # NaN when the parameters are invalid
            raise ValueError(
                "Invalid parameters for %r: its probabilities are undefined."
                % (dist,)
                if math.isnan(self._mass)
                else "Truncation interval [%r, %r] has zero probability." % (lo, hi)
            )
        self._log_mass = math.log(self._mass)

    def _truncated(self, left: float, right: float, mass: float) -> "RealDistribution":
        """A copy restricted to ``[left, right]``, whose probability under
        ``dist`` is the already-computed positive ``mass``."""
        copy = object.__new__(RealDistribution)
        copy.dist = self.dist
        copy.lo = float(left)
        copy.hi = float(right)
        copy.name = self.name
        copy._median = self._median
        copy._mass = mass
        copy._log_mass = math.log(mass)
        return copy

    # -- Core interface ------------------------------------------------------

    def support(self) -> OutcomeSet:
        return interval(self.lo, self.hi)

    def structural_key(self) -> tuple:
        frozen = self.dist
        return (
            "real_scipy",
            frozen.name,
            tuple(frozen.args),
            tuple(sorted(frozen.kwds.items())),
            self.lo,
            self.hi,
        )

    def sample(self, rng) -> float:
        u_lo = float(self.dist.cdf(self.lo))
        u_hi = float(self.dist.cdf(self.hi))
        u = rng.uniform(u_lo, u_hi)
        return float(self.dist.ppf(u))

    def sample_many(self, rng, n: int):
        u_lo = float(self.dist.cdf(self.lo))
        u_hi = float(self.dist.cdf(self.hi))
        u = rng.uniform(u_lo, u_hi, size=n)
        return np.asarray(self.dist.ppf(u), dtype=float)

    def logprob(self, values: OutcomeSet) -> float:
        log_terms: List[float] = []
        for piece in components(values):
            if isinstance(piece, Interval):
                clipped = intersection(piece, self.support())
                for part in components(clipped):
                    if isinstance(part, Interval):
                        p = _interval_probability(
                            self.dist, part.left, part.right, self._median)
                        log_terms.append(safe_log(p))
            # Finite real sets and nominal sets have probability zero.
        return log_add(log_terms) - self._log_mass if log_terms else NEG_INF

    def logpdf(self, value) -> float:
        if isinstance(value, str):
            return NEG_INF
        x = float(value)
        if not self.support().contains(x):
            return NEG_INF
        return float(self.dist.logpdf(x)) - self._log_mass

    def condition(self, values: OutcomeSet) -> List[Tuple[Distribution, float]]:
        """One truncated copy per interval of ``values`` with positive mass,
        with its log weight relative to this distribution.

        Each part's probability is computed once: it is both the branch
        weight and the copy's ``_mass`` (see :meth:`_truncated`).
        """
        results: List[Tuple[Distribution, float]] = []
        for piece in components(values):
            if not isinstance(piece, Interval):
                continue
            clipped = intersection(piece, self.support())
            for part in components(clipped):
                if not isinstance(part, Interval):
                    continue
                p = _interval_probability(
                    self.dist, part.left, part.right, self._median)
                log_w = safe_log(p) - self._log_mass
                if log_w == NEG_INF:
                    continue
                results.append((self._truncated(part.left, part.right, p), log_w))
        return results

    def constrain(self, value) -> Optional[Tuple[Distribution, float]]:
        if isinstance(value, str):
            return None
        x = float(value)
        log_density = self.logpdf(x)
        if log_density == NEG_INF:
            return None
        return (AtomicDistribution(x), log_density)

    def __repr__(self) -> str:
        return "RealDistribution(%s, lo=%g, hi=%g)" % (self.name, self.lo, self.hi)


class AtomicDistribution(Distribution):
    """A point mass at a single real value (``atomic(v)``)."""

    is_continuous = False

    def __init__(self, value: float):
        self.value = float(value)

    def support(self) -> OutcomeSet:
        return FiniteReal([self.value])

    def structural_key(self) -> tuple:
        return ("atomic", self.value)

    def sample(self, rng) -> float:
        return self.value

    def sample_many(self, rng, n: int):
        return np.full(n, self.value, dtype=float)

    def logprob(self, values: OutcomeSet) -> float:
        return 0.0 if values.contains(self.value) else NEG_INF

    def logpdf(self, value) -> float:
        if isinstance(value, str):
            return NEG_INF
        return 0.0 if float(value) == self.value else NEG_INF

    def condition(self, values: OutcomeSet) -> List[Tuple[Distribution, float]]:
        if values.contains(self.value):
            return [(self, 0.0)]
        return []

    def constrain(self, value) -> Optional[Tuple[Distribution, float]]:
        if not isinstance(value, str) and float(value) == self.value:
            return (self, 0.0)
        return None

    def __repr__(self) -> str:
        return "AtomicDistribution(%g)" % (self.value,)
