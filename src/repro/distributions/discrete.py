"""Integer-valued distributions (``DistI``) and explicit finite distributions."""

from __future__ import annotations

import math
from typing import Dict
from typing import List
from typing import Optional
from typing import Tuple

import numpy as np

from ..sets import FiniteReal
from ..sets import Interval
from ..sets import OutcomeSet
from ..sets import components
from ..sets import interval
from ..sets import union
from .base import Distribution
from .base import NEG_INF
from .base import log_add
from .base import safe_log
from .families import as_leaf_dist


def _integer_bounds(piece: Interval) -> Tuple[float, float]:
    """Smallest and largest integers contained in a real interval."""
    left, right = piece.left, piece.right
    if math.isinf(left):
        lo = -math.inf
    else:
        lo = math.ceil(left)
        if piece.left_open and left == lo:
            lo += 1
    if math.isinf(right):
        hi = math.inf
    else:
        hi = math.floor(right)
        if piece.right_open and right == hi:
            hi -= 1
    return lo, hi


class DiscreteDistribution(Distribution):
    """An integer-valued family distribution restricted to an integer range.

    ``dist`` is a frozen discrete family of
    :mod:`~repro.distributions.families` (a frozen ``scipy.stats``
    distribution is wrapped).
    """

    is_continuous = False

    def __init__(self, dist, lo: float = -math.inf, hi: float = math.inf, name: str = None):
        self.dist = dist = as_leaf_dist(dist)
        self.lo = float(lo)
        self.hi = float(hi)
        self.name = name or dist.name
        if self.hi < self.lo:
            raise ValueError("DiscreteDistribution requires lo <= hi.")
        self._mass = self._raw_range_prob(self.lo, self.hi)
        if self._mass <= 0.0:
            raise ValueError(
                "Truncation range [%r, %r] has zero probability." % (lo, hi)
            )
        self._log_mass = math.log(self._mass)

    def _truncated(self, lo: float, hi: float, mass: float) -> "DiscreteDistribution":
        """A copy restricted to the integers in ``[lo, hi]``, whose
        probability under ``dist`` is the already-computed positive
        ``mass``."""
        copy = object.__new__(DiscreteDistribution)
        copy.dist = self.dist
        copy.lo = float(lo)
        copy.hi = float(hi)
        copy.name = self.name
        copy._mass = mass
        copy._log_mass = math.log(mass)
        return copy

    def _raw_cdf(self, k: float) -> float:
        if k == math.inf:
            return 1.0
        if k == -math.inf:
            return 0.0
        return float(self.dist.cdf(k))

    def _raw_range_prob(self, lo: float, hi: float) -> float:
        """Unnormalized probability of the integers in ``[lo, hi]``."""
        if hi < lo:
            return 0.0
        upper = self._raw_cdf(hi)
        lower = self._raw_cdf(lo - 1) if not math.isinf(lo) else 0.0
        return max(upper - lower, 0.0)

    def _raw_pmf(self, k: float) -> float:
        if not float(k).is_integer():
            return 0.0
        if not (self.lo <= k <= self.hi):
            return 0.0
        return float(self.dist.pmf(k))

    # -- Core interface ------------------------------------------------------

    def support(self) -> OutcomeSet:
        return interval(self.lo, self.hi)

    def structural_key(self) -> tuple:
        frozen = self.dist
        return (
            "discrete_scipy",
            frozen.name,
            tuple(frozen.args),
            tuple(sorted(frozen.kwds.items())),
            self.lo,
            self.hi,
        )

    def sample(self, rng) -> int:
        u_lo = self._raw_cdf(self.lo - 1) if not math.isinf(self.lo) else 0.0
        u_hi = self._raw_cdf(self.hi)
        u = rng.uniform(u_lo, u_hi)
        return int(self.dist.ppf(u))

    def sample_many(self, rng, n: int):
        u_lo = self._raw_cdf(self.lo - 1) if not math.isinf(self.lo) else 0.0
        u_hi = self._raw_cdf(self.hi)
        u = rng.uniform(u_lo, u_hi, size=n)
        return np.asarray(self.dist.ppf(u)).astype(np.int64)

    def logprob(self, values: OutcomeSet) -> float:
        log_terms: List[float] = []
        for piece in components(values):
            if isinstance(piece, Interval):
                lo, hi = _integer_bounds(piece)
                lo = max(lo, self.lo)
                hi = min(hi, self.hi)
                log_terms.append(safe_log(self._raw_range_prob(lo, hi)))
            elif isinstance(piece, FiniteReal):
                for v in piece.values:
                    log_terms.append(safe_log(self._raw_pmf(v)))
        return log_add(log_terms) - self._log_mass if log_terms else NEG_INF

    def logpdf(self, value) -> float:
        if isinstance(value, str):
            return NEG_INF
        return safe_log(self._raw_pmf(float(value))) - self._log_mass

    def condition(self, values: OutcomeSet) -> List[Tuple[Distribution, float]]:
        results: List[Tuple[Distribution, float]] = []
        for piece in components(values):
            if isinstance(piece, Interval):
                lo, hi = _integer_bounds(piece)
                lo = max(lo, self.lo)
                hi = min(hi, self.hi)
                mass = self._raw_range_prob(lo, hi)
                log_w = safe_log(mass) - self._log_mass
                if log_w == NEG_INF:
                    continue
                results.append((self._truncated(lo, hi, mass), log_w))
            elif isinstance(piece, FiniteReal):
                weights = {
                    float(v): self._raw_pmf(v)
                    for v in piece.values
                    if self._raw_pmf(v) > 0.0
                }
                if not weights:
                    continue
                log_w = safe_log(sum(weights.values())) - self._log_mass
                results.append((DiscreteFinite(weights), log_w))
        return results

    def constrain(self, value) -> Optional[Tuple[Distribution, float]]:
        if isinstance(value, str):
            return None
        mass = self._raw_pmf(float(value))
        if mass <= 0.0:
            return None
        return (DiscreteFinite({float(value): 1.0}), math.log(mass) - self._log_mass)

    def __repr__(self) -> str:
        return "DiscreteDistribution(%s, lo=%g, hi=%g)" % (self.name, self.lo, self.hi)


class DiscreteFinite(Distribution):
    """An explicit finite distribution on real (typically integer) values."""

    is_continuous = False

    def __init__(self, weights: Dict[float, float]):
        if not weights:
            raise ValueError("DiscreteFinite requires at least one value.")
        total = float(sum(weights.values()))
        if total <= 0.0:
            raise ValueError("DiscreteFinite weights must have positive total mass.")
        self.probabilities = {float(v): w / total for v, w in weights.items() if w > 0.0}
        if not self.probabilities:
            raise ValueError("DiscreteFinite requires a positive-probability value.")

    def support(self) -> OutcomeSet:
        return FiniteReal(self.probabilities.keys())

    def structural_key(self) -> tuple:
        return ("finite", tuple(sorted(self.probabilities.items())))

    def sample(self, rng) -> float:
        values = sorted(self.probabilities)
        probs = [self.probabilities[v] for v in values]
        index = rng.choice(len(values), p=probs)
        return float(values[int(index)])

    def sample_many(self, rng, n: int):
        values = sorted(self.probabilities)
        probs = [self.probabilities[v] for v in values]
        indexes = rng.choice(len(values), size=n, p=probs)
        return np.asarray(values, dtype=float)[indexes]

    def logprob(self, values: OutcomeSet) -> float:
        log_terms = [
            safe_log(p) for v, p in self.probabilities.items() if values.contains(v)
        ]
        return log_add(log_terms)

    def logpdf(self, value) -> float:
        if isinstance(value, str):
            return NEG_INF
        return safe_log(self.probabilities.get(float(value), 0.0))

    def condition(self, values: OutcomeSet) -> List[Tuple[Distribution, float]]:
        survivors = {
            v: p for v, p in self.probabilities.items() if values.contains(v)
        }
        if not survivors:
            return []
        log_w = safe_log(sum(survivors.values()))
        return [(DiscreteFinite(survivors), log_w)]

    def constrain(self, value) -> Optional[Tuple[Distribution, float]]:
        if isinstance(value, str):
            return None
        p = self.probabilities.get(float(value), 0.0)
        if p <= 0.0:
            return None
        return (DiscreteFinite({float(value): 1.0}), math.log(p))

    def __repr__(self) -> str:
        return "DiscreteFinite(%s)" % (
            {v: round(p, 6) for v, p in sorted(self.probabilities.items())},
        )
