"""Derived exact queries on sum-product expressions.

Beyond the primitive queries (probability, conditioning, density, sampling),
several useful quantities can be computed exactly from them:

* :func:`probability_table` -- marginal probability tables,
* :func:`mutual_information` -- mutual information between two events,
* :func:`entropy` -- entropy of a finite-valued program variable,
* :func:`expectation` / :func:`variance` -- moments of a numeric variable,
* :func:`cdf_table` -- the marginal CDF of a numeric variable on a grid.

These mirror the auxiliary queries shipped with the reference SPPL system
and are used by the examples and benchmark reports.  Every function accepts
an optional ``memo`` so callers (e.g. :class:`~repro.engine.SpplModel`) can
route the traversals through a persistent
:class:`~repro.spe.base.QueryCache`; the structural traversals are
iterative, so deep chain models (long HMMs) are safe.
"""

from __future__ import annotations

import math
from typing import Dict
from typing import Iterable
from typing import List
from typing import Sequence

from ..distributions import NEG_INF
from ..events import Event
from ..transforms import Id
from .base import Memo
from .base import SPE
from .leaf import Leaf
from .product_node import ProductSPE
from .sum_node import SumSPE


def probability_table(
    spe: SPE, symbol: str, values: Iterable, memo: Memo = None
) -> Dict[object, float]:
    """Exact marginal probabilities ``P(symbol == v)`` for each value."""
    variable = Id(symbol)
    memo = memo if memo is not None else Memo()
    return {value: spe.prob(variable == value, memo=memo) for value in values}


def cdf_table(
    spe: SPE, symbol: str, grid: Sequence[float], memo: Memo = None
) -> Dict[float, float]:
    """Exact marginal CDF ``P(symbol <= g)`` on a grid of points."""
    variable = Id(symbol)
    memo = memo if memo is not None else Memo()
    return {float(g): spe.prob(variable <= g, memo=memo) for g in grid}


def mutual_information(
    spe: SPE, event_a: Event, event_b: Event, memo: Memo = None
) -> float:
    """Mutual information (in nats) between the indicators of two events."""
    memo = memo if memo is not None else Memo()
    total = 0.0
    for a in (event_a, event_a.negate()):
        for b in (event_b, event_b.negate()):
            log_joint = spe.logprob(a & b, memo=memo)
            if log_joint == NEG_INF:
                continue
            log_marginal_a = spe.logprob(a, memo=memo)
            log_marginal_b = spe.logprob(b, memo=memo)
            joint = math.exp(log_joint)
            total += joint * (log_joint - log_marginal_a - log_marginal_b)
    return max(total, 0.0)


def entropy(spe: SPE, symbol: str, values: Iterable, memo: Memo = None) -> float:
    """Entropy (in nats) of a finite-valued program variable."""
    table = probability_table(spe, symbol, values, memo=memo)
    total = sum(table.values())
    if not math.isclose(total, 1.0, abs_tol=1e-6):
        raise ValueError(
            "The provided values cover probability %.6f of %r; entropy "
            "requires an exhaustive list of values." % (total, symbol)
        )
    return -sum(p * math.log(p) for p in table.values() if p > 0.0)


def _leaf_moment(leaf: Leaf, order: int) -> float:
    """Raw moment of order 1 or 2 of a leaf's base variable."""
    from ..distributions import AtomicDistribution
    from ..distributions import DiscreteDistribution
    from ..distributions import DiscreteFinite
    from ..distributions import NominalDistribution
    from ..distributions import RealDistribution

    dist = leaf.dist
    if isinstance(dist, AtomicDistribution):
        return dist.value ** order
    if isinstance(dist, (DiscreteFinite,)):
        return sum(p * (v ** order) for v, p in dist.probabilities.items())
    if isinstance(dist, NominalDistribution):
        raise ValueError("Moments are undefined for nominal variable %r." % (leaf.symbol,))
    if isinstance(dist, (RealDistribution, DiscreteDistribution)):
        frozen = dist.dist
        lb, ub = dist.lo, dist.hi
        if isinstance(dist, RealDistribution):
            value = frozen.expect(lambda x: x ** order, lb=lb, ub=ub, conditional=True)
        else:
            lo = int(lb) if math.isfinite(lb) else int(frozen.ppf(1e-12))
            hi = int(ub) if math.isfinite(ub) else int(frozen.ppf(1.0 - 1e-12))
            weights = [(k, float(frozen.pmf(k))) for k in range(lo, hi + 1)]
            mass = sum(w for _, w in weights)
            value = sum(w * (k ** order) for k, w in weights) / mass
        return float(value)
    raise TypeError("Cannot compute moments for distribution %r." % (dist,))


def _moment(spe: SPE, symbol: str, order: int) -> float:
    """Raw moment of a numeric variable (iterative, memoized on node uid)."""
    cache: Dict[int, float] = {}
    stack: List[SPE] = [spe]
    while stack:
        node = stack[-1]
        if node._uid in cache:
            stack.pop()
            continue
        if isinstance(node, Leaf):
            if symbol != node.symbol:
                raise ValueError(
                    "Moments are only supported for non-transformed variables; "
                    "%r is derived." % (symbol,)
                )
            cache[node._uid] = _leaf_moment(node, order)
            stack.pop()
            continue
        if isinstance(node, SumSPE):
            pending = [c for c in node.children if c._uid not in cache]
            if pending:
                stack.extend(pending)
                continue
            cache[node._uid] = sum(
                math.exp(w) * cache[child._uid]
                for w, child in zip(node.log_weights, node.children)
            )
            stack.pop()
            continue
        if isinstance(node, ProductSPE):
            owner = None
            for child in node.children:
                if symbol in child.scope:
                    owner = child
                    break
            if owner is None:
                raise KeyError("Variable %r is not in scope." % (symbol,))
            if owner._uid not in cache:
                stack.append(owner)
                continue
            cache[node._uid] = cache[owner._uid]
            stack.pop()
            continue
        raise TypeError("Unknown SPE node %r." % (node,))
    return cache[spe._uid]


def expectation(spe: SPE, symbol: str) -> float:
    """Exact expectation of a numeric, non-transformed program variable."""
    if symbol not in spe.scope:
        raise KeyError("Variable %r is not in scope." % (symbol,))
    return _moment(spe, symbol, 1)


def variance(spe: SPE, symbol: str) -> float:
    """Exact variance of a numeric, non-transformed program variable."""
    mean = expectation(spe, symbol)
    second = _moment(spe, symbol, 2)
    return max(second - mean * mean, 0.0)


def marginal_support(spe: SPE, symbol: str) -> List[object]:
    """The set of values a finite-valued variable can take (sorted)."""
    from ..distributions import AtomicDistribution
    from ..distributions import DiscreteFinite
    from ..distributions import NominalDistribution

    if symbol not in spe.scope:
        raise KeyError("Variable %r is not in scope." % (symbol,))

    values = set()
    seen = set()
    stack: List[SPE] = [spe]
    while stack:
        node = stack.pop()
        if node._uid in seen:
            continue
        seen.add(node._uid)
        if isinstance(node, Leaf):
            if node.symbol != symbol:
                continue
            if isinstance(node.dist, DiscreteFinite):
                values.update(node.dist.probabilities)
            elif isinstance(node.dist, AtomicDistribution):
                values.add(node.dist.value)
            elif isinstance(node.dist, NominalDistribution):
                values.update(node.dist.probabilities)
            else:
                raise ValueError(
                    "Variable %r does not have a finite support." % (symbol,)
                )
            continue
        for child in node.children_nodes():
            if symbol in child.scope:
                stack.append(child)
    return sorted(values, key=lambda v: (isinstance(v, str), v))

