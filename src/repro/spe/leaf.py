"""Leaf nodes: a primitive distribution for one variable plus derived variables.

A leaf ``Leaf(x, d, env)`` consists of a program variable ``x``, a primitive
:class:`~repro.distributions.base.Distribution` ``d``, and an *environment*
``env`` mapping derived variables to univariate transforms of ``x`` (or of
previously-defined derived variables).  The environment is how SPPL
represents statements such as ``Z = X**2 + 1`` without extending the
dimensionality of the underlying base measure.

:func:`spe_leaf` is the canonicalizing (hash-consing) constructor: it
returns the interned representative, so structurally-equal leaves built on
separate code paths become physically shared.
"""

from __future__ import annotations

from typing import Dict
from typing import FrozenSet
from typing import List
from typing import Optional

import numpy as np

from ..distributions import Distribution
from ..distributions import NEG_INF
from ..events import Clause
from ..sets import OutcomeSet
from ..sets import intersection
from ..transforms import Identity
from ..transforms import Transform
from .base import DensityPair
from .base import SPE
from .interning import maybe_intern


class Leaf(SPE):
    """A terminal sum-product expression node."""

    def __init__(
        self,
        symbol: str,
        dist: Distribution,
        env: Dict[str, Transform] = None,
    ):
        super().__init__()
        if not isinstance(symbol, str) or not symbol:
            raise ValueError("Leaf requires a non-empty variable name.")
        if not isinstance(dist, Distribution):
            raise TypeError("Leaf requires a Distribution, got %r." % (dist,))
        self.symbol = symbol
        self.dist = dist
        self.env: Dict[str, Transform] = dict(env) if env else {}
        if symbol in self.env:
            raise ValueError(
                "The leaf variable %r may not appear in its own environment." % (symbol,)
            )
        self._scope: FrozenSet[str] = frozenset({symbol}) | frozenset(self.env)
        for derived, expression in self.env.items():
            free = set(expression.get_symbols())
            if not free <= self._scope:
                raise ValueError(
                    "Transform for %r mentions undefined variables %s."
                    % (derived, sorted(free - self._scope))
                )

    # -- Structure -----------------------------------------------------------

    def children_nodes(self) -> List[SPE]:
        return []

    def _intern_local_key(self, child_reps) -> Optional[tuple]:
        dist_key = self.dist.structural_key()
        if dist_key and dist_key[0] == "id":
            return None
        env_key = tuple(sorted((s, t._key()) for s, t in self.env.items()))
        return ("leaf", self.symbol, dist_key, env_key)

    def __repr__(self) -> str:
        if self.env:
            return "Leaf(%r, %r, env=%r)" % (self.symbol, self.dist, self.env)
        return "Leaf(%r, %r)" % (self.symbol, self.dist)

    # -- Environment handling -------------------------------------------------

    def resolved_transform(self, symbol: str) -> Transform:
        """Return the transform of ``symbol`` expressed over the base variable."""
        if symbol == self.symbol:
            return Identity(self.symbol)
        if symbol not in self.env:
            raise KeyError("Variable %r is not defined at this leaf." % (symbol,))
        transform = self.env[symbol]
        for _ in range(len(self.env) + 1):
            free = set(transform.get_symbols())
            pending = [s for s in free if s != self.symbol]
            if not pending:
                return transform
            for s in pending:
                transform = transform.substitute(s, self.env[s])
        raise ValueError(
            "Could not resolve transform for %r to the base variable." % (symbol,)
        )

    def _solve_clause_set(self, clause: Clause) -> Optional[OutcomeSet]:
        """Pull the clause constraints back to a set of base-variable values.

        Returns None when the clause does not constrain this leaf.
        """
        relevant = [s for s in clause if s in self._scope]
        if not relevant:
            return None
        pieces = []
        for s in relevant:
            values = clause[s]
            if s == self.symbol:
                pieces.append(values)
            else:
                pieces.append(self.resolved_transform(s).invert(values))
        return intersection(*pieces)

    # -- Inference kernels (invoked by the iterative traversal engine) --------

    def _logprob_restricted(self, restricted: Clause) -> float:
        solved = self._solve_clause_set(restricted)
        return 0.0 if solved is None else self.dist.logprob(solved)

    def _condition_restricted(self, restricted: Clause) -> Optional[SPE]:
        from .sum_node import spe_sum

        solved = self._solve_clause_set(restricted)
        if solved is None:
            return self
        branches = self.dist.condition(solved)
        if not branches:
            return None
        if len(branches) == 1:
            return spe_leaf(self.symbol, branches[0][0], env=self.env)
        leaves = [spe_leaf(self.symbol, d, env=self.env) for d, _ in branches]
        log_weights = [w for _, w in branches]
        return spe_sum(leaves, log_weights)

    def _logpdf_restricted(self, restricted: Dict[str, object]) -> DensityPair:
        derived = [s for s in restricted if s != self.symbol]
        if derived:
            raise ValueError(
                "Density queries are only supported on non-transformed "
                "variables; %s are derived at this leaf." % (sorted(derived),)
            )
        if self.symbol not in restricted:
            return (0, 0.0)
        log_density = self.dist.logpdf(restricted[self.symbol])
        if self.dist.is_continuous:
            return (1, log_density)
        return (1 if log_density == NEG_INF else 0, log_density)

    def _constrain_restricted(self, restricted: Dict[str, object]) -> Optional[SPE]:
        derived = [s for s in restricted if s != self.symbol]
        if derived:
            raise ValueError(
                "constrain() only supports equality constraints on "
                "non-transformed variables; %s are derived at this leaf."
                % (sorted(derived),)
            )
        if self.symbol not in restricted:
            return self
        constrained = self.dist.constrain(restricted[self.symbol])
        if constrained is None:
            return None
        return spe_leaf(self.symbol, constrained[0], env=self.env)

    # -- Derived variables and sampling ---------------------------------------

    def transform(self, symbol: str, expression: Transform) -> SPE:
        if symbol in self.scope:
            raise ValueError("Variable %r is already defined (restriction R1)." % (symbol,))
        free = set(expression.get_symbols())
        if not free <= self.scope:
            raise ValueError(
                "Transform for %r mentions variables %s outside this leaf's scope."
                % (symbol, sorted(free - self.scope))
            )
        env = dict(self.env)
        env[symbol] = expression
        return spe_leaf(self.symbol, self.dist, env=env)

    def _nominal_transform_error(self, derived: str, resolved: Transform) -> TypeError:
        return TypeError(
            "Derived variable %r applies the non-Identity transform %r to "
            "draws of the nominal (string-valued) variable %r; real "
            "transforms are undefined on strings."
            % (derived, resolved, self.symbol)
        )

    def _sample_one(self, rng) -> Dict[str, object]:
        """Draw one joint sample of the base and derived variables."""
        value = self.dist.sample(rng)
        assignment: Dict[str, object] = {self.symbol: value}
        for derived in self.env:
            resolved = self.resolved_transform(derived)
            if isinstance(value, str):
                if not isinstance(resolved, Identity):
                    raise self._nominal_transform_error(derived, resolved)
                assignment[derived] = value
            else:
                assignment[derived] = resolved.evaluate(float(value))
        return assignment

    def _sample_batch(self, rng, n: int) -> Dict[str, object]:
        """Draw ``n`` values per variable with one vectorized base draw.

        Derived variables are computed with one vectorized
        ``Transform.evaluate_many`` call per column instead of a
        per-element Python loop.
        """
        values = self.dist.sample_many(rng, n)
        values = np.asarray(values)
        columns: Dict[str, object] = {self.symbol: values}
        if not self.env:
            return columns
        nominal = values.dtype.kind in "OUS"
        reals = None if nominal else np.asarray(values, dtype=float)
        for derived in self.env:
            resolved = self.resolved_transform(derived)
            if nominal:
                if not isinstance(resolved, Identity):
                    raise self._nominal_transform_error(derived, resolved)
                columns[derived] = values
            else:
                column = resolved.evaluate_many(reals)
                if column is reals or column is values:
                    # Identity's kernel returns its input uncopied; derived
                    # columns must not alias the base column.
                    column = column.copy()
                columns[derived] = column
        return columns


def spe_leaf(symbol: str, dist: Distribution, env: Dict[str, Transform] = None) -> Leaf:
    """Canonicalizing (hash-consing) constructor for leaves.

    Returns the interned representative of ``Leaf(symbol, dist, env)``:
    structurally-equal leaves built anywhere in the process resolve to one
    shared node, so downstream factorization and memoization see them as
    identical.
    """
    return maybe_intern(Leaf(symbol, dist, env=env))
