"""Sum nodes: probabilistic mixtures of sum-product expressions."""

from __future__ import annotations

import math
from typing import Dict
from typing import List
from typing import Optional
from typing import Sequence

from ..distributions import NEG_INF
from ..distributions import log_add
from ..transforms import Transform
from .base import SPE
from .interning import maybe_intern


class SumSPE(SPE):
    """A weighted mixture of sum-product expressions with identical scopes."""

    def __init__(self, children: Sequence[SPE], log_weights: Sequence[float]):
        super().__init__()
        children = list(children)
        log_weights = [float(w) for w in log_weights]
        if len(children) < 2:
            raise ValueError("SumSPE requires at least two children; use spe_sum().")
        if len(children) != len(log_weights):
            raise ValueError("SumSPE requires one weight per child.")
        scope = children[0].scope
        for child in children[1:]:
            if child.scope != scope:
                raise ValueError(
                    "All children of a SumSPE must have identical scope "
                    "(condition C4): %s vs %s."
                    % (sorted(scope), sorted(child.scope))
                )
        total = log_add(log_weights)
        if total == NEG_INF:
            raise ValueError("SumSPE weights must have positive total mass (C5).")
        self.children = tuple(children)
        self.log_weights = tuple(w - total for w in log_weights)
        self._scope = scope

    # -- Structure -----------------------------------------------------------

    def children_nodes(self) -> List[SPE]:
        return list(self.children)

    def _intern_local_key(self, child_reps) -> Optional[tuple]:
        # Mixtures are commutative: sorting the (child uid, weight) pairs
        # makes the key order-insensitive.
        pairs = tuple(sorted(zip((rep._uid for rep in child_reps), self.log_weights)))
        return ("sum", pairs)

    def _intern_rebuild(self, child_reps) -> SPE:
        return SumSPE(child_reps, self.log_weights)

    @property
    def weights(self) -> List[float]:
        """Mixture weights in linear space."""
        return [math.exp(w) for w in self.log_weights]

    def __repr__(self) -> str:
        pairs = ", ".join(
            "%.4f: %r" % (math.exp(w), child)
            for w, child in zip(self.log_weights, self.children)
        )
        return "SumSPE(%s)" % (pairs,)

    # -- Derived variables ----------------------------------------------------

    def transform(self, symbol: str, expression: Transform) -> SPE:
        from .traversal import transform_spe

        return transform_spe(self, symbol, expression)


def spe_sum(children: Sequence[SPE], log_weights: Sequence[float]) -> SPE:
    """Canonicalizing constructor for mixtures.

    Normalizes the weights, splices nested sums with identical scope,
    merges duplicate children (physically shared nodes -- which, thanks to
    hash-consing, includes every structurally-equal subgraph), collapses
    singleton mixtures, and interns the result against the global unique
    table.
    """
    children = list(children)
    log_weights = [float(w) for w in log_weights]
    if not children:
        raise ValueError("spe_sum requires at least one child.")
    if len(children) != len(log_weights):
        raise ValueError("spe_sum requires one weight per child.")
    total = log_add(log_weights)
    if total == NEG_INF:
        raise ValueError("spe_sum requires positive total weight.")
    normalized = [w - total for w in log_weights]

    # Splice nested sums of identical scope into this one.
    flat_children: List[SPE] = []
    flat_weights: List[float] = []
    for child, weight in zip(children, normalized):
        if isinstance(child, SumSPE):
            for sub_weight, sub_child in zip(child.log_weights, child.children):
                flat_children.append(sub_child)
                flat_weights.append(weight + sub_weight)
        else:
            flat_children.append(child)
            flat_weights.append(weight)

    # Merge duplicate children (deduplication by physical identity; with
    # interning enabled, structural duplicates are already physical ones).
    merged: Dict[int, int] = {}
    unique_children: List[SPE] = []
    unique_weights: List[float] = []
    for child, weight in zip(flat_children, flat_weights):
        if child._uid in merged:
            index = merged[child._uid]
            unique_weights[index] = log_add([unique_weights[index], weight])
        else:
            merged[child._uid] = len(unique_children)
            unique_children.append(child)
            unique_weights.append(weight)

    if len(unique_children) == 1:
        return unique_children[0]
    return maybe_intern(SumSPE(unique_children, unique_weights))
