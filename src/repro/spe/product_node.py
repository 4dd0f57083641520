"""Product nodes: tuples of independent sum-product expressions."""

from __future__ import annotations

from typing import FrozenSet
from typing import List
from typing import Optional
from typing import Sequence

from ..transforms import Transform
from .base import SPE
from .interning import maybe_intern


class ProductSPE(SPE):
    """A product of sum-product expressions with pairwise-disjoint scopes."""

    def __init__(self, children: Sequence[SPE]):
        super().__init__()
        children = list(children)
        if len(children) < 2:
            raise ValueError("ProductSPE requires at least two children; use spe_product().")
        scope: FrozenSet[str] = frozenset()
        for child in children:
            overlap = scope & child.scope
            if overlap:
                raise ValueError(
                    "Children of a ProductSPE must have disjoint scopes "
                    "(condition C3); %s appear twice." % (sorted(overlap),)
                )
            scope |= child.scope
        self.children = tuple(children)
        self._scope = scope

    # -- Structure -----------------------------------------------------------

    def children_nodes(self) -> List[SPE]:
        return list(self.children)

    def _intern_local_key(self, child_reps) -> Optional[tuple]:
        # Products of independent components are commutative: sorting the
        # child uids makes the key order-insensitive.
        return ("product", tuple(sorted(rep._uid for rep in child_reps)))

    def _intern_rebuild(self, child_reps) -> SPE:
        return ProductSPE(child_reps)

    def __repr__(self) -> str:
        return "ProductSPE(%s)" % (list(self.children),)

    # -- Derived variables ----------------------------------------------------

    def transform(self, symbol: str, expression: Transform) -> SPE:
        from .traversal import transform_spe

        return transform_spe(self, symbol, expression)


def spe_product(children: Sequence[SPE]) -> SPE:
    """Canonicalizing constructor for products.

    Splices nested products, collapses singleton products, and interns the
    result against the global unique table so structurally-equal products
    become physically shared.
    """
    flat: List[SPE] = []
    for child in children:
        if isinstance(child, ProductSPE):
            flat.extend(child.children)
        else:
            flat.append(child)
    if not flat:
        raise ValueError("spe_product requires at least one child.")
    if len(flat) == 1:
        return flat[0]
    return maybe_intern(ProductSPE(flat))
