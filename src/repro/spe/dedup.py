"""Structural deduplication of sum-product expressions (Sec. 5.1, Fig. 6b).

When a translated expression contains identical sub-expressions that cannot
be factored out without violating the scope conditions, the optimizer
resolves them into a single physical node shared by every parent.  Since the
introduction of hash-consing (:mod:`~repro.spe.interning`), deduplication
*is* interning: :func:`deduplicate` resolves every subtree against the
global unique table, so structurally-equal subgraphs -- within one
expression or across separately built expressions -- become physically
shared.  All inference algorithms memoize on structural node uids, so
deduplication directly reduces both memory and repeated computation.

The expressions produced by the canonicalizing constructors are already
interned; an explicit :func:`deduplicate` pass is only needed for graphs
assembled from raw node constructors (e.g. hand-built test fixtures or
graphs created under :class:`~repro.spe.interning.no_interning`).
"""

from __future__ import annotations

from .base import SPE
from .interning import intern


def deduplicate(spe: SPE) -> SPE:
    """Return an equivalent expression with identical subtrees merged.

    The result is semantically identical to the input (same distribution);
    only the amount of structure sharing changes.  Merging is performed
    against the process-wide unique table, so repeated calls -- and calls
    on structurally overlapping expressions -- share representatives.
    """
    return intern(spe)
