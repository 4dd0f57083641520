"""Rewrite passes over events: each returns ``None`` or a rewritten form.

Every pass preserves exact-real-arithmetic semantics by construction; none
is assumed bit-preserving (``disjoin`` and the final ``log_add`` are
order-sensitive), so the planner applies them only in ``plan="all"``.

The passes:

* :func:`normalize_pass` — replace an event by its canonical structural
  form (:func:`repro.events.normalize_event`): fused same-symbol
  literals, deduplicated clauses, eliminated tautologies/contradictions.
* :func:`fuse_union` — order-preserving fusion of same-symbol literal
  branches inside disjunctions (``X < 1 or X > 3`` becomes one
  containment in a union set), without re-sorting anything.
* :func:`disjoint_factor` — split a conjunction whose conjunct groups
  fall into disjoint children of a root product into per-group events
  whose log probabilities sum; avoids the DNF cross-product blow-up.
* :func:`condition_pushdown` — the conditioning analogue: a conjunction
  over disjoint product scopes becomes a chain of smaller conditions.
* :func:`chain_order` — order a chain of condition events by the
  estimated visited-node count of each event's scope
  (:func:`repro.spe.estimate_visited_nodes`), cheapest first.
"""

from __future__ import annotations

from typing import List
from typing import Optional
from typing import Sequence

from ..events import Conjunction
from ..events import Containment
from ..events import Disjunction
from ..events import Event
from ..events import normalize_event
from ..sets import union
from ..spe import SPE
from ..spe import ProductSPE
from ..spe import estimate_visited_nodes
from ..transforms import Identity


# ---------------------------------------------------------------------------
# Event-level rewrites.
# ---------------------------------------------------------------------------

def normalize_pass(event: Event) -> Optional[Event]:
    """Canonicalize the event; ``None`` when it is already canonical."""
    normalized = normalize_event(event)
    if repr(normalized) == repr(event):
        return None
    return normalized


def _is_literal(event: Event) -> bool:
    return isinstance(event, Containment) and len(event.get_symbols()) == 1


def fuse_union(event: Event) -> Optional[Event]:
    """Fuse same-symbol literal branches of disjunctions, order-preserving.

    ``X < 1 or X > 3 or Y > 0`` becomes ``X in (-inf,1)u(3,inf) or Y > 0``
    with the fused literal at the first occurrence's position.  One fused
    clause replaces several DNF clauses, shrinking the quadratic
    ``disjoin`` pass and the final ``log_add``.  Returns ``None`` when no
    disjunction holds two literals over one symbol.
    """
    rewritten, changed = _fuse(event)
    return rewritten if changed else None


def _fuse(event: Event):
    if isinstance(event, Conjunction):
        children = [_fuse(child) for child in event.events]
        if any(changed for _, changed in children):
            return Conjunction([child for child, _ in children]), True
        return event, False
    if isinstance(event, Disjunction):
        children = [_fuse(child)[0] for child in event.events]
        by_symbol = {}
        for child in children:
            if _is_literal(child):
                symbol = next(iter(child.get_symbols()))
                by_symbol.setdefault(symbol, []).append(child)
        fusable = {s for s, lits in by_symbol.items() if len(lits) > 1}
        if not fusable:
            changed = [c is not o for c, o in zip(children, event.events)]
            if any(changed):
                return Disjunction(children), True
            return event, False
        fused_sets = {
            s: union(*[lit.solve() for lit in by_symbol[s]]) for s in fusable
        }
        out: List[Event] = []
        emitted = set()
        for child in children:
            if _is_literal(child):
                symbol = next(iter(child.get_symbols()))
                if symbol in fusable:
                    if symbol not in emitted:
                        emitted.add(symbol)
                        out.append(
                            Containment(Identity(symbol), fused_sets[symbol])
                        )
                    continue
            out.append(child)
        return (out[0] if len(out) == 1 else Disjunction(out)), True
    return event, False


# ---------------------------------------------------------------------------
# Scope factoring against a root product.
# ---------------------------------------------------------------------------

def _scope_groups(spe: SPE, event: Event) -> Optional[List[Event]]:
    """Group the conjuncts of ``event`` by the root-product children they
    touch; ``None`` unless the grouping is a genuine split (>= 2 groups)."""
    if not isinstance(event, Conjunction) or not isinstance(spe, ProductSPE):
        return None
    child_scopes = [child.scope for child in spe.children]

    def touches(symbols) -> frozenset:
        return frozenset(
            index for index, scope in enumerate(child_scopes) if scope & symbols
        )

    conjunct_children = []
    for conjunct in event.events:
        indices = touches(conjunct.get_symbols())
        if not indices:
            return None  # out-of-scope symbol: leave the event alone
        conjunct_children.append(indices)
    # Union-find over child indices: conjuncts sharing any child merge.
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def link(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for indices in conjunct_children:
        first = min(indices)
        for index in indices:
            link(first, index)
    groups = {}
    for conjunct, indices in zip(event.events, conjunct_children):
        groups.setdefault(find(min(indices)), []).append(conjunct)
    if len(groups) < 2:
        return None
    # Emit groups ordered by root child index, mirroring the product
    # traversal's left-to-right accumulation over its children.
    return [
        events[0] if len(events) == 1 else Conjunction(events)
        for _, events in sorted(groups.items())
    ]


def disjoint_factor(spe: SPE, event: Event) -> Optional[List[Event]]:
    """Factor a conjunction over disjoint root-product scopes.

    The log probability of the conjunction is the running sum of the
    groups' log probabilities (independence across product children).
    The monolithic evaluation would cross-multiply the groups' DNF
    clauses — ``m**k`` clauses for ``k`` groups of ``m`` — before the
    quadratic ``disjoin``; the factored form keeps them separate.
    """
    return _scope_groups(spe, event)


def condition_pushdown(spe: SPE, event: Event) -> Optional[List[Event]]:
    """Split one multi-scope condition into a chain of per-scope conditions.

    ``model.condition(A and B)`` with ``A``/``B`` over disjoint children
    of a root product equals ``model.condition(A).condition(B)``: each
    step restricts only the touched child (the traversal reuses the
    interned untouched children as-is), and each step's DNF stays the
    group's own instead of the cross product.
    """
    return _scope_groups(spe, event)


def chain_order(spe: SPE, chain: Sequence[Event]) -> Optional[List[Event]]:
    """Order a chain of condition events by estimated traversal cost.

    Stable sort on :func:`repro.spe.estimate_visited_nodes` of each
    event's symbols — conditioning on the cheapest (smallest-scope) event
    first shrinks the graph the later, more expensive conditions walk.
    Returns ``None`` when the chain is already cost-ordered.
    """
    if len(chain) < 2:
        return None
    costs = [
        estimate_visited_nodes(spe, event.get_symbols()) for event in chain
    ]
    order = sorted(range(len(chain)), key=lambda index: (costs[index], index))
    if order == list(range(len(chain))):
        return None
    return [chain[index] for index in order]
