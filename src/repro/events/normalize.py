"""Canonical event forms and stable event digests.

Two textually different queries frequently denote the same predicate —
``"X < 3 and Y > 1"`` versus ``"Y > 1 and X < 3"``, a double negation, a
transformed literal versus its solved interval.  This module gives every
event a *canonical structural form* and a *stable digest*: the query
planner's ``normalize`` pass (``plan="all"``) evaluates the canonical
form, and its trace events name each rewrite by digest.

The canonicalization is purely structural and runs in time linear-ish in
the event size (it never expands to DNF, so it is safe on conjunctions of
disjunctions whose DNF would explode):

* every literal is solved into ``symbol in outcome-set`` form (exact
  preimage through the transform machinery, so ``X**2 < 4`` and
  ``-2 < X < 2`` canonicalize identically),
* same-symbol literals are fused inside a conjunction (set intersection)
  and inside a disjunction (set union),
* tautological literals are dropped and contradictory branches eliminated
  (``X < 1 and X > 2`` collapses, ``... or <never>`` drops the branch),
* nested same-type connectives are flattened, duplicate children are
  dropped, and children are put in a deterministic sorted order.

Equal canonical keys imply semantically equal events (every step above
preserves semantics and the result is a deterministic function), which is
the direction a rewrite needs.  The converse does not hold in general —
propositional equivalence is not decided — but reordered clauses, double
negations, shuffled conjunctions and solved transforms all land on the
same key, which is what real query traffic repeats.

**Caution**: :func:`normalize_event` preserves *semantics*, not the
floating-point *bit pattern* of downstream queries — ``disjoin`` and the
final ``log_add`` are order-sensitive, so reordering DNF clauses can move
a probability by an ulp.  That is why no cache keys on the digest and
why the planner evaluates normalized forms only in ``plan="all"``.
"""

from __future__ import annotations

import hashlib
from typing import List
from typing import Optional
from typing import Tuple

from ..sets import EMPTY_SET
from ..sets import EmptySet
from ..sets import FiniteNominal
from ..sets import FiniteReal
from ..sets import Interval
from ..sets import OutcomeSet
from ..sets import Union
from ..sets import complement
from ..sets import intersection
from ..sets import union
from ..transforms import Identity
from .base import Containment
from .base import Conjunction
from .base import Disjunction
from .base import Event
from .base import EventNever

__all__ = [
    "canonical_key",
    "event_digest",
    "normalize_event",
    "outcome_set_key",
]


def _float_key(value: float) -> str:
    """Exact, hashable, JSON-safe encoding of a float endpoint."""
    value = float(value)
    if value != value:
        return "nan"
    try:
        return value.hex()
    except (OverflowError, ValueError):  # pragma: no cover - inf handled by hex
        return repr(value)


def outcome_set_key(values: OutcomeSet) -> tuple:
    """A canonical hashable key for an outcome set (exact, sorted)."""
    if isinstance(values, EmptySet):
        return ("empty",)
    if isinstance(values, Interval):
        return (
            "interval",
            _float_key(values.left),
            _float_key(values.right),
            bool(values.left_open),
            bool(values.right_open),
        )
    if isinstance(values, FiniteReal):
        return ("real", tuple(sorted(_float_key(v) for v in values.values)))
    if isinstance(values, FiniteNominal):
        return (
            "nominal",
            tuple(sorted(values.values)),
            bool(values.positive),
        )
    if isinstance(values, Union):
        return ("union", tuple(sorted((outcome_set_key(c) for c in values.args))))
    raise TypeError("Unknown outcome set %r." % (values,))


#: Full universe over Real + String; a literal whose set covers it is a
#: tautology (its negation is EMPTY_SET) and constrains nothing.
def _is_tautology(values: OutcomeSet) -> bool:
    return complement(values, universe="both").is_empty


# Canonical keys.  A key is one of::
#
#     ("never",)
#     ("lit", symbol, outcome_set_key)
#     ("and", (child_key, ...))    # >= 2 children, sorted, deduped
#     ("or",  (child_key, ...))    # >= 2 children, sorted, deduped
#
# Events are negation-free by construction (``negate`` pushes complements
# into the literals eagerly), so no "not" form is needed.

def canonical_key(event: Event) -> tuple:
    """The canonical structural key of an event (never expands to DNF)."""
    if isinstance(event, EventNever):
        return ("never",)
    if isinstance(event, Containment):
        symbols = event.get_symbols()
        if len(symbols) != 1:
            raise ValueError(
                "Literal %r mentions %d variables; SPPL transforms are "
                "univariate (restriction R3)." % (event, len(symbols))
            )
        solved = event.solve()
        if solved.is_empty:
            return ("never",)
        return ("lit", next(iter(symbols)), outcome_set_key(solved))
    if isinstance(event, Conjunction):
        return _compound_key("and", [canonical_key(e) for e in event.events])
    if isinstance(event, Disjunction):
        return _compound_key("or", [canonical_key(e) for e in event.events])
    raise TypeError("Expected an Event, got %r." % (event,))


def _compound_key(tag: str, child_keys: List[tuple]) -> tuple:
    """Flatten, fuse same-symbol literals, simplify, dedup, sort."""
    flat: List[tuple] = []
    for key in child_keys:
        if key[0] == tag:
            flat.extend(key[1])
        else:
            flat.append(key)
    # Fuse same-symbol literals: intersection under "and", union under
    # "or".  Fusing keys requires the sets back; rebuild them.
    by_symbol = {}
    rest: List[tuple] = []
    for key in flat:
        if key[0] == "lit":
            by_symbol.setdefault(key[1], []).append(key)
        elif key[0] == "never":
            if tag == "and":
                return ("never",)
            # "or": an impossible branch contributes nothing.
        else:
            rest.append(key)
    lits: List[tuple] = []
    tautologies: List[tuple] = []
    for symbol in sorted(by_symbol):
        keys = by_symbol[symbol]
        sets = [_set_from_key(key[2]) for key in keys]
        fused = intersection(*sets) if tag == "and" else union(*sets)
        if fused.is_empty:
            if tag == "and":
                return ("never",)
            continue
        if _is_tautology(fused):
            # "or": the whole disjunction is certain over this symbol;
            # remember the literal (events cannot express "always") and
            # drop every other branch below — they add nothing.
            # "and": an unconstraining literal adds nothing.
            tautologies.append(("lit", symbol, outcome_set_key(fused)))
            continue
        lits.append(("lit", symbol, outcome_set_key(fused)))
    if tag == "or" and tautologies:
        return tautologies[0]
    children = lits + rest
    # Dedup + deterministic order.  Mixed tuple shapes do not compare, so
    # sort on the repr (stable, deterministic across processes).
    unique = sorted(set(children), key=repr)
    if not unique:
        if tag == "and" and tautologies:
            # Every literal was a tautology: the event is certain over its
            # symbols.  Keep one tautological literal so the key remains
            # an expressible event (rebuildable by normalize_event).
            return tautologies[0]
        return ("never",)
    if len(unique) == 1:
        return unique[0]
    return (tag, tuple(unique))


def _set_from_key(key: tuple) -> OutcomeSet:
    """Rebuild the outcome set an :func:`outcome_set_key` encodes."""
    tag = key[0]
    if tag == "empty":
        return EMPTY_SET
    if tag == "interval":
        return Interval(
            float.fromhex(key[1]) if key[1] != "nan" else float("nan"),
            float.fromhex(key[2]) if key[2] != "nan" else float("nan"),
            left_open=key[3],
            right_open=key[4],
        )
    if tag == "real":
        return FiniteReal(float.fromhex(v) for v in key[1])
    if tag == "nominal":
        if not key[1] and key[2]:
            return EMPTY_SET
        return FiniteNominal(key[1], positive=key[2])
    if tag == "union":
        return union(*[_set_from_key(c) for c in key[1]])
    raise ValueError("Unknown outcome set key %r." % (key,))


def _event_from_key(key: tuple) -> Event:
    if key[0] == "never":
        return EventNever()
    if key[0] == "lit":
        return Containment(Identity(key[1]), _set_from_key(key[2]))
    children = [_event_from_key(child) for child in key[1]]
    return Conjunction(children) if key[0] == "and" else Disjunction(children)


def normalize_event(event: Event) -> Event:
    """Rebuild ``event`` in canonical structural form.

    The result is semantically equal to ``event`` (same ``evaluate`` on
    every assignment, same probability mathematically), built from
    identity-transform literals with fused per-symbol sets, flattened
    sorted connectives, and eliminated tautologies/contradictions.  Two
    events with equal :func:`event_digest` normalize to the identical
    structure.
    """
    return _event_from_key(canonical_key(event))


def event_digest(event: Event) -> str:
    """A stable hex digest naming the event's canonical form.

    Invariant under clause reordering, double negation, literal fusion
    and transform solving; equal digests imply semantically equal events.
    """
    key = canonical_key(event)
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:16]


def chain_digest(digests) -> str:
    """Digest of an *ordered* sequence of event digests (condition chains)."""
    return hashlib.sha256("|".join(digests).encode("utf-8")).hexdigest()[:16]
