"""Solved clauses: hyperrectangles of per-variable outcome sets.

A *solved clause* represents a conjunction of containment constraints as a
mapping ``{variable: outcome set}``.  Solved clauses are the workhorse of
exact inference: an arbitrary event is normalized to DNF, each DNF clause is
solved into a hyperrectangle, and the hyperrectangles are rewritten into a
pairwise-disjoint collection (the ``disjoin`` algorithm of Appendix D.1),
which makes event probabilities additive across clauses.
"""

from __future__ import annotations

from typing import Dict
from typing import List
from typing import Optional

from ..errors import SpplParseError
from ..sets import OutcomeSet
from ..sets import complement
from ..sets import intersection
from .base import Conjunction
from .base import Containment
from .base import Disjunction
from .base import Event

#: A solved clause maps variable names to the outcome sets they must lie in.
Clause = Dict[str, OutcomeSet]


def solve_clause(literals: List[Containment]) -> Optional[Clause]:
    """Solve a conjunction of literals into a clause, or None if unsatisfiable."""
    clause: Clause = {}
    for literal in literals:
        symbols = literal.get_symbols()
        if len(symbols) != 1:
            raise ValueError(
                "Literal %r mentions %d variables; SPPL transforms are "
                "univariate (restriction R3)." % (literal, len(symbols))
            )
        symbol = next(iter(symbols))
        solution = literal.solve()
        if symbol in clause:
            solution = intersection(clause[symbol], solution)
        if solution.is_empty:
            return None
        clause[symbol] = solution
    return clause


#: Most DNF clauses an event may expand to.  ``disjoin_clauses`` compares
#: every clause with every earlier one, so solving grows faster than the
#: square of the clause count.  On hmm20 (2-vCPU host), conjunctions of
#: two-way disjunctions over distinct variables solve in 0.079 s CPU at
#: 32 clauses, 0.42 s at 64, 1.65 s at 128 and 107 s at 1024.  The
#: largest event of the test suite and ``benchmarks/run_all.py`` has 27
#: clauses; perfbench traffic stays at or below 4.
MAX_DNF_CLAUSES = 64


def dnf_clause_count(event: Event) -> int:
    """Number of clauses ``event.dnf_clauses()`` returns, computed from the
    event tree without expanding it: a product over conjunctions and a sum
    over disjunctions (``negate`` has already pushed negations down to the
    literals, swapping the two).  Counts stop growing past
    ``MAX_DNF_CLAUSES + 1``, so huge events cost no big-integer work."""
    cap = MAX_DNF_CLAUSES + 1
    counts: Dict[int, int] = {}
    stack = [event]
    while stack:
        node = stack[-1]
        if id(node) in counts:
            stack.pop()
            continue
        if isinstance(node, (Conjunction, Disjunction)):
            pending = [e for e in node.events if id(e) not in counts]
            if pending:
                stack.extend(pending)
                continue
            children = [counts[id(e)] for e in node.events]
            if isinstance(node, Conjunction):
                total = 1
                for count in children:
                    total = min(total * count, cap)
            else:
                total = min(sum(children), cap)
        else:
            total = len(node.dnf_clauses())
        counts[id(node)] = total
        stack.pop()
    return counts[id(event)]


def event_to_clauses(event: Event) -> List[Clause]:
    """Normalize an event to DNF and solve each clause (unsatisfiable dropped).

    Raises :class:`~repro.errors.SpplParseError` before expanding an event
    whose DNF has more than ``MAX_DNF_CLAUSES`` clauses.
    """
    count = dnf_clause_count(event)
    if count > MAX_DNF_CLAUSES:
        raise SpplParseError(
            "Event expands to more than %d DNF clauses; split it into "
            "smaller queries." % (MAX_DNF_CLAUSES,))
    clauses: List[Clause] = []
    for literals in event.dnf_clauses():
        clause = solve_clause(literals)
        if clause is not None:
            clauses.append(clause)
    return clauses


def clause_intersection(a: Clause, b: Clause) -> Optional[Clause]:
    """Intersect two clauses; return None if the intersection is empty."""
    result: Clause = dict(a)
    for symbol, values in b.items():
        if symbol in result:
            merged = intersection(result[symbol], values)
            if merged.is_empty:
                return None
            result[symbol] = merged
        else:
            result[symbol] = values
    return result


def clauses_overlap(a: Clause, b: Clause) -> bool:
    """Return True unless the two clauses are provably disjoint."""
    return clause_intersection(a, b) is not None


def clause_subtract(clause: Clause, minus: Clause) -> List[Clause]:
    """Decompose ``clause \\ minus`` into pairwise-disjoint clauses.

    Implements the hyperrectangle-difference identity used by ``disjoin``
    (Appendix D.1): the difference of two hyperrectangles is a disjoint
    union of at most ``len(minus)`` hyperrectangles.
    """
    pieces: List[Clause] = []
    prefix: Clause = dict(clause)
    for symbol, mset in minus.items():
        cset = prefix.get(symbol)
        removed = complement(mset, universe="both")
        piece_set = removed if cset is None else intersection(cset, removed)
        if not piece_set.is_empty:
            piece = dict(prefix)
            piece[symbol] = piece_set
            pieces.append(piece)
        kept = mset if cset is None else intersection(cset, mset)
        if kept.is_empty:
            break
        prefix[symbol] = kept
    return pieces


def disjoin_clauses(clauses: List[Clause]) -> List[Clause]:
    """Rewrite a list of clauses into an equivalent pairwise-disjoint list."""
    disjoint: List[Clause] = []
    seen: List[Clause] = []
    for clause in clauses:
        pieces = [clause]
        for prev in seen:
            next_pieces: List[Clause] = []
            for piece in pieces:
                if clauses_overlap(piece, prev):
                    next_pieces.extend(clause_subtract(piece, prev))
                else:
                    next_pieces.append(piece)
            pieces = next_pieces
            if not pieces:
                break
        disjoint.extend(pieces)
        seen.append(clause)
    return disjoint


def event_to_disjoint_clauses(event: Event) -> List[Clause]:
    """Solve an event into a pairwise-disjoint list of clauses."""
    return disjoin_clauses(event_to_clauses(event))


def restrict_clause(clause: Clause, symbols) -> Clause:
    """Project a clause onto the given collection of symbols."""
    keep = set(symbols)
    return {symbol: values for symbol, values in clause.items() if symbol in keep}
