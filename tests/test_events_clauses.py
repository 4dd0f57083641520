"""Unit and property tests for solved clauses and the disjoin algorithm."""

import math
import time

import pytest
from hypothesis import given
from hypothesis import settings
from hypothesis import strategies as st

from repro.engine import parse_event
from repro.errors import SpplParseError
from repro.events import Conjunction
from repro.events import Disjunction
from repro.events import EventNever
from repro.events import MAX_DNF_CLAUSES
from repro.events import clause_intersection
from repro.events import clause_subtract
from repro.events import clauses_overlap
from repro.events import disjoin_clauses
from repro.events import dnf_clause_count
from repro.events import event_to_clauses
from repro.events import event_to_disjoint_clauses
from repro.events import restrict_clause
from repro.events import solve_clause
from repro.sets import interval
from repro.transforms import Id

X = Id("X")
Y = Id("Y")
Z = Id("Z")


def _clause_contains(clause, assignment) -> bool:
    return all(
        clause[symbol].contains(assignment[symbol]) for symbol in clause
    )


class TestSolveClause:
    def test_single_literal(self):
        clause = solve_clause([X < 1])
        assert set(clause) == {"X"}
        assert clause["X"].contains(0)

    def test_multiple_literals_same_variable_intersect(self):
        clause = solve_clause([X < 1, X >= 0])
        assert clause["X"] == interval(0, 1, False, True)

    def test_unsatisfiable_returns_none(self):
        assert solve_clause([X < 0, X > 1]) is None

    def test_multiple_variables(self):
        clause = solve_clause([X < 1, Y == "a"])
        assert set(clause) == {"X", "Y"}

    def test_transform_literal(self):
        clause = solve_clause([X ** 2 <= 4])
        assert clause["X"].contains(-2)
        assert not clause["X"].contains(3)


class TestEventToClauses:
    def test_disjunction_produces_multiple_clauses(self):
        clauses = event_to_clauses((X < 0) | (X > 1))
        assert len(clauses) == 2

    def test_unsatisfiable_clauses_dropped(self):
        clauses = event_to_clauses(((X < 0) & (X > 1)) | (Y > 0))
        assert len(clauses) == 1
        assert set(clauses[0]) == {"Y"}


class TestClauseOperations:
    def test_intersection_overlapping(self):
        a = {"X": interval(0, 2)}
        b = {"X": interval(1, 3), "Y": interval(0, 1)}
        merged = clause_intersection(a, b)
        assert merged["X"] == interval(1, 2)
        assert merged["Y"] == interval(0, 1)

    def test_intersection_disjoint_returns_none(self):
        a = {"X": interval(0, 1)}
        b = {"X": interval(2, 3)}
        assert clause_intersection(a, b) is None
        assert not clauses_overlap(a, b)

    def test_subtract_same_variable(self):
        a = {"X": interval(0, 10)}
        b = {"X": interval(2, 3)}
        pieces = clause_subtract(a, b)
        assert len(pieces) == 1
        piece = pieces[0]
        assert piece["X"].contains(1)
        assert piece["X"].contains(5)
        assert not piece["X"].contains(2.5)

    def test_subtract_unconstrained_variable(self):
        a = {"X": interval(0, 10)}
        b = {"Y": interval(0, 1)}
        pieces = clause_subtract(a, b)
        assert len(pieces) == 1
        assert not pieces[0]["Y"].contains(0.5)
        assert pieces[0]["Y"].contains(2)

    def test_restrict_clause(self):
        clause = {"X": interval(0, 1), "Y": interval(2, 3)}
        assert set(restrict_clause(clause, ["X"])) == {"X"}
        assert restrict_clause(clause, ["Z"]) == {}


_POINTS = [-5.0, -1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 7.0]


@st.composite
def random_events(draw):
    literals = []
    n = draw(st.integers(min_value=1, max_value=3))
    for _ in range(n):
        var = draw(st.sampled_from([X, Y, Z]))
        bound = draw(st.sampled_from(_POINTS))
        op = draw(st.sampled_from(["lt", "ge", "interval"]))
        if op == "lt":
            literals.append(var < bound)
        elif op == "ge":
            literals.append(var >= bound)
        else:
            literals.append((var >= bound - 1) & (var < bound + 1))
    event = literals[0]
    for literal in literals[1:]:
        if draw(st.booleans()):
            event = event & literal
        else:
            event = event | literal
    return event


class TestDisjoinProperties:
    @settings(max_examples=150, deadline=None)
    @given(random_events())
    def test_disjoint_clauses_cover_event(self, event):
        clauses = event_to_disjoint_clauses(event)
        for x in _POINTS:
            for y in _POINTS[::2]:
                for z in _POINTS[::3]:
                    assignment = {"X": x, "Y": y, "Z": z}
                    expected = event.evaluate(assignment)
                    hits = sum(
                        1 for clause in clauses if _clause_contains(clause, assignment)
                    )
                    assert (hits > 0) == expected
                    # Pairwise disjointness: at most one clause can match.
                    assert hits <= 1

    @settings(max_examples=100, deadline=None)
    @given(random_events())
    def test_disjoin_clauses_pairwise_disjoint(self, event):
        clauses = event_to_disjoint_clauses(event)
        for i, a in enumerate(clauses):
            for b in clauses[i + 1:]:
                merged = clause_intersection(a, b)
                if merged is not None:
                    # Any syntactic overlap must be measure-zero boundary
                    # sharing; no interior grid point may satisfy both.
                    for x in _POINTS:
                        for y in _POINTS:
                            assignment = {"X": x, "Y": y, "Z": 0.0}
                            both = _clause_contains(a, assignment) and _clause_contains(
                                b, assignment
                            )
                            assert not both

    def test_disjoin_simple_overlap_count(self):
        clauses = disjoin_clauses(
            [{"X": interval(0, 10)}, {"X": interval(5, 15)}]
        )
        assert len(clauses) == 2
        assert clauses[0]["X"] == interval(0, 10)
        assert not clauses[1]["X"].contains(7)
        assert clauses[1]["X"].contains(12)


# ---------------------------------------------------------------------------
# The DNF clause bound.
# ---------------------------------------------------------------------------

_LITERALS = st.sampled_from([X < 1, X > 3, Y < 0, Y >= 2, Z << {1, 2}, Z > 0])


def _events(depth):
    if depth == 0:
        return _LITERALS
    smaller = _events(depth - 1)
    return st.one_of(
        smaller,
        st.lists(smaller, min_size=1, max_size=3).map(
            lambda es: es[0] if len(es) == 1 else Conjunction(es)),
        st.lists(smaller, min_size=1, max_size=3).map(
            lambda es: es[0] if len(es) == 1 else Disjunction(es)),
        smaller.map(lambda e: ~e),
    )


def _two_way_conjunction(n):
    """``(X[0] > 3 or Z[0] == 1) and ...``: 2**n DNF clauses."""
    return " and ".join("(X[%d] > 3 or Z[%d] == 1)" % (i, i) for i in range(n))


class TestDnfClauseBound:
    @settings(max_examples=300)
    @given(_events(3))
    def test_count_is_the_expanded_clause_count(self, event):
        expected = len(event.dnf_clauses())
        assert dnf_clause_count(event) == min(expected, MAX_DNF_CLAUSES + 1)

    def test_count_of_never_is_zero(self):
        assert dnf_clause_count(EventNever()) == 0
        assert dnf_clause_count(Conjunction([EventNever(), X < 1])) == 0

    def test_bound_is_inclusive(self):
        n = MAX_DNF_CLAUSES.bit_length() - 1
        event = Conjunction([(X < i) | (Y > i) for i in range(n)])
        assert dnf_clause_count(event) == 2 ** n <= MAX_DNF_CLAUSES
        assert len(event_to_clauses(event)) <= 2 ** n
        larger = Conjunction([event, (Z < 0) | (Z > 1)])
        with pytest.raises(SpplParseError, match="DNF clauses"):
            event_to_clauses(larger)

    def test_huge_event_is_refused_without_expansion(self):
        event = Conjunction([(X < i) | (Y > i) | (Z < i) for i in range(400)])
        start = time.perf_counter()
        with pytest.raises(SpplParseError):
            event_to_disjoint_clauses(event)
        assert time.perf_counter() - start < 0.05

    def test_hmm20_ten_disjunctions_refused_in_under_10ms(self):
        from repro.serve.registry import ModelRegistry

        model = ModelRegistry().register_catalog("hmm20").model
        text = _two_way_conjunction(10)
        assert dnf_clause_count(parse_event(text, model.spe.scope)) > MAX_DNF_CLAUSES
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            with pytest.raises(SpplParseError, match="DNF clauses"):
                model.logprob(text)
            best = min(best, time.perf_counter() - start)
        assert best < 0.010
