"""Events (predicates on transformed program variables) and clause solving."""

from .base import Containment
from .base import Conjunction
from .base import Disjunction
from .base import Event
from .base import EventNever
from .clauses import Clause
from .clauses import clause_intersection
from .clauses import clause_subtract
from .clauses import clauses_overlap
from .clauses import disjoin_clauses
from .clauses import event_to_clauses
from .clauses import event_to_disjoint_clauses
from .clauses import restrict_clause
from .clauses import solve_clause

__all__ = [
    "Clause",
    "Containment",
    "Conjunction",
    "Disjunction",
    "Event",
    "EventNever",
    "clause_intersection",
    "clause_subtract",
    "clauses_overlap",
    "disjoin_clauses",
    "event_to_clauses",
    "event_to_disjoint_clauses",
    "restrict_clause",
    "solve_clause",
]
