"""Abstract base class for sum-product expressions (SPEs).

An SPE symbolically represents a joint probability distribution over a set
of program variables (its *scope*).  The concrete node types are
:class:`~repro.spe.leaf.Leaf`, :class:`~repro.spe.sum_node.SumSPE` and
:class:`~repro.spe.product_node.ProductSPE`.

Public queries (all exact):

* :meth:`SPE.logprob` / :meth:`SPE.prob` -- probability of an event,
* :meth:`SPE.logprob_batch` -- probabilities of many events in one pass,
* :meth:`SPE.condition` -- posterior SPE given a positive-probability event
  (Theorem 4.1: SPEs are closed under conditioning),
* :meth:`SPE.constrain` -- posterior SPE given (possibly measure-zero)
  equality constraints on non-transformed variables (``condition0``),
* :meth:`SPE.logpdf` / :meth:`SPE.logpdf_batch` -- mixed-type density of
  point assignments,
* :meth:`SPE.sample` / :meth:`SPE.sample_bulk` -- forward sampling
  (``sample_bulk`` draws all ``n`` joint samples with one vectorized
  distribution call per visited leaf).

Inference memoizes on *structural node uids* (see
:mod:`~repro.spe.interning`) so that deduplicated (shared) sub-expressions
are visited once per query, which is what makes inference linear-time in
the size of the expression graph (Theorem 4.3).  Uids are never reused, so
the same caches can persist across queries (:class:`QueryCache`) without
the id()-aliasing hazards of address-based keys.  All traversals are
iterative (explicit stack), so model depth is not bounded by Python's
recursion limit.
"""

from __future__ import annotations

import math
import threading
from abc import ABC
from abc import abstractmethod
from collections import OrderedDict
from typing import Dict
from typing import FrozenSet
from typing import Iterable
from typing import List
from typing import Optional
from typing import Sequence
from typing import Set
from typing import Tuple

from ..distributions import NEG_INF
from ..distributions import log_add
from ..events import Clause
from ..events import Event
from ..events import event_to_disjoint_clauses
from ..transforms import Transform
from .interning import next_uid

#: Density values are lexicographic pairs (number of continuous dimensions
#: participating, log density).  See Lst. 1d of the paper.
DensityPair = Tuple[int, float]

#: Default entry bound of a :class:`QueryCache` (all kinds together).
#: Large enough that interactive workloads never evict, small enough that
#: a long-running service cannot pin unbounded posterior subgraphs.
DEFAULT_CACHE_ENTRIES = 100_000

#: The traversal kinds a :class:`Memo` key starts with.
CACHE_KINDS = ("logprob", "condition", "logpdf", "constrain")

#: Sentinel distinguishing "not cached" from cached None results.
_ABSENT = object()


class ZeroProbabilityError(ValueError):
    """Conditioning on an event (or equality assignment) of probability zero.

    Raised by both :meth:`SPE.condition` and :meth:`SPE.constrain` so
    callers can handle the two failure modes uniformly; the offending
    event/assignment is rendered in the message and kept on the ``event``
    attribute.  Subclasses ``ValueError`` for backward compatibility.
    """

    def __init__(self, message: str, event=None):
        super().__init__(message)
        self.event = event


def clause_key(clause: Clause):
    """A hashable key identifying a solved clause (used for memoization)."""
    return frozenset(clause.items())


def assignment_key(assignment: Dict[str, object]):
    """A hashable key identifying an equality-constraint assignment."""
    return frozenset(assignment.items())


class Memo:
    """A locked LRU of traversal results, shared by the queries that use it.

    Keys are tuples ``(kind, node uid, restricted clause/assignment)``,
    where ``kind`` names the traversal (``"logprob"``, ``"condition"``,
    ``"logpdf"`` or ``"constrain"``).  Results can therefore never be
    confused between two traversals or two assignments, and uids (unlike
    ``id()``) are never recycled, so one cache stays correct across any
    number of queries.

    :meth:`get` refreshes an entry as most recently used, and :meth:`put`
    evicts least-recently-used entries while the cache holds more than
    ``max_entries`` (``None``, the default of this scratch cache, never
    evicts).  Eviction is purely a memory policy: every traversal keeps
    the entries it reads in a working set of its own (see
    :mod:`~repro.spe.traversal`), so eviction or :meth:`clear` on another
    thread never reaches a running query, and an evicted result is
    recomputed bit-identically the next time it is needed.

    One lock guards the entries and the ``hits``/``misses``/``evictions``
    counters, so the counters are exact under concurrency.
    """

    def __init__(self, max_entries: Optional[int] = None):
        if max_entries is not None:
            max_entries = int(max_entries)
            if max_entries < 1:
                raise ValueError(
                    "QueryCache max_entries must be positive or None, got %r."
                    % (max_entries,)
                )
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._data: "OrderedDict[tuple, object]" = OrderedDict()
        self._counts: Dict[str, int] = dict.fromkeys(CACHE_KINDS, 0)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: tuple, default=None, count: bool = False):
        """The cached value for ``key`` (refreshed as most recently used),
        or ``default``; ``count=True`` tallies the lookup as a hit or miss
        (a traversal counts only its root lookup)."""
        with self._lock:
            value = self._data.get(key, _ABSENT)
            if value is _ABSENT:
                if count:
                    self.misses += 1
                return default
            self._data.move_to_end(key)
            if count:
                self.hits += 1
            return value

    def put(self, key: tuple, value) -> None:
        """Store ``value`` as most recently used, evicting past the bound."""
        data = self._data
        with self._lock:
            if key not in data:
                self._counts[key[0]] = self._counts.get(key[0], 0) + 1
            data[key] = value
            data.move_to_end(key)
            if self.max_entries is not None:
                while len(data) > self.max_entries:
                    old, _ = data.popitem(last=False)
                    self._counts[old[0]] -= 1
                    self.evictions += 1

    def total_entries(self) -> int:
        """Number of cached entries, all kinds together."""
        return len(self._data)

    def stats(self) -> Dict[str, int]:
        """Number of cached entries per kind (for diagnostics)."""
        with self._lock:
            return dict(self._counts)

    def clear(self, uids: Optional[Iterable[int]] = None) -> None:
        """Drop cached entries.

        With ``uids=None`` every entry and every counter is dropped.  With
        an iterable of node uids, only entries keyed on those uids are
        dropped (counters kept): this is how a model scopes clearing to
        *its own* reachable sub-expressions, so clearing a posterior's
        cache does not wipe entries that only its parent (or an unrelated
        model sharing the cache) can reach.
        """
        with self._lock:
            if uids is None:
                self._data.clear()
                self._counts = dict.fromkeys(CACHE_KINDS, 0)
                self.hits = self.misses = self.evictions = 0
                return
            uids = set(uids)
            for key in [key for key in self._data if key[1] in uids]:
                del self._data[key]
                self._counts[key[0]] -= 1


class QueryCache(Memo):
    """The bounded, persistent cross-query cache a model owns.

    Entries are keyed on structural uids, so the cache remains correct
    across repeated queries, across ``condition`` / ``constrain`` chains
    (posterior models share their parent's cache, so sub-expressions
    shared between prior and posterior hit the same entries), and across
    structurally-equal models compiled separately.

    Unlike the scratch :class:`Memo`, it is bounded by default
    (:data:`DEFAULT_CACHE_ENTRIES`).  Cached ``condition``/``constrain``
    entries hold references to posterior sub-expressions, keeping them
    alive; the entry bound therefore also bounds the retained posterior
    subgraphs.  Call :meth:`clear` (optionally scoped to one model's
    reachable uids) to release memory eagerly between unrelated
    workloads.
    """

    def __init__(self, max_entries: Optional[int] = DEFAULT_CACHE_ENTRIES):
        super().__init__(max_entries)

    def stats(self) -> Dict[str, int]:
        """Entry counts per kind plus the eviction count and the bound."""
        with self._lock:
            stats = dict(self._counts)
            stats["evictions"] = self.evictions
            stats["max_entries"] = self.max_entries
            return stats


class SPE(ABC):
    """A sum-product expression over a finite set of program variables."""

    def __init__(self):
        #: Structural uid: unique per node, never reused (see interning).
        self._uid = next_uid()
        #: Canonical representative once interned (self when canonical).
        self._canonical: Optional["SPE"] = None
        #: Unique-table key of the representative (None until interned).
        self._structural_key: Optional[tuple] = None

    # -- Structure -----------------------------------------------------------

    @property
    def scope(self) -> FrozenSet[str]:
        """The set of program variables this expression defines (each node
        type sets ``_scope`` in its constructor)."""
        return self._scope

    @abstractmethod
    def children_nodes(self) -> List["SPE"]:
        """Immediate children (empty for leaves)."""

    def _restrict(self, clause: Clause) -> Clause:
        """Restrict a clause/assignment to the variables of this scope."""
        return {s: v for s, v in clause.items() if s in self._scope}

    def _intern_local_key(self, child_reps) -> Optional[tuple]:
        """Structural key given interned children; None = no identity."""
        return None

    def _intern_rebuild(self, child_reps) -> "SPE":
        """Clone this node with its children replaced by representatives."""
        raise TypeError("Cannot rebuild node %r." % (self,))

    def reachable_uids(self) -> Set[int]:
        """Uids of every node reachable from this expression.

        These are exactly the uids persistent-cache entries for queries
        against this expression are keyed on, which is what lets a model
        scope :meth:`QueryCache.clear` to its own entries.
        """
        seen: Set[int] = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if node._uid in seen:
                continue
            seen.add(node._uid)
            stack.extend(node.children_nodes())
        return seen

    def size(self) -> int:
        """Number of unique nodes in the expression graph (DAG size)."""
        return len(self.reachable_uids())

    def tree_size(self) -> int:
        """Number of nodes of the fully-unrolled (unshared) expression tree.

        This measures the size the expression would have without the
        deduplication optimization of Sec. 5.1; the ratio
        ``tree_size() / size()`` is the compression ratio reported in
        Table 1.  Computed iteratively with exact integer arithmetic.
        """
        cache: Dict[int, int] = {}
        stack = [self]
        while stack:
            node = stack[-1]
            if node._uid in cache:
                stack.pop()
                continue
            children = node.children_nodes()
            pending = [c for c in children if c._uid not in cache]
            if pending:
                stack.extend(pending)
                continue
            cache[node._uid] = 1 + sum(cache[c._uid] for c in children)
            stack.pop()
        return cache[self._uid]

    # -- Per-clause operations (memoized, iterative) --------------------------

    def logprob_clause(self, clause: Clause, memo: Memo) -> float:
        """Log probability of a solved clause (restricted to this scope)."""
        from .traversal import logprob_clause

        return logprob_clause(self, clause, memo)

    def condition_clause(self, clause: Clause, memo: Memo) -> Optional["SPE"]:
        """Condition on a solved clause; None if it has probability zero."""
        from .traversal import condition_clause

        return condition_clause(self, clause, memo)

    def logpdf_pair(self, assignment: Dict[str, object], memo: Memo) -> DensityPair:
        """Lexicographic density of an assignment to non-transformed variables."""
        from .traversal import logpdf_pair

        return logpdf_pair(self, assignment, memo)

    def constrain_clause(
        self, assignment: Dict[str, object], memo: Memo
    ) -> Optional["SPE"]:
        """Condition on equality constraints; None if the density is zero."""
        from .traversal import constrain_clause

        return constrain_clause(self, assignment, memo)

    @abstractmethod
    def transform(self, symbol: str, expression: Transform) -> "SPE":
        """Define a derived variable ``symbol = expression`` (Transform rules)."""

    def sample_assignment(self, rng) -> Dict[str, object]:
        """Draw one joint sample of every variable in scope."""
        from .traversal import sample_assignment

        return sample_assignment(self, rng)

    # -- Public query API -----------------------------------------------------

    def logprob(self, event: Event, memo: Memo = None) -> float:
        """Exact log probability of ``event``."""
        self._check_event_scope(event)
        memo = memo if memo is not None else Memo()
        clauses = event_to_disjoint_clauses(event)
        terms = [self.logprob_clause(clause, memo) for clause in clauses]
        return log_add(terms)

    def prob(self, event: Event, memo: Memo = None) -> float:
        """Exact probability of ``event``."""
        return math.exp(self.logprob(event, memo=memo))

    def logprob_batch(self, events: Sequence[Event], memo: Memo = None) -> List[float]:
        """Exact log probabilities of many events sharing one traversal cache.

        Sub-expression results computed for one event are reused by every
        later event in the batch, so a batch over related events (e.g. a
        CDF grid, or per-timestep marginals) costs far less than
        independent :meth:`logprob` calls.
        """
        memo = memo if memo is not None else Memo()
        return [self.logprob(event, memo=memo) for event in events]

    def condition(self, event: Event, memo: Memo = None) -> "SPE":
        """Return the posterior SPE given a positive-probability ``event``.

        Raises :class:`ZeroProbabilityError` when the event has probability
        zero; the memo/cache is left uncorrupted (every entry written up to
        the failure is a complete, correct traversal result).
        """
        from .sum_node import spe_sum

        self._check_event_scope(event)
        memo = memo if memo is not None else Memo()
        clauses = event_to_disjoint_clauses(event)
        weighted: List[Tuple[SPE, float]] = []
        for clause in clauses:
            log_weight = self.logprob_clause(clause, memo)
            if log_weight == NEG_INF:
                continue
            conditioned = self.condition_clause(clause, memo)
            if conditioned is None:
                continue
            weighted.append((conditioned, log_weight))
        if not weighted:
            raise ZeroProbabilityError(
                "Conditioning event has probability zero: %r." % (event,),
                event,
            )
        children = [spe for spe, _ in weighted]
        log_weights = [w for _, w in weighted]
        return spe_sum(children, log_weights)

    def logpdf(self, assignment: Dict[str, object], memo: Memo = None) -> float:
        """Log density of an assignment to non-transformed variables."""
        memo = memo if memo is not None else Memo()
        self._check_assignment_scope(assignment)
        _, log_density = self.logpdf_pair(assignment, memo)
        return log_density

    def logpdf_batch(
        self, assignments: Sequence[Dict[str, object]], memo: Memo = None
    ) -> List[float]:
        """Log densities of many assignments sharing one traversal cache."""
        memo = memo if memo is not None else Memo()
        return [self.logpdf(assignment, memo=memo) for assignment in assignments]

    def constrain(self, assignment: Dict[str, object], memo: Memo = None) -> "SPE":
        """Posterior SPE given equality constraints ``{X == x, Y == y, ...}``.

        The constraints may have probability zero (e.g. observing a
        continuous variable); the result follows the generalized density
        semantics of the paper (Remark 4.2 / Appendix D.3).  When the
        assignment has zero *density* (it lies outside the support), a
        :class:`ZeroProbabilityError` is raised -- the same exception type
        as :meth:`condition` -- and the memo/cache is left uncorrupted.
        """
        memo = memo if memo is not None else Memo()
        self._check_assignment_scope(assignment)
        result = self.constrain_clause(assignment, memo)
        if result is None:
            raise ZeroProbabilityError(
                "Constraint assignment has zero density: %r." % (assignment,),
                assignment,
            )
        return result

    def sample(self, rng, n: int = None):
        """Draw one sample (dict) or a list of ``n`` samples.

        The ``n``-sample path is vectorized: every visited leaf draws all
        of its values with a single numpy/scipy call (see
        :meth:`sample_bulk`) instead of ``n`` independent traversals.
        """
        if n is None:
            return self.sample_assignment(rng)
        columns = self.sample_bulk(rng, n)
        # tolist() converts numpy scalars back to Python int/float/str, so
        # row dictionaries are interchangeable with the n=None path (and
        # JSON-serializable), matching the pre-vectorization API.
        rows = {s: column.tolist() for s, column in columns.items()}
        symbols = list(rows)
        return [{s: rows[s][i] for s in symbols} for i in range(n)]

    def sample_bulk(self, rng, n: int) -> Dict[str, "object"]:
        """Draw ``n`` joint samples, returned as columns (numpy arrays).

        The result maps each variable in scope to an array of length ``n``;
        row ``i`` across all columns is one joint sample.  This is the fast
        path for large ``n``: mixture branches are chosen for all samples
        at once and each leaf samples its entire batch with one vectorized
        distribution call.
        """
        from .traversal import sample_bulk

        return sample_bulk(self, rng, n)

    def sample_subset(self, symbols, rng, n: int = None):
        """Sample only the requested variables."""
        keep = set(symbols)
        if n is None:
            assignment = self.sample_assignment(rng)
            return {k: v for k, v in assignment.items() if k in keep}
        columns = self.sample_bulk(rng, n)
        rows = {s: column.tolist() for s, column in columns.items() if s in keep}
        kept = list(rows)
        return [{s: rows[s][i] for s in kept} for i in range(n)]

    # -- Validation helpers ---------------------------------------------------

    def _check_event_scope(self, event: Event) -> None:
        missing = set(event.get_symbols()) - set(self.scope)
        if missing:
            raise ValueError(
                "Event mentions variables %s that are not in the model scope."
                % (sorted(missing),)
            )

    def _check_assignment_scope(self, assignment: Dict[str, object]) -> None:
        missing = set(assignment) - set(self.scope)
        if missing:
            raise ValueError(
                "Assignment mentions variables %s that are not in the model scope."
                % (sorted(missing),)
            )
