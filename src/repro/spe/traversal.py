"""Iterative (recursion-safe) traversal engine for sum-product expressions.

Every inference query -- probability, conditioning, density, equality
constraining -- and both sampling paths walk the expression graph with an
explicit stack instead of Python recursion, so model depth (e.g. a
10,000-step HMM chain) is bounded by memory, not by the interpreter's
recursion limit.

All four inference traversals memoize into a :class:`~repro.spe.base.Memo`
(or its bounded subclass :class:`~repro.spe.base.QueryCache`), keyed on
``(kind, node uid, restricted clause/assignment)``:

* the *node uid* is the structural uid of :mod:`~repro.spe.interning` --
  shared sub-expressions are therefore visited once per query (the
  linear-time guarantee of Theorem 4.3), and entries stay valid across
  queries and across structurally-equal models;
* the *restricted clause/assignment* part makes one cache safe for any
  number of different events/assignments (a single ``(id(self),)`` key, as
  older revisions used for densities, silently returned stale results when
  a memo was reused across assignments).

Each traversal keeps the entries it reads or writes in a working set of
its own (:class:`_WorkingSet`): a lookup tries the working set first and
then the shared cache, keeping what it finds, and each computed result
goes into both.  A frame reads its children back from the working set
after a pending-children pass, so the shared cache may evict (or another
thread clear) any entry at any moment without reaching a running query;
the shared cache stays within its bound at every step, however large one
query is.

The post-order pattern is shared by all traversals: a frame is re-examined
after its missing children have been computed, so each frame is visited at
most twice and the total work is linear in the number of graph edges.
"""

from __future__ import annotations

from typing import Dict
from typing import List
from typing import Optional

import numpy as np

from ..distributions import NEG_INF
from ..distributions import log_add
from ..events import Clause
from .base import DensityPair
from .base import Memo
from .base import SPE
from .base import assignment_key
from .base import clause_key
from .leaf import Leaf
from .product_node import ProductSPE
from .product_node import spe_product
from .sum_node import SumSPE
from .sum_node import spe_sum


#: Sentinel distinguishing "not cached" from cached None/0.0 results.
_MISSING = object()


class _WorkingSet:
    """The entries of one traversal of one ``kind``, over a shared cache.

    Keys are ``(node uid, restricted key)``; the shared cache holds the
    same entries under ``(kind, node uid, restricted key)``.  Membership
    tests fall through to the shared cache and keep what they find, and
    writes go to both, so every entry the traversal has seen stays
    readable until it returns.
    """

    __slots__ = ("kind", "shared", "local")

    def __init__(self, kind: str, shared: Memo):
        self.kind = kind
        self.shared = shared
        self.local: Dict[tuple, object] = {}

    def root(self, key: tuple):
        """The counted top-level lookup (``_MISSING`` when not cached)."""
        return self.shared.get((self.kind,) + key, _MISSING, count=True)

    def __contains__(self, key: tuple) -> bool:
        if key in self.local:
            return True
        value = self.shared.get((self.kind,) + key, _MISSING)
        if value is _MISSING:
            return False
        self.local[key] = value
        return True

    def __getitem__(self, key: tuple):
        return self.local[key]

    def __setitem__(self, key: tuple, value) -> None:
        self.local[key] = value
        self.shared.put((self.kind,) + key, value)


def _root_key(node: SPE, clause: Clause, keyer) -> tuple:
    """Restrict ``clause`` to ``node`` and build its working-set key."""
    return (node._uid, keyer(node._restrict(clause)))


# ---------------------------------------------------------------------------
# Probability of a solved clause.
# ---------------------------------------------------------------------------

def logprob_clause(root: SPE, clause: Clause, memo: Memo) -> float:
    """Log probability of a solved clause (iterative, memoized)."""
    logs = _WorkingSet("logprob", memo)
    key0 = _root_key(root, clause, clause_key)
    cached = logs.root(key0)
    if cached is not _MISSING:
        return cached
    stack = [(root, clause)]
    while stack:
        node, incoming = stack[-1]
        restricted = node._restrict(incoming)
        key = (node._uid, clause_key(restricted))
        if key in logs:
            stack.pop()
            continue
        if isinstance(node, Leaf):
            logs[key] = node._logprob_restricted(restricted)
            stack.pop()
            continue
        if isinstance(node, SumSPE):
            child_keys = []
            pending = []
            for child in node.children:
                child_restricted = child._restrict(restricted)
                child_key = (child._uid, clause_key(child_restricted))
                child_keys.append(child_key)
                if child_key not in logs:
                    pending.append((child, restricted))
            if pending:
                stack.extend(pending)
                continue
            logs[key] = log_add(
                [w + logs[k] for w, k in zip(node.log_weights, child_keys)]
            )
            stack.pop()
            continue
        # ProductSPE: only components mentioned by the clause contribute.
        child_keys = []
        pending = []
        for child in node.children:
            child_clause = {s: v for s, v in restricted.items() if s in child.scope}
            if not child_clause:
                continue
            child_key = (child._uid, clause_key(child_clause))
            child_keys.append(child_key)
            if child_key not in logs:
                pending.append((child, child_clause))
        if pending:
            stack.extend(pending)
            continue
        logs[key] = sum(logs[k] for k in child_keys)
        stack.pop()
    return logs[key0]


# ---------------------------------------------------------------------------
# Conditioning on a solved clause.
# ---------------------------------------------------------------------------

def condition_clause(root: SPE, clause: Clause, memo: Memo) -> Optional[SPE]:
    """Condition on a solved clause; None if it has probability zero."""
    conds = _WorkingSet("condition", memo)
    key0 = _root_key(root, clause, clause_key)
    cached = conds.root(key0)
    if cached is not _MISSING:
        return cached
    stack = [(root, clause)]
    while stack:
        node, incoming = stack[-1]
        restricted = node._restrict(incoming)
        key = (node._uid, clause_key(restricted))
        if key in conds:
            stack.pop()
            continue
        if isinstance(node, Leaf):
            conds[key] = node._condition_restricted(restricted)
            stack.pop()
            continue
        if isinstance(node, SumSPE):
            # Children whose branch retains positive probability must be
            # conditioned; their probabilities come from the (shared,
            # iterative) logprob traversal.
            child_logprobs = [
                logprob_clause(child, restricted, memo) for child in node.children
            ]
            pending = []
            for child, child_logprob in zip(node.children, child_logprobs):
                if child_logprob == NEG_INF:
                    continue
                child_key = (child._uid, clause_key(child._restrict(restricted)))
                if child_key not in conds:
                    pending.append((child, restricted))
            if pending:
                stack.extend(pending)
                continue
            children: List[SPE] = []
            log_weights: List[float] = []
            for w, child, child_logprob in zip(
                node.log_weights, node.children, child_logprobs
            ):
                if child_logprob == NEG_INF:
                    continue
                conditioned = conds[
                    (child._uid, clause_key(child._restrict(restricted)))
                ]
                if conditioned is None:
                    continue
                children.append(conditioned)
                log_weights.append(w + child_logprob)
            conds[key] = spe_sum(children, log_weights) if children else None
            stack.pop()
            continue
        # ProductSPE: condition each mentioned component independently.
        infos = []
        pending = []
        for child in node.children:
            child_clause = {s: v for s, v in restricted.items() if s in child.scope}
            if not child_clause:
                infos.append((child, None))
                continue
            child_key = (child._uid, clause_key(child_clause))
            infos.append((child, child_key))
            if child_key not in conds:
                pending.append((child, child_clause))
        if pending:
            stack.extend(pending)
            continue
        new_children: List[SPE] = []
        changed = False
        failed = False
        for child, child_key in infos:
            if child_key is None:
                new_children.append(child)
                continue
            conditioned = conds[child_key]
            if conditioned is None:
                failed = True
                break
            changed = changed or (conditioned is not child)
            new_children.append(conditioned)
        if failed:
            conds[key] = None
        elif not changed:
            conds[key] = node
        else:
            conds[key] = spe_product(new_children)
        stack.pop()
    return conds[key0]


# ---------------------------------------------------------------------------
# Lexicographic density of an equality assignment.
# ---------------------------------------------------------------------------

def logpdf_pair(root: SPE, assignment: Dict[str, object], memo: Memo) -> DensityPair:
    """Lexicographic density (continuous dimension count, log density)."""
    dens = _WorkingSet("logpdf", memo)
    key0 = _root_key(root, assignment, assignment_key)
    cached = dens.root(key0)
    if cached is not _MISSING:
        return cached
    stack = [(root, assignment)]
    while stack:
        node, incoming = stack[-1]
        restricted = node._restrict(incoming)
        key = (node._uid, assignment_key(restricted))
        if key in dens:
            stack.pop()
            continue
        if isinstance(node, Leaf):
            dens[key] = node._logpdf_restricted(restricted)
            stack.pop()
            continue
        if isinstance(node, SumSPE):
            child_keys = []
            pending = []
            for child in node.children:
                child_key = (child._uid, assignment_key(child._restrict(restricted)))
                child_keys.append(child_key)
                if child_key not in dens:
                    pending.append((child, restricted))
            if pending:
                stack.extend(pending)
                continue
            positive = [
                (dens[k][0], dens[k][1], w)
                for w, k in zip(node.log_weights, child_keys)
                if dens[k][1] > NEG_INF
            ]
            if not positive:
                dens[key] = (1, NEG_INF)
            else:
                min_count = min(d for d, _, _ in positive)
                terms = [w + lp for d, lp, w in positive if d == min_count]
                dens[key] = (min_count, log_add(terms))
            stack.pop()
            continue
        # ProductSPE: densities of mentioned components add lexicographically.
        child_keys = []
        pending = []
        for child in node.children:
            child_assignment = {
                s: v for s, v in restricted.items() if s in child.scope
            }
            if not child_assignment:
                continue
            child_key = (child._uid, assignment_key(child_assignment))
            child_keys.append(child_key)
            if child_key not in dens:
                pending.append((child, child_assignment))
        if pending:
            stack.extend(pending)
            continue
        count = 0
        total = 0.0
        for k in child_keys:
            child_count, child_logpdf = dens[k]
            count += child_count
            total += child_logpdf
        dens[key] = (count, total)
        stack.pop()
    return dens[key0]


# ---------------------------------------------------------------------------
# Conditioning on (possibly measure-zero) equality constraints.
# ---------------------------------------------------------------------------

def constrain_clause(
    root: SPE, assignment: Dict[str, object], memo: Memo
) -> Optional[SPE]:
    """Condition on equality constraints; None if the density is zero."""
    cons = _WorkingSet("constrain", memo)
    key0 = _root_key(root, assignment, assignment_key)
    cached = cons.root(key0)
    if cached is not _MISSING:
        return cached
    stack = [(root, assignment)]
    while stack:
        node, incoming = stack[-1]
        restricted = node._restrict(incoming)
        key = (node._uid, assignment_key(restricted))
        if key in cons:
            stack.pop()
            continue
        if isinstance(node, Leaf):
            cons[key] = node._constrain_restricted(restricted)
            stack.pop()
            continue
        if isinstance(node, SumSPE):
            # Only children achieving the minimal continuous-dimension count
            # survive (the lexicographic semantics of Remark 4.2).
            densities = [
                logpdf_pair(child, restricted, memo) for child in node.children
            ]
            positive = [
                (i, d, lp) for i, (d, lp) in enumerate(densities) if lp > NEG_INF
            ]
            if not positive:
                cons[key] = None
                stack.pop()
                continue
            min_count = min(d for _, d, _ in positive)
            pending = []
            for i, d, _ in positive:
                if d != min_count:
                    continue
                child = node.children[i]
                child_key = (child._uid, assignment_key(child._restrict(restricted)))
                if child_key not in cons:
                    pending.append((child, restricted))
            if pending:
                stack.extend(pending)
                continue
            children: List[SPE] = []
            log_weights: List[float] = []
            for i, d, lp in positive:
                if d != min_count:
                    continue
                child = node.children[i]
                constrained = cons[
                    (child._uid, assignment_key(child._restrict(restricted)))
                ]
                if constrained is None:
                    continue
                children.append(constrained)
                log_weights.append(node.log_weights[i] + lp)
            cons[key] = spe_sum(children, log_weights) if children else None
            stack.pop()
            continue
        # ProductSPE: constrain each mentioned component independently.
        infos = []
        pending = []
        for child in node.children:
            child_assignment = {
                s: v for s, v in restricted.items() if s in child.scope
            }
            if not child_assignment:
                infos.append((child, None))
                continue
            child_key = (child._uid, assignment_key(child_assignment))
            infos.append((child, child_key))
            if child_key not in cons:
                pending.append((child, child_assignment))
        if pending:
            stack.extend(pending)
            continue
        new_children: List[SPE] = []
        changed = False
        failed = False
        for child, child_key in infos:
            if child_key is None:
                new_children.append(child)
                continue
            constrained = cons[child_key]
            if constrained is None:
                failed = True
                break
            changed = changed or (constrained is not child)
            new_children.append(constrained)
        if failed:
            cons[key] = None
        elif not changed:
            cons[key] = node
        else:
            cons[key] = spe_product(new_children)
        stack.pop()
    return cons[key0]


# ---------------------------------------------------------------------------
# Derived variables.
# ---------------------------------------------------------------------------

def transform_spe(root: SPE, symbol: str, expression) -> SPE:
    """Define ``symbol = expression`` over ``root`` (iterative rebuild).

    Sums transform every child; products transform exactly the one
    component owning the expression's free variables (restriction R3);
    leaves extend their environment.  Shared sub-expressions are rebuilt
    once (memoized on node uid), and the walk is recursion-safe.
    """
    from .interning import maybe_intern

    rebuilt: Dict[int, SPE] = {}
    stack: List[SPE] = [root]
    while stack:
        node = stack[-1]
        if node._uid in rebuilt:
            stack.pop()
            continue
        if isinstance(node, Leaf):
            rebuilt[node._uid] = node.transform(symbol, expression)
            stack.pop()
            continue
        if isinstance(node, SumSPE):
            pending = [c for c in node.children if c._uid not in rebuilt]
            if pending:
                stack.extend(pending)
                continue
            children = [rebuilt[c._uid] for c in node.children]
            rebuilt[node._uid] = maybe_intern(SumSPE(children, node.log_weights))
            stack.pop()
            continue
        # ProductSPE: route the transform to the single owning component.
        if symbol in node.scope:
            raise ValueError(
                "Variable %r is already defined (restriction R1)." % (symbol,)
            )
        free = set(expression.get_symbols())
        owners = [
            i for i, child in enumerate(node.children) if free & set(child.scope)
        ]
        if len(owners) != 1 or not free <= set(node.children[owners[0]].scope):
            raise ValueError(
                "Transform for %r mentions variables %s spanning multiple "
                "independent components; multivariate transforms are ruled "
                "out by restriction (R3)." % (symbol, sorted(free))
            )
        owner = node.children[owners[0]]
        if owner._uid not in rebuilt:
            stack.append(owner)
            continue
        children = list(node.children)
        children[owners[0]] = rebuilt[owner._uid]
        rebuilt[node._uid] = maybe_intern(ProductSPE(children))
        stack.pop()
    return rebuilt[root._uid]


# ---------------------------------------------------------------------------
# Sampling.
# ---------------------------------------------------------------------------

def sample_assignment(root: SPE, rng) -> Dict[str, object]:
    """Draw one joint sample of every variable in scope (iterative)."""
    assignment: Dict[str, object] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            assignment.update(node._sample_one(rng))
        elif isinstance(node, SumSPE):
            index = rng.choice(len(node.children), p=node.weights)
            stack.append(node.children[int(index)])
        else:
            stack.extend(reversed(node.children))
    return assignment


def _topological_order(root: SPE) -> List[SPE]:
    """Unique nodes of the graph, every parent before its children."""
    post: List[SPE] = []
    seen = set()
    stack: List[SPE] = [root]
    expanded = set()
    while stack:
        node = stack[-1]
        if node._uid in seen:
            stack.pop()
            continue
        if node._uid not in expanded:
            expanded.add(node._uid)
            stack.extend(
                c for c in node.children_nodes() if c._uid not in seen
            )
            continue
        seen.add(node._uid)
        post.append(node)
        stack.pop()
    post.reverse()
    return post


def sample_bulk(
    root: SPE, rng, n: int, order: Optional[List[SPE]] = None
) -> Dict[str, "np.ndarray"]:
    """Draw ``n`` joint samples as columns, ONE vectorized draw per leaf.

    Nodes are processed in topological order (parents first) with the
    sample indices routed downward: a mixture selects branches for all of
    its pending samples with one ``rng.choice`` call, a product fans its
    index set out to every component, and -- because for any single sample
    each node is visited at most once (sums choose one branch; product
    components have disjoint scopes) -- the index sets arriving at a node
    from different parents are disjoint and can be concatenated.  Each
    node is therefore visited exactly once, and each visited leaf draws
    its entire batch with a single vectorized distribution call.

    ``order`` may supply a precomputed :func:`_topological_order` of
    ``root`` (the compiled engine caches it); the rng call sequence is
    unchanged, so drawn values are identical either way.
    """
    n = int(n)
    collected: Dict[str, List] = {}
    incoming: Dict[int, List[np.ndarray]] = {root._uid: [np.arange(n)]}
    for node in (_topological_order(root) if order is None else order):
        pieces = incoming.pop(node._uid, None)
        if not pieces:
            continue
        indexes = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        if len(indexes) == 0:
            continue
        if isinstance(node, Leaf):
            for symbol, values in node._sample_batch(rng, len(indexes)).items():
                collected.setdefault(symbol, []).append((indexes, values))
        elif isinstance(node, SumSPE):
            choices = rng.choice(
                len(node.children), size=len(indexes), p=node.weights
            )
            for i, child in enumerate(node.children):
                subset = indexes[choices == i]
                if len(subset):
                    incoming.setdefault(child._uid, []).append(subset)
        else:
            for child in node.children:
                incoming.setdefault(child._uid, []).append(indexes)
    columns: Dict[str, np.ndarray] = {}
    for symbol, pieces in collected.items():
        dtypes = [np.asarray(values).dtype for _, values in pieces]
        if all(d.kind in "iufb" for d in dtypes):
            dtype = np.result_type(*dtypes)
        else:
            dtype = object
        column = np.empty(n, dtype=dtype)
        for indexes, values in pieces:
            column[indexes] = values
        columns[symbol] = column
    return columns
