"""Iterative (recursion-safe) traversal engine for sum-product expressions.

Every inference query -- probability, conditioning, density, equality
constraining -- and both sampling paths walk the expression graph with an
explicit stack instead of Python recursion, so model depth (e.g. a
10,000-step HMM chain) is bounded by memory, not by the interpreter's
recursion limit.

The four inference traversals are one post-order driver (:func:`_walk`)
plus one rule per kind and node type.  Results are memoized into a
:class:`~repro.spe.base.Memo` (or its bounded subclass
:class:`~repro.spe.base.QueryCache`), keyed on
``(kind, node uid, restricted clause/assignment)``:

* the *node uid* is the structural uid of :mod:`~repro.spe.interning` --
  shared sub-expressions are therefore visited once per query (the
  linear-time guarantee of Theorem 4.3), and entries stay valid across
  queries and across structurally-equal models;
* the *restricted clause/assignment* part makes one cache safe for any
  number of different events/assignments (a single ``(id(self),)`` key, as
  older revisions used for densities, silently returned stale results when
  a memo was reused across assignments).

A frame is ``(node, restricted, key)``, where ``key[0]`` names the kind.
The parent restricts each child's clause once and passes it in the frame
(a sum's children share its scope, so they take its clause and key as
they are).  A rule asks for each value it depends on through
``need(kind, child, restricted, restricted_key)``, which reads the walk's
own working set first and otherwise asks the shared cache once: a hit is
kept in the working set, a miss marks the key pending there and pushes a
frame.  A rule returns its value, or :data:`_PENDING` once it has pushed
the frames it still needs; children are pushed in child order.  So every
key is looked up in the shared cache at most once per walk, and
``condition``'s (``constrain``'s) sum rule gets its children's
probabilities (densities) as ordinary dependencies of the same walk.

Only the root lookup counts as a cache hit or miss.  Results go into the
working set and the shared cache; rules read their dependencies from the
working set, so the shared cache may evict (or another thread clear) any
entry at any moment without reaching a running query, and it stays within
its bound at every step.  Only complete results are ever put, so a rule
that raises leaves the shared cache uncorrupted.  A frame is re-examined
after the frames it pushed have finished, so the total work is linear in
the number of graph edges.
"""

from __future__ import annotations

from functools import partial
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
from .base import clause_key
from .leaf import Leaf
from .product_node import ProductSPE
from .product_node import spe_product
from .sum_node import SumSPE
from .sum_node import spe_sum


#: Marks a value not computed yet: a rule's "still waiting" result, and a
#: working-set entry whose frame is on the stack.  Never put in a cache.
_PENDING = object()


def _walk(kind: str, root: SPE, clause: Clause, memo: Memo):
    """The ``kind`` value of ``root`` under ``clause``: one post-order walk."""
    restricted = root._restrict(clause)
    root_key = (kind, root._uid, clause_key(restricted))
    value = memo.get(root_key, _PENDING, count=True)
    if value is not _PENDING:
        return value
    local = {root_key: _PENDING}
    stack = [(root, restricted, root_key)]

    def need(kind, node, restricted, restricted_key):
        key = (kind, node._uid, restricted_key)
        if key in local:
            value = local[key]
        else:
            value = local[key] = memo.get(key, _PENDING)
        if value is _PENDING:
            stack.append((node, restricted, key))
        return value

    while stack:
        node, restricted, key = stack[-1]
        if local[key] is not _PENDING:
            stack.pop()
            continue
        if isinstance(node, Leaf):
            value = _LEAF_RULES[key[0]](node, restricted)
        elif isinstance(node, SumSPE):
            value = _SUM_RULES[key[0]](node, restricted, key[2], need)
        else:
            value = _PRODUCT_RULES[key[0]](node, restricted, need)
        if value is not _PENDING:
            local[key] = value
            memo.put(key, value)
            stack.pop()
    return local[root_key]


def logprob_clause(root: SPE, clause: Clause, memo: Memo) -> float:
    """Log probability of a solved clause (iterative, memoized)."""
    return _walk("logprob", root, clause, memo)


def condition_clause(root: SPE, clause: Clause, memo: Memo) -> Optional[SPE]:
    """Condition on a solved clause; None if it has probability zero."""
    return _walk("condition", root, clause, memo)


def logpdf_pair(root: SPE, assignment: Dict[str, object], memo: Memo) -> DensityPair:
    """Lexicographic density (continuous dimension count, log density)."""
    return _walk("logpdf", root, assignment, memo)


def constrain_clause(
    root: SPE, assignment: Dict[str, object], memo: Memo
) -> Optional[SPE]:
    """Condition on equality constraints; None if the density is zero."""
    return _walk("constrain", root, assignment, memo)


# ---------------------------------------------------------------------------
# Rules.  Each returns its value, or _PENDING after pushing what it needs.
# ---------------------------------------------------------------------------

_LEAF_RULES = {
    "logprob": Leaf._logprob_restricted,
    "condition": Leaf._condition_restricted,
    "logpdf": Leaf._logpdf_restricted,
    "constrain": Leaf._constrain_restricted,
}


def _waiting(values) -> bool:
    """Whether any dependency in ``values`` is still pending."""
    for value in values:
        if value is _PENDING:
            return True
    return False


def _need_all(kind, children, restricted, restricted_key, need) -> list:
    """``need`` each child under the parent's clause (a sum's children)."""
    return [need(kind, child, restricted, restricted_key) for child in children]


def _split(node: ProductSPE, restricted) -> list:
    """``(component, its part of the clause)`` for each product component."""
    return [(child, child._restrict(restricted)) for child in node.children]


def _lowest_dimension(node: SumSPE, densities):
    """The children of positive density with the fewest continuous
    dimensions (Remark 4.2), as ``(count, [(weight + log density, child)])``;
    None when every density is zero."""
    positive = [
        (count, w + lp, child)
        for w, (count, lp), child in zip(node.log_weights, densities, node.children)
        if lp > NEG_INF
    ]
    if not positive:
        return None
    lowest = min(count for count, _, _ in positive)
    return lowest, [(w, child) for count, w, child in positive if count == lowest]


def _sum_logprob(node: SumSPE, restricted, restricted_key, need):
    logps = _need_all("logprob", node.children, restricted, restricted_key, need)
    if _waiting(logps):
        return _PENDING
    return log_add([w + lp for w, lp in zip(node.log_weights, logps)])


def _sum_condition(node: SumSPE, restricted, restricted_key, need):
    # Children whose branch retains positive probability are conditioned.
    logps = _need_all("logprob", node.children, restricted, restricted_key, need)
    if _waiting(logps):
        return _PENDING
    kept = [
        (w + lp, child)
        for w, lp, child in zip(node.log_weights, logps, node.children)
        if lp != NEG_INF
    ]
    return _sum_posterior("condition", kept, restricted, restricted_key, need)


def _sum_logpdf(node: SumSPE, restricted, restricted_key, need):
    densities = _need_all("logpdf", node.children, restricted, restricted_key, need)
    if _waiting(densities):
        return _PENDING
    lowest = _lowest_dimension(node, densities)
    if lowest is None:
        return (1, NEG_INF)
    return (lowest[0], log_add([w for w, _ in lowest[1]]))


def _sum_constrain(node: SumSPE, restricted, restricted_key, need):
    # Only children achieving the minimal continuous-dimension count
    # survive (the lexicographic semantics of Remark 4.2).
    densities = _need_all("logpdf", node.children, restricted, restricted_key, need)
    if _waiting(densities):
        return _PENDING
    lowest = _lowest_dimension(node, densities)
    if lowest is None:
        return None
    return _sum_posterior("constrain", lowest[1], restricted, restricted_key, need)


def _sum_posterior(kind, kept, restricted, restricted_key, need):
    """Mix the ``kind`` posteriors of the ``(log weight, child)`` pairs
    that are not None (None if every one is)."""
    children = [child for _, child in kept]
    posteriors = _need_all(kind, children, restricted, restricted_key, need)
    if _waiting(posteriors):
        return _PENDING
    mixed = [(p, w) for p, (w, _) in zip(posteriors, kept) if p is not None]
    if not mixed:
        return None
    return spe_sum([p for p, _ in mixed], [w for _, w in mixed])


def _need_mentioned(kind, node: ProductSPE, restricted, need) -> list:
    """``need`` each product component the clause mentions, in order."""
    return [
        need(kind, child, part, clause_key(part))
        for child, part in _split(node, restricted)
        if part
    ]


def _product_logprob(node: ProductSPE, restricted, need):
    # Only components mentioned by the clause contribute.
    logps = _need_mentioned("logprob", node, restricted, need)
    if _waiting(logps):
        return _PENDING
    return sum(logps)


def _product_logpdf(node: ProductSPE, restricted, need):
    # Densities of mentioned components add lexicographically.
    densities = _need_mentioned("logpdf", node, restricted, need)
    if _waiting(densities):
        return _PENDING
    count = 0
    total = 0.0
    for child_count, child_logpdf in densities:
        count += child_count
        total += child_logpdf
    return (count, total)


def _product_posterior(kind: str, node: ProductSPE, restricted, need):
    # Each mentioned component is conditioned (constrained) independently;
    # the others stay as they are.
    children = [
        need(kind, child, part, clause_key(part)) if part else child
        for child, part in _split(node, restricted)
    ]
    if _waiting(children):
        return _PENDING
    if None in children:
        return None
    if all(new is old for new, old in zip(children, node.children)):
        return node
    return spe_product(children)


_SUM_RULES = {
    "logprob": _sum_logprob,
    "condition": _sum_condition,
    "logpdf": _sum_logpdf,
    "constrain": _sum_constrain,
}

_PRODUCT_RULES = {
    "logprob": _product_logprob,
    "condition": partial(_product_posterior, "condition"),
    "logpdf": _product_logpdf,
    "constrain": partial(_product_posterior, "constrain"),
}


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
