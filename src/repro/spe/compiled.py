"""Compiled zero-copy columnar kernel for sum-product expressions.

The interpreter of :mod:`~repro.spe.traversal` pays one Python dispatch
per node per query; on the serve hot path that dispatch — not the math —
dominates.  This module lowers an (interned) expression graph into a set
of contiguous numpy arrays:

* ``node_kind`` / ``node_level``   — one row per unique node, listed in
  the deterministic children-first order of
  :func:`~repro.spe.serialize.spe_to_dict` (the root is the last row);
* ``child_offsets`` / ``child_indices`` — a CSR table of the child edges
  of sum and product rows, preserving child order;
* ``child_log_weights``            — the mixture weight of every sum
  edge (0 for product edges), aligned with ``child_indices``;
* packed leaf-parameter tables (``leaf_family``, ``leaf_lo``/``leaf_hi``,
  ``leaf_log_mass``, ``leaf_atom``, ``leaf_is_continuous``) grouped by
  distribution family so density kernels vectorize per family.

On top of the arrays, :class:`CompiledSPE` precomputes a *level
schedule*: rows are assigned ``level = 1 + max(child levels)`` (leaves
are level 0) and grouped by ``(level, kind, arity)``, so a whole batch
of queries is answered with one vectorized sweep per group — one
log-sum-exp per sum group, one masked add-reduce per product group —
instead of one Python call per node per query.

**Bit identity.**  The sweeps replicate the interpreter's arithmetic
exactly: the same first-maximal peak scan and the same left-to-right
accumulation order as :func:`~repro.distributions.base.log_add` (which
routes through the same numpy ``exp``/``log`` kernels), sequential
child-order adds for products (numpy's pairwise ``np.sum`` is *not*
used), and per-family leaf kernels that mirror each distribution's
scalar ``logpdf`` decision tree.  Compiled answers are therefore
bit-identical to the object-graph path; the bench gate enforces this
differentially.

**Blob format.**  A compiled model serializes to a single ``.spz`` file:
a JSON header, the canonical digest-preimage payload of
:func:`~repro.spe.serialize.spe_digest`, and the arrays, each section
64-byte aligned.  The file is deterministic — built from and stamped
with ``spe_digest`` — and is loaded with ``mmap`` read-only, binding the
arrays zero-copy via ``np.frombuffer``; any number of worker processes
mapping the same file share one physical copy of the pages.

**Fallback.**  The engine (:class:`~repro.engine.model.SpplModel`)
routes batched queries through a compiled handle transparently and falls
back to the interpreter whenever a query shape is unsupported (density
queries on derived variables, ragged key sets, or an explicit caller
memo).
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import os
import struct
from typing import Dict
from typing import List
from typing import Optional
from typing import Sequence

import numpy as np

from .. import obs
from ..distributions import NEG_INF
from ..distributions import log_add
from ..distributions import safe_log
from ..distributions import AtomicDistribution
from ..distributions import DiscreteDistribution
from ..distributions import DiscreteFinite
from ..distributions import NominalDistribution
from ..distributions import RealDistribution
from ..distributions.discrete import _integer_bounds
from ..sets import FiniteReal
from ..sets import Interval
from ..sets import components
from ..sets import intersection
from ..events import Event
from ..events import event_to_disjoint_clauses
from .base import SPE
from .interning import maybe_intern
from .leaf import Leaf
from .product_node import ProductSPE
from .serialize import spe_digest
from .serialize import spe_from_dict
from .serialize import spe_to_dict
from .sum_node import SumSPE

__all__ = [
    "CompiledSPE",
    "SpzError",
    "compile_spe",
    "load_spz",
    "read_spz_payload",
]

#: Node kinds in the ``node_kind`` table.
KIND_LEAF, KIND_SUM, KIND_PRODUCT = 0, 1, 2

#: Leaf distribution families in the ``leaf_family`` table.  ``OTHER``
#: covers exotic / finite / nominal families whose density kernel runs
#: the per-row scalar ``logpdf`` (always correct, never vectorized).
FAMILY_REAL, FAMILY_ATOMIC, FAMILY_DISCRETE, FAMILY_OTHER = 0, 1, 2, 3

_MAGIC = b"REPROSPZ"
_VERSION = 1
_ALIGN = 64
#: The fixed prelude: magic, header-region size, header length.
_PRELUDE = struct.Struct("<8sQQ")

#: Fixed serialization order of the array sections.
_ARRAY_NAMES = (
    "node_kind",
    "node_level",
    "child_offsets",
    "child_indices",
    "child_log_weights",
    "leaf_family",
    "leaf_is_continuous",
    "leaf_lo",
    "leaf_hi",
    "leaf_log_mass",
    "leaf_atom",
)


class SpzError(ValueError):
    """Raised when a ``.spz`` blob is malformed, truncated, or fails its
    digest verification."""


# ---------------------------------------------------------------------------
# Lowering: graph -> arrays.
# ---------------------------------------------------------------------------

def _index_nodes(root: SPE) -> List[SPE]:
    """Unique nodes in the children-first order of ``spe_to_dict``.

    Mirrors the encoder's traversal exactly, so row ``i`` of the node
    table is the node the payload names ``order[i]`` and the root is the
    last row.  This is what lets a loader re-bind blob rows to the graph
    it rebuilt from the payload section.
    """
    nodes: List[SPE] = []
    seen = set()
    stack: List[SPE] = [root]
    while stack:
        node = stack[-1]
        if node._uid in seen:
            stack.pop()
            continue
        pending = [c for c in node.children_nodes() if c._uid not in seen]
        if pending:
            stack.extend(pending)
            continue
        seen.add(node._uid)
        nodes.append(node)
        stack.pop()
    return nodes


def _leaf_family(dist) -> int:
    if isinstance(dist, RealDistribution):
        return FAMILY_REAL
    if isinstance(dist, AtomicDistribution):
        return FAMILY_ATOMIC
    if isinstance(dist, DiscreteDistribution):
        return FAMILY_DISCRETE
    return FAMILY_OTHER


def _build_arrays(nodes: Sequence[SPE]) -> Dict[str, np.ndarray]:
    """Lower the node list into the contiguous table set."""
    n = len(nodes)
    index = {node._uid: i for i, node in enumerate(nodes)}
    kind = np.zeros(n, dtype=np.uint8)
    level = np.zeros(n, dtype=np.int32)
    offsets = np.zeros(n + 1, dtype=np.int64)
    children: List[int] = []
    weights: List[float] = []
    family = np.full(n, FAMILY_OTHER, dtype=np.uint8)
    continuous = np.zeros(n, dtype=np.uint8)
    lo = np.full(n, np.nan)
    hi = np.full(n, np.nan)
    log_mass = np.zeros(n)
    atom = np.full(n, np.nan)
    for i, node in enumerate(nodes):
        if isinstance(node, Leaf):
            kind[i] = KIND_LEAF
            dist = node.dist
            family[i] = _leaf_family(dist)
            continuous[i] = 1 if dist.is_continuous else 0
            if isinstance(dist, (RealDistribution, DiscreteDistribution)):
                lo[i] = dist.lo
                hi[i] = dist.hi
                log_mass[i] = dist._log_mass
            elif isinstance(dist, AtomicDistribution):
                atom[i] = dist.value
        else:
            if isinstance(node, SumSPE):
                kind[i] = KIND_SUM
                weights.extend(node.log_weights)
            else:
                kind[i] = KIND_PRODUCT
                weights.extend(0.0 for _ in node.children)
            rows = [index[c._uid] for c in node.children]
            children.extend(rows)
            level[i] = 1 + max(level[r] for r in rows)
        offsets[i + 1] = len(children)
    return {
        "node_kind": kind,
        "node_level": level,
        "child_offsets": offsets,
        "child_indices": np.asarray(children, dtype=np.int32),
        "child_log_weights": np.asarray(weights, dtype=np.float64),
        "leaf_family": family,
        "leaf_is_continuous": continuous,
        "leaf_lo": lo,
        "leaf_hi": hi,
        "leaf_log_mass": log_mass,
        "leaf_atom": atom,
    }


def compile_spe(spe: SPE) -> "CompiledSPE":
    """Lower an expression into a :class:`CompiledSPE` (in memory).

    The expression is resolved against the interning table first, so the
    node table matches the canonical serialized form; the result is
    stamped with ``spe_digest``.  Raises
    :class:`~repro.spe.serialize.SerializationError` for graphs without
    a canonical serialized form (exotic distributions).
    """
    root = maybe_intern(spe)
    data = spe_to_dict(root)
    payload = json.dumps(data, sort_keys=True, separators=(",", ":")).encode("utf-8")
    digest = hashlib.sha256(payload).hexdigest()
    nodes = _index_nodes(root)
    order = data["order"]
    if len(nodes) != len(order):
        raise SpzError(
            "Compiler order disagrees with the serialized order "
            "(%d nodes vs %d)." % (len(nodes), len(order))
        )
    arrays = _build_arrays(nodes)
    return CompiledSPE(root, nodes, arrays, payload, digest)


# ---------------------------------------------------------------------------
# The compiled engine.
# ---------------------------------------------------------------------------

class CompiledSPE:
    """Columnar batch-inference engine over the lowered arrays.

    Instances are produced by :func:`compile_spe` (arrays owned in
    memory) or :func:`load_spz` (arrays bound zero-copy into a read-only
    ``mmap``).  ``root`` is the live expression graph the arrays were
    lowered from — leaf rows keep a bound reference to their ``Leaf``
    for the scalar kernels (clause solving, family calls) that cannot be
    expressed as pure array math.
    """

    def __init__(self, root, nodes, arrays, payload, digest,
                 source_path=None, mapping=None):
        self.root = root
        self.digest = digest
        self.source_path = source_path
        self._payload = payload
        self._mmap = mapping
        self._arrays = arrays
        self._nodes = list(nodes)
        self._closed = False
        n = len(self._nodes)
        self._n_nodes = n
        self._n_edges = int(arrays["child_offsets"][n])
        self._root_row = n - 1
        # Leaf row maps: full scope (logprob touch propagation) and base
        # symbol only (density queries), plus the set of derived symbols
        # that force the density fast path to fall back.
        self._rows_by_scope: Dict[str, List[int]] = {}
        self._rows_by_symbol: Dict[str, List[int]] = {}
        self._derived: set = set()
        for i, node in enumerate(self._nodes):
            if isinstance(node, Leaf):
                for symbol in node.scope:
                    self._rows_by_scope.setdefault(symbol, []).append(i)
                self._rows_by_symbol.setdefault(node.symbol, []).append(i)
                self._derived.update(node.env)
        self._schedule = self._build_schedule(arrays)
        self._max_level = int(arrays["node_level"].max()) if n else 0
        # Parents-first order for the routed bulk sampler (computing it
        # is a full graph walk; caching it here is the compiled speedup).
        from .traversal import _topological_order

        self._order = _topological_order(root)

    @staticmethod
    def _build_schedule(arrays):
        """Group interior rows into per-(level, kind, arity) sweeps.

        Each group carries its row vector, an ``(rows, arity)`` child
        matrix, and (for sums) the matching weight matrix.  The matrices
        are small gathered copies of the CSR tables; the big sections
        (payload, CSR, leaf tables) stay in the blob.
        """
        kind = arrays["node_kind"]
        level = arrays["node_level"]
        offsets = arrays["child_offsets"]
        child = arrays["child_indices"]
        weights = arrays["child_log_weights"]
        groups: Dict[tuple, List[int]] = {}
        for i in np.nonzero(kind != KIND_LEAF)[0]:
            arity = int(offsets[i + 1] - offsets[i])
            groups.setdefault((int(level[i]), int(kind[i]), arity), []).append(int(i))
        schedule: Dict[int, List[dict]] = {}
        for (lvl, knd, arity), rows in sorted(groups.items()):
            starts = offsets[rows]
            gather = starts[:, None] + np.arange(arity)[None, :]
            entry = {
                "kind": knd,
                "rows": np.asarray(rows, dtype=np.int64),
                "children": child[gather].astype(np.int64),
                "weights": weights[gather] if knd == KIND_SUM else None,
            }
            schedule.setdefault(lvl, []).append(entry)
        return schedule

    # -- Introspection -------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """Summary of the compiled representation (for stats endpoints)."""
        return {
            "digest": self.digest,
            "nodes": self._n_nodes,
            "edges": self._n_edges,
            "levels": self._max_level,
            "mmap": self._mmap is not None,
            "path": self.source_path,
        }

    @property
    def closed(self) -> bool:
        return self._closed

    # -- Lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release the blob mapping (if any).  The handle is unusable after."""
        if self._closed:
            return
        self._closed = True
        # Drop every array that may view the mapping before closing it;
        # mmap.close() raises BufferError while exported views exist.
        self._arrays = None
        self._schedule = None
        if self._mmap is not None:
            mapping, self._mmap = self._mmap, None
            try:
                mapping.close()
            except BufferError:  # pragma: no cover - a caller kept a view
                pass

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    def _require_open(self):
        if self._closed:
            raise SpzError("CompiledSPE handle is closed.")

    # -- Probability of events ----------------------------------------------

    def logprob_batch(self, events: Sequence[Event]) -> List[float]:
        """Exact log probabilities of resolved events, vectorized.

        Scope checking, DNF clause splitting, and the final per-event
        log-sum-exp follow the interpreter exactly; the per-clause graph
        evaluation runs as columnar level sweeps.
        """
        self._require_open()
        clauses: List[dict] = []
        spans: List[tuple] = []
        for event in events:
            self.root._check_event_scope(event)
            event_clauses = event_to_disjoint_clauses(event)
            spans.append((len(clauses), len(clauses) + len(event_clauses)))
            clauses.extend(event_clauses)
        with obs.span("kernel.sweep", events=len(events), clauses=len(clauses),
                      nodes=self._n_nodes):
            values = self._eval_clause_columns(clauses)
        return [
            float(log_add([values[j] for j in range(lo, hi)]))
            for lo, hi in spans
        ]

    def _eval_clause_columns(self, clauses: List[dict]) -> List[float]:
        """Root log probability of each solved clause (one column each)."""
        n, cols = self._n_nodes, len(clauses)
        if cols == 0:
            return []
        values = np.zeros((n, cols))
        touched = np.zeros((n, cols), dtype=bool)
        self._eval_leaf_columns(clauses, values, touched)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for lvl in range(1, self._max_level + 1):
                for group in self._schedule.get(lvl, ()):
                    rows, child = group["rows"], group["children"]
                    if group["kind"] == KIND_SUM:
                        self._sweep_sum_logprob(values, touched, group)
                    else:
                        acc = np.zeros((len(rows), cols))
                        hit = touched[child[:, 0]].copy()
                        for k in range(child.shape[1]):
                            rows_k = child[:, k]
                            t_k = touched[rows_k]
                            # np.where keeps the running value bit-exact
                            # where the child is unmentioned (the
                            # interpreter skips it entirely).
                            acc = np.where(t_k, acc + values[rows_k], acc)
                            if k:
                                hit |= t_k
                        values[rows] = acc
                        touched[rows] = hit
        root = values[self._root_row]
        return root.tolist()

    def _eval_leaf_columns(self, clauses, values, touched) -> None:
        """Fill the leaf rows of the clause-column matrices.

        Clause solving stays scalar (it is set arithmetic, not array
        math), but every tail/cdf/pmf probability it requests from a
        leaf's family (:mod:`repro.distributions.families`) is collected
        into per-row batches and dispatched as one vectorized call per
        row.  The family formulas' scalar and array evaluations agree
        bit-for-bit, and the surrounding arithmetic replicates the
        scalar ``RealDistribution.logprob`` / ``DiscreteDistribution.
        logprob`` decision trees exactly, so batching preserves
        bit-identity with the interpreter.  Identical (row, restriction)
        pairs resolve once and share the result, the same way the
        interpreter's memo shares them.
        """
        from .base import clause_key

        jobs: List[tuple] = []
        job_cols: List[List[int]] = []
        job_of: Dict[tuple, int] = {}
        real_reqs: Dict[int, List[float]] = {}
        cdf_reqs: Dict[int, List[float]] = {}
        pmf_reqs: Dict[int, List[float]] = {}
        for j, clause in enumerate(clauses):
            rows = set()
            for symbol in clause:
                rows.update(self._rows_by_scope.get(symbol, ()))
            for r in rows:
                leaf = self._nodes[r]
                restricted = leaf._restrict(clause)
                key = (r, clause_key(restricted))
                idx = job_of.get(key)
                if idx is None:
                    idx = len(jobs)
                    job_of[key] = idx
                    jobs.append(self._leaf_logprob_job(
                        r, leaf, restricted, real_reqs, cdf_reqs, pmf_reqs))
                    job_cols.append([])
                job_cols[idx].append(j)
                touched[r, j] = True
        real_vals = self._real_interval_probs(real_reqs)
        cdf_vals = {
            r: np.asarray(
                self._nodes[r].dist.dist.cdf(np.asarray(ks, dtype=float)),
                dtype=float,
            )
            for r, ks in cdf_reqs.items()
        }
        pmf_vals = {
            r: np.asarray(
                self._nodes[r].dist.dist.pmf(np.asarray(ks, dtype=float)),
                dtype=float,
            )
            for r, ks in pmf_reqs.items()
        }
        for idx, (r, tag, payload) in enumerate(jobs):
            if tag == "done":
                value = payload
            else:
                terms: List[float] = []
                for desc in payload:
                    op = desc[0]
                    if op == "real":
                        p = float(real_vals[r][desc[1]])
                    elif op == "p":
                        p = desc[1]
                    elif op == "range":
                        diff = (self._cdf_val(r, desc[1], cdf_vals)
                                - self._cdf_val(r, desc[2], cdf_vals))
                        # max(diff, 0.0): replace only on strict greater,
                        # so NaN and -0.0 pass through unchanged.
                        p = 0.0 if 0.0 > diff else diff
                    else:  # "pmf"
                        p = float(pmf_vals[r][desc[1]])
                    terms.append(safe_log(p))
                value = (log_add(terms) - self._nodes[r].dist._log_mass
                         if terms else NEG_INF)
            values[r, job_cols[idx]] = value

    def _leaf_logprob_job(self, r, leaf, restricted,
                          real_reqs, cdf_reqs, pmf_reqs) -> tuple:
        """Plan one (leaf row, restriction) evaluation.

        Returns ``(row, "done", value)`` when the result needs no family
        call, or ``(row, "terms", descriptors)`` where each descriptor
        names a probability term to be resolved from the batched family
        results.  Only exact ``RealDistribution`` / ``DiscreteDistribution``
        leaves are planned; subclasses and other families run their own
        scalar ``logprob`` unchanged.
        """
        solved = leaf._solve_clause_set(restricted)
        if solved is None:
            return (r, "done", 0.0)
        dist = leaf.dist
        if type(dist) is RealDistribution:
            descs: List[tuple] = []
            support = dist.support()
            for piece in components(solved):
                if isinstance(piece, Interval):
                    clipped = intersection(piece, support)
                    for part in components(clipped):
                        if isinstance(part, Interval):
                            if part.right <= part.left:
                                descs.append(("p", 0.0))
                            else:
                                reqs = real_reqs.setdefault(r, [])
                                descs.append(("real", len(reqs) // 2))
                                reqs.append(part.left)
                                reqs.append(part.right)
                # Finite real / nominal pieces have probability zero and
                # contribute no term, exactly as the scalar logprob.
            return (r, "terms", descs)
        if type(dist) is DiscreteDistribution:
            descs = []
            for piece in components(solved):
                if isinstance(piece, Interval):
                    lo, hi = _integer_bounds(piece)
                    lo = max(lo, dist.lo)
                    hi = min(hi, dist.hi)
                    if hi < lo:
                        descs.append(("p", 0.0))
                        continue
                    upper = self._cdf_ref(r, hi, cdf_reqs)
                    lower = (("c", 0.0) if math.isinf(lo)
                             else self._cdf_ref(r, lo - 1, cdf_reqs))
                    descs.append(("range", upper, lower))
                elif isinstance(piece, FiniteReal):
                    for v in piece.values:
                        if (not float(v).is_integer()
                                or not (dist.lo <= v <= dist.hi)):
                            descs.append(("p", 0.0))
                        else:
                            reqs = pmf_reqs.setdefault(r, [])
                            descs.append(("pmf", len(reqs)))
                            reqs.append(float(v))
            return (r, "terms", descs)
        return (r, "done", dist.logprob(solved))

    @staticmethod
    def _cdf_ref(r, k, cdf_reqs) -> tuple:
        """Reference to ``_raw_cdf(k)``: the ±inf shortcuts resolve now,
        finite points join the row's batched cdf request."""
        if k == math.inf:
            return ("c", 1.0)
        if k == -math.inf:
            return ("c", 0.0)
        reqs = cdf_reqs.setdefault(r, [])
        reqs.append(float(k))
        return ("cdf", len(reqs) - 1)

    @staticmethod
    def _cdf_val(r, ref, cdf_vals) -> float:
        return ref[1] if ref[0] == "c" else float(cdf_vals[r][ref[1]])

    def _real_interval_probs(self, real_reqs) -> Dict[int, np.ndarray]:
        """Resolve batched ``_interval_probability`` requests per row.

        Mirrors the scalar helper: the survival function in the upper
        tail (left at or above the leaf distribution's stored median, the
        float the interpreter splits on), the cdf difference below, then
        ``max(p, 0.0)`` with replace-only-on-strict-greater.
        """
        out: Dict[int, np.ndarray] = {}
        for r, flat in real_reqs.items():
            real = self._nodes[r].dist
            dist = real.dist
            pairs = np.asarray(flat, dtype=float).reshape(-1, 2)
            lefts, rights = pairs[:, 0], pairs[:, 1]
            upper = lefts >= real._median
            p = np.empty(len(lefts))
            if upper.any():
                p[upper] = (np.asarray(dist.sf(lefts[upper]), dtype=float)
                            - np.asarray(dist.sf(rights[upper]), dtype=float))
            lower = ~upper
            if lower.any():
                p[lower] = (np.asarray(dist.cdf(rights[lower]), dtype=float)
                            - np.asarray(dist.cdf(lefts[lower]), dtype=float))
            out[r] = np.where(0.0 > p, 0.0, p)
        return out

    @staticmethod
    def _sweep_sum_logprob(values, touched, group):
        """One vectorized log-sum-exp over a sum group.

        Replicates ``log_add([w + child for ...])``: first-maximal peak
        scan, left-to-right accumulation of the shifted exponentials,
        then the same ±inf shortcuts.
        """
        rows, child, weights = group["rows"], group["children"], group["weights"]
        terms = [weights[:, 0:1] + values[child[:, 0]]]
        peak = terms[0]
        for k in range(1, child.shape[1]):
            t_k = weights[:, k:k + 1] + values[child[:, k]]
            terms.append(t_k)
            peak = np.where(t_k > peak, t_k, peak)
        total = np.exp(terms[0] - peak)
        for t_k in terms[1:]:
            total = total + np.exp(t_k - peak)
        result = peak + np.log(total)
        result = np.where(peak == math.inf, math.inf, result)
        result = np.where(peak == NEG_INF, NEG_INF, result)
        values[rows] = result
        # Sum children share one scope (C4): touch state is the first
        # child's.
        touched[rows] = touched[child[:, 0]]

    # -- Densities of assignments --------------------------------------------

    def logpdf_batch(self, assignments: Sequence[Dict[str, object]]):
        """Log densities of point assignments, or ``None`` to fall back.

        The fast path requires one uniform key set across the batch,
        every key a non-derived variable in scope; anything else returns
        ``None`` and the caller re-runs the interpreter (which also
        raises the interpreter's own errors for invalid queries).
        """
        self._require_open()
        if not assignments:
            return []
        if not all(isinstance(a, dict) for a in assignments):
            return None
        keys = frozenset(assignments[0])
        if any(frozenset(a) != keys for a in assignments[1:]):
            return None
        if keys & self._derived:
            return None
        if not keys <= set(self.root.scope):
            return None
        n, cols = self._n_nodes, len(assignments)
        counts = np.zeros((n, cols), dtype=np.int64)
        values = np.zeros((n, cols))
        mentioned = np.zeros(n, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for symbol in keys:
                for r in self._rows_by_symbol.get(symbol, ()):
                    mentioned[r] = True
                    leaf = self._nodes[r]
                    column = [a[symbol] for a in assignments]
                    log_density = self._leaf_logpdf_column(r, leaf, column)
                    values[r] = log_density
                    if leaf.dist.is_continuous:
                        counts[r] = 1
                    else:
                        counts[r] = np.where(log_density == NEG_INF, 1, 0)
            offsets = self._arrays["child_offsets"]
            child = self._arrays["child_indices"]
            kind = self._arrays["node_kind"]
            for i in range(n):
                if kind[i] != KIND_LEAF:
                    span = child[offsets[i]:offsets[i + 1]]
                    mentioned[i] = bool(mentioned[span].any())
            for lvl in range(1, self._max_level + 1):
                for group in self._schedule.get(lvl, ()):
                    if group["kind"] == KIND_SUM:
                        self._sweep_sum_logpdf(values, counts, group)
                    else:
                        self._sweep_product_logpdf(values, counts, mentioned, group)
        return [float(v) for v in values[self._root_row].tolist()]

    def _leaf_logpdf_column(self, row: int, leaf: Leaf, column: List[object]):
        """Vectorized per-family leaf density kernel (scalar fallback).

        Each branch mirrors the corresponding distribution's scalar
        ``logpdf`` decision tree on float-convertible columns; columns
        holding strings (or values ``float()`` rejects) run the scalar
        method row-by-row, which *is* the interpreter's kernel.
        """
        arrays = self._arrays
        family = int(arrays["leaf_family"][row])
        scalar = None
        if family == FAMILY_OTHER or any(isinstance(v, str) for v in column):
            scalar = True
        else:
            try:
                x = np.asarray(column, dtype=float)
            except (TypeError, ValueError):
                scalar = True
        if scalar:
            return np.asarray([leaf.dist.logpdf(v) for v in column], dtype=float)
        if family == FAMILY_ATOMIC:
            return np.where(x == arrays["leaf_atom"][row], 0.0, NEG_INF)
        lo = float(arrays["leaf_lo"][row])
        hi = float(arrays["leaf_hi"][row])
        log_mass = float(arrays["leaf_log_mass"][row])
        if family == FAMILY_REAL:
            # support() forces infinite endpoints open; NaN fails every
            # comparison, matching Interval.contains.
            left = (x > lo) if lo == -math.inf else (x >= lo)
            right = (x < hi) if hi == math.inf else (x <= hi)
            density = np.asarray(leaf.dist.dist.logpdf(x), dtype=float) - log_mass
            return np.where(left & right, density, NEG_INF)
        # FAMILY_DISCRETE: integral, finite, in-range values carry pmf
        # mass; everything else (incl. ±inf, whose floor numpy matches)
        # has raw pmf 0.0 exactly as the scalar _raw_pmf.
        valid = np.isfinite(x) & (x == np.floor(x)) & (x >= lo) & (x <= hi)
        pmf = np.asarray(leaf.dist.dist.pmf(np.where(valid, x, 0.0)), dtype=float)
        raw = np.where(valid, pmf, 0.0)
        return (
            np.asarray([safe_log(p) for p in raw.tolist()], dtype=float) - log_mass
        )

    @staticmethod
    def _sweep_sum_logpdf(values, counts, group):
        """Lexicographic mixture combine, replicating the interpreter:
        children with density > -inf survive, the minimal continuous
        count wins, and the winners' terms run through ``log_add``'s
        exact scan order."""
        rows, child, weights = group["rows"], group["children"], group["weights"]
        arity = child.shape[1]
        shape = (len(rows), values.shape[1])
        included = []
        any_included = np.zeros(shape, dtype=bool)
        min_count = np.zeros(shape, dtype=np.int64)
        for k in range(arity):
            rows_k = child[:, k]
            inc_k = values[rows_k] > NEG_INF
            included.append(inc_k)
            count_k = counts[rows_k]
            min_count = np.where(
                inc_k & (~any_included | (count_k < min_count)), count_k, min_count
            )
            any_included |= inc_k
        peak = np.zeros(shape)
        started = np.zeros(shape, dtype=bool)
        terms = []
        for k in range(arity):
            t_k = weights[:, k:k + 1] + values[child[:, k]]
            m_k = included[k] & (counts[child[:, k]] == min_count)
            terms.append((t_k, m_k))
            # First selected term initializes the peak (even NaN), later
            # ones replace it only on strict improvement — Python max().
            peak = np.where(m_k & ~started, t_k, np.where(m_k & (t_k > peak), t_k, peak))
            started |= m_k
        total = np.zeros(shape)
        for t_k, m_k in terms:
            total = np.where(m_k, total + np.exp(t_k - peak), total)
        result = peak + np.log(total)
        result = np.where(peak == math.inf, math.inf, result)
        result = np.where(peak == NEG_INF, NEG_INF, result)
        values[rows] = np.where(any_included, result, NEG_INF)
        counts[rows] = np.where(any_included, min_count, 1)

    @staticmethod
    def _sweep_product_logpdf(values, counts, mentioned, group):
        rows, child = group["rows"], group["children"]
        total = np.zeros((len(rows), values.shape[1]))
        count = np.zeros((len(rows), values.shape[1]), dtype=np.int64)
        for k in range(child.shape[1]):
            rows_k = child[:, k]
            m_k = mentioned[rows_k][:, None]
            total = np.where(m_k, total + values[rows_k], total)
            count = np.where(m_k, count + counts[rows_k], count)
        values[rows] = total
        counts[rows] = count

    # -- Sampling -------------------------------------------------------------

    def sample_columns(self, rng, n: int) -> Dict[str, np.ndarray]:
        """Routed bulk sampling over the cached parents-first order.

        Delegates to the interpreter's :func:`sample_bulk` body with the
        topological walk precomputed, so the rng call sequence — and
        therefore every drawn value — is identical.
        """
        self._require_open()
        from .traversal import sample_bulk

        return sample_bulk(self.root, rng, n, order=self._order)

    # -- Blob serialization ---------------------------------------------------

    def save(self, path) -> str:
        """Write the deterministic ``.spz`` blob to ``path`` atomically."""
        self._require_open()
        blob = _pack_blob(self._payload, self.digest, self._arrays)
        path = os.fspath(path)
        tmp = "%s.tmp.%d" % (path, os.getpid())
        with open(tmp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return path


# ---------------------------------------------------------------------------
# The .spz container.
# ---------------------------------------------------------------------------

def _pack_blob(payload: bytes, digest: str, arrays: Dict[str, np.ndarray]) -> bytes:
    """Assemble the blob: prelude, JSON header, then 64-aligned sections."""
    sections = [("payload", payload)]
    for name in _ARRAY_NAMES:
        array = np.ascontiguousarray(arrays[name])
        sections.append((name, array.tobytes()))
    # The header encodes absolute section offsets, which depend on its
    # own size; reserve a fixed header region and grow it if needed.
    header_space = 4096
    while True:
        offset = header_space
        toc: Dict[str, Dict] = {}
        for name, data in sections:
            offset = _aligned(offset)
            if name == "payload":
                toc[name] = {"offset": offset, "length": len(data)}
            else:
                array = arrays[name]
                toc[name] = {
                    "offset": offset,
                    "dtype": str(array.dtype),
                    "shape": list(array.shape),
                }
            offset += len(data)
        header = json.dumps(
            {
                "format": "repro-spz",
                "version": _VERSION,
                "digest": digest,
                "sections": toc,
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        if _PRELUDE.size + len(header) <= header_space:
            break
        header_space *= 2
    out = bytearray(offset)
    out[: _PRELUDE.size] = _PRELUDE.pack(_MAGIC, header_space, len(header))
    out[_PRELUDE.size:_PRELUDE.size + len(header)] = header
    for name, data in sections:
        start = toc[name]["offset"]
        out[start:start + len(data)] = data
    return bytes(out)


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _read_header(view, where: str):
    if len(view) < _PRELUDE.size:
        raise SpzError("Truncated .spz blob %s." % (where,))
    magic, header_space, header_len = _PRELUDE.unpack_from(view, 0)
    if magic != _MAGIC:
        raise SpzError("Not a .spz blob: %s." % (where,))
    if _PRELUDE.size + header_len > header_space or header_space > len(view):
        raise SpzError("Corrupt .spz header %s." % (where,))
    try:
        header = json.loads(bytes(view[_PRELUDE.size:_PRELUDE.size + header_len]))
    except ValueError as error:
        raise SpzError("Corrupt .spz header %s: %s" % (where, error)) from error
    if header.get("format") != "repro-spz" or header.get("version") != _VERSION:
        raise SpzError("Unsupported .spz version %s." % (where,))
    return header


def _payload_bytes(view, header, where: str) -> bytes:
    section = header["sections"]["payload"]
    start, length = section["offset"], section["length"]
    if start + length > len(view):
        raise SpzError("Truncated .spz payload %s." % (where,))
    payload = bytes(view[start:start + length])
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("digest"):
        raise SpzError(
            "Payload digest mismatch %s: header says %s, content is %s."
            % (where, header.get("digest"), digest)
        )
    return payload


def read_spz_payload(path, expected_digest: Optional[str] = None) -> str:
    """Return the verified canonical payload text of a ``.spz`` file.

    Verifies the stored payload against the header digest (and
    ``expected_digest`` when given) without building the model; the
    journal restore path uses this to resolve content-addressed register
    records.
    """
    with open(path, "rb") as handle:
        view = handle.read()
    where = "at %s" % (path,)
    header = _read_header(view, where)
    payload = _payload_bytes(view, header, where)
    if expected_digest is not None and header["digest"] != expected_digest:
        raise SpzError(
            "Digest mismatch %s: expected %s, blob is %s."
            % (where, expected_digest, header["digest"])
        )
    return payload.decode("utf-8")


def load_spz(path, expected_digest: Optional[str] = None) -> CompiledSPE:
    """Map a ``.spz`` blob read-only and bind a :class:`CompiledSPE` to it.

    The arrays are bound zero-copy (``np.frombuffer`` over the mapping);
    the graph is rebuilt from the payload section and re-verified: the
    payload hash must match the stamped digest (and ``expected_digest``
    when given), and the rebuilt graph must re-serialize to the same
    digest — the same round-trip fidelity check serve workers perform on
    inline payloads.
    """
    path = os.fspath(path)
    where = "at %s" % (path,)
    with open(path, "rb") as handle:
        try:
            mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as error:
            raise SpzError("Cannot map .spz blob %s: %s" % (where, error)) from error
    try:
        header = _read_header(mapping, where)
        payload = _payload_bytes(mapping, header, where)
        if expected_digest is not None and header["digest"] != expected_digest:
            raise SpzError(
                "Digest mismatch %s: expected %s, blob is %s."
                % (where, expected_digest, header["digest"])
            )
        root = spe_from_dict(json.loads(payload.decode("utf-8")))
        if spe_digest(root) != header["digest"]:
            raise SpzError(
                "Round-trip digest mismatch %s: the rebuilt graph does not "
                "re-serialize to the stamped digest." % (where,)
            )
        nodes = _index_nodes(root)
        arrays = {}
        for name in _ARRAY_NAMES:
            section = header["sections"].get(name)
            if section is None:
                raise SpzError("Missing section %r %s." % (name, where))
            dtype = np.dtype(section["dtype"])
            shape = tuple(section["shape"])
            count = int(np.prod(shape)) if shape else 1
            end = section["offset"] + count * dtype.itemsize
            if end > len(mapping):
                raise SpzError("Truncated section %r %s." % (name, where))
            arrays[name] = np.frombuffer(
                mapping, dtype=dtype, count=count, offset=section["offset"]
            ).reshape(shape)
        kinds = arrays["node_kind"]
        if len(nodes) != len(kinds) or any(
            int(kinds[i]) != _node_kind(node) for i, node in enumerate(nodes)
        ):
            raise SpzError(
                "Node table mismatch %s: blob rows do not line up with the "
                "payload graph." % (where,)
            )
        return CompiledSPE(
            root, nodes, arrays, payload, header["digest"],
            source_path=path, mapping=mapping,
        )
    except Exception:
        # Drop any views bound in this frame before closing the mapping
        # (mmap.close() raises BufferError while views exist).
        arrays = kinds = None  # noqa: F841
        try:
            mapping.close()
        except BufferError:  # pragma: no cover
            pass
        raise


def _node_kind(node: SPE) -> int:
    if isinstance(node, Leaf):
        return KIND_LEAF
    if isinstance(node, SumSPE):
        return KIND_SUM
    if isinstance(node, ProductSPE):
        return KIND_PRODUCT
    return -1
