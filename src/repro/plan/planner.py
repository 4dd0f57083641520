"""The query planner and its execution helpers.

:class:`QueryPlanner` turns a resolved event into a *plan* — either the
event itself (possibly rewritten) or a sum/chain of smaller events — and
counts, per pass, how often a rewrite applied.  The execution helpers
(:func:`execute_logprob_plan`, :func:`execute_condition_chain`) are the
**only** code that combines partial results.

Modes:

* ``"off"`` — no planner is constructed; queries run as written.
* ``"validated"`` (serve default) — only passes that are exact by
  construction apply, which today is :meth:`QueryPlanner.dedup_batch`
  alone.  Every answer is bit-identical to ``"off"`` however the queries
  are spelled or ordered; no rewrite candidate is ever computed.
* ``"all"`` — every structural rewrite applies (``normalize``,
  ``fuse_union``, ``disjoint_factor``, ``condition_pushdown``,
  ``chain_order``); answers are exact-math equal to the unplanned path
  but may differ from it in the last ulp.
"""

from __future__ import annotations

import threading
from typing import Dict
from typing import List
from typing import Sequence
from typing import Tuple

from .. import obs
from ..events import Event
from ..events import chain_digest
from ..events import event_digest
from ..spe import SPE
from .passes import chain_order
from .passes import condition_pushdown
from .passes import disjoint_factor
from .passes import fuse_union
from .passes import normalize_pass

#: Recognized values of the ``plan=`` switch.
PLAN_MODES = ("off", "validated", "all")


#: A logprob plan: ``("event", event)`` or ``("sum", [event, ...])``.
LogprobPlan = Tuple


def execute_logprob_plan(spe: SPE, plan: LogprobPlan, memo) -> float:
    """Evaluate a logprob plan against an expression.

    The ``"sum"`` combination is a left-to-right running sum starting at
    ``0.0`` — exactly the accumulation order of the product-node
    traversal it replaces (``sum(logs)``), which is what makes factored
    single-clause conjunctions bit-identical to the monolithic path.
    """
    kind, payload = plan
    if kind == "event":
        return spe.logprob(payload, memo=memo)
    total = 0.0
    for event in payload:
        total = total + spe.logprob(event, memo=memo)
    return total


def execute_condition_chain(spe: SPE, chain: Sequence[Event], memo) -> SPE:
    """Fold a chain of condition events."""
    for event in chain:
        spe = spe.condition(event, memo=memo)
    return spe


class QueryPlanner:
    """Plans queries for one (or a family of) models; counts per pass.

    Thread-safe: serve evaluates batches on executor threads, and
    posterior models share their parent's planner, so the counters are
    guarded by a lock.  Counter shape per pass: ``{"applied": n}``
    counts rewrites that fired; ``hits`` on ``dedup_batch`` counts batch
    slots served from a duplicate's single evaluation.
    """

    def __init__(self, mode: str = "validated"):
        if mode not in PLAN_MODES or mode == "off":
            raise ValueError(
                "plan mode must be one of %s (planner is never built for "
                "'off'); got %r." % (", ".join(PLAN_MODES), mode)
            )
        self.mode = mode
        self._lock = threading.Lock()
        self._counters: Dict[str, Dict[str, int]] = {}

    # -- Counters -------------------------------------------------------------

    def _count(self, pass_name: str, outcome: str, n: int = 1) -> None:
        with self._lock:
            bucket = self._counters.setdefault(pass_name, {})
            bucket[outcome] = bucket.get(outcome, 0) + n

    def stats(self) -> Dict[str, object]:
        with self._lock:
            passes = {
                name: dict(bucket) for name, bucket in sorted(self._counters.items())
            }
        return {"mode": self.mode, "passes": passes}

    def _applied(self, pass_name: str, digest: str) -> None:
        """Count one applied rewrite and record it on the active trace.

        The obs helpers are no-ops without a trace; with one, a
        retrieved span tree shows which passes fired, keyed by the
        input's semantic digest.
        """
        self._count(pass_name, "applied")
        obs.event("plan." + pass_name, outcome="applied", digest=digest[:12])

    # -- Planning -------------------------------------------------------------

    def plan_logprob(self, spe: SPE, event: Event) -> LogprobPlan:
        """Plan one probability query: factor, then fuse/normalize."""
        if self.mode != "all":
            return ("event", event)
        digest = event_digest(event)
        groups = disjoint_factor(spe, event)
        if groups is not None:
            self._applied("disjoint_factor", digest)
            return ("sum", [self._rewrite_event(g, event_digest(g)) for g in groups])
        return ("event", self._rewrite_event(event, digest))

    def _rewrite_event(self, event: Event, digest: str) -> Event:
        """Event-level rewrites (fuse_union, then normalize).

        Both passes preserve semantics and
        :func:`~repro.events.event_digest` is canonical, so one digest
        names every stage.
        """
        fused = fuse_union(event)
        if fused is not None:
            self._applied("fuse_union", digest)
            event = fused
        normalized = normalize_pass(event)
        if normalized is not None:
            self._applied("normalize", digest)
            event = normalized
        return event

    def plan_condition(self, spe: SPE, event: Event) -> List[Event]:
        """Plan one condition call: push down, then cost-order the chain."""
        if self.mode != "all":
            return [event]
        chain = condition_pushdown(spe, event)
        if chain is None:
            return [event]
        self._applied("condition_pushdown", event_digest(event))
        return self.order_chain(spe, chain)

    def order_chain(self, spe: SPE, chain: Sequence[Event]) -> List[Event]:
        """Cost-order an explicit chain of condition events."""
        chain = list(chain)
        if self.mode != "all":
            return chain
        reordered = chain_order(spe, chain)
        if reordered is None:
            return chain
        self._applied(
            "chain_order", chain_digest([event_digest(event) for event in chain])
        )
        return reordered

    def dedup_batch(self, events: Sequence[Event]):
        """Unique-ify a batch by event identity (exact in every mode).

        Slots holding the same :class:`~repro.events.Event` object —
        repeated query text resolves to one cached object — are
        evaluated once.  Events are compared by identity, never by
        digest or ``repr``, so two slots share an answer only when they
        would run the identical computation.

        Returns ``(unique_events, back_refs)`` where ``back_refs[i]`` is
        the index into ``unique_events`` answering batch slot ``i``.
        Counts one ``dedup_batch`` hit per duplicate slot avoided.
        """
        unique: List[Event] = []
        back_refs: List[int] = []
        first_by_id: Dict[int, int] = {}
        for event in events:
            index = first_by_id.get(id(event))
            if index is None:
                index = len(unique)
                first_by_id[id(event)] = index
                unique.append(event)
            back_refs.append(index)
        duplicates = len(events) - len(unique)
        if duplicates:
            self._count("dedup_batch", "applied")
            self._count("dedup_batch", "hits", duplicates)
            obs.event("plan.dedup_batch", outcome="applied",
                      unique=len(unique), duplicates=duplicates)
        return unique, back_refs
