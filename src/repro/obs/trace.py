"""Spans and trace context: the per-request execution record.

One served request yields one :class:`Trace` — a tree of
:class:`Span` nodes timed on the monotonic clock — reconstructing the
path the request actually took: HTTP accept → micro-batch coalesce →
shard dispatch → engine route (compiled kernel
vs interpreted) → cache hits and misses.  The design constraints, in
order:

* **Near-free when off.**  Every instrumentation point in a hot path
  first asks :func:`current` for the active tracer (one
  ``ContextVar.get`` plus a ``None`` check) and does nothing else when
  tracing is off.  No spans, tags, or timestamps are allocated for
  untraced requests.
* **Asyncio-propagated, executor-explicit.**  The active trace rides a
  :class:`contextvars.ContextVar`, so it flows through ``await`` chains
  within a task for free.  ``run_in_executor`` does *not* carry context
  into the worker thread, so a batch crosses that boundary the way it
  crosses a shard socket: a ``traced`` flag on the message, and a
  fragment built on the far side (below).
* **Process-portable fragments.**  Worker shards cannot share the
  parent's clock or objects; they build their own :class:`Trace`, fold
  it to a plain dict (:meth:`Trace.to_payload`) that crosses the shard socket,
  and the parent grafts it under the active span -- the dispatch span
  when sharded (:meth:`Trace.graft`).  Offsets inside a payload are relative to the
  span's own parent, so grafted subtrees stay internally consistent
  without any cross-process clock rebasing.

Serialized span shape (see ``GET /v1/trace/<id>``)::

    {"name": "scheduler.queue", "offset_us": 132, "dur_us": 1810,
     "tags": {"batch_id": 4, "batch_size": 12}, "counts": {...},
     "children": [...]}

``offset_us`` is the span's start relative to its parent's start;
``dur_us`` is its duration.  ``counts`` aggregates counter bumps
(:func:`bump`) attributed to the span — e.g. cache hits observed while
it was open — without allocating one child span per increment.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import os
import time
from typing import Dict
from typing import List
from typing import Optional

__all__ = [
    "Span",
    "Trace",
    "activate",
    "bump",
    "current",
    "event",
    "new_trace_id",
    "span",
]


class Span:
    """One timed node of a trace tree (monotonic-clock endpoints)."""

    __slots__ = ("name", "start", "end", "tags", "counts", "children")

    def __init__(self, name: str, start: float, tags: Optional[Dict] = None):
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.tags = tags
        self.counts: Optional[Dict[str, int]] = None
        self.children: Optional[List] = None  # Span objects or grafted dicts

    def finish(self, end: Optional[float] = None) -> None:
        if self.end is None:
            self.end = time.perf_counter() if end is None else end

    def annotate(self, **tags) -> None:
        """Attach (or overwrite) tags on this span."""
        if self.tags is None:
            self.tags = {}
        self.tags.update(tags)

    def bump(self, name: str, n: int = 1) -> None:
        """Aggregate a counter on this span (no per-increment children)."""
        if not n:
            return
        if self.counts is None:
            self.counts = {}
        self.counts[name] = self.counts.get(name, 0) + n

    def add_child(self, child) -> None:
        if self.children is None:
            self.children = []
        self.children.append(child)

    def to_dict(self, parent_start: float) -> Dict:
        """Serialize with ``offset_us`` relative to the parent's start."""
        end = self.end if self.end is not None else self.start
        node: Dict = {
            "name": self.name,
            "offset_us": int(round((self.start - parent_start) * 1e6)),
            "dur_us": int(round((end - self.start) * 1e6)),
        }
        if self.tags:
            node["tags"] = dict(self.tags)
        if self.counts:
            node["counts"] = dict(self.counts)
        if self.children:
            node["children"] = [
                child if isinstance(child, dict) else child.to_dict(self.start)
                for child in self.children
            ]
        return node


class Trace:
    """A span tree under construction, with a stack for nested sections.

    The stack only models *sequential* nesting (the ``with
    trace.span(...)`` discipline of one thread of execution at a time);
    concurrent structure — per-request queue spans open while the batch
    evaluates, worker fragments — is attached explicitly via
    :meth:`start_span` and :meth:`graft`.
    """

    __slots__ = ("trace_id", "root", "_stack")

    def __init__(self, trace_id: Optional[str] = None, name: str = "request",
                 tags: Optional[Dict] = None):
        self.trace_id = trace_id
        self.root = Span(name, time.perf_counter(), tags)
        self._stack: List[Span] = [self.root]

    # -- Structured sections --------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, **tags):
        """Open a nested timed section under the current one."""
        node = Span(name, time.perf_counter(), tags or None)
        self._stack[-1].add_child(node)
        self._stack.append(node)
        try:
            yield node
        finally:
            node.finish()
            if self._stack and self._stack[-1] is node:
                self._stack.pop()

    def start_span(self, name: str, **tags) -> Span:
        """An explicitly-managed child of the current section (not pushed).

        The caller owns its lifetime: call :meth:`Span.finish` when the
        section ends.  Used for spans whose end is decided elsewhere,
        e.g. a request's queue-wait span closed when its batch launches.
        """
        node = Span(name, time.perf_counter(), tags or None)
        self._stack[-1].add_child(node)
        return node

    def event(self, name: str, **tags) -> None:
        """A zero-duration marker under the current section."""
        now = time.perf_counter()
        node = Span(name, now, tags or None)
        node.end = now
        self._stack[-1].add_child(node)

    def bump(self, name: str, n: int = 1) -> None:
        self._stack[-1].bump(name, n)

    def annotate(self, **tags) -> None:
        self._stack[-1].annotate(**tags)

    def graft(self, payload: Dict) -> None:
        """Attach a pre-serialized span subtree (worker/batch fragment)."""
        self._stack[-1].add_child(payload)

    # -- Completion -----------------------------------------------------------

    def finish(self) -> None:
        self.root.finish()

    def duration_ms(self) -> float:
        end = self.root.end if self.root.end is not None else time.perf_counter()
        return (end - self.root.start) * 1e3

    def to_payload(self) -> Dict:
        """The full tree as a plain dict (root at offset 0)."""
        self.root.finish()
        return self.root.to_dict(self.root.start)


# ---------------------------------------------------------------------------
# Ambient context.
# ---------------------------------------------------------------------------

_active: "contextvars.ContextVar[Optional[Trace]]" = contextvars.ContextVar(
    "repro_obs_trace", default=None
)


def current() -> Optional[Trace]:
    """The trace active in this context, or None (the common case)."""
    return _active.get()


@contextlib.contextmanager
def activate(trace: Optional[Trace]):
    """Make ``trace`` the ambient tracer for the enclosed block.

    ``activate(None)`` deliberately *clears* any inherited tracer: batch
    tasks are created from whichever request context scheduled the timer
    callback, and an untraced batch must not attach its spans to that
    bystander's trace.
    """
    token = _active.set(trace)
    try:
        yield trace
    finally:
        _active.reset(token)


class _NoopSpan:
    """Shared do-nothing context manager for the tracing-off fast path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def annotate(self, **tags):
        pass

    def bump(self, name, n=1):
        pass


_NOOP = _NoopSpan()


def span(name: str, **tags):
    """``with obs.span("engine.logprob_batch", n=32):`` — no-op when off."""
    trace = _active.get()
    if trace is None:
        return _NOOP
    return trace.span(name, **tags)


def event(name: str, **tags) -> None:
    trace = _active.get()
    if trace is not None:
        trace.event(name, **tags)


def bump(name: str, n: int = 1) -> None:
    trace = _active.get()
    if trace is not None:
        trace.bump(name, n)


# ---------------------------------------------------------------------------
# Trace ids.
# ---------------------------------------------------------------------------

_session_prefix = os.urandom(4).hex()
_counter = itertools.count(1)


def new_trace_id() -> str:
    """A process-unique trace id: random session prefix + sequence number.

    Cheap enough to mint for *every* request (traced or not) — the id is
    echoed on each NDJSON response line so clients can correlate, and
    only sampled requests pay for an actual span tree behind it.
    """
    return "%s-%06x" % (_session_prefix, next(_counter))
