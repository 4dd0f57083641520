"""Micro-batching scheduler: coalesce concurrent requests into batched calls.

Single-event requests that arrive concurrently are grouped per **batch
key** ``(model, kind, condition, shard)`` and evaluated with one
:meth:`~repro.engine.SpplModel.logprob_batch` /
:meth:`~repro.engine.SpplModel.logpdf_batch` call per group, inside one
:meth:`~repro.engine.SpplModel.query_scope` so the cache bound cannot
evict entries mid-batch.  Groups form by **idle dispatch**, batching while
the backend is busy, never by the clock: a key with no batch in flight
flushes its new group on the next event-loop tick (same-tick requests
still share it; no timer runs), a busy key's arrivals form one group
that flushes when the batch in flight returns, and any group flushes at
once on reaching **max_batch** requests (default 256).

Ahead of all that sits one :class:`ResultCache` per model: a request
whose ``(kind, condition, event)`` was answered before is replayed from
it at submit, with no batch, backend call or transport, and each
``"ok"`` answer a batch computes is written back into the cache its
request was looked up in.

The scheduler never blocks the event loop on inference: batches run on a
backend (in-process thread executor, or a sharded worker pool), so
request intake overlaps evaluation, and the longer a batch computes, the
more requests the next one coalesces.
"""

from __future__ import annotations

import asyncio
import functools
import math
from typing import Dict
from typing import List
from typing import Optional
from typing import Sequence
from typing import Set

from collections import OrderedDict

from .. import obs
from ..engine import SpplModel
from ..obs import MetricsRegistry
from ..obs import Trace
from . import wire
from .wire import LatencyHistogram
from .wire import Result

#: Bound of a per-model :class:`ResultCache` (completed query results).
DEFAULT_RESULT_ENTRIES = 65536

#: Default bound on requests queued (admitted but unanswered) per batch
#: key; past it the scheduler sheds instead of growing the queue.
DEFAULT_MAX_QUEUED_PER_KEY = 1024

#: Advisory back-off carried on 429-style shed responses before any
#: latency has been observed; once the per-kind histograms have data the
#: value is derived from them (:meth:`MicroBatcher.retry_after_ms`).
RETRY_AFTER_MS = 25


class OverloadedError(RuntimeError):
    """A request shed by backpressure (per-key queue bound reached).

    Carries ``retry_after_ms``, the advisory back-off the wire layer
    forwards to the client on the 429-style shed response.
    """

    def __init__(self, message: str, retry_after_ms: int = RETRY_AFTER_MS):
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class ResultCache:
    """Bounded LRU of completed query results, keyed on the wire payload.

    Exact inference is deterministic: the same (kind, condition, event
    text / assignment) against the same model always yields the same
    float, so completed responses can be replayed from a dict without
    touching the engine at all.  The :class:`MicroBatcher` owns one per
    model and consults it before routing, so a repeated query never
    reaches coalescing, transport or a shard; ``sample`` and ``observe``
    queries are never cached.  Lives on the event loop (no locking).
    """

    __slots__ = ("_data", "max_entries", "hits", "misses")

    def __init__(self, max_entries: int = DEFAULT_RESULT_ENTRIES):
        self._data: "OrderedDict[tuple, Result]" = OrderedDict()
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(kind: str, condition, payload) -> Optional[tuple]:
        if kind in ("logprob", "prob"):
            return (kind, condition, payload)
        if kind == "logpdf":
            try:
                return (kind, condition, frozenset(payload.items()))
            except (AttributeError, TypeError):
                return None  # malformed assignment: let evaluation report it
        return None  # sample, observe (and unknown kinds) are never cached

    def get(self, key: tuple) -> Optional[Result]:
        result = self._data.get(key)
        if result is None:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return result

    def put(self, key: tuple, result: Result) -> None:
        self._data[key] = result
        self._data.move_to_end(key)
        if len(self._data) > self.max_entries:
            self._data.popitem(last=False)

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._data),
            "hits": self.hits,
            "misses": self.misses,
            "max_entries": self.max_entries,
        }


def evaluate_batch(
    model: SpplModel, kind: str, condition: Optional[str], payloads: Sequence,
    *, tracer=None,
) -> List[Result]:
    """Evaluate one coalesced batch against a model (pure, process-agnostic).

    This is the single evaluation routine shared by the in-process
    backend and the worker processes, so sharded and unsharded
    deployments are bit-identical by construction.  The whole batch runs
    inside one :meth:`~repro.engine.SpplModel.query_scope`, pinning every
    cache entry it touches against eviction until the batch completes.

    Requests sharing one :meth:`ResultCache.key` (duplicates coalesced
    into the same batch) are hoisted: one representative per key reaches
    the engine and its result fans out to every slot.

    A failing ``condition`` fails the whole batch (all its requests share
    the condition); a failing individual event falls back to per-item
    evaluation so one bad request cannot poison its batch-mates.

    ``tracer`` carries the batch's :class:`repro.obs.Trace` across the
    ``run_in_executor`` (or shard-socket) boundary — context variables do
    not cross threads or processes, so the scheduler captures the active
    trace on the event loop and this function re-activates it here,
    where the engine's instrumentation points can see it.
    """
    if tracer is not None:
        with obs.activate(tracer):
            return _evaluate_hoisted(model, kind, condition, payloads)
    return _evaluate_hoisted(model, kind, condition, payloads)


def _evaluate_hoisted(
    model: SpplModel, kind: str, condition, payloads: Sequence
) -> List[Result]:
    # One representative evaluation per distinct key; keyless rows
    # (uncacheable payloads) are always evaluated individually.
    representatives: List[int] = []
    slots: List[int] = []
    position_by_key: Dict[tuple, int] = {}
    for index, payload in enumerate(payloads):
        key = ResultCache.key(kind, condition, payload)
        position = None if key is None else position_by_key.get(key)
        if position is None:
            position = len(representatives)
            representatives.append(index)
            if key is not None:
                position_by_key[key] = position
        slots.append(position)
    fresh = _evaluate_uncached(
        model, kind, condition, [payloads[index] for index in representatives]
    )
    return [fresh[position] for position in slots]


def _evaluate_uncached(
    model: SpplModel, kind: str, condition, payloads: Sequence
) -> List[Result]:
    try:
        target = model
        if isinstance(condition, tuple):
            # A posterior chain: successive exact conditions, each on the
            # previous step's interned posterior — the session tier's
            # evaluation shape.  Bit-identical to the library's
            # ``condition`` chain because it *is* that chain, and cheap
            # when warm: every step shares the model's QueryCache.
            for step in condition:
                with obs.span("condition", chars=len(step), chain=True):
                    target = target.condition(step)
        elif condition is not None:
            with obs.span("condition", chars=len(condition)):
                target = model.condition(condition)
    except Exception as error:  # ZeroProbabilityError, parse errors, scope errors
        return wire.error_results(error, len(payloads))
    if kind == "observe":
        # Reaching here proves the shipped chain (whose last step is the
        # newly observed evidence) conditions successfully; the posterior
        # is now warm in this shard's caches.
        return [wire.ok(True)] * len(payloads)
    with target.query_scope():
        if kind in ("logprob", "prob"):
            results = _batch_or_itemwise(target.logprob_batch, target.logprob, payloads)
            if kind == "prob":
                results = [
                    ("ok", math.exp(r[1])) if r[0] == "ok" else r for r in results
                ]
            return results
        if kind == "logpdf":
            return _batch_or_itemwise(target.logpdf_batch, target.logpdf, payloads)
        if kind == "sample":
            results = []
            for spec in payloads:
                try:
                    value = target.sample(n=spec.get("n"), seed=spec.get("seed"))
                    results.append(wire.ok(value))
                except Exception as error:
                    results.append(wire.error(error))
            return results
    return wire.error_results(ValueError("Unknown query kind %r." % (kind,)), len(payloads))


def _batch_or_itemwise(batch_fn, item_fn, payloads: Sequence) -> List[Result]:
    """One batched call; on failure, per-item calls to isolate the culprit."""
    try:
        return [wire.ok(value) for value in batch_fn(list(payloads))]
    except Exception:
        results = []
        for payload in payloads:
            try:
                results.append(wire.ok(item_fn(payload)))
            except Exception as error:
                results.append(wire.error(error))
        return results


class InProcessBackend:
    """Evaluate batches on a thread of the serving process.

    A single shard (``n_shards == 1``): every batch shares the one live
    model and its :class:`~repro.spe.QueryCache`.  Evaluation runs in an
    executor thread so the event loop keeps accepting and coalescing
    requests while a batch computes (the cache is thread-safe).

    The backend keeps its own live-model map, updated through
    :meth:`register_model` / :meth:`unregister_model`: during an
    unregistration the registry entry is removed *first* (rejecting new
    requests) while in-flight batches keep resolving against the map
    until the service has drained them.
    """

    n_shards = 1

    def __init__(self, registry, max_threads: int = 2):
        self.registry = registry
        self._semaphore = asyncio.Semaphore(max_threads)
        self._models: Dict[str, SpplModel] = {
            name: registry.get(name).model for name in registry.names()
        }

    def _model(self, name: str) -> Optional[SpplModel]:
        model = self._models.get(name)
        if model is None and name in self.registry:
            # Registered directly on the registry after construction
            # (embedding code); adopt it.
            model = self._models[name] = self.registry.get(name).model
        return model

    def _live_models(self) -> Dict[str, SpplModel]:
        """The served map, first adopting any direct registry additions
        (so stats/clear cover models registered after construction even
        before their first query)."""
        for name in self.registry.names():
            if name not in self._models:
                self._models[name] = self.registry.get(name).model
        return self._models

    def route(self, model: str, condition: Optional[str]) -> int:
        return 0

    async def register_model(self, name: str, registered) -> None:
        """Install a live model (shares the registry's object; no round trip)."""
        self._models[name] = registered.model

    async def unregister_model(self, name: str) -> None:
        self._models.pop(name, None)

    async def run_batch(
        self, model: str, kind: str, condition: Optional[str], shard: int,
        payloads: Sequence,
    ) -> List[Result]:
        live = self._model(model)
        if live is None:
            from .registry import RegistryError

            return wire.error_results(
                RegistryError("Model %r is not being served." % (model,)),
                len(payloads),
            )
        loop = asyncio.get_running_loop()
        # Contextvars do not cross run_in_executor: capture the active
        # trace here, on the loop, and hand it through explicitly.
        tracer = obs.current()
        async with self._semaphore:
            return await loop.run_in_executor(
                None,
                functools.partial(
                    evaluate_batch, live, kind, condition, payloads, tracer=tracer
                ),
            )

    def stats_sync(self) -> Dict:
        """Loop-owned stats, collected without awaiting (one atomic pass).

        respawns/requeued_batches keep the stats shape uniform with the
        sharded backend; an in-process backend has nothing to respawn.
        """
        stats = {}
        live = self._live_models()
        for name in sorted(live):
            stats[name] = live[name].cache_stats()
            compiled = live[name].compiled_info()
            if compiled is not None:
                stats[name]["compiled"] = compiled
        return {
            "mode": "in-process",
            "respawns": 0,
            "requeued_batches": 0,
            "models": stats,
        }

    async def stats(self) -> Dict:
        return self.stats_sync()

    async def clear_caches(self) -> None:
        for model in self._live_models().values():
            model.clear_cache(everything=True)
            model.clear_event_cache()

    async def close(self) -> None:
        pass


class _PendingBatch:
    __slots__ = ("requests", "futures", "spans", "stores", "batch_id")

    def __init__(self, batch_id: int):
        self.requests: List = []
        self.futures: List[asyncio.Future] = []
        # Per-request queue-wait spans (None for untraced requests),
        # parallel to ``requests``; closed when the batch launches.
        self.spans: List = []
        # Per-request ``(ResultCache, key)`` write-back targets captured
        # at submit (None for uncacheable requests), parallel to
        # ``requests``.
        self.stores: List = []
        self.batch_id = batch_id


class MicroBatcher:
    """Group concurrent requests by batch key and dispatch to a backend.

    ``max_queued_per_key`` bounds the number of **admitted but
    unanswered** requests per batch key (pending in a group or in a
    batch the backend is evaluating).  A request arriving at a full key
    is shed immediately with :class:`OverloadedError` — queues stay
    bounded under overload instead of growing without limit — and
    counted in ``shed_requests``.  ``None`` disables the bound.

    ``max_queued_per_tenant`` adds **fair-share admission** across
    tenants: every tenant gets the same queued-slot quota, accounted
    across all of its batch keys, and a tenant at its quota sheds with
    the same adaptive ``retry_after_ms`` while every other tenant's
    admission is untouched — a noisy neighbor saturates only its own
    share of the queue space, never the fleet.  Per-tenant sheds are
    counted in ``tenant_sheds`` (exported as labeled metrics samples).

    Every cacheable request is first looked up in its model's
    :class:`ResultCache`; a hit is answered at once and never enters the
    coalescer, so it holds no queue slot, cannot be shed, and is counted
    only by the cache.  ``requests``, ``batches`` and the latency
    histograms count the misses (and uncacheable requests) that do.

    Per-request latency (submit to response, including queue wait) is
    recorded into one :class:`~repro.serve.wire.LatencyHistogram` per
    query kind: two ``loop.time()`` reads and an integer bucket bump per
    request, so observability costs next to nothing on the hot path.
    """

    def __init__(
        self,
        backend,
        max_batch: int = 256,
        max_queued_per_key: Optional[int] = DEFAULT_MAX_QUEUED_PER_KEY,
        metrics: Optional[MetricsRegistry] = None,
        max_queued_per_tenant: Optional[int] = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be positive.")
        if max_queued_per_key is not None and max_queued_per_key < 1:
            raise ValueError("max_queued_per_key must be positive or None.")
        if max_queued_per_tenant is not None and max_queued_per_tenant < 1:
            raise ValueError("max_queued_per_tenant must be positive or None.")
        self.backend = backend
        self.max_batch = max_batch
        self.max_queued_per_key = max_queued_per_key
        self.max_queued_per_tenant = max_queued_per_tenant
        # Per batch key: the group taking requests, and the tasks of its
        # batches in flight (absent = idle; the loop holds tasks weakly).
        self._pending: Dict[tuple, _PendingBatch] = {}
        self._running: Dict[tuple, Set[asyncio.Task]] = {}
        # Counters are registry instruments (single-threaded: only
        # touched on the event loop); the old plain-int attributes stay
        # readable through the property shims below.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._requests = self.metrics.counter("repro.scheduler.requests")
        self._batches = self.metrics.counter("repro.scheduler.batches")
        self._shed = self.metrics.counter("repro.scheduler.shed_requests")
        self._tenant_shed = self.metrics.counter(
            "repro.scheduler.tenant_shed_requests"
        )
        self._largest = self.metrics.gauge("repro.scheduler.largest_batch")
        self.metrics.gauge_fn(
            "repro.scheduler.queued", lambda: sum(self._queued.values())
        )
        self.metrics.gauge_fn(
            "repro.scheduler.tenants_queued", lambda: len(self._queued_tenants)
        )
        self._batch_seq = 0
        self._queued: Dict[tuple, int] = {}
        self._queued_tenants: Dict[str, int] = {}
        #: Per-tenant quota-shed counts (tenant name -> sheds), the
        #: noisy-neighbor audit trail; rendered as labeled samples on
        #: ``GET /metrics`` and in the stats endpoint.
        self.tenant_sheds: Dict[str, int] = {}
        self._inflight_models: Dict[str, int] = {}
        self._latency: Dict[str, LatencyHistogram] = {}
        self._result_caches: Dict[str, ResultCache] = {}

    def result_cache(self, model: str) -> ResultCache:
        """``model``'s live result cache (created on first use)."""
        cache = self._result_caches.get(model)
        if cache is None:
            cache = self._result_caches[model] = ResultCache()
        return cache

    def reset_result_cache(self, model: Optional[str] = None) -> None:
        """Give ``model`` (every model, when ``None``) an empty result cache.

        The cache *object* is replaced, not emptied: a batch in flight
        writes its answers back into the cache its requests were looked
        up in, so nothing computed before a reset can reach the new one.
        """
        for name in list(self._result_caches) if model is None else [model]:
            self._result_caches[name] = ResultCache()

    def drop_result_cache(self, model: str) -> None:
        """Forget ``model``'s result cache (the model was unregistered)."""
        self._result_caches.pop(model, None)

    def queued_for_tenant(self, tenant: str) -> int:
        """Admitted-but-unanswered request count against one tenant."""
        return self._queued_tenants.get(tenant, 0)

    def inflight(self, model: str) -> int:
        """Admitted-but-unanswered request count against one model."""
        return self._inflight_models.get(model, 0)

    def retry_after_ms(self, kind: Optional[str] = None) -> int:
        """Adaptive advisory back-off for a shed request of ``kind``.

        Derived from the live latency histograms and the current queue
        depth via :func:`~repro.serve.wire.compute_retry_after_ms`: a
        loaded service advises roughly one p95 latency (stretched by how
        full the queues are), so client retries land after the backlog
        they would have joined has drained.  ``kind=None`` (or a kind
        with no observations yet, e.g. a connection-level shed before the
        request line was parsed) falls back on the slowest observed kind;
        with no latency data at all the static :data:`RETRY_AFTER_MS`
        floor applies.
        """
        histogram = self._latency.get(kind) if kind is not None else None
        if histogram is None or not histogram.count:
            observed = [h for h in self._latency.values() if h.count]
            if not observed:
                return RETRY_AFTER_MS
            p95_s = max(h.quantile(0.95) for h in observed)
        else:
            p95_s = histogram.quantile(0.95)
        utilization = 0.0
        if self.max_queued_per_key:
            utilization = sum(self._queued.values()) / float(self.max_queued_per_key)
        return wire.compute_retry_after_ms(p95_s, utilization)

    async def submit(self, request: "wire.Request") -> Result:
        """Submit one request; resolves with its cached or backend result.

        Raises :class:`OverloadedError` (without queueing the request)
        when the target batch key is at ``max_queued_per_key``.
        """
        store = None
        cache_key = ResultCache.key(request.kind, request.condition, request.payload)
        if cache_key is not None:
            cache = self.result_cache(request.model)
            cached = cache.get(cache_key)
            if isinstance(request.trace, Trace):
                request.trace.event(
                    "result_cache",
                    hits=int(cached is not None),
                    misses=int(cached is None),
                    key=repr(cache_key)[:96],
                )
            if cached is not None:
                return cached
            store = (cache, cache_key)
        loop = asyncio.get_running_loop()
        # Sessions route on their affinity key (stable as the chain
        # grows), everything else on the condition text — either way a
        # posterior chain stays pinned to one cache-warm shard.
        route_key = request.affinity
        if route_key is None:
            route_key = wire.condition_key(request.condition)
        shard = self.backend.route(request.model, route_key)
        key = (request.model, request.kind, request.condition, shard)
        tenant = request.tenant
        tenant_queued = self._queued_tenants.get(tenant, 0)
        if (
            self.max_queued_per_tenant is not None
            and tenant_queued >= self.max_queued_per_tenant
        ):
            # Fair-share admission: this tenant's slots are spoken for;
            # other tenants' admission is untouched.
            self._shed.inc()
            self._tenant_shed.inc()
            self.tenant_sheds[tenant] = self.tenant_sheds.get(tenant, 0) + 1
            raise OverloadedError(
                "Tenant %r is at its queue quota (%d queued)."
                % (tenant, tenant_queued),
                retry_after_ms=self.retry_after_ms(request.kind),
            )
        queued = self._queued.get(key, 0)
        if self.max_queued_per_key is not None and queued >= self.max_queued_per_key:
            self._shed.inc()
            raise OverloadedError(
                "Batch key %r is at its queue bound (%d queued)."
                % (key[:3], queued),
                retry_after_ms=self.retry_after_ms(request.kind),
            )
        future = loop.create_future()
        self._requests.inc()
        self._queued[key] = queued + 1
        self._queued_tenants[tenant] = tenant_queued + 1
        self._inflight_models[request.model] = (
            self._inflight_models.get(request.model, 0) + 1
        )
        start = loop.time()
        try:
            pending = self._pending.get(key)
            if pending is None:
                self._batch_seq += 1
                pending = self._pending[key] = _PendingBatch(self._batch_seq)
                if key not in self._running:
                    # Idle key: dispatch on the next tick.  A busy key's
                    # group waits for the batch in flight to return.
                    loop.call_soon(self._flush, key, pending)
            pending.requests.append(request)
            pending.futures.append(future)
            pending.stores.append(store)
            if isinstance(request.trace, Trace):
                pending.spans.append(
                    request.trace.start_span(
                        "scheduler.queue",
                        model=request.model,
                        kind=request.kind,
                        shard=shard,
                    )
                )
            else:
                pending.spans.append(None)
            if len(pending.requests) >= self.max_batch:
                self._flush(key, pending)
            result = await future
        finally:
            self._decrement(self._queued, key)
            self._decrement(self._queued_tenants, tenant)
            self._decrement(self._inflight_models, request.model)
        histogram = self._latency.get(request.kind)
        if histogram is None:
            histogram = self._latency[request.kind] = LatencyHistogram()
            self.metrics.histogram(
                "repro.scheduler.latency." + request.kind, histogram
            )
        histogram.record(loop.time() - start)
        return result

    @staticmethod
    def _decrement(counts: Dict, key) -> None:
        remaining = counts.get(key, 0) - 1
        if remaining > 0:
            counts[key] = remaining
        else:
            counts.pop(key, None)

    def _flush(self, key: tuple, pending: _PendingBatch) -> None:
        if self._pending.get(key) is not pending:
            return  # flushed at max_batch before its idle tick came
        del self._pending[key]
        self._batches.inc()
        self._largest.max(len(pending.requests))
        task = asyncio.ensure_future(self._run(key, pending))
        self._running.setdefault(key, set()).add(task)

    async def _run(self, key: tuple, pending: _PendingBatch) -> None:
        try:
            model, kind, condition, shard = key
            payloads = [request.payload for request in pending.requests]
            # Queue wait ends when the batch launches; each traced member's
            # queue span records which batch it was coalesced into.
            for qspan in pending.spans:
                if qspan is not None:
                    qspan.annotate(batch_id=pending.batch_id,
                                   batch_size=len(payloads))
                    qspan.finish()
            batch_trace = None
            if any(span is not None for span in pending.spans):
                batch_trace = Trace(
                    name="batch",
                    tags={
                        "batch_id": pending.batch_id,
                        "model": model,
                        "kind": kind,
                        "shard": shard,
                        "n": len(payloads),
                    },
                )
            # ALWAYS activate — even with None.  This task inherited the
            # contextvars of whatever flushed it: the group's first request
            # (idle key) or the completing batch's task (busy key).  An
            # untraced batch must clear that bystander's tracer rather than
            # attach batch spans to an unrelated request.
            with obs.activate(batch_trace):
                try:
                    results = await self.backend.run_batch(
                        model, kind, condition, shard, payloads
                    )
                    if len(results) != len(payloads):
                        raise RuntimeError(
                            "Backend returned %d results for a %d-request batch."
                            % (len(results), len(payloads))
                        )
                except Exception as error:
                    results = wire.error_results(error, len(payloads))
            if batch_trace is not None:
                payload = batch_trace.to_payload()
                for request, qspan in zip(pending.requests, pending.spans):
                    if qspan is not None:
                        request.trace.graft(payload)
            for store, result in zip(pending.stores, results):
                if store is not None and result[0] == "ok":
                    store[0].put(store[1], result)
            for future, result in zip(pending.futures, results):
                if not future.done():
                    future.set_result(result)
        finally:
            # However the batch ended, none of its requests is left
            # waiting, and the group that waited on it goes next.
            for future in pending.futures:
                future.cancel()
            running = self._running[key]
            running.discard(asyncio.current_task())
            if not running:
                del self._running[key]
            waiting = self._pending.get(key)
            if waiting is not None:
                self._flush(key, waiting)

    async def drain(self) -> None:
        """Flush every pending group immediately (used at shutdown)."""
        for key, pending in list(self._pending.items()):
            self._flush(key, pending)

    def stats(self) -> Dict:
        """Coalescing, shedding, and latency statistics for the stats endpoint."""
        requests, batches = self._requests.value, self._batches.value
        return {
            "requests": requests,
            "batches": batches,
            "largest_batch": self._largest.value,
            "shed": self._shed.value,
            "tenant_shed": self._tenant_shed.value,
            "tenant_sheds": dict(sorted(self.tenant_sheds.items())),
            "queued": sum(self._queued.values()),
            "queued_by_tenant": dict(sorted(self._queued_tenants.items())),
            "max_queued_per_tenant": self.max_queued_per_tenant,
            "mean_batch_size": round(requests / batches, 2) if batches else 0.0,
            "max_batch": self.max_batch,
            "max_queued_per_key": self.max_queued_per_key,
            "latency": {
                kind: histogram.summary()
                for kind, histogram in sorted(self._latency.items())
            },
            # The back-off a request shed right now would be advised:
            # per observed kind, plus the kind-agnostic value used for
            # connection-level sheds.
            "retry_after_ms": dict(
                {"any": self.retry_after_ms()},
                **{kind: self.retry_after_ms(kind) for kind in sorted(self._latency)},
            ),
            "result_cache": {
                model: cache.stats()
                for model, cache in sorted(self._result_caches.items())
            },
        }
