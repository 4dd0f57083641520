"""Asyncio HTTP front-end of the inference service (stdlib only).

A deliberately small HTTP/1.1 server (``asyncio.start_server``; no
third-party web framework) exposing:

* ``POST /v1/query``  -- newline-delimited JSON requests (one or many per
  body); the response body carries one NDJSON line per request, in
  request order.  See :mod:`repro.serve.wire` for the line format.
* ``GET /v1/models``  -- registry description (variables, node counts,
  structural digests, cache budgets).
* ``POST /v1/models/register`` / ``POST /v1/models/unregister`` --
  dynamic model lifecycle on a *running* service: registration ships the
  serialized model to every worker shard and publishes the name only
  after all shards ack the round-trip digest; unregistration rejects new
  queries immediately but drains in-flight ones before teardown.
* ``GET /v1/stats``   -- scheduler coalescing/shed counters, per-kind
  latency percentiles (p50/p95/p99 from log-bucketed histograms), the
  front end's per-model result caches, plus per-model (or per-shard)
  exact query-cache hit/miss/eviction statistics and eviction pressure.
* ``POST /v1/clear_cache`` -- drop cached results everywhere (the front
  end's result caches, and every shard's query caches and parsed-event
  LRUs); used by benchmarks to measure cold-cache behavior.
* ``GET /healthz``    -- liveness.
* ``POST /v1/sessions`` / ``GET /v1/sessions`` /
  ``POST /v1/sessions/<name>/observe`` /
  ``POST /v1/sessions/<name>/{query,predict,logprob,logpdf}`` /
  ``DELETE /v1/sessions/<name>`` -- named streaming posterior sessions:
  each ``observe`` extends the session's condition chain by one exact
  conditioning step (committed only when the backend acks it), queries
  read the current posterior, and the whole chain routes to one
  cache-warm shard via session-affinity keys.  Sessions are namespaced
  per tenant (the ``x-tenant`` header; also the default tenant for
  ``/v1/query`` lines without an explicit ``tenant`` field) and bounded
  by TTL, LRU eviction, and per-tenant quotas — see
  :mod:`repro.serve.sessions`.

Connections are **pipelined**: the reader keeps accepting requests while
earlier ones are still being evaluated, and a writer task sends the
responses back in request order.  This matters for micro-batching -- a
client that writes many requests back-to-back on one connection gets them
coalesced into one batched evaluation, without needing one socket per
in-flight request.

Overload never grows queues without bound: the scheduler sheds requests
past its per-key queue bound (a 429-style NDJSON line carrying
``retry_after_ms``), and a single connection pipelining past
``max_inflight_per_connection`` unwritten responses gets a real HTTP 429.
``retry_after_ms`` is **adaptive**: derived from the live per-kind
latency histograms and the current queue depth (see
:meth:`~repro.serve.scheduler.MicroBatcher.retry_after_ms`), so client
back-off tracks how loaded the service actually is.  Error handling is
per-request wherever framing allows: a malformed NDJSON line or an
oversized (but well-framed) body fails only itself; later pipelined
requests on the same connection are still serviced.

Fault tolerance: with a worker pool, a shard that dies is respawned and
its in-flight batches requeued (see :mod:`repro.serve.sharding`); with a
:class:`~repro.serve.registry.RegistryJournal`, live register/unregister
events are journaled durably and replayed on startup, so dynamically
registered models survive restarts.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import random
from typing import Dict
from typing import List
from typing import Optional
from typing import Tuple

from .. import obs
from ..obs import FlightRecorder
from ..obs import MetricsRegistry
from ..obs import Trace
from . import wire
from .registry import ModelRegistry
from .registry import RegistryError
from .registry import RegistryJournal
from .scheduler import DEFAULT_MAX_QUEUED_PER_KEY
from .scheduler import InProcessBackend
from .scheduler import MicroBatcher
from .scheduler import OverloadedError
from .sessions import DEFAULT_MAX_SESSIONS
from .sessions import SessionError
from .sessions import SessionStore
from .sharding import WorkerError
from .sharding import WorkerPool
from .sharding import WorkerPoolBackend

#: Largest accepted request head (request line + headers) and body.
MAX_HEAD_BYTES = 64 * 1024
MAX_BODY_BYTES = 64 * 1024 * 1024

#: An oversized body up to this size is read and discarded so the
#: connection stays framed (the request alone gets a 400); past it the
#: connection closes rather than drain an unbounded stream.
MAX_DRAIN_BYTES = 2 * MAX_BODY_BYTES

#: Default bound on pipelined requests per connection whose responses
#: have not been written yet; past it a request is shed with an HTTP 429
#: instead of queueing.
DEFAULT_MAX_INFLIGHT_PER_CONNECTION = 512

#: A connection that accumulates this many 429 sheds is closed outright:
#: a peer that keeps pipelining past the bound without reading responses
#: (slow-loris) would otherwise grow the response queue one small shed
#: line at a time.  This caps per-connection memory absolutely.
MAX_SHEDS_PER_CONNECTION = 4096

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


def _response(status: int, body: bytes, content_type: str = "application/x-ndjson") -> bytes:
    head = (
        "HTTP/1.1 %d %s\r\n"
        "Content-Type: %s\r\n"
        "Content-Length: %d\r\n"
        "\r\n" % (status, _REASONS.get(status, "OK"), content_type, len(body))
    )
    return head.encode("ascii") + body


def _json_response(status: int, payload: Dict) -> bytes:
    return _response(
        status,
        (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8"),
        content_type="application/json",
    )


class InferenceService:
    """The long-running service: registry + micro-batcher + HTTP front-end.

    ``workers=0`` evaluates in-process (one shard, shared live models);
    ``workers=N`` starts ``N`` worker processes, each holding a
    deserialized copy of every registered model and a private query cache
    (see :mod:`repro.serve.sharding`).  ``nodes=["host:port", ...]``
    additionally joins remote :mod:`repro.serve.node` shards into the
    same consistent-hash ring over TCP (see
    :mod:`repro.serve.transport`); each node entry contributes one shard.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        workers: int = 0,
        max_batch: int = 256,
        host: str = "127.0.0.1",
        port: int = 0,
        max_queued_per_key: Optional[int] = DEFAULT_MAX_QUEUED_PER_KEY,
        max_inflight_per_connection: int = DEFAULT_MAX_INFLIGHT_PER_CONNECTION,
        journal: Optional[RegistryJournal] = None,
        trace_sample: float = 0.0,
        slow_query_ms: Optional[float] = None,
        slow_query_log: Optional[str] = None,
        trace_capacity: int = 256,
        nodes: Optional[List[str]] = None,
        probe_interval_ms: float = 1000.0,
        max_queued_per_tenant: Optional[int] = None,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
        session_ttl_s: Optional[float] = None,
        max_sessions_per_tenant: Optional[int] = None,
    ):
        if max_inflight_per_connection < 1:
            raise ValueError(
                "max_inflight_per_connection must be positive (a 0 bound "
                "would shed every request)."
            )
        if not 0.0 <= trace_sample <= 1.0:
            raise ValueError("trace_sample must be in [0, 1].")
        self.registry = registry
        self.workers = workers
        self.host = host
        self.port = port
        self.max_inflight_per_connection = max_inflight_per_connection
        #: Optional durable lifecycle journal: successful live
        #: register/unregister calls are appended (flushed + fsynced)
        #: before the HTTP response acks, so they survive a restart.
        #: Replaying the journal into the registry happens *before*
        #: service construction (see ``repro.serve.__main__``).
        self.journal = journal
        #: One registry for every instrument in this service: scheduler,
        #: pool, HTTP layer, and flight recorder all register their
        #: counters here, and ``GET /metrics`` renders it.
        self.metrics = MetricsRegistry()
        if slow_query_ms is not None and trace_sample == 0.0:
            # A slow-query threshold without an explicit sample rate
            # implies full sampling: an outlier's log line should carry
            # the span tree that explains it.
            trace_sample = 1.0
        self.trace_sample = trace_sample
        self.recorder = FlightRecorder(
            capacity=trace_capacity,
            slow_query_ms=slow_query_ms,
            slow_query_log=slow_query_log,
            metrics=self.metrics,
        )
        self.nodes = list(nodes or [])
        self._pool: Optional[WorkerPool] = None
        if workers > 0 or self.nodes:
            self._pool = WorkerPool(
                workers, metrics=self.metrics, nodes=self.nodes,
                probe_interval_ms=probe_interval_ms,
            )
            self.backend = WorkerPoolBackend(self._pool)
        else:
            self.backend = InProcessBackend(registry)
        self.scheduler = MicroBatcher(
            self.backend,
            max_batch=max_batch,
            max_queued_per_key=max_queued_per_key,
            max_queued_per_tenant=max_queued_per_tenant,
            metrics=self.metrics,
        )
        #: Streaming posterior sessions (front-end state only: the chain
        #: ships with every batch, so shards stay stateless and failover
        #: replays it deterministically).
        self.sessions = SessionStore(
            max_sessions=max_sessions,
            ttl_s=session_ttl_s,
            max_sessions_per_tenant=max_sessions_per_tenant,
            metrics=self.metrics,
        )
        #: Per-session asyncio locks serializing observes (one chain
        #: extension at a time; queries run lock-free against whatever
        #: chain is current).
        self._session_locks: Dict[Tuple[str, str], asyncio.Lock] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        #: Dispatch tasks not yet resolved / responses not yet written:
        #: close() drains both before tearing the backend down, so a
        #: SIGTERM mid-batch never drops an accepted request.
        self._inflight: set = set()
        self._pending_responses = 0
        self._connection_sheds = self.metrics.counter(
            "repro.http.connection_sheds"
        )
        self.metrics.gauge_fn(
            "repro.http.pending_responses", lambda: self._pending_responses
        )
        #: Serializes register/unregister so two concurrent lifecycle
        #: calls cannot interleave their worker handshakes.
        self._lifecycle_lock = asyncio.Lock()

    def worker_specs(self) -> Dict[str, Dict]:
        """Per-model specs handed to worker processes.

        Blob-backed models (registry with a ``blob_dir``) ship their
        ``.spz`` path + digest so every shard mmaps one shared physical
        copy; others ship the full serialized payload.
        """
        return {
            name: wire.model_spec(self.registry.get(name))
            for name in self.registry.names()
        }

    # -- Lifecycle ------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Start workers (if any) and the HTTP listener; returns (host, port)."""
        if self._pool is not None:
            specs = self.worker_specs()
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self._pool.start, specs)
            # Proactive supervision: idle shards are pinged periodically
            # and dead ones respawned before traffic finds them.
            self._pool.start_probing()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def close(self, drain_timeout: float = 10.0) -> None:
        """Graceful shutdown: drain in-flight work, then close everything.

        Ordering matters for the "no dropped answers" guarantee: stop
        accepting, flush every pending micro-batch, wait (bounded by
        ``drain_timeout``) until in-flight dispatches resolve and their
        responses are written to the sockets, and only then cancel the
        connection readers and stop the worker pool.  A request the
        service accepted before SIGTERM gets its answer.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.drain()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + drain_timeout
        while (self._inflight or self._pending_responses) and loop.time() < deadline:
            await asyncio.sleep(0.005)
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        await self.scheduler.drain()
        await self.backend.close()
        self.recorder.close()
        if self.journal is not None:
            self.journal.close()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    # -- Connection handling --------------------------------------------------

    def _enqueue(self, queue: asyncio.Queue, item) -> None:
        """Queue one response (bytes or a dispatch future) for the writer.

        Synchronous on purpose: the queue is unbounded (boundedness comes
        from the per-connection and per-key backpressure bounds), so
        ``put_nowait`` never blocks and the reader loop pays no extra
        coroutine per pipelined request.
        """
        self._pending_responses += 1
        queue.put_nowait(item)

    async def _handle_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._connections.add(asyncio.current_task())
        queue: asyncio.Queue = asyncio.Queue()
        # Dispatched responses accepted on *this* connection whose bytes
        # have not been written yet (mutable cell shared with the writer).
        # Counting until the *write* — not until the dispatch resolves —
        # is what bounds the response queue of a slow-reading client: a
        # peer that stops reading pins the counter at the bound and gets
        # (small, fixed-size) 429 lines instead of queueing evaluated
        # response payloads without limit.
        inflight = [0]
        sheds = 0
        writer_task = asyncio.ensure_future(
            self._write_responses(queue, writer, inflight)
        )
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except asyncio.IncompleteReadError:
                    break
                except asyncio.LimitOverrunError:
                    self._enqueue(
                        queue, _json_response(400, {"error": "Request head too large."})
                    )
                    break
                method, path, headers, bad = self._parse_head(head)
                if bad is not None:
                    self._enqueue(queue, _json_response(400, {"error": bad}))
                    break
                close_requested = headers.get("connection", "").lower() == "close"
                try:
                    length = int(headers.get("content-length", "0"))
                except ValueError:
                    length = -1
                if length < 0:
                    # Unparseable or negative: the request framing is
                    # unknowable, so this connection cannot be saved.
                    self._enqueue(
                        queue, _json_response(400, {"error": "Bad Content-Length."})
                    )
                    break
                if length > MAX_BODY_BYTES:
                    # Oversized but well-framed: discard the body so the
                    # next pipelined request on this connection still
                    # parses, and fail only this one.
                    if length > MAX_DRAIN_BYTES:
                        self._enqueue(
                            queue, _json_response(400, {"error": "Body too large."})
                        )
                        break
                    remaining = length
                    while remaining:
                        chunk = await reader.read(min(65536, remaining))
                        if not chunk:
                            raise ConnectionError("EOF inside oversized body")
                        remaining -= len(chunk)
                    self._enqueue(
                        queue,
                        _json_response(
                            400,
                            {"error": "Body too large (%d > %d bytes)."
                             % (length, MAX_BODY_BYTES)},
                        ),
                    )
                    # These 400 lines bypass dispatch, so they must spend
                    # the same budget as sheds: a non-reading peer
                    # pipelining oversized bodies cannot grow the queue.
                    sheds += 1
                    if close_requested or sheds >= MAX_SHEDS_PER_CONNECTION:
                        break
                    continue
                body = await reader.readexactly(length) if length else b""
                if inflight[0] >= self.max_inflight_per_connection:
                    # Per-connection backpressure: the pipeline is full,
                    # shed with a real 429 instead of queueing responses
                    # without bound.  Applies to every dispatched path:
                    # any pipelined request holds response-queue memory
                    # until its reply is written.
                    self._connection_sheds.inc()
                    sheds += 1
                    self._enqueue(
                        queue,
                        _json_response(
                            429,
                            wire.overloaded_response(
                                None, self.scheduler.retry_after_ms()
                            ),
                        ),
                    )
                    if close_requested or sheds >= MAX_SHEDS_PER_CONNECTION:
                        # A peer accumulating thousands of sheds is not
                        # backing off (and may not be reading at all):
                        # even the small shed lines must not grow the
                        # queue forever, so close the connection.
                        break
                    continue
                # Dispatch without awaiting the result: the next pipelined
                # request is read (and can join the same micro-batch) while
                # this one is evaluated.
                task = asyncio.ensure_future(
                    self._dispatch(method, path, headers, body)
                )
                self._inflight.add(task)
                task.add_done_callback(self._inflight.discard)
                inflight[0] += 1  # released by the writer after the write
                self._enqueue(queue, task)
                if close_requested:
                    break
        except (ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            # Service shutdown with the connection still open: close it
            # quietly (ending cancelled would make asyncio's stream
            # machinery log the cancellation as an error).  Close the
            # transport *now* — a writer blocked in drain() on a peer
            # that stopped reading can only be unblocked by the close
            # (its pending write fails), and close() already waited out
            # its drain timeout before cancelling us.
            writer.close()
        finally:
            self._connections.discard(asyncio.current_task())
            queue.put_nowait(None)
            try:
                with contextlib.suppress(asyncio.CancelledError):
                    await writer_task
            finally:
                # Items enqueued after the writer died early can never be
                # written; account for them so shutdown does not stall.
                while not queue.empty():
                    if queue.get_nowait() is not None:
                        self._pending_responses -= 1
                writer.close()
                with contextlib.suppress(ConnectionError, OSError, asyncio.CancelledError):
                    await writer.wait_closed()

    @staticmethod
    def _parse_head(head: bytes):
        try:
            lines = head.decode("latin-1").split("\r\n")
            method, path, _version = lines[0].split(" ", 2)
        except ValueError:
            return None, None, None, "Malformed request line."
        headers = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return method.upper(), path, headers, None

    async def _write_responses(
        self, queue: asyncio.Queue, writer: asyncio.StreamWriter, inflight
    ) -> None:
        try:
            while True:
                item = await queue.get()
                if item is None:
                    return
                try:
                    payload = await item if asyncio.isfuture(item) else item
                    writer.write(payload)
                    await writer.drain()
                except (ConnectionError, OSError):
                    return
                finally:
                    self._pending_responses -= 1
                    if asyncio.isfuture(item):
                        inflight[0] -= 1
        finally:
            # On early exit (peer vanished) account for the responses
            # still queued, so a shutdown drain does not wait for writes
            # that can never happen.
            while not queue.empty():
                item = queue.get_nowait()
                if item is not None:
                    self._pending_responses -= 1
                    if asyncio.isfuture(item):
                        inflight[0] -= 1

    # -- Request dispatch -----------------------------------------------------

    async def _dispatch(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> bytes:
        try:
            tenant = headers.get("x-tenant", wire.DEFAULT_TENANT)
            try:
                tenant = wire.parse_session_name(tenant, field="x-tenant")
            except wire.WireError as error:
                return _json_response(400, {"error": str(error)})
            if path == "/v1/query":
                if method != "POST":
                    return _json_response(405, {"error": "POST required."})
                return await self._handle_query(body, tenant)
            if path == "/v1/sessions":
                if method == "GET":
                    return self._handle_session_list(tenant)
                if method != "POST":
                    return _json_response(405, {"error": "GET or POST required."})
                return await self._handle_session_create(tenant, body)
            if path.startswith("/v1/sessions/"):
                return await self._dispatch_session(
                    method, path[len("/v1/sessions/"):], tenant, body
                )
            if path == "/v1/models":
                return _json_response(200, self.registry.describe())
            if path == "/v1/models/register":
                if method != "POST":
                    return _json_response(405, {"error": "POST required."})
                return await self._handle_register(body)
            if path == "/v1/models/unregister":
                if method != "POST":
                    return _json_response(405, {"error": "POST required."})
                return await self._handle_unregister(body)
            if path == "/v1/stats":
                return _json_response(200, await self._stats())
            if path == "/metrics":
                return _response(
                    200,
                    (await self._metrics_exposition()).encode("utf-8"),
                    content_type="text/plain; version=0.0.4; charset=utf-8",
                )
            if path.startswith("/v1/trace/"):
                trace_id = path[len("/v1/trace/"):]
                entry = self.recorder.get(trace_id)
                if entry is None:
                    return _json_response(
                        404,
                        {"error": "No trace %r (unsampled, evicted, or "
                                  "unknown)." % (trace_id,)},
                    )
                return _json_response(200, entry)
            if path == "/v1/clear_cache":
                if method != "POST":
                    return _json_response(405, {"error": "POST required."})
                self.scheduler.reset_result_cache()
                await self.backend.clear_caches()
                if self._pool is not None:
                    # Sharded mode: the registry's live copies are not on
                    # the query path, but their compiled-blob handles must
                    # be refreshed too (clear_cache re-maps the blob), so
                    # no stale mmap survives anywhere in the parent.
                    await asyncio.get_running_loop().run_in_executor(
                        None, self.registry.clear_caches
                    )
                return _json_response(200, {"ok": True})
            if path == "/healthz":
                return _json_response(200, {"ok": True})
            return _json_response(404, {"error": "Unknown path %s" % (path,)})
        except Exception as error:  # never kill a connection on a handler bug
            return _json_response(400, {"error": "%s: %s" % (type(error).__name__, error)})

    async def _handle_query(
        self, body: bytes, tenant: str = wire.DEFAULT_TENANT
    ) -> bytes:
        lines = [line for line in body.split(b"\n") if line.strip()]
        if not lines:
            return _json_response(400, {"error": "Empty query body."})
        results = await asyncio.gather(
            *[self._handle_query_line(line, tenant) for line in lines]
        )
        return _response(200, b"".join(line + b"\n" for line in results))

    async def _handle_query_line(
        self, line: bytes, tenant: str = wire.DEFAULT_TENANT
    ) -> bytes:
        # Every request gets a trace id (echoed on its response line for
        # correlation); only requests that opt in ("trace": true) or win
        # the sampling draw pay for an actual span tree behind it.
        trace_id = obs.new_trace_id()
        try:
            request = wire.parse_request_line(line)
        except wire.WireError as error:
            request_id = None
            try:
                decoded = json.loads(line)
                if isinstance(decoded, dict):
                    request_id = decoded.get("id")
            except ValueError:
                pass
            return wire.encode_error_line(request_id, str(error), trace_id=trace_id)
        try:
            self.registry.get(request.model)
        except RegistryError as error:
            return wire.encode_error_line(
                request.id, str(error), kind="RegistryError", trace_id=trace_id
            )
        if request.tenant == wire.DEFAULT_TENANT:
            # The x-tenant header is the connection's default tenant; an
            # explicit per-line 'tenant' field still wins.
            request.tenant = tenant
        try:
            result = await self._submit_traced(request, trace_id)
        except OverloadedError as error:
            return wire.encode_overloaded_line(
                request.id, error.retry_after_ms, trace_id=trace_id
            )
        return wire.encode_response(request.id, result, trace_id=trace_id)

    async def _submit_traced(self, request: wire.Request, trace_id: str):
        """Submit one request with the service's sampling/recording policy.

        Shared by the NDJSON query path and the session endpoints: mints
        the live tracer when sampled, records the flight-recorder entry
        either way, and re-raises :class:`OverloadedError` for the caller
        to encode in its own response shape.
        """
        trace = None
        if request.trace or (
            self.trace_sample and random.random() < self.trace_sample
        ):
            trace = Trace(
                trace_id=trace_id,
                name="request",
                tags={"model": request.model, "kind": request.kind},
            )
        # The wire flag becomes the live tracer (or None): the scheduler
        # attaches queue spans and batch fragments through this field.
        request.trace = trace
        loop = asyncio.get_running_loop()
        start = loop.time()
        try:
            result = await self.scheduler.submit(request)
        except OverloadedError as error:
            if trace is not None:
                trace.event("overloaded", retry_after_ms=error.retry_after_ms)
            self.recorder.observe(
                trace, trace_id, (loop.time() - start) * 1e3,
                model=request.model, kind=request.kind,
            )
            raise
        self.recorder.observe(
            trace, trace_id, (loop.time() - start) * 1e3,
            model=request.model, kind=request.kind,
        )
        return result

    # -- Streaming posterior sessions -----------------------------------------

    #: Session read verb -> wire query kind.  ``query`` answers event
    #: probabilities under the current posterior; ``predict`` draws
    #: posterior samples.
    SESSION_KINDS = {
        "query": "prob",
        "logprob": "logprob",
        "predict": "sample",
        "logpdf": "logpdf",
    }

    @staticmethod
    def _session_error(error: SessionError) -> bytes:
        return _json_response(
            error.status,
            {"error": str(error), "error_kind": type(error).__name__},
        )

    def _session_lock(self, tenant: str, name: str) -> asyncio.Lock:
        """The lock serializing chain extensions of one session."""
        key = (tenant, name)
        lock = self._session_locks.get(key)
        if lock is None:
            if len(self._session_locks) > 2 * self.sessions.max_sessions:
                # Evicted/expired sessions leave locks behind; prune the
                # ones no live session (and no in-flight observe) can
                # contend on.
                live = {(s.tenant, s.name) for s in self.sessions.list()}
                for stale in [
                    k for k, v in self._session_locks.items()
                    if k not in live and not v.locked()
                ]:
                    del self._session_locks[stale]
            lock = self._session_locks[key] = asyncio.Lock()
        return lock

    async def _dispatch_session(
        self, method: str, rest: str, tenant: str, body: bytes
    ) -> bytes:
        name, _, verb = rest.partition("/")
        try:
            name = wire.parse_session_name(name)
        except wire.WireError as error:
            return _json_response(400, {"error": str(error)})
        if verb == "":
            if method == "DELETE":
                return self._handle_session_delete(tenant, name)
            if method == "GET":
                return self._handle_session_describe(tenant, name)
            return _json_response(405, {"error": "GET or DELETE required."})
        if method != "POST":
            return _json_response(405, {"error": "POST required."})
        if verb == "delete":
            return self._handle_session_delete(tenant, name)
        if verb == "observe":
            return await self._handle_session_observe(tenant, name, body)
        kind = self.SESSION_KINDS.get(verb)
        if kind is None:
            return _json_response(
                404, {"error": "Unknown session verb %r." % (verb,)}
            )
        return await self._handle_session_query(tenant, name, kind, body)

    async def _handle_session_create(self, tenant: str, body: bytes) -> bytes:
        try:
            data = json.loads(body)
        except ValueError as error:
            return _json_response(400, {"error": "Bad JSON body: %s" % (error,)})
        if not isinstance(data, dict):
            return _json_response(400, {"error": "Create needs a JSON object body."})
        try:
            name = wire.parse_session_name(data.get("session"))
            if "tenant" in data:
                tenant = wire.parse_session_name(data["tenant"], field="tenant")
        except wire.WireError as error:
            return _json_response(400, {"error": str(error)})
        model = data.get("model")
        if not isinstance(model, str) or not model:
            return _json_response(400, {"error": "Create needs a non-empty 'model'."})
        try:
            self.registry.get(model)
        except RegistryError as error:
            return _json_response(404, {"error": str(error)})
        try:
            session = self.sessions.create(tenant, name, model)
        except SessionError as error:
            response = {"error": str(error), "error_kind": type(error).__name__}
            if error.status == 429:
                # Quota sheds advise back-off like queue sheds do.
                response["retry_after_ms"] = self.scheduler.retry_after_ms()
            return _json_response(error.status, response)
        return _json_response(200, dict(wire.session_response(session), ok=True))

    async def _handle_session_observe(
        self, tenant: str, name: str, body: bytes
    ) -> bytes:
        """Extend the session's chain by one exact conditioning step.

        Commit-on-success: the candidate chain (current chain plus the
        new evidence) is submitted as one ``observe`` request; only a
        backend ack moves the session forward, so a zero-probability or
        unparseable observation leaves the chain exactly as it was.
        """
        try:
            data = json.loads(body)
        except ValueError as error:
            return _json_response(400, {"error": "Bad JSON body: %s" % (error,)})
        event = data.get("event") if isinstance(data, dict) else None
        if not isinstance(event, str) or not event:
            return _json_response(
                400, {"error": "Observe needs a textual 'event' field."}
            )
        trace_id = obs.new_trace_id()
        async with self._session_lock(tenant, name):
            try:
                session = self.sessions.get(tenant, name)
                chain = session.candidate_chain(event)
            except SessionError as error:
                return self._session_error(error)
            request = wire.Request(
                None, session.model, "observe", {"event": event},
                condition=wire.normalize_condition(chain),
                trace=bool(data.get("trace")),
                tenant=tenant, affinity=session.affinity,
            )
            try:
                result = await self._submit_traced(request, trace_id)
            except OverloadedError as error:
                shed = wire.overloaded_response(None, error.retry_after_ms)
                shed["trace"] = trace_id
                return _json_response(429, shed)
            if result[0] != "ok":
                return _json_response(
                    400,
                    dict(
                        wire.session_response(session), ok=False,
                        error_kind=result[1], error=result[2], trace=trace_id,
                    ),
                )
            self.sessions.commit_observe(session, chain)
        return _json_response(
            200, dict(wire.session_response(session), ok=True, trace=trace_id)
        )

    async def _handle_session_query(
        self, tenant: str, name: str, kind: str, body: bytes
    ) -> bytes:
        """Read the session's current posterior (chain ships as condition)."""
        try:
            data = json.loads(body) if body.strip() else {}
        except ValueError as error:
            return _json_response(400, {"error": "Bad JSON body: %s" % (error,)})
        if not isinstance(data, dict):
            return _json_response(
                400, {"error": "Session query body must be a JSON object."}
            )
        try:
            session = self.sessions.get(tenant, name)
        except SessionError as error:
            return self._session_error(error)
        shaped = dict(data, model=session.model, kind=kind)
        shaped.pop("condition", None)  # the session's chain IS the condition
        try:
            request = wire.parse_request(shaped)
        except wire.WireError as error:
            return _json_response(400, {"error": str(error)})
        request.condition = wire.normalize_condition(session.chain)
        request.tenant = tenant
        request.affinity = session.affinity
        trace_id = obs.new_trace_id()
        try:
            result = await self._submit_traced(request, trace_id)
        except OverloadedError as error:
            shed = wire.overloaded_response(data.get("id"), error.retry_after_ms)
            shed["trace"] = trace_id
            return _json_response(429, shed)
        self.sessions.count_query(session)
        if result[0] == "ok":
            status, response = 200, {
                "id": data.get("id"), "ok": True,
                "value": wire.encode_value(result[1]),
            }
        else:
            status, response = 400, {
                "id": data.get("id"), "ok": False,
                "error_kind": result[1], "error": result[2],
            }
        response.update(
            trace=trace_id, tenant=tenant, session=name,
            observes=len(session.chain),
        )
        return _json_response(status, response)

    def _handle_session_list(self, tenant: str) -> bytes:
        return _json_response(
            200,
            {
                "tenant": tenant,
                "sessions": [
                    wire.session_response(session)
                    for session in self.sessions.list(tenant)
                ],
            },
        )

    def _handle_session_describe(self, tenant: str, name: str) -> bytes:
        try:
            session = self.sessions.get(tenant, name)
        except SessionError as error:
            return self._session_error(error)
        return _json_response(200, wire.session_response(session))

    def _handle_session_delete(self, tenant: str, name: str) -> bytes:
        try:
            session = self.sessions.delete(tenant, name)
        except SessionError as error:
            return self._session_error(error)
        self._session_locks.pop((tenant, name), None)
        return _json_response(
            200, dict(wire.session_response(session), ok=True, deleted=True)
        )

    # -- Dynamic model lifecycle ----------------------------------------------

    async def _handle_register(self, body: bytes) -> bytes:
        """Register a model on the running service (catalog name or payload).

        Body: ``{"name": ..., "catalog": "hmm20"}``, ``{"name": ...,
        "payload": "<SpplModel.to_json()>"}`` or ``{"name": ...,
        "path": "<model>.spz"}`` (a compiled blob; the embedded payload
        is hash-verified and the graph digest-checked on load), plus an
        optional ``cache_size``.  The model is built off the event loop,
        shipped to every worker shard, and published to the registry only
        after all shards acked the round-trip digest — a failed handshake
        leaves the service exactly as it was.
        """
        try:
            data = json.loads(body)
        except ValueError as error:
            return _json_response(400, {"error": "Bad JSON body: %s" % (error,)})
        if not isinstance(data, dict) or not isinstance(data.get("name"), str) or not data["name"]:
            return _json_response(400, {"error": "Register needs a non-empty 'name'."})
        name = data["name"]
        catalog = data.get("catalog")
        payload = data.get("payload")
        blob = data.get("path")
        cache_size = data.get("cache_size")
        if cache_size is not None and (not isinstance(cache_size, int) or cache_size < 1):
            return _json_response(400, {"error": "'cache_size' must be a positive integer."})
        if sum(source is not None for source in (catalog, payload, blob)) != 1:
            return _json_response(
                400,
                {"error": "Register needs exactly one of 'catalog', "
                          "'payload' or 'path'."},
            )
        async with self._lifecycle_lock:
            if name in self.registry:
                return _json_response(
                    409, {"error": "Model %r is already registered." % (name,)}
                )
            loop = asyncio.get_running_loop()
            try:
                if catalog is not None:
                    if not isinstance(catalog, str):
                        return _json_response(400, {"error": "'catalog' must be a string."})
                    model = await loop.run_in_executor(
                        None, self.registry.build_catalog, catalog
                    )
                elif blob is not None:
                    if not isinstance(blob, str):
                        return _json_response(400, {"error": "'path' must be a string."})
                    from ..engine import SpplModel

                    model = await loop.run_in_executor(None, SpplModel.from_spz, blob)
                else:
                    if not isinstance(payload, str):
                        return _json_response(400, {"error": "'payload' must be a string."})
                    from ..engine import SpplModel

                    model = await loop.run_in_executor(None, SpplModel.from_json, payload)
            except (RegistryError, ValueError, KeyError, TypeError, OSError) as error:
                return _json_response(
                    400, {"error": "Cannot build model: %s" % (error,)}
                )
            # prepare() serializes the graph and digests it — off-loop,
            # like the build above, so a large model cannot stall
            # in-flight queries while the lifecycle lock is held.
            registered = await loop.run_in_executor(
                None,
                lambda: self.registry.prepare(name, model, cache_size=cache_size),
            )
            try:
                await self.backend.register_model(name, registered)
            except (WorkerError, OSError, EOFError) as error:
                # WorkerError covers refusals; OSError/EOFError cover a
                # worker dying mid-handshake — both are server-side 5xx,
                # not client errors.
                return _json_response(
                    500, {"error": "Worker handshake failed: %s: %s"
                          % (type(error).__name__, error)}
                )
            self.scheduler.reset_result_cache(name)
            self.registry.publish(registered)
            if self.journal is not None:
                try:
                    # Off-loop: the append fsyncs (and large payloads
                    # serialize to disk); the lifecycle lock already
                    # serializes journal writers.
                    await loop.run_in_executor(
                        None, self.journal.record_register, registered
                    )
                except OSError as error:
                    # The model IS live, but the durability promise is
                    # broken: report loudly rather than pretend.
                    return _json_response(
                        500,
                        {"error": "Model %r registered but journal append "
                                  "failed: %s" % (name, error),
                         "model": name, "registered": True, "journaled": False},
                    )
        return _json_response(
            200,
            {
                "ok": True,
                "model": name,
                "digest": registered.digest,
                "shards_acked": self.backend.n_shards,
                "journaled": self.journal is not None,
            },
        )

    async def _handle_unregister(self, body: bytes, drain_timeout: float = 10.0) -> bytes:
        """Unregister a model: reject new queries, drain in-flight, tear down.

        The registry entry is removed first (new requests fail with
        ``RegistryError`` immediately); worker copies and caches are only
        dropped once every in-flight query against the model has
        completed, so unregistration never turns accepted requests into
        errors.
        """
        try:
            data = json.loads(body)
        except ValueError as error:
            return _json_response(400, {"error": "Bad JSON body: %s" % (error,)})
        if not isinstance(data, dict) or not isinstance(data.get("name"), str):
            return _json_response(400, {"error": "Unregister needs a 'name'."})
        name = data["name"]
        async with self._lifecycle_lock:
            try:
                self.registry.unregister(name)
            except RegistryError as error:
                return _json_response(404, {"error": str(error)})
            self.scheduler.drop_result_cache(name)
            loop = asyncio.get_running_loop()
            if self.journal is not None:
                # The registry removal is the durable-intent point:
                # journal the tombstone *before* worker teardown, so a
                # model the live service stopped serving cannot
                # resurrect on restart just because a shard later
                # failed to tear down.
                try:
                    await loop.run_in_executor(
                        None, self.journal.record_unregister, name
                    )
                except OSError as error:
                    return _json_response(
                        500,
                        {"error": "Model %r unregistered but journal append "
                                  "failed: %s" % (name, error),
                         "model": name, "journaled": False},
                    )
            deadline = loop.time() + drain_timeout
            while self.scheduler.inflight(name) and loop.time() < deadline:
                await asyncio.sleep(0.005)
            drained = self.scheduler.inflight(name) == 0
            try:
                await self.backend.unregister_model(name)
            except (WorkerError, OSError, EOFError) as error:
                # A shard died during teardown.  The registry entry stays
                # removed — the name already rejects queries, and
                # re-publishing would resurrect a model other shards have
                # dropped; the dead shard's copy is unreachable by name.
                return _json_response(
                    500, {"error": "Worker teardown failed: %s: %s"
                          % (type(error).__name__, error), "model": name}
                )
        return _json_response(200, {"ok": True, "model": name, "drained": drained})

    async def _stats(self) -> Dict:
        """One consistent stats snapshot.

        Every loop-owned counter (scheduler, HTTP, supervision, journal,
        recorder) is collected in a single synchronous pass — no ``await``
        between reads — so invariants that hold on the loop (e.g.
        ``respawns >= requeued_batches``) also hold in every snapshot.
        Only the worker shards' own statistics require pipe round trips;
        they are awaited *after* the snapshot and merged in.
        """
        stats = {
            "scheduler": self.scheduler.stats(),
            "http": {
                "connection_sheds": self._connection_sheds.value,
                "max_inflight_per_connection": self.max_inflight_per_connection,
            },
            "backend": self.backend.stats_sync(),
            "sessions": self.sessions.stats(),
            "trace": self.recorder.stats(),
            "models": self.registry.names(),
        }
        if self.journal is not None:
            stats["journal"] = self.journal.stats()
        if self._pool is not None:
            stats["backend"]["shards"] = await self._pool.shard_stats()
        return stats

    async def _metrics_exposition(self) -> str:
        """Render ``GET /metrics`` (Prometheus text format 0.0.4).

        Registry-owned instruments render directly; per-model cache
        counters and journal statistics live
        in their owners (the scheduler's result caches, or worker shards
        reached over their sockets) and are gathered here as labeled
        scrape-time samples.
        """
        counters: List[obs.metrics.Sample] = []
        gauges: List[obs.metrics.Sample] = []
        for name, cache_stats in self.scheduler.stats()["result_cache"].items():
            for key in ("hits", "misses"):
                counters.append(
                    ("repro.result_cache." + key, {"model": name},
                     cache_stats[key])
                )
        backend = await self.backend.stats()
        per_model = backend.get("models")
        if per_model is not None:
            for name, model_stats in per_model.items():
                self._model_samples({"model": name}, model_stats, counters, gauges)
        for shard, shard_stats in enumerate(backend.get("shards", [])):
            for name, model_stats in shard_stats.items():
                self._model_samples(
                    {"model": name, "shard": str(shard)},
                    model_stats, counters, gauges,
                )
        if self.journal is not None:
            journal_counters, journal_gauges = self.journal.metrics_samples()
            counters.extend(journal_counters)
            gauges.extend(journal_gauges)
        # Per-tenant fairness series: who is shedding (counter) and who
        # holds the open sessions (gauge) — the noisy-neighbor dashboards.
        for tenant, count in sorted(self.scheduler.tenant_sheds.items()):
            counters.append(
                ("repro.scheduler.sheds_by_tenant", {"tenant": tenant}, count)
            )
        for tenant, count in sorted(
            self.sessions.stats()["by_tenant"].items()
        ):
            gauges.append(
                ("repro.sessions.open_by_tenant", {"tenant": tenant}, count)
            )
        return self.metrics.render(extra_counters=counters, extra_gauges=gauges)

    @staticmethod
    def _model_samples(labels: Dict[str, str], model_stats: Dict,
                       counters: List, gauges: List) -> None:
        """Labeled samples for one model's query-cache statistics."""
        for key in ("hits", "misses", "evictions"):
            if key in model_stats:
                counters.append(
                    ("repro.query_cache." + key, labels, model_stats[key])
                )
