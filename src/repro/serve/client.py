"""Clients for the inference service (stdlib only, used by tests/benchmarks).

:class:`AsyncServeClient` is the real implementation: a small HTTP/1.1
client over ``asyncio.open_connection`` that knows how to

* issue one query and await its response (:meth:`query`),
* fire a stream of queries **concurrently** over a pool of pipelined
  keep-alive connections (:meth:`query_many`) -- the shape that lets the
  server's micro-batcher coalesce them, and
* replay the same stream **sequentially** (:meth:`query_seq`) -- one
  request on the wire at a time, so each finds its batch key idle and is
  dispatched alone at once -- which is the baseline the throughput
  benchmark compares against.

:class:`ServeClient` is a blocking facade over the async client for
scripts and examples (each call runs its own short event loop).
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict
from typing import List
from typing import Optional
from typing import Sequence

from . import wire


class ServeClientError(RuntimeError):
    """Transport-level failure talking to the service."""


class ServeOverloadedError(ServeClientError):
    """The service shed a request with an HTTP 429 (connection bound).

    Carries ``retry_after_ms`` so callers can back off.  The response was
    fully read off the wire, so the connection remains usable —
    :meth:`AsyncServeClient.query_many` converts these into per-request
    ``Overloaded`` response objects instead of failing the stream.
    """

    def __init__(self, payload: Dict):
        super().__init__(payload.get("error", "overloaded"))
        self.retry_after_ms = payload.get("retry_after_ms", 0)

    def response(self, request_id=None) -> Dict:
        """The shed as a wire-shaped response object (canonical shape)."""
        return wire.overloaded_response(request_id, self.retry_after_ms)


class _Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "_Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    def send_request(
        self, method: str, path: str, body: bytes = b"",
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        extra = ""
        for name, value in (headers or {}).items():
            extra += "%s: %s\r\n" % (name, value)
        head = (
            "%s %s HTTP/1.1\r\n"
            "Host: repro-serve\r\n"
            "%s"
            "Content-Length: %d\r\n"
            "\r\n" % (method, path, extra, len(body))
        )
        self.writer.write(head.encode("ascii") + body)

    async def read_response(self) -> bytes:
        """Read one response; returns the body (raises on non-200)."""
        try:
            head = await self.reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as error:
            raise ServeClientError("Connection closed mid-response.") from error
        lines = head.decode("latin-1").split("\r\n")
        try:
            status = int(lines[0].split(" ", 2)[1])
        except (IndexError, ValueError) as error:
            raise ServeClientError("Malformed status line %r." % (lines[0],)) from error
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        body = await self.reader.readexactly(length) if length else b""
        if status == 429:
            # Backpressure shed: the body is fully consumed, the
            # connection stays framed and usable.
            try:
                payload = json.loads(body)
            except ValueError:
                payload = {}
            raise ServeOverloadedError(payload if isinstance(payload, dict) else {})
        if status != 200:
            raise ServeClientError("HTTP %d: %s" % (status, body.decode("utf-8", "replace")))
        return body

    async def round_trip(
        self, method: str, path: str, body: bytes = b"",
        headers: Optional[Dict[str, str]] = None,
    ) -> bytes:
        self.send_request(method, path, body, headers=headers)
        await self.writer.drain()
        return await self.read_response()


def _encode_query(request: Dict) -> bytes:
    return json.dumps(request, separators=(",", ":")).encode("utf-8")


def _decode_query_body(body: bytes) -> List[Dict]:
    return [
        wire.decode_response_line(line)
        for line in body.split(b"\n")
        if line.strip()
    ]


class AsyncServeClient:
    """Asyncio client speaking the service's NDJSON-over-HTTP protocol.

    ``tenant`` (optional) is sent as the ``x-tenant`` header on every
    request: the default tenant for ``/v1/query`` lines and the namespace
    for every session call.
    """

    def __init__(self, host: str, port: int, tenant: Optional[str] = None):
        self.host = host
        self.port = port
        self.tenant = tenant

    def _headers(self, tenant: Optional[str] = None) -> Optional[Dict[str, str]]:
        tenant = tenant if tenant is not None else self.tenant
        return {"x-tenant": tenant} if tenant is not None else None

    # -- Single query ---------------------------------------------------------

    async def query(self, request: Dict, connection: Optional[_Connection] = None) -> Dict:
        """One request, one response object (``{"ok": ..., "value": ...}``)."""
        owned = connection is None
        if owned:
            connection = await _Connection.open(self.host, self.port)
        try:
            body = await connection.round_trip(
                "POST", "/v1/query", _encode_query(request) + b"\n",
                headers=self._headers(),
            )
            responses = _decode_query_body(body)
            if len(responses) != 1:
                raise ServeClientError(
                    "Expected one response line, got %d." % (len(responses),)
                )
            return responses[0]
        finally:
            if owned:
                await connection.close()

    # -- Streams --------------------------------------------------------------

    async def query_many(
        self,
        requests: Sequence[Dict],
        connections: int = 16,
        retry_overloaded: int = 0,
    ) -> List[Dict]:
        """Fire all requests concurrently; responses in request order.

        The stream is split across ``connections`` keep-alive connections;
        each connection pipelines its share (every request is a separate
        HTTP request on the wire, all in flight at once), which is what
        allows the server to coalesce them into micro-batches.

        ``retry_overloaded=N`` re-issues requests the service shed with
        backpressure (``error_kind == "Overloaded"``) up to ``N`` more
        passes, sleeping the server-advised ``retry_after_ms`` between
        passes -- the back-off loop a well-behaved client implements, and
        meaningful now that the advice is derived from live latency.
        Requests still shed after the last pass keep their ``Overloaded``
        response.
        """
        results = await self._query_many_pass(requests, connections)
        for _ in range(retry_overloaded):
            pending = [
                index
                for index, response in enumerate(results)
                if response is not None
                and response.get("error_kind") == "Overloaded"
            ]
            if not pending:
                break
            delay_ms = max(
                results[index].get("retry_after_ms", 0) for index in pending
            )
            await asyncio.sleep(max(delay_ms, 1) / 1e3)
            retried = await self._query_many_pass(
                [requests[index] for index in pending], connections
            )
            for index, response in zip(pending, retried):
                results[index] = response
        return results

    async def _query_many_pass(
        self, requests: Sequence[Dict], connections: int
    ) -> List[Dict]:
        """One concurrent pass over ``requests`` (no retries)."""
        if not requests:
            return []
        connections = max(1, min(connections, len(requests)))
        chunks: List[List[int]] = [[] for _ in range(connections)]
        for index in range(len(requests)):
            chunks[index % connections].append(index)
        results: List[Optional[Dict]] = [None] * len(requests)

        async def run_chunk(indices: List[int]) -> None:
            connection = await _Connection.open(self.host, self.port)
            try:
                for index in indices:
                    connection.send_request(
                        "POST", "/v1/query",
                        _encode_query(requests[index]) + b"\n",
                        headers=self._headers(),
                    )
                await connection.writer.drain()
                for index in indices:
                    try:
                        body = await connection.read_response()
                    except ServeOverloadedError as shed:
                        # A connection-level 429 sheds one request; the
                        # rest of the pipeline is unaffected.
                        results[index] = shed.response(requests[index].get("id"))
                        continue
                    (response,) = _decode_query_body(body)
                    results[index] = response
            finally:
                await connection.close()

        await asyncio.gather(*[run_chunk(chunk) for chunk in chunks if chunk])
        return results  # type: ignore[return-value]

    async def query_seq(self, requests: Sequence[Dict]) -> List[Dict]:
        """Replay requests one at a time (the sequential baseline).

        A single connection, strict request -> response -> next request
        discipline: each request is alone in the service, so its batch
        key is idle and it is evaluated at once in a batch of one.
        """
        connection = await _Connection.open(self.host, self.port)
        results = []
        try:
            for request in requests:
                results.append(await self.query(request, connection=connection))
        finally:
            await connection.close()
        return results

    # -- Service endpoints ----------------------------------------------------

    async def _get_json(
        self, path: str, method: str = "GET", body: bytes = b"",
        tenant: Optional[str] = None,
    ) -> Dict:
        connection = await _Connection.open(self.host, self.port)
        try:
            response = await connection.round_trip(
                method, path, body, headers=self._headers(tenant)
            )
            return json.loads(response)
        finally:
            await connection.close()

    async def models(self) -> Dict:
        return await self._get_json("/v1/models")

    async def stats(self) -> Dict:
        return await self._get_json("/v1/stats")

    async def health(self) -> Dict:
        return await self._get_json("/healthz")

    async def trace(self, trace_id: str) -> Dict:
        """Fetch a recorded span tree by the trace id echoed on a response.

        Only sampled (or per-request ``"trace": true``) requests have
        span trees, and the flight recorder's ring is bounded — a
        missing/evicted id raises :class:`ServeClientError` (HTTP 404).
        """
        return await self._get_json("/v1/trace/" + trace_id)

    async def metrics(self) -> str:
        """Fetch the Prometheus text exposition of ``GET /metrics``."""
        connection = await _Connection.open(self.host, self.port)
        try:
            response = await connection.round_trip("GET", "/metrics")
            return response.decode("utf-8")
        finally:
            await connection.close()

    async def clear_cache(self) -> Dict:
        return await self._get_json("/v1/clear_cache", method="POST")

    async def register_model(
        self,
        name: str,
        catalog: Optional[str] = None,
        payload: Optional[str] = None,
        path: Optional[str] = None,
        cache_size: Optional[int] = None,
    ) -> Dict:
        """Register a model on the running service (catalog name, a
        serialized ``SpplModel.to_json()`` payload, or the ``path`` of a
        compiled ``.spz`` blob on the server's filesystem); raises
        :class:`ServeClientError` if the service refuses."""
        body: Dict = {"name": name}
        if catalog is not None:
            body["catalog"] = catalog
        if payload is not None:
            body["payload"] = payload
        if path is not None:
            body["path"] = path
        if cache_size is not None:
            body["cache_size"] = cache_size
        return await self._get_json(
            "/v1/models/register",
            method="POST",
            body=json.dumps(body).encode("utf-8"),
        )

    async def unregister_model(self, name: str) -> Dict:
        """Unregister a model from the running service (drains in-flight
        queries against it before worker teardown)."""
        return await self._get_json(
            "/v1/models/unregister",
            method="POST",
            body=json.dumps({"name": name}).encode("utf-8"),
        )

    # -- Streaming posterior sessions -----------------------------------------

    async def create_session(
        self, session: str, model: str, tenant: Optional[str] = None
    ) -> Dict:
        """Open a named posterior chain on ``model``."""
        return await self._get_json(
            "/v1/sessions", method="POST",
            body=json.dumps({"session": session, "model": model}).encode("utf-8"),
            tenant=tenant,
        )

    async def observe(
        self, session: str, event: str, tenant: Optional[str] = None
    ) -> Dict:
        """Extend the session's chain by one exact conditioning step.

        Raises :class:`ServeClientError` when the service rejects the
        evidence (zero probability, parse error, chain bound) — the
        session's chain is unchanged in that case — and
        :class:`ServeOverloadedError` on a backpressure shed.
        """
        return await self._get_json(
            "/v1/sessions/%s/observe" % (session,), method="POST",
            body=json.dumps({"event": event}).encode("utf-8"),
            tenant=tenant,
        )

    async def session_query(
        self, session: str, verb: str, payload: Dict,
        tenant: Optional[str] = None,
    ) -> Dict:
        """One read (``query`` | ``logprob`` | ``predict`` | ``logpdf``)
        against the session's current posterior."""
        return await self._get_json(
            "/v1/sessions/%s/%s" % (session, verb), method="POST",
            body=json.dumps(payload).encode("utf-8"),
            tenant=tenant,
        )

    async def session_logprob(
        self, session: str, event: str, tenant: Optional[str] = None
    ) -> float:
        response = await self.session_query(
            session, "logprob", {"event": event}, tenant=tenant
        )
        return value_of(response)

    async def list_sessions(self, tenant: Optional[str] = None) -> Dict:
        return await self._get_json("/v1/sessions", tenant=tenant)

    async def describe_session(
        self, session: str, tenant: Optional[str] = None
    ) -> Dict:
        return await self._get_json("/v1/sessions/" + session, tenant=tenant)

    async def delete_session(
        self, session: str, tenant: Optional[str] = None
    ) -> Dict:
        return await self._get_json(
            "/v1/sessions/" + session, method="DELETE", tenant=tenant
        )


def value_of(response: Dict):
    """Extract (and wire-decode) the value of a successful response."""
    if not response.get("ok"):
        raise ServeClientError(
            "%s: %s" % (response.get("error_kind"), response.get("error"))
        )
    return wire.decode_value(response["value"])


class ServeClient:
    """Blocking facade over :class:`AsyncServeClient` for scripts/examples."""

    def __init__(self, host: str, port: int, tenant: Optional[str] = None):
        self._async = AsyncServeClient(host, port, tenant=tenant)

    def _run(self, coroutine):
        return asyncio.run(coroutine)

    def query(self, request: Dict) -> Dict:
        return self._run(self._async.query(request))

    def query_many(
        self,
        requests: Sequence[Dict],
        connections: int = 16,
        retry_overloaded: int = 0,
    ) -> List[Dict]:
        return self._run(
            self._async.query_many(
                requests,
                connections=connections,
                retry_overloaded=retry_overloaded,
            )
        )

    def query_seq(self, requests: Sequence[Dict]) -> List[Dict]:
        return self._run(self._async.query_seq(requests))

    def logprob(self, model: str, event: str, condition: Optional[str] = None) -> float:
        request = {"model": model, "kind": "logprob", "event": event}
        if condition is not None:
            request["condition"] = condition
        return value_of(self.query(request))

    def models(self) -> Dict:
        return self._run(self._async.models())

    def stats(self) -> Dict:
        return self._run(self._async.stats())

    def health(self) -> Dict:
        return self._run(self._async.health())

    def trace(self, trace_id: str) -> Dict:
        return self._run(self._async.trace(trace_id))

    def metrics(self) -> str:
        return self._run(self._async.metrics())

    def clear_cache(self) -> Dict:
        return self._run(self._async.clear_cache())

    def register_model(
        self,
        name: str,
        catalog: Optional[str] = None,
        payload: Optional[str] = None,
        path: Optional[str] = None,
        cache_size: Optional[int] = None,
    ) -> Dict:
        return self._run(
            self._async.register_model(
                name,
                catalog=catalog,
                payload=payload,
                path=path,
                cache_size=cache_size,
            )
        )

    def unregister_model(self, name: str) -> Dict:
        return self._run(self._async.unregister_model(name))

    def create_session(
        self, session: str, model: str, tenant: Optional[str] = None
    ) -> Dict:
        return self._run(
            self._async.create_session(session, model, tenant=tenant)
        )

    def observe(
        self, session: str, event: str, tenant: Optional[str] = None
    ) -> Dict:
        return self._run(self._async.observe(session, event, tenant=tenant))

    def session_query(
        self, session: str, verb: str, payload: Dict,
        tenant: Optional[str] = None,
    ) -> Dict:
        return self._run(
            self._async.session_query(session, verb, payload, tenant=tenant)
        )

    def session_logprob(
        self, session: str, event: str, tenant: Optional[str] = None
    ) -> float:
        return self._run(
            self._async.session_logprob(session, event, tenant=tenant)
        )

    def list_sessions(self, tenant: Optional[str] = None) -> Dict:
        return self._run(self._async.list_sessions(tenant=tenant))

    def describe_session(
        self, session: str, tenant: Optional[str] = None
    ) -> Dict:
        return self._run(self._async.describe_session(session, tenant=tenant))

    def delete_session(self, session: str, tenant: Optional[str] = None) -> Dict:
        return self._run(self._async.delete_session(session, tenant=tenant))
