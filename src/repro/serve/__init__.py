"""``repro.serve``: the exact-inference library as a long-running service.

The paper's engine answers one query at a time; this package turns it
into the "heavy traffic" deployment shape the ROADMAP targets:

* :mod:`repro.serve.registry`  -- named models with per-model cache
  budgets, plus the durable lifecycle journal
  (:class:`~repro.serve.registry.RegistryJournal`) that lets dynamically
  registered models survive restarts,
* :mod:`repro.serve.scheduler` -- asyncio micro-batcher coalescing
  concurrent single-event requests into batched
  ``logprob_batch``/``logpdf_batch`` calls,
* :mod:`repro.serve.sharding`  -- :class:`~repro.serve.sharding.WorkerPool`,
  the sharded scheduler backend: consistent-hash-routed shards behind
  transports, each holding a digest-verified copy of every model and a
  private :class:`~repro.spe.QueryCache`; dead shards are respawned and
  their in-flight batches requeued (and proactively probed),
* :mod:`repro.serve.transport` -- the one shard channel, length-prefixed
  JSON frames over a socket, launched as a local spawned process
  (:class:`~repro.serve.transport.LocalTransport`) or a connection to
  a remote node (:class:`~repro.serve.transport.TcpTransport`),
* :mod:`repro.serve.node`      -- the shard endpoint loop
  (:func:`~repro.serve.node.serve_shard`) and ``python -m
  repro.serve.node --listen HOST:PORT``, a node serving it per
  connection for a front-end's pool,
* :mod:`repro.serve.wire`      -- the newline-delimited JSON protocol,
* :mod:`repro.serve.http`      -- the stdlib asyncio HTTP front-end
  (pipelined connections, backpressure with adaptive 429-style shedding,
  dynamic model register/unregister, latency-percentile stats endpoints),
* :mod:`repro.serve.sessions`  -- named streaming posterior sessions:
  per-tenant namespaces of condition chains extended one exact
  ``observe`` at a time, bounded by TTL, LRU eviction, and per-tenant
  quotas; chains ship with every batch so worker shards stay stateless
  and failover replays them bit-identically,
* :mod:`repro.serve.client`    -- async + blocking clients used by tests,
  benchmarks, and examples.

Observability (see :mod:`repro.obs`): every response line echoes a
``trace`` id; sampled requests (``--trace-sample``, or ``"trace": true``
per request) build a full span tree — HTTP accept, micro-batch
coalescing, shard dispatch, compiled-vs-interpreted engine route,
cache hits — retrievable at ``GET /v1/trace/<id>`` while it lives in
the flight-recorder ring.
``GET /metrics`` renders every counter as Prometheus text exposition,
and ``--slow-query-ms`` appends a structured JSON line (span tree
included) for each outlier.

Run ``python -m repro.serve --model hmm20 --workers 4`` for a server, or
embed one in-process::

    import asyncio
    from repro.serve import InferenceService, ModelRegistry, AsyncServeClient

    async def main():
        registry = ModelRegistry()
        registry.register_catalog("hmm5")
        service = InferenceService(registry)
        host, port = await service.start()
        client = AsyncServeClient(host, port)
        responses = await client.query_many(
            [{"model": "hmm5", "kind": "logprob", "event": "X_0 < 0.5"}]
        )
        await service.close()

    asyncio.run(main())
"""

from .client import AsyncServeClient
from .client import ServeClient
from .client import ServeClientError
from .client import ServeOverloadedError
from .client import value_of
from .http import InferenceService
from .registry import JournalError
from .registry import ModelRegistry
from .registry import RegisteredModel
from .registry import RegistryError
from .registry import RegistryJournal
from .scheduler import InProcessBackend
from .scheduler import MicroBatcher
from .scheduler import OverloadedError
from .scheduler import evaluate_batch
from .sessions import Session
from .sessions import SessionError
from .sessions import SessionExists
from .sessions import SessionNotFound
from .sessions import SessionQuotaError
from .sessions import SessionStore
from .sharding import HashRing
from .sharding import WorkerError
from .sharding import WorkerPool
from .transport import LocalTransport
from .transport import SocketTransport
from .transport import TcpTransport
from .transport import TransportConnectError
from .wire import LatencyHistogram
from .wire import Request
from .wire import WireError
from .wire import parse_request
from .wire import parse_request_line

__all__ = [
    "AsyncServeClient",
    "HashRing",
    "InProcessBackend",
    "InferenceService",
    "JournalError",
    "LatencyHistogram",
    "MicroBatcher",
    "ModelRegistry",
    "OverloadedError",
    "RegisteredModel",
    "RegistryError",
    "RegistryJournal",
    "Request",
    "ServeClient",
    "ServeClientError",
    "ServeOverloadedError",
    "Session",
    "SessionError",
    "SessionExists",
    "SessionNotFound",
    "SessionQuotaError",
    "SessionStore",
    "LocalTransport",
    "SocketTransport",
    "TcpTransport",
    "TransportConnectError",
    "WireError",
    "WorkerError",
    "WorkerPool",
    "evaluate_batch",
    "parse_request",
    "parse_request_line",
    "value_of",
]
