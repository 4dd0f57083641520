"""Sharded worker pool: shards behind one framed-socket channel.

Each shard is a :class:`~repro.serve.transport.ShardHost` holding
digest-verified copies of every registered model and a private
:class:`~repro.spe.QueryCache` (repeated queries never reach a shard:
the scheduler's result cache answers them).  Every shard runs the same
endpoint loop, :func:`repro.serve.node.serve_shard`, behind a
:class:`~repro.serve.transport.SocketTransport` carrying length-prefixed
JSON frames; only the launcher differs:

* **local shards** (:class:`~repro.serve.transport.LocalTransport`) are
  spawn-started processes on one end of a socketpair -- no forked
  locks, no inherited asyncio state, the child imports :mod:`repro`
  fresh, exactly what a cross-machine deployment does;
* **remote shards** (:class:`~repro.serve.transport.TcpTransport`) are
  connections to :mod:`repro.serve.node` processes.

Both get their models in the same ``hello`` frame and answer the same
messages.  Every endpoint verifies **round-trip fidelity** before it is
trusted: it recomputes :func:`repro.spe.spe_digest` over each rebuilt
graph (or the content hash of an mmap'd ``.spz`` blob) and the pool
refuses any shard whose digests do not match its specs.

Routing:

* **conditioned** queries are routed by a consistent hash of
  ``model|condition`` over the *live* shards, so a chain of queries
  against one posterior always lands on the shard whose cache already
  holds that posterior's traversal results (cache-warm posterior
  chains), and shard death/revival only remaps ``1/n`` of the key space;
* **unconditioned** queries have no cache affinity and are spread
  round-robin over the live shards so one hot model saturates all of
  them.

The request/response discipline is strict -- one in-flight message per
shard, enforced by an asyncio lock, so no message-id matching is needed;
blocking transport reads run on executor threads, keeping the event
loop free.

Supervision is launcher-neutral: a shard whose channel fails (process
exit, OOM kill, dropped socket) is **respawned** through
``transport.restart`` -- a fresh worker process, or a bounded reconnect
to the node -- with the digest-ack handshake re-run from the pool's
current specs, and the in-flight message is **resent**.  Exact inference
is deterministic and side-effect-free, so re-running a batch is always
safe; callers observe extra latency, never errors.  ``respawns`` and
``requeued_batches`` count the recoveries and surface on ``/v1/stats``.
A batch that kills its shard repeatedly (:data:`MAX_RESPAWNS_PER_CALL`
times) is failed rather than retried forever -- a poison request must
not wedge the shard in a crash loop.

Beyond respawn:

* a shard whose endpoint **cannot come back** (its node is down) is
  marked **dead**: it leaves the routing ring (only its ``1/n`` of the
  key space remaps), in-flight batches **fail over** to a live shard,
  and the proactive probe loop keeps trying to revive it -- a returning
  node re-handshakes from the current specs (idempotent, digest-checked
  journal-replay semantics) and rejoins the ring;
* the **probe loop** (:meth:`WorkerPool.start_probing`) pings idle
  shards every ``probe_interval_ms`` and respawns dead ones *before*
  traffic hits them; ``probe_failures`` counts the detections.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import hashlib
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import wait
from typing import Dict
from typing import List
from typing import Optional
from typing import Sequence

from .. import obs
from ..obs import MetricsRegistry
from . import wire
from .transport import LocalTransport
from .transport import TcpTransport
from .transport import TransportConnectError
from .transport import WorkerError
from .transport import batch_rows
from .wire import Result


# ---------------------------------------------------------------------------
# Consistent-hash ring.
# ---------------------------------------------------------------------------

class HashRing:
    """Consistent hashing of string keys onto shard indices.

    Each shard contributes ``replicas`` virtual points on a 64-bit ring
    (SHA-1 positions), and a key routes to the first point clockwise from
    its own hash.  With the default 64 replicas the load split across a
    handful of shards is within a few percent of uniform, and removing a
    shard remaps only the keys that pointed at it.

    ``HashRing(n)`` rings shards ``0..n-1``; ``HashRing(shards=[0, 3])``
    rings an explicit membership (the live-shard ring of a pool with
    dead members) -- points are named by shard id either way, so a
    shard's ring points are identical in every ring that contains it,
    which is what keeps membership changes to a ``1/n`` remap.
    """

    def __init__(self, n_shards: Optional[int] = None, replicas: int = 64,
                 shards: Optional[Sequence[int]] = None):
        if shards is None:
            if n_shards is None or n_shards < 1:
                raise ValueError("HashRing needs at least one shard.")
            shards = range(n_shards)
            self.n_shards = n_shards
        else:
            shards = list(shards)
            if not shards:
                raise ValueError("HashRing needs at least one shard.")
            self.n_shards = len(shards)
        points = []
        for shard in shards:
            for replica in range(replicas):
                points.append((self._position("shard-%d/%d" % (shard, replica)), shard))
        points.sort()
        self._positions = [position for position, _ in points]
        self._shards = [shard for _, shard in points]

    @staticmethod
    def _position(key: str) -> int:
        return int.from_bytes(
            hashlib.sha1(key.encode("utf-8")).digest()[:8], "big"
        )

    def route(self, key: str) -> int:
        """The shard index owning ``key``."""
        index = bisect.bisect_right(self._positions, self._position(key))
        if index == len(self._positions):
            index = 0
        return self._shards[index]


class _Worker:
    """Supervision record of one shard: its transport plus the call lock."""

    __slots__ = ("transport", "lock")

    def __init__(self, transport):
        self.transport = transport
        self.lock = asyncio.Lock()


#: How many times one message may trigger a respawn-and-resend before the
#: pool gives up and fails it: a batch that crashes its worker every time
#: it runs (a poison request) must not wedge the shard in a crash loop.
MAX_RESPAWNS_PER_CALL = 2


class WorkerPool:
    """Shards behind transports: local worker processes plus remote nodes.

    The pool is the sharded scheduler backend: it routes each batch key
    to a shard over the consistent-hash ring of its *live* shards and
    runs the batch there.  It supervises its shards: a shard whose
    endpoint dies is respawned (or reconnected) from the current model
    specs -- digest handshake included -- and the in-flight message is
    resent, so transient deaths cost callers latency, not errors.  A
    shard whose endpoint cannot come back is marked dead, leaves the
    routing ring (only its share of the key space remaps), and is
    revived by the probe loop when its node returns.
    """

    def __init__(self, n_workers: int,
                 metrics: Optional[MetricsRegistry] = None,
                 nodes: Optional[Sequence[str]] = None,
                 probe_interval_ms: float = 1000.0):
        self.nodes = list(nodes or [])
        if n_workers < 1 and not self.nodes:
            raise ValueError("WorkerPool needs at least one worker.")
        if n_workers < 0:
            raise ValueError("WorkerPool needs a non-negative worker count.")
        if probe_interval_ms < 0:
            raise ValueError(
                "probe_interval_ms must be non-negative (0 disables probing)."
            )
        self.n_workers = n_workers
        self.probe_interval_ms = probe_interval_ms
        self._workers: List[_Worker] = []
        # One thread per shard plus probe headroom: a blocking transport
        # read never starves another shard's reply, and the probe loop
        # never waits behind a full complement of in-flight reads.
        self._executor = ThreadPoolExecutor(
            max_workers=n_workers + len(self.nodes) + 1,
            thread_name_prefix="repro-serve-worker-io",
        )
        #: Current model specs (name -> payload/digest/cache_size); the
        #: seed a respawned worker is rebuilt from.  Kept in sync by
        #: :meth:`start`/:meth:`register_model`/:meth:`unregister_model`.
        self._specs: Dict[str, Dict] = {}
        self._start_timeout = 120.0
        self._closing = False
        #: Shards whose endpoint could not be brought back; they are out
        #: of the routing ring until the probe loop revives them.
        self._dead: set = set()
        #: The live shards and their routing ring, rebuilt on every
        #: death/revival (``None`` while no shard is live).
        self._live: List[int] = []
        self._ring: Optional[HashRing] = None
        self._rebuild_ring()
        self._round_robin = 0
        self._shard_respawns: Dict[int, int] = {}
        self._probe_task: Optional[asyncio.Task] = None
        # Supervision counters (event-loop-only mutation), surfaced on
        # ``/v1/stats`` via :meth:`stats` and on ``/metrics``.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._respawns = self.metrics.counter("repro.pool.respawns")
        self._requeued = self.metrics.counter("repro.pool.requeued_batches")
        self._probe_failures = self.metrics.counter("repro.pool.probe_failures")
        self.metrics.gauge_fn("repro.pool.dead_shards", lambda: len(self._dead))

    @property
    def n_shards(self) -> int:
        """Total shard count: local workers plus one per remote node entry."""
        return self.n_workers + len(self.nodes)

    def live_shards(self) -> List[int]:
        """Shard ids currently in the routing ring."""
        return [shard for shard in range(self.n_shards) if shard not in self._dead]

    def _note_respawn(self, shard: int, attempt: int, is_batch: bool) -> None:
        """Count one respawn (and its requeue) in a single synchronous step.

        Both counters move before the respawn's first ``await``, so no
        stats snapshot — which reads loop-owned counters without awaiting
        — can ever observe ``requeued_batches > respawns`` or a respawn
        whose requeue has not landed yet.
        """
        self._respawns.inc()
        self._shard_respawns[shard] = self._shard_respawns.get(shard, 0) + 1
        obs.event("shard.respawn", shard=shard, attempt=attempt)
        if is_batch:
            self._requeued.inc()
            obs.event("batch.requeue", shard=shard, attempt=attempt)

    def _rebuild_ring(self) -> None:
        self._live = self.live_shards()
        self._ring = HashRing(shards=self._live) if self._live else None

    def _mark_dead(self, shard: int, error: BaseException) -> None:
        if shard not in self._dead:
            self._dead.add(shard)
            self._rebuild_ring()
            obs.event("shard.dead", shard=shard, error=str(error)[:200])

    def _mark_live(self, shard: int) -> None:
        if shard in self._dead:
            self._dead.discard(shard)
            self._rebuild_ring()
            obs.event("shard.revived", shard=shard)

    def route(self, model: str, condition: Optional[str]) -> int:
        """Pick the shard for a routing key.

        ``condition`` is the request's routing key: the condition text
        for one-shot conditioned queries, or a **session affinity key**
        (stable as the session's chain grows) for the session tier -- so
        a whole posterior chain lands on one cache-warm shard.  When
        that shard dies, the ring rebuild remaps only its keyspace: the
        next batch routes to a survivor, which re-establishes the chain
        deterministically from the conditions shipped with the batch
        (the same replay argument as respawn-and-resend).
        """
        if self._ring is None:
            return 0  # nothing live: dispatch reports the outage
        if condition is not None:
            # Cache affinity: one posterior chain -> one shard.
            return self._ring.route("%s|%s" % (model, condition))
        self._round_robin = (self._round_robin + 1) % len(self._live)
        return self._live[self._round_robin]

    def fault_points(self) -> List[tuple]:
        """``(shard_id, kind, pid_or_address)`` per shard, for chaos tests.

        ``kind == "local"`` shards are killable by pid; ``kind == "tcp"``
        shards name the node address to take down.
        """
        return [worker.transport.fault_point() for worker in self._workers]

    def shard_node(self, shard: int) -> Optional[str]:
        """The node address hosting ``shard`` (``None`` for local shards)."""
        transport = self._workers[shard].transport
        return getattr(transport, "address", None)

    def start(self, model_specs: Dict[str, Dict], timeout: float = 120.0) -> None:
        """Bring every shard up and wait until each verified its models.

        ``model_specs`` maps model name to ``{"payload": json_str,
        "digest": str, "cache_size": int|None}`` (see
        :meth:`InferenceService.worker_specs`).  Every shard starts
        concurrently on the pool's executor: local shards spawn, remote
        shards connect, and each runs the hello handshake.  Blocking --
        call before serving (or from an executor thread), then
        :meth:`start_probing` on the loop.
        """
        self._specs = {name: dict(spec) for name, spec in model_specs.items()}
        self._start_timeout = timeout
        self._workers = [
            _Worker(LocalTransport(shard)) for shard in range(self.n_workers)
        ] + [
            _Worker(TcpTransport(address, self.n_workers + offset))
            for offset, address in enumerate(self.nodes)
        ]
        starts = [
            self._executor.submit(worker.transport.start, self._specs, timeout)
            for worker in self._workers
        ]
        wait(starts)
        for future in starts:
            error = future.exception()
            if error is not None:
                # Don't leave the siblings running (e.g. one worker
                # OOM-killed while deserializing).
                self.terminate()
                raise error

    async def _respawn(self, shard: int, worker: _Worker) -> None:
        """Replace a dead shard's endpoint (caller holds the shard lock).

        The replacement is seeded from the pool's *current* specs and
        must pass the same digest-ack handshake a startup shard does
        before it is trusted again.  For a remote shard this is a
        bounded reconnect: :class:`TransportConnectError` means the node
        is gone and the caller should mark the shard dead.  The caller
        has already counted the respawn (:meth:`_note_respawn`).
        """
        specs = {name: dict(spec) for name, spec in self._specs.items()}
        await self._run_uncancelled(
            worker.transport.restart, specs, self._start_timeout
        )

    async def _run_uncancelled(self, fn, *args):
        """Run a blocking transport call on the executor to completion.

        An executor thread cannot be cancelled.  If the awaiting task is
        (e.g. :meth:`close` stopping the probe loop mid-respawn), keep
        the caller inside its shard lock until the thread is done, then
        re-raise: releasing the lock early would let the next holder
        read a connection that thread is still closing or replacing.
        """
        future = asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args
        )
        try:
            return await asyncio.shield(future)
        except asyncio.CancelledError:
            with contextlib.suppress(Exception):
                await future
            raise

    async def _call(self, shard: int, message: tuple):
        """One request/response round trip with a shard (serialized per shard).

        A transport failure (the endpoint died) triggers a respawn and a
        resend of ``message`` -- safe because every shard op is
        deterministic and idempotent -- bounded by
        :data:`MAX_RESPAWNS_PER_CALL`.  A shard whose endpoint cannot
        come back is marked dead and the message **fails over** to a
        live shard (batches re-route; control ops raise, and their
        callers skip dead shards up front).  Returns the whole reply
        tuple; an ``("error", text)`` reply raises :class:`WorkerError`.
        """
        worker = self._workers[shard]
        loop = asyncio.get_running_loop()
        reply = None
        async with worker.lock:
            if shard not in self._dead:
                attempts = 0
                while True:
                    try:
                        worker.transport.send(message)
                        reply = await loop.run_in_executor(
                            self._executor, worker.transport.recv
                        )
                        break
                    except (OSError, EOFError) as error:
                        if self._closing:
                            raise WorkerError(
                                "Shard %d unavailable during shutdown: %s"
                                % (shard, error)
                            ) from error
                        attempts += 1
                        if attempts > MAX_RESPAWNS_PER_CALL:
                            raise WorkerError(
                                "Shard %d died %d times answering one %r message; "
                                "giving up on it (poison request?)."
                                % (shard, attempts, message[0])
                            ) from error
                        self._note_respawn(shard, attempts, message[0] == "batch")
                        try:
                            await self._respawn(shard, worker)
                        except (TransportConnectError, OSError) as down:
                            # The endpoint is not coming back within the
                            # reconnect window: out of the ring, fail the
                            # message over to a surviving shard.
                            self._mark_dead(shard, down)
                            break
        if reply is None:
            return await self._failover(shard, message)
        if reply[0] == "error":
            raise WorkerError(reply[1])
        return reply

    async def _failover(self, dead_shard: int, message: tuple):
        """Re-route a message whose shard is dead to a surviving one."""
        live = self.live_shards()
        if not live:
            raise WorkerError(
                "Shard %d is down and no live shard remains to fail over to."
                % (dead_shard,)
            )
        if message[0] != "batch":
            # Control ops are shard-addressed; rerouting them would
            # double-apply on the fallback.  Callers skip dead shards.
            raise WorkerError(
                "Shard %d is down (node unreachable)." % (dead_shard,)
            )
        # Deterministic fallback: the next live shard clockwise, so one
        # dead shard's keys concentrate predictably instead of spraying.
        fallback = min(
            (shard for shard in live if shard > dead_shard), default=live[0]
        )
        obs.event("shard.failover", shard=dead_shard, fallback=fallback)
        return await self._call(fallback, message)

    async def run_batch(
        self, model: str, kind: str, condition: Optional[str], shard: int,
        payloads: Sequence,
    ) -> List[Result]:
        """Run one batch on a shard (failing over if the shard is dead).

        The batch runs inside a ``shard.dispatch`` span (a no-op when
        untraced), under which :func:`~repro.serve.transport.batch_rows`
        grafts the fragment a traced batch's shard ships back.
        """
        message = ("batch", model, kind, condition, list(payloads),
                   obs.current() is not None)
        node = self.shard_node(shard) or "local"
        with obs.span("shard.dispatch", shard=shard, node=node):
            return batch_rows(await self._call(shard, message))

    async def shard_stats(self) -> List[Dict]:
        """Per-shard model statistics; a dead shard reports ``{}``."""
        stats: List[Dict] = []
        for shard in range(self.n_shards):
            if shard in self._dead:
                stats.append({})
                continue
            try:
                stats.append((await self._call(shard, ("stats",)))[1])
            except WorkerError:
                # Died while answering and could not come back: stats
                # must describe the outage, not fail the endpoint.
                stats.append({})
        return stats

    async def stats(self) -> Dict:
        """The ``/v1/stats`` backend section.

        The loop-owned supervision counters are read first, with no
        await between them; only the per-shard model statistics that
        follow need shard round trips.
        """
        stats = {
            "mode": "sharded",
            "workers": self.n_shards,
            "local_shards": self.n_workers,
            "respawns": self._respawns.value,
            "requeued_batches": self._requeued.value,
            "probe_failures": self._probe_failures.value,
            "live_shards": self.live_shards(),
            "nodes": self.node_stats(),
        }
        stats["shards"] = await self.shard_stats()
        return stats

    def node_stats(self) -> List[Dict]:
        """Per-node supervision summary (loop-owned; no awaits).

        One entry for the local process plus one per distinct node
        address: each lists its shards with liveness and respawn counts
        -- the ``/v1/stats`` "nodes" section.
        """
        groups: Dict[str, Dict] = {}
        order: List[str] = []
        for shard, worker in enumerate(self._workers):
            address = getattr(worker.transport, "address", None) or "local"
            group = groups.get(address)
            if group is None:
                group = groups[address] = {
                    "address": address,
                    "kind": worker.transport.kind,
                    "shards": [],
                    "live": True,
                }
                order.append(address)
            live = shard not in self._dead
            group["shards"].append({
                "shard": shard,
                "live": live,
                "respawns": self._shard_respawns.get(shard, 0),
            })
            group["live"] = group["live"] and live
        return [groups[address] for address in order]

    # -- Proactive liveness probing -----------------------------------------

    def start_probing(self, interval_ms: Optional[float] = None) -> Optional[asyncio.Task]:
        """Start the periodic liveness probe (requires a running loop).

        Idle shards are pinged every ``interval_ms`` (default: the
        pool's ``probe_interval_ms``); a dead endpoint is respawned
        *before* traffic hits it, and a dead-marked shard is revived
        when its node answers again.  ``interval_ms <= 0`` disables.
        """
        interval = (
            self.probe_interval_ms if interval_ms is None else interval_ms
        )
        if not interval or interval <= 0:
            return None
        self._probe_task = asyncio.ensure_future(
            self._probe_loop(interval / 1000.0)
        )
        return self._probe_task

    async def _probe_loop(self, interval_s: float) -> None:
        with contextlib.suppress(asyncio.CancelledError):
            while not self._closing:
                await asyncio.sleep(interval_s)
                await self.probe_once()

    async def probe_once(self) -> None:
        """One probe sweep over every idle shard (busy shards skip:
        their in-flight traffic is already the liveness signal)."""
        for shard, worker in enumerate(self._workers):
            if self._closing:
                return
            if worker.lock.locked():
                continue
            async with worker.lock:
                if self._closing:
                    return
                was_dead = shard in self._dead
                alive = False
                if not was_dead:
                    try:
                        alive = await self._run_uncancelled(
                            worker.transport.probe
                        )
                    except (OSError, EOFError):
                        alive = False
                if alive:
                    continue
                if not was_dead:
                    self._probe_failures.inc()
                try:
                    await self._respawn(shard, worker)
                except (WorkerError, OSError) as down:
                    self._mark_dead(shard, down)
                    continue
                self._mark_live(shard)
                # Counted after the fact: a failed revival attempt of an
                # already-dead shard is not a respawn, and the probe loop
                # retries every sweep.
                self._note_respawn(shard, 1, is_batch=False)

    # -- Model lifecycle ----------------------------------------------------

    async def register_model(self, name: str, registered) -> List[int]:
        """Ship a registered model to every live shard; all-or-nothing.

        Each shard deserializes the payload and acks with the digest it
        recomputed over the rebuilt graph.  Any failed shard — or any ack
        that does not match the parent's digest — rolls the registration
        back on every shard (idempotent for shards that never saw the
        model) and raises :class:`WorkerError`: either every live shard
        holds a bit-identical copy, or none does.  Dead shards catch up
        on revival: the reconnect handshake re-ships the current spec
        set (journal-replay semantics).  The handshake is deliberately
        sequential (registration is rare); parallelizing it would
        shorten the lifecycle lock's hold time on wide pools at the cost
        of a racier rollback.  Returns the ids of the shards that acked.
        """
        # Publish the spec to the supervisor *before* the handshake: a
        # shard that dies mid-handshake respawns with the model already
        # seeded, and the retried register op acks idempotently.
        spec = wire.model_spec(registered)
        self._specs[name] = spec
        acked = self.live_shards()
        try:
            for shard in acked:
                _, digest = await self._call(shard, ("register", name, spec))
                # The worker stored the model before replying; a
                # worker-side mismatch raises before storing, so this
                # parent-side check is defense in depth.
                if digest != spec["digest"]:
                    raise WorkerError(
                        "Shard %d acked digest %s for model %r, expected %s."
                        % (shard, digest, name, spec["digest"])
                    )
        except Exception:
            self._specs.pop(name, None)
            # Roll back over *every* live shard, not just the acked
            # prefix: a shard that was respawned mid-handshake (serving
            # a batch) was seeded with the pending spec without ever
            # acking, and shard-side unregister is an idempotent no-op
            # for shards that never saw the model.
            for shard in self.live_shards():
                try:
                    await self._call(shard, ("unregister", name))
                except (WorkerError, OSError, EOFError):
                    pass  # roll back best-effort; the original error wins
            raise
        return acked

    async def unregister_model(self, name: str) -> None:
        """Drop a model (and its caches) from every live shard."""
        # Out of the respawn seed first: a shard respawned mid-teardown
        # must not resurrect the model (and a dead shard revived later
        # is re-seeded without it).
        self._specs.pop(name, None)
        for shard in self.live_shards():
            await self._call(shard, ("unregister", name))

    async def clear_caches(self) -> None:
        """Drop every live shard's query caches and parsed-event LRUs."""
        for shard in self.live_shards():
            await self._call(shard, ("clear",))

    # -- Shutdown -----------------------------------------------------------

    def terminate(self) -> None:
        """Hard-stop every shard (used on failed startup and as a fallback)."""
        self._closing = True
        if self._probe_task is not None:
            self._probe_task.cancel()
            self._probe_task = None
        for worker in self._workers:
            worker.transport.terminate()
        for worker in self._workers:
            worker.transport.join(5)
        self._executor.shutdown(wait=False)

    async def close(self) -> None:
        """Graceful shutdown: stop message, join, then terminate stragglers."""
        self._closing = True
        if self._probe_task is not None:
            self._probe_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._probe_task
            self._probe_task = None
        loop = asyncio.get_running_loop()
        for shard, worker in enumerate(self._workers):
            if shard in self._dead:
                continue
            try:
                async with worker.lock:
                    worker.transport.send(("stop",))
                    await loop.run_in_executor(
                        self._executor, worker.transport.recv
                    )
            except (OSError, EOFError, WorkerError):
                pass
        for worker in self._workers:
            await loop.run_in_executor(None, worker.transport.join, 10)
        self.terminate()
