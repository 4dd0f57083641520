"""Framed shard transports: the *how* of talking to a worker shard.

The worker pool (:mod:`repro.serve.sharding`) supervises shards that
answer a small deterministic message protocol -- ``batch`` / ``stats`` /
``clear`` / ``register`` / ``unregister`` / ``ping`` / ``stop`` tuples
with digest-verified model handshakes.  This module separates that
protocol (*what* is sent) from the byte channel carrying it (*how*):

* :class:`PipeTransport` -- today's ``multiprocessing`` spawn + pipe,
  byte-for-byte: the same ``_worker_main`` child, the same ready/ack
  handshake, the same blocking ``Connection`` send/recv discipline.
* :class:`TcpTransport` -- the same message tuples as length-prefixed
  JSON frames over a socket to a :mod:`repro.serve.node` process,
  with the digest-ack handshake performed on every (re)connect.

Every transport implements one blocking contract, driven from the
pool's executor threads exactly like the pipe always was:

* ``launch(specs)`` / ``handshake(specs, timeout)`` -- bring the
  endpoint up and complete the **digest-ack handshake**: the endpoint
  recomputes the structural digest of every model it loaded and the
  parent refuses the shard unless the digests match its specs.
* ``send(message)`` / ``recv()`` -- one strict request/reply round trip
  (the pool holds a per-shard lock, so no message-id matching).  Both
  raise ``OSError``/``EOFError`` when the endpoint is gone -- the
  supervision signal the pool's respawn logic keys on.
* ``probe()`` -- cheap liveness check for the proactive probe loop
  (process aliveness for pipes, a ping/pong round trip for sockets).
* ``restart(specs, timeout)`` -- replace a dead endpoint: respawn the
  process (pipe) or reconnect within a bounded window (TCP), handshake
  included.  Raises :class:`WorkerError` when the endpoint cannot come
  back -- for a remote node that is how the pool learns the shard is
  *dead* rather than merely slow.
* ``close()`` / ``terminate()`` / ``join(timeout)`` -- the clean
  shutdown / hard-kill / reap contract.
* ``fault_point()`` -- ``(shard_id, kind, pid_or_address)`` for chaos
  tooling: what to SIGKILL (pipe) or which node to take down (TCP).

Frame format (TCP): a 4-byte big-endian payload length, then a UTF-8
JSON object -- ``{"msg": [...]}`` requests, ``{"reply": [...]}``
replies (batch replies add ``"traced": true`` when they carry a span
fragment beside the results).  JSON is encoded with ``allow_nan=True``
so the non-finite floats exact inference produces (``logprob`` of an
impossible event is exactly ``-inf``) cross the socket natively, and
finite floats round-trip bit-exactly through shortest-repr.  Tuples
flatten to JSON arrays; :func:`decode_reply` restores the result-row
tuples so callers see identical shapes on both transports.
"""

from __future__ import annotations

import json
import socket
import struct
import time
from typing import Dict
from typing import Optional
from typing import Tuple

from ..obs import Trace
from . import wire


class WorkerError(RuntimeError):
    """A worker shard failed to start, verify its models, or answer."""


class TransportConnectError(WorkerError):
    """The endpoint could not be reached at all (connect/IO failure).

    Distinct from a digest refusal or an endpoint-reported startup
    failure: a connect failure is *transient* (the reconnect window
    retries it), a refusal is final.
    """


#: Hard bound on one frame: a batch of a few thousand requests plus a
#: span fragment is a few MB; anything near this bound is a protocol
#: error, not a workload.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: How long a TCP transport keeps retrying the reconnect of a dead
#: endpoint before the pool declares the shard dead.  Deliberately
#: short: under load the cost of a dead node is paid by every batch
#: routed at it until it is marked dead, so fail fast and let the
#: probe loop revive the shard when the node returns.
DEFAULT_RECONNECT_TIMEOUT = 1.0

#: Socket timeout of one liveness ping round trip.
PROBE_TIMEOUT = 2.0


# ---------------------------------------------------------------------------
# Shard endpoint: the transport-neutral op handler.
# ---------------------------------------------------------------------------

def _load_model_spec(name: str, spec: Dict):
    """Build one shard-side model from its spec; returns (model, digest).

    ``path`` specs mmap the content-addressed compiled ``.spz`` blob
    read-only — every shard on the host shares one physical copy of the
    tables — and ``repro.spe.load_spz`` verifies both the payload hash
    and the round-trip digest of the rebuilt graph before the model is
    trusted.  ``payload`` specs deserialize the shipped JSON and prove
    round-trip fidelity by recomputing the structural digest.
    """
    from ..engine import SpplModel
    from ..spe import spe_digest
    from ..spe import spe_from_json

    path = spec.get("path")
    plan = spec.get("plan", "off")  # pre-planner specs default to off
    if path is not None:
        model = SpplModel.from_spz(
            path, cache_size=spec["cache_size"], expected_digest=spec["digest"],
            plan=plan,
        )
        return model, spec["digest"]
    spe = spe_from_json(spec["payload"])
    digest = spe_digest(spe)
    if digest != spec["digest"]:
        raise WorkerError(
            "Round-trip digest mismatch for model %r: parent %s, "
            "worker %s." % (name, spec["digest"], digest)
        )
    return SpplModel(spe, cache_size=spec["cache_size"], plan=plan), digest


class ShardHost:
    """One shard's models, caches, and op handler -- transport-neutral.

    This is the endpoint side of the transport contract: the pipe worker
    (:func:`repro.serve.sharding._worker_main`) and the TCP node
    (:mod:`repro.serve.node`) both delegate every message to one
    instance, so a shard behaves identically no matter which channel
    carried the message.  ``register`` is **idempotent** for a matching
    digest -- a respawned or reconnecting endpoint re-seeded from the
    pool's current specs may see a retried handshake for a model it
    already holds -- which is exactly the journal-replay semantics the
    registry's durable log relies on (see
    :class:`repro.serve.registry.RegistryJournal`).
    """

    __slots__ = ("shard_id", "models", "digests")

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self.models: Dict[str, object] = {}
        self.digests: Dict[str, str] = {}

    def load(self, model_specs: Dict[str, Dict]) -> Dict[str, str]:
        """Load (or re-verify) every spec; returns the recomputed digests.

        Idempotent like journal replay: a model already held under the
        same digest is kept as-is, so a reconnecting endpoint "catches
        up" by being handed the pool's current spec set and re-verifying
        the tail it already applied.
        """
        for name, spec in model_specs.items():
            if self.digests.get(name) == spec["digest"]:
                continue
            model, digest = _load_model_spec(name, spec)
            self.models[name] = model
            self.digests[name] = digest
        return dict(self.digests)

    def handle(self, message: tuple) -> tuple:
        """Answer one protocol message; never raises (errors are replies)."""
        from .scheduler import evaluate_batch

        op = message[0]
        if op == "stop":
            return ("stopped", self.shard_id)
        if op == "ping":
            return ("pong", self.shard_id)
        if op == "batch":
            # 5-tuple: the pre-tracing wire shape (and the zero-overhead
            # path for untraced batches).  6-tuple: a trailing trace flag;
            # the shard then builds its own span fragment — clocks and
            # objects do not cross the channel — and ships it back beside
            # the results for the parent to graft under its dispatch span.
            name, kind, condition, payloads = message[1:5]
            # JSON framing decodes chain tuples as lists; re-canonicalize
            # so batch evaluation and its duplicate keys see the hashable
            # shape.
            condition = wire.normalize_condition(condition)
            traced = len(message) > 5 and bool(message[5])
            tracer = (
                Trace(name="worker.batch", tags={"worker": self.shard_id})
                if traced
                else None
            )
            model = self.models.get(name)
            if model is None:
                results = wire.error_results(
                    WorkerError(
                        "Worker %d has no model %r." % (self.shard_id, name)
                    ),
                    len(payloads),
                )
            else:
                results = evaluate_batch(
                    model, kind, condition, payloads, tracer=tracer
                )
            if tracer is not None:
                return ("results", (results, tracer.to_payload()))
            return ("results", results)
        if op == "stats":
            stats = {}
            for name, model in sorted(self.models.items()):
                stats[name] = model.cache_stats()
                compiled = model.compiled_info()
                if compiled is not None:
                    stats[name]["compiled"] = compiled
            return ("stats", stats)
        if op == "clear":
            for model in self.models.values():
                # everything=True: scoped clearing would keep entries
                # keyed on posterior-subgraph uids alive, and each shard
                # owns its caches exclusively.  The parsed-event LRU goes
                # too: a clear forces full recomputation.
                model.clear_cache(everything=True)
                model.clear_event_cache()
            return ("cleared", self.shard_id)
        if op == "register":
            # Live model reload: deserialize the shipped spec, prove
            # round-trip fidelity, and ack with the recomputed digest (the
            # parent refuses the registration unless every shard's ack
            # matches).
            _, name, spec = message
            try:
                if name in self.models:
                    # Idempotent re-register: a respawned shard is
                    # re-seeded from the pool's current specs, so a
                    # retried register handshake may find the model
                    # already loaded.  Ack it when the digest matches;
                    # a *different* digest under the same name is a
                    # genuine conflict.
                    if self.digests.get(name) == spec["digest"]:
                        return ("registered", self.digests[name])
                    raise WorkerError(
                        "Worker %d already has model %r (digest %s != %s)."
                        % (self.shard_id, name, self.digests.get(name),
                           spec["digest"])
                    )
                model, digest = _load_model_spec(name, spec)
                self.models[name] = model
                self.digests[name] = digest
            except Exception as error:
                return ("error", "%s: %s" % (type(error).__name__, error))
            return ("registered", digest)
        if op == "unregister":
            _, name = message
            self.models.pop(name, None)
            self.digests.pop(name, None)
            return ("unregistered", name)
        return ("error", "Unknown worker op %r." % (op,))


def check_ready(shard_id: int, reply, specs: Dict[str, Dict]) -> None:
    """Verify a shard's ready reply against the parent's expected digests.

    The single digest-ack acceptance rule shared by every transport: the
    reply must be ``("ready", {name: digest})`` with a digest map equal
    to the parent's specs; anything else raises :class:`WorkerError`.
    """
    if reply[0] != "ready":
        raise WorkerError(
            "Worker %d failed to start: %s" % (shard_id, reply[1])
        )
    expected = {name: spec["digest"] for name, spec in specs.items()}
    if reply[1] != expected:
        raise WorkerError(
            "Worker %d handshake digests %r do not match the parent's %r."
            % (shard_id, reply[1], expected)
        )


# ---------------------------------------------------------------------------
# Frame codec (TCP).
# ---------------------------------------------------------------------------

def _json_default(value):
    """JSON fallback for numpy scalars riding in result values."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    raise TypeError("Cannot frame value %r." % (value,))


def encode_frame(obj: Dict) -> bytes:
    """One length-prefixed JSON frame (4-byte big-endian length, UTF-8).

    ``allow_nan=True`` keeps non-finite floats native (CPython emits and
    parses the ``Infinity``/``NaN`` literals), and shortest-repr float
    encoding round-trips every finite double bit-exactly.
    """
    payload = json.dumps(
        obj, separators=(",", ":"), allow_nan=True, default=_json_default
    ).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise WorkerError(
            "Frame of %d bytes exceeds the %d-byte bound."
            % (len(payload), MAX_FRAME_BYTES)
        )
    return struct.pack(">I", len(payload)) + payload


def decode_frame(payload: bytes) -> Dict:
    data = json.loads(payload.decode("utf-8"))
    if not isinstance(data, dict):
        raise WorkerError("Malformed frame: %r." % (data,))
    return data


def frame_length(header: bytes) -> int:
    """Decode (and bound-check) the 4-byte length prefix."""
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME_BYTES:
        raise WorkerError(
            "Frame announces %d bytes, over the %d-byte bound."
            % (length, MAX_FRAME_BYTES)
        )
    return length


def decode_reply(frame: Dict) -> tuple:
    """Restore the pipe-identical reply tuple from a decoded frame.

    JSON flattened the reply tuple (and each result row) to arrays; this
    rebuilds ``("results", [("ok", v), ...])`` — or the traced
    ``("results", (rows, span_payload))`` shape when the frame carries
    ``"traced": true`` — so pool-side callers cannot tell which
    transport answered.
    """
    reply = frame.get("reply")
    if not isinstance(reply, list) or not reply:
        raise WorkerError("Malformed reply frame: %r." % (frame,))
    if reply[0] == "results":
        body = reply[1]
        if frame.get("traced"):
            rows, spans = body
            return ("results", ([tuple(row) for row in rows], spans))
        return ("results", [tuple(row) for row in body])
    return tuple(reply)


def parse_address(address: str) -> Tuple[str, int]:
    """Parse ``host:port`` (the ``--nodes`` / ``--listen`` syntax)."""
    host, separator, port = address.rpartition(":")
    if not separator or not host:
        raise ValueError(
            "Node address %r is not host:port." % (address,)
        )
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(
            "Node address %r has a non-numeric port." % (address,)
        ) from None


# ---------------------------------------------------------------------------
# Transports.
# ---------------------------------------------------------------------------

class Transport:
    """The blocking shard-channel contract (driven from executor threads)."""

    kind = "abstract"

    def launch(self, specs: Dict[str, Dict]) -> None:
        """Begin bringing the endpoint up (non-blocking part)."""
        raise NotImplementedError

    def handshake(self, specs: Dict[str, Dict], timeout: float) -> None:
        """Complete the digest-ack handshake; raises :class:`WorkerError`."""
        raise NotImplementedError

    def start(self, specs: Dict[str, Dict], timeout: float = 120.0) -> None:
        """Launch + handshake in one call (contract-test convenience)."""
        self.launch(specs)
        self.handshake(specs, timeout)

    def send(self, message: tuple) -> None:
        raise NotImplementedError

    def recv(self):
        raise NotImplementedError

    def request(self, message: tuple):
        """One blocking round trip (callers serialize per shard)."""
        self.send(message)
        return self.recv()

    def probe(self) -> bool:
        """Cheap liveness check; ``False`` means the endpoint is gone."""
        raise NotImplementedError

    def restart(self, specs: Dict[str, Dict], timeout: float) -> None:
        """Replace a dead endpoint (handshake included); may raise."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def terminate(self) -> None:
        """Hard-stop the endpoint (best effort, never raises)."""
        raise NotImplementedError

    def join(self, timeout: float) -> None:
        """Reap the endpoint after terminate (no-op for remote ones)."""

    def fault_point(self) -> Tuple[int, str, object]:
        """``(shard_id, kind, pid_or_address)`` for chaos tooling."""
        raise NotImplementedError

    def describe(self) -> Dict:
        raise NotImplementedError


class PipeTransport(Transport):
    """A spawned worker process behind a ``multiprocessing`` pipe.

    Byte-for-byte the pool's historical channel: the same spawn context,
    the same ``_worker_main`` child (injected as ``target`` so this
    module stays import-cycle-free), the same ready/digest handshake,
    and the same blocking ``Connection`` discipline.  ``process`` and
    ``conn`` stay plain, *settable* attributes -- fault-injection tests
    wrap ``conn`` to kill the worker mid-send, and supervision replaces
    both on respawn.
    """

    kind = "pipe"

    def __init__(self, shard_id: int, context, target):
        self.shard_id = shard_id
        self._mp_context = context
        self._target = target
        self.process = None
        self.conn = None

    def launch(self, specs: Dict[str, Dict]) -> None:
        parent_conn, child_conn = self._mp_context.Pipe()
        process = self._mp_context.Process(
            target=self._target,
            args=(self.shard_id, specs, child_conn),
            name="repro-serve-worker-%d" % (self.shard_id,),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.process = process
        self.conn = parent_conn

    def handshake(self, specs: Dict[str, Dict], timeout: float) -> None:
        if not self.conn.poll(timeout):
            raise WorkerError(
                "Worker %d did not start in time." % (self.shard_id,)
            )
        try:
            reply = self.conn.recv()
        except EOFError:
            raise WorkerError(
                "Worker %d died before reporting ready." % (self.shard_id,)
            ) from None
        check_ready(self.shard_id, reply, specs)

    def send(self, message: tuple) -> None:
        self.conn.send(message)

    def recv(self):
        return self.conn.recv()

    def probe(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def restart(self, specs: Dict[str, Dict], timeout: float) -> None:
        """Respawn the worker process and re-run the digest handshake."""
        old_process, old_conn = self.process, self.conn
        try:
            old_conn.close()
        except OSError:
            pass
        if old_process.is_alive():
            old_process.terminate()
        old_process.join(5)
        self.launch(specs)
        try:
            self.handshake(specs, timeout)
        except BaseException:
            if self.process.is_alive():
                self.process.terminate()
            self.conn.close()
            self.process, self.conn = old_process, old_conn
            raise

    def close(self) -> None:
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:
                pass

    def terminate(self) -> None:
        if self.process is not None and self.process.is_alive():
            self.process.terminate()
        self.close()

    def join(self, timeout: float) -> None:
        if self.process is not None:
            self.process.join(timeout)

    def fault_point(self) -> Tuple[int, str, object]:
        pid = self.process.pid if self.process is not None else None
        return (self.shard_id, "pipe", pid)

    def describe(self) -> Dict:
        return {
            "kind": "pipe",
            "pid": self.process.pid if self.process is not None else None,
        }


class TcpTransport(Transport):
    """A shard hosted by a remote :mod:`repro.serve.node` over a socket.

    The same message tuples as the pipe, framed as length-prefixed JSON.
    ``launch`` is a no-op (the node process is started out of band);
    ``handshake`` connects and sends ``hello`` with the current spec set
    -- path+digest specs make model shipping a blob verify, payload
    specs ship the graph -- and the node's ready reply must ack every
    digest.  ``restart`` *reconnects* within a bounded window and
    re-runs the same hello: because spec application is idempotent and
    digest-verified (journal-replay semantics), a node that was down
    catches up simply by being handed the pool's current specs again.
    """

    kind = "tcp"

    def __init__(self, address: str, shard_id: int,
                 reconnect_timeout: float = DEFAULT_RECONNECT_TIMEOUT):
        self.address = address
        self.host, self.port = parse_address(address)
        self.shard_id = shard_id
        self.reconnect_timeout = reconnect_timeout
        self._sock: Optional[socket.socket] = None
        self._file = None

    def launch(self, specs: Dict[str, Dict]) -> None:
        pass  # the node process is launched out of band

    def handshake(self, specs: Dict[str, Dict], timeout: float) -> None:
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=timeout
            )
        except OSError as error:
            raise TransportConnectError(
                "Worker %d cannot reach node %s: %s"
                % (self.shard_id, self.address, error)
            ) from error
        sock.settimeout(timeout)
        try:
            sock.sendall(encode_frame({"msg": ["hello", self.shard_id, specs]}))
            reply = self._read_reply(sock)
            if reply[0] == "init_error":
                # Mirror the pipe worker's startup failure shape so the
                # pool's error handling is transport-blind.
                raise WorkerError(
                    "Worker %d failed to start: %s" % (self.shard_id, reply[1])
                )
            check_ready(self.shard_id, reply, specs)
        except (OSError, EOFError) as error:
            sock.close()
            raise TransportConnectError(
                "Worker %d node %s handshake failed: %s"
                % (self.shard_id, self.address, error)
            ) from error
        except BaseException:
            sock.close()
            raise
        sock.settimeout(None)
        self._sock = sock

    def _read_reply(self, sock: socket.socket) -> tuple:
        header = self._read_exact(sock, 4)
        payload = self._read_exact(sock, frame_length(header))
        return decode_reply(decode_frame(payload))

    @staticmethod
    def _read_exact(sock: socket.socket, n: int) -> bytes:
        chunks = []
        while n:
            chunk = sock.recv(min(n, 1 << 20))
            if not chunk:
                raise EOFError("Node connection closed.")
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)

    def send(self, message: tuple) -> None:
        if self._sock is None:
            raise OSError("Node transport %s is not connected." % (self.address,))
        self._sock.sendall(encode_frame({"msg": list(message)}))

    def recv(self):
        if self._sock is None:
            raise EOFError("Node transport %s is not connected." % (self.address,))
        return self._read_reply(self._sock)

    def probe(self) -> bool:
        """One ping/pong round trip (bounded by :data:`PROBE_TIMEOUT`)."""
        if self._sock is None:
            return False
        try:
            self._sock.settimeout(PROBE_TIMEOUT)
            try:
                self.send(("ping",))
                reply = self.recv()
            finally:
                if self._sock is not None:
                    self._sock.settimeout(None)
        except (OSError, EOFError):
            return False
        return reply[0] == "pong"

    def restart(self, specs: Dict[str, Dict], timeout: float) -> None:
        """Reconnect (bounded) and re-handshake; the hello re-ships the
        current specs, so a returning node replays the registry tail."""
        self.close()
        deadline = time.monotonic() + min(timeout, self.reconnect_timeout)
        attempt_timeout = max(0.2, self.reconnect_timeout / 2.0)
        last_error: Optional[BaseException] = None
        while True:
            try:
                self.handshake(specs, attempt_timeout)
                return
            except TransportConnectError as error:
                last_error = error
            # A non-connect WorkerError propagates: the node answered
            # and *refused* (digest mismatch / load failure) -- retrying
            # cannot fix that.
            if time.monotonic() >= deadline:
                raise TransportConnectError(
                    "Node %s did not come back within %.1fs: %s"
                    % (self.address, min(timeout, self.reconnect_timeout),
                       last_error)
                )
            time.sleep(0.05)

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def terminate(self) -> None:
        # The node process is not ours to kill: dropping the connection
        # releases the shard context it hosted for us.
        self.close()

    def fault_point(self) -> Tuple[int, str, object]:
        return (self.shard_id, "tcp", self.address)

    def describe(self) -> Dict:
        return {
            "kind": "tcp",
            "address": self.address,
            "connected": self._sock is not None,
        }


#: Everything the sharding layer re-exports for back-compat.
__all__ = [
    "DEFAULT_RECONNECT_TIMEOUT",
    "MAX_FRAME_BYTES",
    "PipeTransport",
    "ShardHost",
    "TcpTransport",
    "Transport",
    "TransportConnectError",
    "WorkerError",
    "check_ready",
    "decode_frame",
    "decode_reply",
    "encode_frame",
    "frame_length",
    "parse_address",
]
