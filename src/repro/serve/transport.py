"""The shard channel: framed JSON over a stream socket, local or remote.

The worker pool (:mod:`repro.serve.sharding`) supervises shards that
answer a small deterministic message protocol -- ``batch`` / ``stats`` /
``clear`` / ``register`` / ``unregister`` / ``ping`` / ``stop`` tuples
with digest-verified model handshakes.  Every shard endpoint is the same
blocking loop, :func:`repro.serve.node.serve_shard`, driving one
:class:`ShardHost`; the channel to it is always a connected stream
socket carrying length-prefixed JSON frames.  :class:`SocketTransport`
holds that channel: the codec, ``send``/``recv``, the ``hello``
handshake and the ping probe.  Two thin launchers say where the socket
comes from:

* :class:`LocalTransport` -- a spawn-started process running
  ``serve_shard`` on one end of a ``socket.socketpair()``; restart
  respawns it.
* :class:`TcpTransport` -- a TCP connection to a
  ``python -m repro.serve.node`` process, which runs ``serve_shard``
  per accepted connection; restart reconnects within a bounded window.

The contract, driven from the pool's executor threads:

* ``start(specs, timeout)`` -- open the endpoint and complete the
  **digest-ack handshake**: the ``hello`` frame carries the shard id and
  the current model specs, the endpoint recomputes the structural digest
  of every model it loaded, and the parent refuses the shard unless the
  digests match its specs.
* ``send(message)`` / ``recv()`` -- one strict request/reply round trip
  (the pool holds a per-shard lock, so no message-id matching).  Both
  raise ``OSError``/``EOFError`` when the endpoint is gone -- the
  supervision signal the pool's respawn logic keys on.
* ``probe()`` -- a ping/pong round trip for the proactive probe loop.
* ``restart(specs, timeout)`` -- replace a dead endpoint, handshake
  included.  Raises :class:`WorkerError` when the endpoint cannot come
  back -- for a remote node that is how the pool learns the shard is
  *dead* rather than merely slow.
* ``close()`` / ``terminate()`` / ``join(timeout)`` -- the clean
  shutdown / hard-kill / reap contract.
* ``fault_point()`` -- ``(shard_id, kind, pid_or_address)`` for chaos
  tooling: what to SIGKILL (``"local"``) or which node to take down
  (``"tcp"``).

Frame format: a 4-byte big-endian payload length, then a UTF-8 JSON
object -- ``{"msg": [...]}`` requests, ``{"reply": [...]}`` replies.  A
batch is always ``["batch", model, kind, condition, payloads, traced]``
and its reply always ``["results", rows, spans]``, with ``spans`` null
unless ``traced`` asked for a span fragment.  JSON is encoded with
``allow_nan=True`` so the non-finite floats exact inference produces
(``logprob`` of an impossible event is exactly ``-inf``) cross the
socket natively, and finite floats round-trip bit-exactly through
shortest-repr.  Tuples flatten to JSON arrays; :func:`decode_reply`
restores the result-row tuples, and :func:`batch_rows` unpacks a batch
reply for either backend.
"""

from __future__ import annotations

import json
import multiprocessing
import socket
import struct
import time
from typing import Dict
from typing import List
from typing import Optional
from typing import Tuple

from .. import obs
from ..obs import Trace
from . import wire
from .wire import Result


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

#: Local shards are spawn-started: no forked locks, no inherited asyncio
#: state, the child imports :mod:`repro` fresh like a remote node does.
_SPAWN = multiprocessing.get_context("spawn")


# ---------------------------------------------------------------------------
# Shard endpoint: the op handler behind every channel.
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
    if path is not None:
        model = SpplModel.from_spz(
            path, cache_size=spec["cache_size"], expected_digest=spec["digest"]
        )
        return model, spec["digest"]
    spe = spe_from_json(spec["payload"])
    digest = spe_digest(spe)
    if digest != spec["digest"]:
        raise WorkerError(
            "Round-trip digest mismatch for model %r: parent %s, "
            "worker %s." % (name, spec["digest"], digest)
        )
    return SpplModel(spe, cache_size=spec["cache_size"]), digest


class ShardHost:
    """One shard's models, caches, and op handler.

    :func:`repro.serve.node.serve_shard` delegates every message to one
    instance, whether the shard is a local process or a connection to a
    TCP node.  ``register`` is **idempotent** for a matching digest -- a
    respawned or reconnecting endpoint re-seeded from the pool's current
    specs may see a retried handshake for a model it already holds --
    which is exactly the journal-replay semantics the registry's durable
    log relies on (see :class:`repro.serve.registry.RegistryJournal`).
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

    def handle(self, message) -> tuple:
        """Answer one protocol message; never raises (errors are replies).

        Messages arrive off a socket, so they are untrusted: anything
        that is not a non-empty list or tuple, or whose fields do not
        fit its op, is answered with ``("error", text)``.
        """
        if not isinstance(message, (list, tuple)) or not message:
            return ("error", "Malformed shard message %.200r." % (message,))
        try:
            return self._handle(tuple(message))
        except Exception as error:
            return ("error", "%s: %s" % (type(error).__name__, error))

    def _handle(self, message: tuple) -> tuple:
        from .scheduler import evaluate_batch

        op = message[0]
        if op == "stop":
            return ("stopped", self.shard_id)
        if op == "ping":
            return ("pong", self.shard_id)
        if op == "batch":
            # The one batch evaluation of every deployment.  ``traced``
            # asks for a span fragment: the shard builds its own trace --
            # clocks and objects do not cross the channel -- and ships it
            # back beside the rows for the caller to graft; an untraced
            # reply carries ``None`` in its place.
            _, name, kind, condition, payloads, traced = message
            # JSON framing decodes chain tuples as lists; re-canonicalize
            # so batch evaluation and its duplicate keys see the hashable
            # shape.
            condition = wire.normalize_condition(condition)
            tracer = (
                Trace(name="worker.batch", tags={"worker": self.shard_id})
                if traced
                else None
            )
            model = self.models.get(name)
            if model is None:
                rows = wire.error_results(
                    WorkerError(
                        "Worker %d has no model %r." % (self.shard_id, name)
                    ),
                    len(payloads),
                )
            else:
                # Always activate, even None: an untraced batch must not
                # attach spans to a trace the calling thread has active.
                with obs.activate(tracer):
                    rows = evaluate_batch(model, kind, condition, payloads)
            return ("results", rows, None if tracer is None else tracer.to_payload())
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
            # matches).  A load failure becomes an error reply.
            _, name, spec = message
            held = self.digests.get(name)
            if held is not None and held != spec["digest"]:
                # Unlike a handshake's replay, a register never replaces:
                # a *different* digest under a held name is a conflict.
                # (A matching one acks idempotently through load -- a
                # respawned shard re-seeded from the pool's current specs
                # may see a retried register for a model it holds.)
                raise WorkerError(
                    "Worker %d already has model %r (digest %s != %s)."
                    % (self.shard_id, name, held, spec["digest"])
                )
            return ("registered", self.load({name: spec})[name])
        if op == "unregister":
            _, name = message
            self.models.pop(name, None)
            self.digests.pop(name, None)
            return ("unregistered", name)
        return ("error", "Unknown worker op %.200r." % (op,))


def check_ready(shard_id: int, reply, specs: Dict[str, Dict]) -> None:
    """Verify a shard's ready reply against the parent's expected digests.

    The digest-ack acceptance rule: the reply must be ``("ready",
    {name: digest})`` with a digest map equal to the parent's specs;
    anything else raises :class:`WorkerError`.
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
# Frame codec.
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
    """Parse one frame payload; anything but a JSON object is a WorkerError."""
    try:
        data = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as error:  # incl. UnicodeDecodeError
        raise WorkerError("Undecodable frame: %s." % (error,)) from None
    if not isinstance(data, dict):
        raise WorkerError("Malformed frame: %.200r." % (data,))
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


def read_frame(reader) -> Dict:
    """Read one frame off a buffered binary stream (``sock.makefile("rb")``).

    Raises ``EOFError`` when the stream ends mid-frame (or before one)
    and :class:`WorkerError` for an over-bound or undecodable frame.
    """
    header = reader.read(4)
    if len(header) < 4:
        raise EOFError("Shard connection closed.")
    length = frame_length(header)
    payload = reader.read(length)
    if len(payload) < length:
        raise EOFError("Shard connection closed mid-frame.")
    return decode_frame(payload)


def decode_reply(frame: Dict) -> tuple:
    """Restore the reply tuple from a decoded frame.

    JSON flattened the reply tuple (and each result row) to arrays; this
    rebuilds ``("results", [("ok", v), ...], spans)``.
    """
    reply = frame.get("reply")
    if not isinstance(reply, list) or not reply:
        raise WorkerError("Malformed reply frame: %.200r." % (frame,))
    if reply[0] == "results":
        if len(reply) != 3:
            raise WorkerError("Malformed batch reply: %.200r." % (frame,))
        return ("results", [tuple(row) for row in reply[1]], reply[2])
    return tuple(reply)


def batch_rows(reply: tuple) -> List[Result]:
    """The rows of a batch reply, from either backend.

    A span fragment riding the reply is grafted under the active span,
    which belongs to the trace that asked for it by sending ``traced``.
    An error reply (a malformed message, an evaluation crash) raises
    :class:`WorkerError`.
    """
    if reply[0] != "results":
        raise WorkerError(reply[1])
    _, rows, spans = reply
    tracer = obs.current()
    if spans is not None and tracer is not None:
        tracer.graft(spans)
    return rows


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
# The channel and its two launchers.
# ---------------------------------------------------------------------------

def _close_quietly(*handles) -> None:
    # A socket's fd stays open while a makefile() reader on it does, so
    # both must close for the peer to see EOF.
    for handle in handles:
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass


class SocketTransport:
    """One shard behind a connected stream socket, framed JSON both ways.

    Launchers subclass it: ``_open(timeout)`` returns a socket connected
    to a fresh :func:`~repro.serve.node.serve_shard` loop, ``restart``
    says how a dead endpoint comes back, and ``fault_point`` names it.
    """

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self._sock: Optional[socket.socket] = None
        self._reader = None

    def start(self, specs: Dict[str, Dict], timeout: float = 120.0) -> None:
        """Open the endpoint and run the digest-ack ``hello`` handshake.

        The hello ships the current spec set -- path+digest specs make
        model shipping a blob verify, payload specs ship the graph -- and
        the ready reply must ack every digest.  An I/O failure raises
        :class:`TransportConnectError`; an endpoint that answered and
        refused raises a plain :class:`WorkerError`.
        """
        sock = self._open(timeout)
        reader = sock.makefile("rb")
        try:
            sock.settimeout(timeout)
            sock.sendall(encode_frame({"msg": ["hello", self.shard_id, specs]}))
            check_ready(self.shard_id, decode_reply(read_frame(reader)), specs)
            sock.settimeout(None)
        except BaseException as error:
            _close_quietly(reader, sock)
            self.terminate()
            if isinstance(error, (OSError, EOFError)):
                raise TransportConnectError(
                    "Worker %d %s handshake failed: %s"
                    % (self.shard_id, self.kind, error)
                ) from error
            raise
        self._sock, self._reader = sock, reader

    def _open(self, timeout: float) -> socket.socket:
        raise NotImplementedError

    def send(self, message: tuple) -> None:
        if self._sock is None:
            raise OSError("Shard %d is not connected." % (self.shard_id,))
        self._sock.sendall(encode_frame({"msg": list(message)}))

    def recv(self):
        if self._reader is None:
            raise EOFError("Shard %d is not connected." % (self.shard_id,))
        return decode_reply(read_frame(self._reader))

    def request(self, message: tuple):
        """One blocking round trip (callers serialize per shard)."""
        self.send(message)
        return self.recv()

    def probe(self) -> bool:
        """One ping/pong round trip (bounded by :data:`PROBE_TIMEOUT`)."""
        if self._sock is None:
            return False
        try:
            self._sock.settimeout(PROBE_TIMEOUT)
            try:
                reply = self.request(("ping",))
            finally:
                self._sock.settimeout(None)
        except (OSError, EOFError, WorkerError):
            return False
        return reply[0] == "pong"

    def close(self) -> None:
        reader, sock = self._reader, self._sock
        self._reader = self._sock = None
        _close_quietly(reader, sock)

    def terminate(self) -> None:
        """Hard-stop the endpoint (best effort, never raises)."""
        self.close()

    def join(self, timeout: float) -> None:
        """Reap the endpoint after terminate (no-op for remote ones)."""


class LocalTransport(SocketTransport):
    """A spawned shard process serving on one end of a socketpair.

    The child runs :func:`repro.serve.node.serve_shard` -- the loop a
    TCP node runs per connection -- and receives its models in the same
    ``hello`` frame a node gets.  ``restart`` respawns it.
    """

    kind = "local"

    def __init__(self, shard_id: int):
        super().__init__(shard_id)
        self.process = None

    def _open(self, timeout: float) -> socket.socket:
        from .node import serve_shard

        parent, child = socket.socketpair()
        with child:
            self.process = _SPAWN.Process(
                target=serve_shard, args=(child,),
                name="repro-serve-worker-%d" % (self.shard_id,), daemon=True,
            )
            try:
                self.process.start()
            except BaseException:
                parent.close()
                raise
        return parent

    def restart(self, specs: Dict[str, Dict], timeout: float) -> None:
        """Respawn the shard process and re-run the hello handshake."""
        self.terminate()
        self.join(5)
        self.start(specs, timeout)

    def terminate(self) -> None:
        if self.process is not None and self.process.is_alive():
            self.process.terminate()
        self.close()

    def join(self, timeout: float) -> None:
        if self.process is not None:
            self.process.join(timeout)

    def fault_point(self) -> Tuple[int, str, object]:
        pid = self.process.pid if self.process is not None else None
        return (self.shard_id, self.kind, pid)


class TcpTransport(SocketTransport):
    """A shard hosted by a :mod:`repro.serve.node` process over TCP.

    The node process is started out of band.  ``restart`` *reconnects*
    within a bounded window and re-runs the same hello: because spec
    application is idempotent and digest-verified (journal-replay
    semantics), a node that was down catches up simply by being handed
    the pool's current specs again.
    """

    kind = "tcp"

    def __init__(self, address: str, shard_id: int,
                 reconnect_timeout: float = DEFAULT_RECONNECT_TIMEOUT):
        super().__init__(shard_id)
        self.address = address
        self.host, self.port = parse_address(address)
        self.reconnect_timeout = reconnect_timeout

    def _open(self, timeout: float) -> socket.socket:
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=timeout
            )
        except OSError as error:
            raise TransportConnectError(
                "Worker %d cannot reach node %s: %s"
                % (self.shard_id, self.address, error)
            ) from error
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def restart(self, specs: Dict[str, Dict], timeout: float) -> None:
        """Reconnect (bounded) and re-handshake; the hello re-ships the
        current specs, so a returning node replays the registry tail."""
        self.close()
        window = min(timeout, self.reconnect_timeout)
        deadline = time.monotonic() + window
        attempt_timeout = max(0.2, self.reconnect_timeout / 2.0)
        while True:
            try:
                self.start(specs, attempt_timeout)
                return
            except TransportConnectError as error:
                last_error = error
            # A non-connect WorkerError propagates: the node answered
            # and *refused* (digest mismatch / load failure) -- retrying
            # cannot fix that.
            if time.monotonic() >= deadline:
                raise TransportConnectError(
                    "Node %s did not come back within %.1fs: %s"
                    % (self.address, window, last_error)
                )
            time.sleep(0.05)

    def fault_point(self) -> Tuple[int, str, object]:
        return (self.shard_id, self.kind, self.address)


__all__ = [
    "DEFAULT_RECONNECT_TIMEOUT",
    "LocalTransport",
    "MAX_FRAME_BYTES",
    "ShardHost",
    "SocketTransport",
    "TcpTransport",
    "TransportConnectError",
    "WorkerError",
    "check_ready",
    "decode_frame",
    "batch_rows",
    "decode_reply",
    "encode_frame",
    "frame_length",
    "parse_address",
    "read_frame",
]
