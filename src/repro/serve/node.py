"""The shard endpoint: one blocking framed-socket loop, local or remote.

:func:`serve_shard` is the only shard endpoint.  A front-end's
:class:`~repro.serve.sharding.WorkerPool` runs it two ways:

* a **local shard** is a spawn-started process whose target is
  ``serve_shard`` on one end of a ``socket.socketpair()``
  (:class:`~repro.serve.transport.LocalTransport`);
* ``python -m repro.serve.node --listen HOST:PORT`` is a **node** that
  runs ``serve_shard`` on its own thread for every accepted connection
  (:class:`~repro.serve.transport.TcpTransport`).

Either way one connection hosts one shard: the first frame must be the
``hello`` handshake carrying the shard id and the current model specs;
the endpoint loads (or re-verifies) every spec and acks with the
recomputed digests, and then answers one length-prefixed JSON message
at a time.  A malformed message gets an ``("error", ...)`` reply; a
truncated, over-bound, undecodable or non-object frame closes that
connection, and the node keeps serving the others.

Model "shipping" is a blob fetch-or-verify, not a byte copy: ``path``
specs name a content-addressed compiled ``.spz`` blob (``<digest>.spz``)
which the node mmaps and digest-verifies locally -- when the front-end's
path does not exist here, ``--blob-dir`` resolves the blob by its digest
(the content address *is* the name, so any replica of the store works).
``payload`` specs carry the canonical JSON and are digest-verified on
deserialization.

Registry changes reach the node as **append-forwarding**: the pool
forwards each journal record (``register`` / ``unregister``) as the same
idempotent, digest-verified op it applies locally, and a *reconnecting*
pool re-sends its full current spec set in the ``hello`` -- because
application is idempotent (a model already held under the same digest is
a no-op), a node that missed operations while partitioned catches up by
replaying the tail, exactly like a journal restore.

Shard state lives per *connection*: when the front-end drops (or its
pool respawns the shard), the replacement connection re-handshakes and
rebuilds from the specs it carries; nothing stale survives.  A node is
shared-nothing across connections -- hosting several shards of one
pool, or shards of several pools, works the same way.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import sys
import threading
from typing import Dict
from typing import Optional

from .transport import ShardHost
from .transport import WorkerError
from .transport import encode_frame
from .transport import parse_address
from .transport import read_frame


def resolve_blob_paths(specs: Dict[str, Dict], blob_dir: Optional[str]) -> Dict[str, Dict]:
    """Re-root ``path`` specs onto the local content-addressed store.

    A spec's ``path`` is the front-end's filesystem view; on a remote
    host it may not exist.  The blob is content-addressed
    (``<digest>.spz``), so the digest alone names it in any replica of
    the store: when the shipped path is missing and ``--blob-dir`` holds
    a blob of that digest, the spec is rewritten to the local copy
    (``load_spz`` still re-verifies the content hash *and* the
    round-trip digest before trusting it -- resolution never weakens
    verification).  A path that resolves nowhere is left alone; the load
    fails and the handshake reports ``init_error`` upstream.
    """
    resolved = {}
    for name, spec in specs.items():
        spec = dict(spec)
        path = spec.get("path")
        if path is not None and not os.path.exists(path) and blob_dir:
            local = os.path.join(blob_dir, spec["digest"] + ".spz")
            if os.path.exists(local):
                spec["path"] = local
        resolved[name] = spec
    return resolved


def serve_shard(sock: socket.socket, blob_dir: Optional[str] = None,
                log=None) -> None:
    """Host one shard on a connected socket until ``stop`` or EOF.

    The only shard endpoint: a spawned local shard runs it on its end of
    a socketpair, and the node CLI runs it per accepted connection.  The
    first frame must be the ``hello`` handshake (shard id + model specs);
    every later frame is one message for :meth:`ShardHost.handle`, whose
    malformed-message errors come back as ``("error", ...)`` replies.  A
    truncated, over-bound, undecodable or non-object frame closes this
    connection only.
    """
    reader = sock.makefile("rb")
    try:
        host = _hello(sock, reader, blob_dir)
        if host is None:
            return
        _say(log, "node: shard %d attached (%d models)"
             % (host.shard_id, len(host.models)))
        try:
            while True:
                reply = host.handle(read_frame(reader).get("msg"))
                sock.sendall(encode_frame({"reply": list(reply)}))
                if reply[0] == "stopped":
                    # Stop ends this shard context, not the node: other
                    # connections keep serving.
                    break
        finally:
            _say(log, "node: shard %d detached" % (host.shard_id,))
    except (OSError, EOFError, WorkerError):
        pass
    finally:
        reader.close()
        sock.close()


def _hello(sock: socket.socket, reader, blob_dir: Optional[str]) -> Optional[ShardHost]:
    """Answer the hello handshake; returns the loaded shard or ``None``."""
    message = read_frame(reader).get("msg")
    try:
        if not (isinstance(message, list) and len(message) == 3
                and message[0] == "hello"):
            raise WorkerError("Node expects a hello frame first.")
        host = ShardHost(int(message[1]))
        digests = host.load(resolve_blob_paths(message[2] or {}, blob_dir))
    except Exception as error:
        sock.sendall(encode_frame(
            {"reply": ["init_error", "%s: %s" % (type(error).__name__, error)]}
        ))
        return None
    sock.sendall(encode_frame({"reply": ["ready", digests]}))
    return host


def _say(log, message: str) -> None:
    if log is not None:
        print(message, file=log, flush=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.node",
        description="Remote inference node hosting worker shards over TCP.",
    )
    parser.add_argument(
        "--listen", required=True, metavar="HOST:PORT",
        help="address to listen on (port 0 picks a free port)",
    )
    parser.add_argument(
        "--blob-dir", default=None, metavar="DIR",
        help="local content-addressed .spz store; path specs whose "
        "front-end path does not exist here are resolved as "
        "DIR/<digest>.spz (digest still re-verified on load)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    host, port = parse_address(args.listen)
    family = socket.AF_INET6 if ":" in host else socket.AF_INET
    # SIGTERM stops the node like SIGINT: KeyboardInterrupt out of accept().
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    with socket.create_server((host, port), family=family) as listener:
        _say(sys.stderr, "repro.serve.node listening on %s:%d (blob dir: %s)"
             % (host, listener.getsockname()[1], args.blob_dir or "none"))
        try:
            while True:
                conn, _ = listener.accept()
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                threading.Thread(
                    target=serve_shard, args=(conn, args.blob_dir, sys.stderr),
                    name="repro-serve-node-shard", daemon=True,
                ).start()
        except KeyboardInterrupt:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
