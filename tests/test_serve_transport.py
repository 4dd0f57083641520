"""Transport-contract suite + multi-node serve tests.

One parametrized contract run against both shard launchers --
:class:`LocalTransport` (spawned shard process on a socketpair) and
:class:`TcpTransport` (remote ``repro.serve.node`` over TCP), the same
framed-JSON channel either way: digest-refused handshakes, bit-identical
batch round trips, liveness probing, and kill/restart recovery must
behave identically no matter how the shard was launched.

On top of the contract: worker-pool supervision over TCP (kill + resend
through a reconnect, dead-node marking + batch failover, probe-loop
revival with spec catch-up), the ``fault_points()`` chaos hook, the
frame codec's float fidelity, and the node-kill chaos acceptance test
(SIGKILL a TCP node under 4x overload -> only ok/429, ring rebalances,
sharded differential bit-identical afterwards).
"""

import asyncio
import math
import os
import random
import re
import shutil
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro import obs
from repro.obs import Trace
from repro.serve import AsyncServeClient
from repro.serve import InferenceService
from repro.serve import ModelRegistry
from repro.serve import WorkerError
from repro.serve import value_of
from repro.serve import wire
from repro.serve.sharding import HashRing
from repro.serve.sharding import WorkerPool
from repro.serve.transport import MAX_FRAME_BYTES
from repro.serve.transport import LocalTransport
from repro.serve.transport import ShardHost
from repro.serve.transport import TcpTransport
from repro.serve.transport import TransportConnectError
from repro.serve.transport import batch_rows
from repro.serve.transport import decode_frame
from repro.serve.transport import decode_reply
from repro.serve.transport import encode_frame
from repro.serve.transport import frame_length
from repro.serve.transport import parse_address
from repro.serve.transport import read_frame
from repro.workloads import indian_gpa

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _spec(registered):
    return {
        "payload": registered.payload,
        "digest": registered.digest,
        "cache_size": None,
    }


def _gpa_specs():
    registry = ModelRegistry()
    return {"indian_gpa": _spec(registry.register_catalog("indian_gpa"))}


def start_node(listen="127.0.0.1:0", blob_dir=None):
    """Launch a ``repro.serve.node`` subprocess; returns (proc, port)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    command = [sys.executable, "-m", "repro.serve.node", "--listen", listen]
    if blob_dir is not None:
        command += ["--blob-dir", str(blob_dir)]
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env,
    )
    line = proc.stdout.readline()
    match = re.search(r"listening on .*:(\d+)", line)
    assert match, "node did not report its port: %r" % (line,)
    return proc, int(match.group(1))


def local_pids(pool):
    """Pids of the pool's local shard processes (its killable fault points)."""
    return [pid for _, kind, pid in pool.fault_points() if kind == "local"]


class LocalHarness:
    """Contract-suite driver for local (spawned) shards."""

    kind = "local"

    def make(self, shard_id=0):
        return LocalTransport(shard_id)

    def kill_endpoint(self, transport):
        os.kill(transport.process.pid, signal.SIGKILL)
        transport.process.join(5)

    def revive_endpoint(self, transport):
        pass  # restart() respawns the process itself

    def cleanup(self):
        pass


class TcpHarness:
    """Contract-suite driver for the TCP transport (real node processes)."""

    kind = "tcp"

    def __init__(self):
        self.procs = {}

    def make(self, shard_id=0):
        proc, port = start_node()
        transport = TcpTransport(
            "127.0.0.1:%d" % port, shard_id, reconnect_timeout=30.0
        )
        self.procs[transport.address] = proc
        return transport

    def kill_endpoint(self, transport):
        proc = self.procs[transport.address]
        proc.kill()
        proc.wait(10)

    def revive_endpoint(self, transport):
        # A fresh node on the same port: restart()'s reconnect window
        # must find it and catch it up from the specs in the hello.
        proc, _ = start_node(listen=transport.address)
        self.procs[transport.address] = proc

    def cleanup(self):
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait(10)


@pytest.fixture(params=["local", "tcp"])
def harness(request):
    instance = LocalHarness() if request.param == "local" else TcpHarness()
    yield instance
    instance.cleanup()


class TestTransportContract:
    """The same assertions against both transports."""

    def test_handshake_refuses_digest_mismatch(self, harness):
        specs = _gpa_specs()
        specs["indian_gpa"]["digest"] = "0" * len(specs["indian_gpa"]["digest"])
        transport = harness.make()
        try:
            with pytest.raises(WorkerError, match="failed to start") as excinfo:
                transport.start(specs, timeout=60)
            # The endpoint answered and *refused*; this must not look like
            # a transient connect failure (which restart would retry).
            assert not isinstance(excinfo.value, TransportConnectError)
            assert "digest mismatch" in str(excinfo.value)
        finally:
            transport.terminate()
            transport.join(5)

    def test_roundtrip_ops_are_transport_blind(self, harness):
        """ping/batch/stats/register/unregister answer with identical
        shapes and bit-identical floats on both channels."""
        specs = _gpa_specs()
        transport = harness.make()
        try:
            transport.start(specs, timeout=60)
            assert transport.probe() is True

            reply = transport.request(("ping",))
            assert reply == ("pong", 0)

            events = ["GPA > 3", "GPA > 2", "Nationality == 'India'"]
            reply = transport.request(
                ("batch", "indian_gpa", "logprob", None, events, False)
            )
            model = indian_gpa.model()
            assert reply == (
                "results", [("ok", model.logprob(event)) for event in events],
                None,
            )

            # Conditioned + a -inf answer (impossible event) must cross
            # the channel exactly, not as null or a string.
            reply = transport.request(
                ("batch", "indian_gpa", "logprob", "GPA > 1", ["GPA < 0"], False)
            )
            assert reply == ("results", [("ok", float("-inf"))], None)

            # Traced batch: rows unchanged, plus the worker's span fragment.
            reply = transport.request(
                ("batch", "indian_gpa", "logprob", None, ["GPA > 3"], True)
            )
            _, rows, spans = reply
            assert reply[0] == "results"
            assert rows == [("ok", model.logprob("GPA > 3"))]
            assert isinstance(spans, dict) and spans["name"] == "worker.batch"

            reply = transport.request(("stats",))
            assert reply[0] == "stats" and "indian_gpa" in reply[1]

            # Idempotent re-register (same digest) acks; a conflicting
            # digest under the same name is refused as an error reply.
            spec = specs["indian_gpa"]
            reply = transport.request(("register", "indian_gpa", spec))
            assert reply == ("registered", spec["digest"])
            conflict = dict(spec, digest="0" * len(spec["digest"]))
            reply = transport.request(("register", "indian_gpa", conflict))
            assert reply[0] == "error" and "already has model" in reply[1]

            reply = transport.request(("unregister", "indian_gpa"))
            assert reply == ("unregistered", "indian_gpa")
            reply = transport.request(
                ("batch", "indian_gpa", "logprob", None, ["GPA > 3"], False)
            )
            assert reply[1][0][0] == "error"

            reply = transport.request(("stop",))
            assert reply == ("stopped", 0)
        finally:
            transport.terminate()
            transport.join(5)

    def test_probe_detects_a_dead_endpoint(self, harness):
        specs = _gpa_specs()
        transport = harness.make()
        try:
            transport.start(specs, timeout=60)
            assert transport.probe() is True
            harness.kill_endpoint(transport)
            deadline = time.monotonic() + 10
            while transport.probe() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert transport.probe() is False
        finally:
            transport.terminate()
            transport.join(5)

    def test_restart_recovers_and_stays_bit_identical(self, harness):
        """Kill the endpoint, restart through the transport, and the
        re-handshaked replacement answers the same bits -- the respawn
        path the pool's supervision drives, minus the pool."""
        specs = _gpa_specs()
        transport = harness.make()
        try:
            transport.start(specs, timeout=60)
            before = transport.request(
                ("batch", "indian_gpa", "logprob", None, ["GPA > 3"], False)
            )
            harness.kill_endpoint(transport)
            harness.revive_endpoint(transport)
            transport.restart(specs, 60)
            after = transport.request(
                ("batch", "indian_gpa", "logprob", None, ["GPA > 3"], False)
            )
            assert after == before
            assert after == (
                "results", [("ok", indian_gpa.model().logprob("GPA > 3"))], None
            )
        finally:
            transport.terminate()
            transport.join(5)


class TestFrameCodec:
    def test_floats_round_trip_bit_exactly(self):
        """Every shard reply crosses this codec: signed zeros, infinities,
        NaN, subnormals and a seeded sweep of random bit patterns come
        back with the same 64 bits."""
        values = [
            0.0, -0.0, float("inf"), float("-inf"), float("nan"),
            5e-324, -5e-324, 2.225073858507201e-308, -2.225073858507201e-308,
            2.2250738585072014e-308, 1.7976931348623157e308,
            -1.7976931348623157e308, 0.1, -1.5e-300, math.pi,
        ]
        rng = random.Random(20211)
        while len(values) < 2000:
            bits = rng.getrandbits(64)
            if rng.random() < 0.25:
                bits &= 0x800FFFFFFFFFFFFF  # zero exponent: a subnormal
            (value,) = struct.unpack("<d", struct.pack("<Q", bits))
            if not math.isnan(value):  # JSON carries the one canonical NaN
                values.append(value)
        frame = encode_frame(
            {"reply": ["results", [["ok", v] for v in values], None]}
        )
        decoded = decode_reply(decode_frame(frame[4:]))
        assert decoded[0] == "results"
        assert [row[0] for row in decoded[1]] == ["ok"] * len(values)
        bits = [struct.pack("<d", v) for v in values]
        assert [struct.pack("<d", row[1]) for row in decoded[1]] == bits

    def test_one_batch_reply_shape_round_trips(self):
        """Traced or not, a batch reply is ``("results", rows, spans)``
        on the wire and back, and :func:`batch_rows` reads both; the
        traced fragment lands under the active span."""
        rows = [("ok", 1.0), ("error", "ValueError", "bad")]
        fragment = {"name": "worker.batch", "offset_us": 0, "dur_us": 5}
        for spans in (None, fragment):
            reply = ("results", rows, spans)
            frame = encode_frame({"reply": list(reply)})
            decoded = decode_reply(decode_frame(frame[4:]))
            assert decoded == reply
            trace = Trace(name="batch")
            with obs.activate(trace):
                assert batch_rows(decoded) == rows
            children = trace.to_payload().get("children", [])
            assert children == ([] if spans is None else [fragment])
        with pytest.raises(WorkerError, match="Malformed batch reply"):
            decode_reply({"reply": ["results", [["ok", 1.0]]]})
        with pytest.raises(WorkerError, match="boom"):
            batch_rows(("error", "boom"))

    def test_frame_length_bounds_are_enforced(self):
        assert frame_length(struct.pack(">I", 1024)) == 1024
        with pytest.raises(WorkerError, match="over the"):
            frame_length(struct.pack(">I", 2 ** 31))

    def test_parse_address(self):
        assert parse_address("127.0.0.1:8144") == ("127.0.0.1", 8144)
        with pytest.raises(ValueError):
            parse_address("8144")
        with pytest.raises(ValueError):
            parse_address("host:http")


def _random_json(rng, depth=0):
    """A small random JSON value (seeded)."""
    choice = rng.randrange(7 if depth < 2 else 5)
    if choice == 0:
        return None
    if choice == 1:
        return rng.random() < 0.5
    if choice == 2:
        return rng.randrange(-10 ** 6, 10 ** 6)
    if choice == 3:
        return rng.uniform(-1e9, 1e9)
    if choice == 4:
        return "".join(rng.choice("abc GPA><=.'") for _ in range(rng.randrange(8)))
    if choice == 5:
        return [_random_json(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {"k%d" % i: _random_json(rng, depth + 1) for i in range(rng.randrange(3))}


def _malformed_messages(rng, count):
    """Well-framed frames whose message no op accepts (seeded)."""
    frames = [
        {"msg": ["batch"]}, {"msg": ["register", "x"]}, {"msg": ["unregister"]},
        {"msg": []}, {"msg": 5}, {"msg": "batch"}, {"no_msg": 1},
        {"msg": ["batch", ["unhashable"], "logprob", None, [], False]},
        {"msg": ["batch", "indian_gpa", "logprob", None, 7, False]},
        # A batch without its trace flag is short one field.
        {"msg": ["batch", "indian_gpa", "logprob", None, ["GPA > 3"]]},
        {"msg": ["register", "x", "not a spec"]},
        {"msg": ["register", "x", {"digest": "0"}]},
        {"msg": [{"op": "ping"}]},
    ]
    # Wrong arities for the ops that take arguments, and unknown ops.
    arities = {"batch": (0, 1, 2, 3, 4), "register": (0, 1, 3, 4), "unregister": (0, 2, 3)}
    while len(frames) < count:
        op = rng.choice(["batch", "register", "unregister", "unknown"])
        if op == "unknown":
            op = "op-%d" % rng.randrange(1000)
            arity = rng.randrange(3)
        else:
            arity = rng.choice(arities[op])
        frames.append({"msg": [op] + [_random_json(rng) for _ in range(arity)]})
    return frames


def _fatal_frames(rng):
    """(label, bytes, half_close) frames that must close their connection.

    ``half_close`` frames are incomplete: the node can only see that
    they are broken when the client stops writing.
    """
    garbage = b"\xff" + bytes(rng.randrange(256) for _ in range(rng.randrange(1, 64)))
    lying = rng.randrange(64, 4096)
    return [
        ("undecodable utf-8", struct.pack(">I", 2) + b"\xff\xfe", False),
        ("random garbage", struct.pack(">I", len(garbage)) + garbage, False),
        ("invalid json", struct.pack(">I", 9) + b"{not json", False),
        ("non-object json", struct.pack(">I", 5) + b"[1,2]", False),
        ("bare number", struct.pack(">I", 2) + b"42", False),
        ("too deep", struct.pack(">I", 100000) + b"[" * 100000, False),
        ("over bound", struct.pack(">I", MAX_FRAME_BYTES + 1), False),
        ("short length lie", struct.pack(">I", 3) + b'{"msg": ["ping"]}', False),
        ("truncated header", b"\x00\x00", True),
        ("length lie", struct.pack(">I", lying) + b'{"msg":', True),
    ]


def _connect(port):
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    return sock, sock.makefile("rb")


def _closed_by_peer(reader):
    try:
        return reader.read() == b""
    except ConnectionResetError:  # unread bytes at close turn FIN into RST
        return True


class TestNodeTrustBoundary:
    """Frames off a socket are untrusted input to a shard endpoint."""

    def test_shard_host_answers_malformed_messages_with_errors(self, chaos_rng):
        host = ShardHost(0)
        for frame in _malformed_messages(chaos_rng, 64):
            reply = host.handle(frame.get("msg"))
            assert reply[0] == "error" and isinstance(reply[1], str), (frame, reply)
        for message in [("batch",), ("register", "x"), ("unregister",), (), None]:
            assert host.handle(message)[0] == "error"

    def test_decode_frame_rejects_what_is_not_a_json_object(self):
        for payload in [b"\xff\xfe", b"{not json", b"[1,2]", b"42", b"[" * 100000]:
            with pytest.raises(WorkerError):
                decode_frame(payload)

    def test_live_node_survives_hostile_frames(self, chaos_rng):
        """Against a real ``python -m repro.serve.node``: malformed messages
        get error replies on a connection that keeps working; broken
        frames (before or after the hello) close only their connection;
        an attached shard and a fresh connection still answer exactly."""
        specs = _gpa_specs()
        expected = ("results", [("ok", indian_gpa.model().logprob("GPA > 3"))], None)
        batch = ("batch", "indian_gpa", "logprob", None, ["GPA > 3"], False)
        proc, port = start_node()
        keeper = TcpTransport("127.0.0.1:%d" % port, 0)
        try:
            keeper.start(specs, timeout=60)

            sock, reader = _connect(port)
            with sock, reader:
                sock.sendall(encode_frame({"msg": ["hello", 1, specs]}))
                assert decode_reply(read_frame(reader))[0] == "ready"
                for frame in _malformed_messages(chaos_rng, 64):
                    sock.sendall(encode_frame(frame))
                    reply = decode_reply(read_frame(reader))
                    assert reply[0] == "error", (frame, reply)
                sock.sendall(encode_frame({"msg": list(batch)}))
                assert decode_reply(read_frame(reader)) == expected

            # A well-framed hello-less first message is refused, then closed.
            sock, reader = _connect(port)
            with sock, reader:
                sock.sendall(encode_frame({"msg": ["batch"]}))
                reply = decode_reply(read_frame(reader))
                assert reply[0] == "init_error" and "hello" in reply[1]
                assert _closed_by_peer(reader)

            for attached in (False, True):
                for label, data, half_close in _fatal_frames(chaos_rng):
                    sock, reader = _connect(port)
                    with sock, reader:
                        if attached:
                            sock.sendall(encode_frame({"msg": ["hello", 2, {}]}))
                            assert decode_reply(read_frame(reader)) == ("ready", {})
                        sock.sendall(data)
                        if half_close:
                            sock.shutdown(socket.SHUT_WR)
                        assert _closed_by_peer(reader), label

            assert proc.poll() is None
            assert keeper.request(batch) == expected
            fresh = TcpTransport("127.0.0.1:%d" % port, 3)
            try:
                fresh.start(specs, timeout=60)
                assert fresh.request(batch) == expected
                assert fresh.request(("ping",)) == ("pong", 3)
            finally:
                fresh.terminate()
        finally:
            keeper.terminate()
            proc.kill()
            proc.wait(10)


class TestHashRingMembership:
    def test_explicit_membership_routes_only_to_members(self):
        ring = HashRing(shards=[0, 2])
        routed = {ring.route("key-%d" % i) for i in range(200)}
        assert routed == {0, 2}

    def test_removing_a_shard_only_remaps_its_keys(self):
        full = HashRing(3)
        live = HashRing(shards=[0, 2])
        keys = ["model|condition-%d" % i for i in range(500)]
        for key in keys:
            before = full.route(key)
            after = live.route(key)
            if before != 1:
                # A surviving shard's keys stay put: its ring points are
                # identical in both rings.
                assert after == before
            else:
                assert after in (0, 2)


class TestPoolOverTcp:
    def test_node_kill_and_comeback_resends_the_batch(self):
        """SIGKILL the node, bring a fresh one up on the same port: the
        pool reconnects within the window, the hello re-ships the specs
        (digest-verified catch-up), and the failed batch is resent --
        respawn+requeue semantics identical to a killed local shard."""
        proc, port = start_node()
        pool = WorkerPool(0, nodes=["127.0.0.1:%d" % port])
        try:
            pool.start(_gpa_specs())
            # Widen the reconnect window: a fresh interpreter takes ~1s.
            pool._workers[0].transport.reconnect_timeout = 30.0

            async def main():
                nonlocal proc
                try:
                    (before,) = await pool.run_batch(
                        "indian_gpa", "logprob", None, 0, ["GPA > 3"]
                    )
                    proc.kill()
                    proc.wait(10)
                    proc, _ = start_node(listen="127.0.0.1:%d" % port)
                    (after,) = await pool.run_batch(
                        "indian_gpa", "logprob", None, 0, ["GPA > 3"]
                    )
                    return before, after
                finally:
                    await pool.close()

            before, after = asyncio.run(main())
            assert after == before
            assert after == ("ok", indian_gpa.model().logprob("GPA > 3"))
            assert pool.metrics.snapshot()["repro.pool.respawns"] == 1
            assert pool.metrics.snapshot()["repro.pool.requeued_batches"] == 1
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(10)

    def test_unreachable_node_is_marked_dead_and_batches_fail_over(self):
        """A node that never comes back leaves the ring: its shard is
        marked dead, in-flight batches fail over to a live shard (still
        bit-identical -- every shard holds the same models), and with no
        live shard left the failure is an explicit WorkerError."""
        proc, port = start_node()
        pool = WorkerPool(1, nodes=["127.0.0.1:%d" % port])
        try:
            pool.start(_gpa_specs())

            async def main():
                try:
                    proc.kill()
                    proc.wait(10)
                    # Routed at the dead TCP shard: reconnect fails within
                    # the bounded window, the shard is marked dead, and
                    # the batch reroutes to the live local shard.
                    (result,) = await pool.run_batch(
                        "indian_gpa", "logprob", None, 1, ["GPA > 3"]
                    )
                    assert pool.live_shards() == [0]
                    # The ring was rebuilt without the dead shard.
                    assert pool.route("indian_gpa", "GPA > 3") == 0
                    # Later batches skip the dead shard without paying the
                    # reconnect window again.
                    (again,) = await pool.run_batch(
                        "indian_gpa", "logprob", None, 1, ["GPA > 3"]
                    )
                    return result, again
                finally:
                    await pool.close()

            result, again = asyncio.run(main())
            assert result == again
            assert result == ("ok", indian_gpa.model().logprob("GPA > 3"))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(10)

    def test_all_shards_dead_raises_worker_error(self):
        proc, port = start_node()
        pool = WorkerPool(0, nodes=["127.0.0.1:%d" % port])
        try:
            pool.start(_gpa_specs())

            async def main():
                try:
                    proc.kill()
                    proc.wait(10)
                    with pytest.raises(WorkerError, match="no live shard"):
                        await pool.run_batch(
                            "indian_gpa", "logprob", None, 0, ["GPA > 3"]
                        )
                finally:
                    await pool.close()

            asyncio.run(main())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(10)

    def test_probe_revives_a_returned_node_with_spec_catchup(self):
        """Registry append-forwarding across a partition: a model is
        registered while the node is *down*; when the node returns, the
        probe loop's reconnect hello carries the pool's current specs, so
        the node catches up (journal-replay semantics) and serves the
        model it never saw registered."""
        proc, port = start_node()
        pool = WorkerPool(1, nodes=["127.0.0.1:%d" % port])
        registry = ModelRegistry()
        pool.start({"indian_gpa": _spec(registry.register_catalog("indian_gpa"))})
        grass = registry.register_catalog("grass")

        async def main():
            nonlocal proc
            try:
                proc.kill()
                proc.wait(10)
                # Mark the node dead (bounded reconnect fails).
                await pool.run_batch("indian_gpa", "logprob", None, 1, ["GPA > 3"])
                assert pool.live_shards() == [0]
                # Register while partitioned: only live shards handshake.
                await pool.register_model("grass", grass)
                # The node returns; the probe revives it and the hello
                # re-ships the *current* specs -- including grass.
                proc, _ = start_node(listen="127.0.0.1:%d" % port)
                deadline = time.monotonic() + 30
                while pool.live_shards() != [0, 1] and time.monotonic() < deadline:
                    await pool.probe_once()
                    await asyncio.sleep(0.1)
                assert pool.live_shards() == [0, 1]
                (result,) = await pool.run_batch(
                    "grass", "logprob", None, 1, ["wet_grass == 1"]
                )
                return result
            finally:
                await pool.close()

        try:
            result = asyncio.run(main())
            expected = registry.build_catalog("grass").logprob("wet_grass == 1")
            assert result == ("ok", expected)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(10)

    def test_blob_specs_resolve_from_the_node_local_store(self, tmp_path):
        """Model shipping is a blob fetch-or-verify: the front-end's
        ``.spz`` path does not exist for the node, but the blob is
        content-addressed, so ``--blob-dir`` resolves it by digest (and
        the load still digest-verifies the local copy)."""
        blob_registry = ModelRegistry(blob_dir=tmp_path / "frontend")
        registered = blob_registry.register_catalog("indian_gpa")
        spec = wire.model_spec(registered)
        assert "path" in spec
        # The node's replica of the content-addressed store.
        node_store = tmp_path / "node"
        node_store.mkdir()
        shutil.copy(spec["path"], node_store / (registered.digest + ".spz"))
        # Make the front-end path unresolvable, as it would be cross-host.
        spec = dict(spec, path=str(tmp_path / "gone" / "model.spz"))

        proc, port = start_node(blob_dir=node_store)
        transport = TcpTransport("127.0.0.1:%d" % port, 0)
        try:
            transport.start({"indian_gpa": spec}, timeout=60)
            reply = transport.request(
                ("batch", "indian_gpa", "logprob", None, ["GPA > 3"], False)
            )
            assert reply == (
                "results", [("ok", indian_gpa.model().logprob("GPA > 3"))], None
            )
            reply = transport.request(("stats",))
            compiled = reply[1]["indian_gpa"]["compiled"]
            assert compiled["digest"] == registered.digest
            assert compiled["path"] == str(node_store / (registered.digest + ".spz"))
        finally:
            transport.terminate()
            proc.kill()
            proc.wait(10)


class TestProactiveProbe:
    def test_probe_respawns_an_idle_dead_worker_before_traffic(self):
        registry = ModelRegistry()
        pool = WorkerPool(1)
        pool.start({"indian_gpa": _spec(registry.register_catalog("indian_gpa"))})

        async def main():
            try:
                victim = local_pids(pool)[0]
                os.kill(victim, signal.SIGKILL)
                pool._workers[0].transport.process.join(5)
                await pool.probe_once()
                # Detected and respawned with no traffic involved.
                assert pool.metrics.snapshot()["repro.pool.probe_failures"] == 1
                assert pool.metrics.snapshot()["repro.pool.respawns"] == 1
                assert local_pids(pool)[0] != victim
                (result,) = await pool.run_batch(
                    "indian_gpa", "logprob", None, 0, ["GPA > 3"]
                )
                assert result == ("ok", indian_gpa.model().logprob("GPA > 3"))
                # No batch hit the dead shard: nothing was requeued.
                assert pool.metrics.snapshot()["repro.pool.requeued_batches"] == 0
            finally:
                await pool.close()

        asyncio.run(main())

    def test_probe_skips_busy_shards(self):
        registry = ModelRegistry()
        pool = WorkerPool(1)
        pool.start({"indian_gpa": _spec(registry.register_catalog("indian_gpa"))})

        async def main():
            try:
                async with pool._workers[0].lock:
                    await pool.probe_once()  # must not deadlock or count
                assert pool.metrics.snapshot()["repro.pool.probe_failures"] == 0
                assert pool.metrics.snapshot()["repro.pool.respawns"] == 0
            finally:
                await pool.close()

        asyncio.run(main())

    def _gate_restart(self, pool):
        """Hold shard 0's next restart at a gate; returns (entered, release)."""
        transport = pool._workers[0].transport
        original = transport.restart
        entered, release = threading.Event(), threading.Event()

        def gated_restart(specs, timeout):
            entered.set()
            release.wait(30)
            original(specs, timeout)

        transport.restart = gated_restart
        return entered, release

    def test_cancelled_probe_keeps_the_shard_lock_until_restart_ends(self):
        """Regression: cancelling a probe sweep mid-respawn must not
        release the shard lock while the executor thread is still
        swapping the shard's connection."""
        registry = ModelRegistry()
        pool = WorkerPool(1)
        pool.start({"indian_gpa": _spec(registry.register_catalog("indian_gpa"))})
        entered, release = self._gate_restart(pool)

        async def main():
            loop = asyncio.get_running_loop()
            worker = pool._workers[0]
            try:
                os.kill(local_pids(pool)[0], signal.SIGKILL)
                worker.transport.process.join(5)
                sweep = asyncio.ensure_future(pool.probe_once())
                assert await loop.run_in_executor(None, entered.wait, 30)
                sweep.cancel()
                await asyncio.sleep(0.05)
                assert worker.lock.locked()
                release.set()
                with pytest.raises(asyncio.CancelledError):
                    await sweep
                assert not worker.lock.locked()
                (result,) = await pool.run_batch(
                    "indian_gpa", "logprob", None, 0, ["GPA > 3"]
                )
                assert result == ("ok", indian_gpa.model().logprob("GPA > 3"))
            finally:
                release.set()
                await pool.close()

        asyncio.run(main())

    def test_close_during_a_probe_respawn_shuts_down_cleanly(self):
        """``close`` stops the probe loop while it is respawning a dead
        worker: the stop message goes to the restarted worker only after
        the restart finished, and every process is gone afterwards."""
        registry = ModelRegistry()
        pool = WorkerPool(1, probe_interval_ms=10)
        pool.start({"indian_gpa": _spec(registry.register_catalog("indian_gpa"))})
        entered, release = self._gate_restart(pool)

        async def main():
            loop = asyncio.get_running_loop()
            os.kill(local_pids(pool)[0], signal.SIGKILL)
            pool._workers[0].transport.process.join(5)
            pool.start_probing()
            try:
                assert await loop.run_in_executor(None, entered.wait, 30)
                loop.call_later(0.05, release.set)
            finally:
                await pool.close()

        asyncio.run(main())
        # The cancelled sweep counted nothing.
        assert pool.metrics.snapshot()["repro.pool.respawns"] == 0
        # Exit code 0: the restarted worker got the stop message and
        # exited on its own instead of being terminated as a straggler.
        assert pool._workers[0].transport.process.exitcode == 0

    def test_probe_failures_surface_on_metrics_exposition(self):
        async def main():
            registry = ModelRegistry()
            registry.register_catalog("indian_gpa")
            service = InferenceService(registry, workers=1)
            host, port = await service.start()
            client = AsyncServeClient(host, port)
            try:
                os.kill(local_pids(service.backend)[0], signal.SIGKILL)
                service.backend._workers[0].transport.process.join(5)
                await service.backend.probe_once()
                return await client.metrics()
            finally:
                await service.close()

        body = asyncio.run(main())
        assert "repro_pool_probe_failures_total 1" in body


class TestFaultPoints:
    def test_fault_points_cover_both_kinds(self):
        proc, port = start_node()
        pool = WorkerPool(1, nodes=["127.0.0.1:%d" % port])
        try:
            pool.start(_gpa_specs())
            points = pool.fault_points()
            assert len(points) == 2
            shard0, kind0, pid = points[0]
            assert (shard0, kind0) == (0, "local") and isinstance(pid, int)
            assert pid == pool._workers[0].transport.process.pid
            assert points[1] == (1, "tcp", "127.0.0.1:%d" % port)

            async def main():
                await pool.close()

            asyncio.run(main())
        finally:
            proc.kill()
            proc.wait(10)


class TestMultiNodeService:
    def test_two_node_service_matches_in_process_bit_identically(self):
        """The acceptance differential: 1 local shard + 1 TCP node behind
        one service answer the full mixed battery with exactly the bits
        the in-process library produces, and /v1/stats carries the
        per-node section."""
        proc, port = start_node()

        async def main():
            registry = ModelRegistry()
            registry.register_catalog("indian_gpa")
            service = InferenceService(
                registry, workers=1, nodes=["127.0.0.1:%d" % port],
                )
            host, sport = await service.start()
            client = AsyncServeClient(host, sport)
            try:
                requests = _mixed_requests()
                responses = await client.query_many(
                    requests, connections=8, retry_overloaded=8
                )
                traced = await client.query({
                    "model": "indian_gpa", "kind": "logprob",
                    "event": "GPA > 3", "trace": True,
                })
                entry = await client.trace(traced["trace"])
                stats = await client.stats()
                return requests, responses, entry, stats
            finally:
                await service.close()

        try:
            requests, responses, entry, stats = asyncio.run(main())
        finally:
            proc.kill()
            proc.wait(10)

        model = indian_gpa.model()
        posterior = model.condition("Nationality == 'India'")
        for request, response in zip(requests, responses):
            assert response["ok"], response
            target = posterior if "condition" in request else model
            if request["kind"] == "logprob":
                expected = target.logprob(request["event"])
            else:
                expected = target.logpdf(request["assignment"])
            assert value_of(response) == expected  # bit-identical

        backend = stats["backend"]
        assert backend["mode"] == "sharded"
        assert backend["workers"] == 2 and backend["local_shards"] == 1
        assert backend["live_shards"] == [0, 1]
        nodes = {entry_["address"]: entry_ for entry_ in backend["nodes"]}
        assert nodes["local"]["kind"] == "local" and nodes["local"]["live"]
        remote = nodes["127.0.0.1:%d" % port]
        assert remote["kind"] == "tcp" and remote["live"]
        assert remote["shards"] == [{"shard": 1, "live": True, "respawns": 0}]
        # Both shards hold stats (the TCP one answered the stats op too).
        assert len(backend["shards"]) == 2
        assert all("indian_gpa" in shard for shard in backend["shards"])

        # The dispatch span records *where* the batch ran.
        def spans(node):
            yield node
            for child in node.get("children", []):
                yield from spans(child)

        dispatches = [
            node for node in spans(entry["spans"])
            if node["name"] == "shard.dispatch"
        ]
        assert dispatches
        for dispatch in dispatches:
            assert dispatch["tags"]["node"] in ("local", "127.0.0.1:%d" % port)

    def test_sigkill_node_during_4x_overload_only_ok_or_429(self):
        """The node-kill chaos acceptance: SIGKILL the TCP node mid-run
        under 4x overload; every response is a correct result or an
        explicit 429-style shed, the ring rebalances onto the surviving
        local shard, and the sharded differential is bit-identical
        afterwards."""
        bound = 16
        proc, port = start_node()

        async def main():
            registry = ModelRegistry()
            registry.register_catalog("indian_gpa")
            service = InferenceService(
                registry, workers=1, nodes=["127.0.0.1:%d" % port],
                max_batch=8, max_queued_per_key=bound,
                probe_interval_ms=200,
            )
            host, sport = await service.start()
            client = AsyncServeClient(host, sport)
            try:
                points = service.backend.fault_points()
                assert (1, "tcp", "127.0.0.1:%d" % port) in points
                overload = [
                    {"id": i, "model": "indian_gpa", "kind": "logprob",
                     "event": "GPA > %r" % (0.002 * i),
                     # Half the load is conditioned so the consistent-hash
                     # path (which can route at the doomed TCP shard) is
                     # exercised under overload too.
                     **({"condition": "Nationality == 'India'"} if i % 2 else {})}
                    for i in range(4 * bound)
                ]

                async def kill_node_midway():
                    await asyncio.sleep(0.02)
                    proc.kill()

                killer = asyncio.ensure_future(kill_node_midway())
                responses = await client.query_many(overload, connections=16)
                await killer
                differential = _mixed_requests()
                followup = await client.query_many(
                    differential, connections=8, retry_overloaded=8
                )
                stats = await client.stats()
                return overload, responses, differential, followup, stats
            finally:
                await service.close()

        try:
            overload, responses, differential, followup, stats = asyncio.run(main())
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(10)

        model = indian_gpa.model()
        posterior = model.condition("Nationality == 'India'")
        served = shed = 0
        for request, response in zip(overload, responses):
            if response["ok"]:
                served += 1
                target = posterior if "condition" in request else model
                assert value_of(response) == target.logprob(request["event"])
            else:
                # Zero client-visible errors beyond 429-style sheds: a
                # batch caught on the dying node failed over, it did not
                # error out.
                assert response["error_kind"] == "Overloaded", response
                assert response["retry_after_ms"] >= 1
                shed += 1
        assert served + shed == len(overload)
        assert served > 0

        # The ring rebalanced onto the surviving local shard...
        backend = stats["backend"]
        assert backend["live_shards"] == [0]
        nodes = {entry["address"]: entry for entry in backend["nodes"]}
        assert nodes["127.0.0.1:%d" % port]["live"] is False
        assert nodes["local"]["live"] is True
        # ...and the full differential still answers bit-identically.
        for request, response in zip(differential, followup):
            assert response["ok"], response
            target = posterior if "condition" in request else model
            if request["kind"] == "logprob":
                expected = target.logprob(request["event"])
            else:
                expected = target.logpdf(request["assignment"])
            assert value_of(response) == expected  # bit-identical


def _mixed_requests():
    """The differential mix of the sharded/chaos suites."""
    requests = []
    for i in range(24):
        variant = i % 3
        if variant == 0:
            requests.append(
                {"id": i, "model": "indian_gpa", "kind": "logprob",
                 "event": "GPA > %r" % (0.3 * (i % 12))}
            )
        elif variant == 1:
            requests.append(
                {"id": i, "model": "indian_gpa", "kind": "logpdf",
                 "assignment": {"GPA": 0.25 * (i % 16)}}
            )
        else:
            requests.append(
                {"id": i, "model": "indian_gpa", "kind": "logprob",
                 "event": "GPA > %r" % (0.1 * i),
                 "condition": "Nationality == 'India'"}
            )
    return requests
