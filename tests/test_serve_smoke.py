"""End-to-end serve smoke: the real CLI processes, one test per shard placement.

Boots ``python -m repro.serve`` (and, for the multi-node placement, a
``python -m repro.serve.node`` it joins into its ring with ``--nodes``),
all sharing one content-addressed ``--blob-dir``, and checks over the
wire:

* a traced query answers with a trace id (``--trace-sample 1.0``);
* ``GET /metrics`` follows the Prometheus text exposition rules (every
  sample after its ``# TYPE`` line, parseable values, no dotted names)
  and carries the migrated scheduler/pool/trace/result-cache counters;
* a second model registers live by blob path (shards mmap it; a node
  fetch-or-verifies it from its own ``--blob-dir``);
* 100 concurrent mixed queries over both models answer bit-identically
  to the library;
* the ``/v1/stats`` backend and per-node sections describe the
  placement;
* SIGINT shuts the front end, then the node, down cleanly (exit 0).
"""

import asyncio
import os
import re
import signal
import subprocess
import sys

import pytest

import repro
from repro.serve import AsyncServeClient
from repro.serve import ModelRegistry
from repro.serve import value_of
from repro.workloads import indian_gpa

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: The counters the exposition must carry once one traced query ran.
REQUIRED_SAMPLES = (
    "repro_scheduler_requests_total",
    "repro_pool_respawns_total",
    "repro_trace_recorded_total",
    "repro_result_cache_hits_total",
)

SAMPLE_LINE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? \S+$")


def _launch(module_args, pattern):
    """Start ``python -m <module_args>``; returns (proc, port) once it listens."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m"] + module_args,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    for line in proc.stdout:
        match = re.search(pattern, line)
        if match:
            return proc, int(match.group(1))
    proc.wait(10)
    raise AssertionError("%s exited before listening" % (module_args[0],))


def _interrupt(proc) -> int:
    """SIGINT and wait: the clean-shutdown exit code."""
    proc.send_signal(signal.SIGINT)
    try:
        return proc.wait(60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(10)


def check_exposition(body: str) -> set:
    """Validate Prometheus text exposition; returns the sample names."""
    typed, samples = set(), set()
    for line in body.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            typed.add(line.split()[2])
            continue
        if line.startswith("#"):
            continue
        assert SAMPLE_LINE.match(line), "malformed sample line: %r" % (line,)
        name = re.split(r"[{ ]", line, 1)[0]
        float(line.rsplit(" ", 1)[1])
        assert "." not in name, "dotted metric name leaked: %r" % (name,)
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        assert name in typed or family in typed, "sample before TYPE: %r" % (name,)
        samples.add(name)
    return samples


def mixed_requests():
    """100 requests over both models: logprob, logpdf, conditioned."""
    requests = []
    for i in range(100):
        if i % 4 == 0:
            requests.append({"id": i, "model": "grass", "kind": "logprob",
                             "event": "wet_grass == 1"})
        elif i % 4 == 1:
            requests.append({"id": i, "model": "indian_gpa", "kind": "logpdf",
                             "assignment": {"GPA": 0.25 * (i % 16)}})
        elif i % 4 == 2:
            requests.append({"id": i, "model": "indian_gpa", "kind": "logprob",
                             "event": "GPA > %r" % (0.1 * (i % 38)),
                             "condition": "Nationality == 'India'"})
        else:
            requests.append({"id": i, "model": "indian_gpa", "kind": "logprob",
                             "event": "GPA > %r" % (0.3 * (i % 12))})
    return requests


def library_answer(request):
    if request["model"] == "grass":
        return ModelRegistry().build_catalog("grass").logprob(request["event"])
    model = indian_gpa.model()
    if request["kind"] == "logpdf":
        return model.logpdf(request["assignment"])
    if "condition" in request:
        return model.condition(request["condition"]).logprob(request["event"])
    return model.logprob(request["event"])


@pytest.mark.parametrize("placement", ["2 local", "1 local + 1 tcp"])
def test_serve_smoke(placement, tmp_path):
    blobs = str(tmp_path / "blobs")
    os.makedirs(blobs)
    node = None
    nodes = []
    if placement == "1 local + 1 tcp":
        node, node_port = _launch(
            ["repro.serve.node", "--listen", "127.0.0.1:0", "--blob-dir", blobs],
            r"listening on [^ ]*:(\d+)",
        )
        nodes = ["127.0.0.1:%d" % node_port]
    front = None
    try:
        front, port = _launch(
            ["repro.serve", "--model", "indian_gpa", "--port", "0",
             "--workers", "2" if node is None else "1", "--blob-dir", blobs,
             "--trace-sample", "1.0"]
            + (["--nodes", ",".join(nodes)] if nodes else []),
            r"repro.serve listening on [^ ]*:(\d+)",
        )
        grass_blob = ModelRegistry(blob_dir=blobs).register_catalog("grass").blob_path

        async def drive():
            client = AsyncServeClient("127.0.0.1", port)
            traced = await client.query(
                {"model": "indian_gpa", "kind": "logprob", "event": "GPA > 3"}
            )
            metrics = await client.metrics()
            reply = await client.register_model("grass", path=grass_blob)
            requests = mixed_requests()
            responses = await client.query_many(
                requests, connections=8, retry_overloaded=8
            )
            return traced, metrics, reply, requests, responses, await client.stats()

        traced, metrics, reply, requests, responses, stats = asyncio.run(drive())
    finally:
        front_exit = _interrupt(front) if front is not None else None
        node_exit = _interrupt(node) if node is not None else None

    assert traced["ok"] and "trace" in traced, traced
    samples = check_exposition(metrics)
    for needed in REQUIRED_SAMPLES:
        assert needed in samples, "missing migrated counter %r" % (needed,)
    assert reply["ok"], reply

    for request, response in zip(requests, responses):
        assert response["ok"], response
        assert value_of(response) == library_answer(request), (request, response)

    backend = stats["backend"]
    assert backend["mode"] == "sharded", backend
    assert backend["workers"] == 2 and backend["live_shards"] == [0, 1], backend
    sections = {entry["address"]: entry for entry in backend["nodes"]}
    if node is None:
        assert list(sections) == ["local"]
        assert sections["local"]["kind"] == "local" and sections["local"]["live"]
        assert [shard["shard"] for shard in sections["local"]["shards"]] == [0, 1]
    else:
        assert sections["local"]["kind"] == "local" and sections["local"]["live"]
        remote = sections[nodes[0]]
        assert remote["kind"] == "tcp" and remote["live"], remote
        assert remote["shards"] == [{"shard": 1, "live": True, "respawns": 0}]

    assert front_exit == 0
    if node is not None:
        assert node_exit == 0
