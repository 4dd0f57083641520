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

A third test boots the CLI with the session flags and drives a session
over raw HTTP and the blocking client: every posterior read of a
10-observe ``hmm_sensor_fusion`` script is bit-identical to the in-process
:class:`~repro.engine.PosteriorChain`.
"""

import asyncio
import http.client
import os
import re
import signal
import subprocess
import sys

import pytest

import repro
from repro.engine import PosteriorChain
from repro.serve import AsyncServeClient
from repro.serve import ModelRegistry
from repro.serve import ServeClient
from repro.serve import value_of
from repro.workloads import hmm
from repro.workloads import indian_gpa
from repro.workloads import scenarios

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


def _http(port, method, path, body=None, tenant=None):
    """One raw HTTP exchange (what ``curl -sf`` checks): (status, body text)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request(
            method, path, body=body, headers={"x-tenant": tenant} if tenant else {}
        )
        response = connection.getresponse()
        return response.status, response.read().decode()
    finally:
        connection.close()


def test_cli_session_smoke():
    """The CLI with session flags: raw-wire create/observe/describe, a
    10-observe session bit-identical to the library chain, the session
    gauges on ``/metrics``, teardown via DELETE and a clean SIGINT exit."""
    front, port = _launch(
        ["repro.serve", "--model", "hmm5", "--workers", "2", "--port", "0",
         "--max-sessions", "64", "--session-ttl-s", "600",
         "--max-sessions-per-tenant", "8", "--max-queued-per-tenant", "64"],
        r"repro.serve listening on [^ ]*:(\d+)",
    )
    try:
        created = _http(port, "POST", "/v1/sessions",
                        '{"session":"probe","model":"hmm5"}', tenant="curl")
        observed = _http(port, "POST", "/v1/sessions/probe/observe",
                         '{"event":"X[0] < 0.5"}', tenant="curl")
        described = _http(port, "GET", "/v1/sessions/probe", tenant="curl")

        script = scenarios.hmm_sensor_fusion(5, seed=0)
        client = ServeClient("127.0.0.1", port, tenant="ci")
        client.create_session("fusion", "hmm5")
        observes = [client.observe("fusion", event) for event in script["observes"]]
        wire = [client.session_logprob("fusion", query) for query in script["queries"]]
        chain = client.describe_session("fusion")["chain"]

        metrics = _http(port, "GET", "/metrics")
        deleted = _http(port, "DELETE", "/v1/sessions/fusion", tenant="ci")
        listed = _http(port, "GET", "/v1/sessions", tenant="ci")
    finally:
        front_exit = _interrupt(front)

    assert created[0] == 200 and '"session":"probe"' in created[1], created
    assert observed[0] == 200 and '"ok":true' in observed[1], observed
    assert described[0] == 200 and '"observes":1' in described[1], described

    assert len(script["observes"]) == 10
    for response in observes:
        assert response["ok"], response
    with PosteriorChain(hmm.model(5), script["observes"]) as library_chain:
        library = [library_chain.current.logprob(query) for query in script["queries"]]
    assert wire == library, (wire, library)
    assert chain == script["observes"]

    assert metrics[0] == 200
    lines = metrics[1].splitlines()
    assert any(line.startswith("repro_sessions_open ") for line in lines)
    assert 'repro_sessions_open_by_tenant{tenant="ci"}' in metrics[1]
    assert deleted[0] == 200 and '"deleted":true' in deleted[1], deleted
    assert listed[0] == 200 and '"sessions":[]' in listed[1], listed

    assert front_exit == 0
