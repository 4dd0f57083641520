"""End-to-end service tests over the real wire (in-process backend).

``test_smoke_100_concurrent_mixed_queries`` is the scenario the CI serve
smoke job runs: start a service, fire 100 concurrent mixed queries,
assert every response, shut down cleanly.
"""

import asyncio
import json
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.serve import AsyncServeClient
from repro.serve import InferenceService
from repro.serve import ModelRegistry
from repro.serve import ServeClientError
from repro.serve import value_of
from repro.workloads import hmm
from repro.workloads import indian_gpa

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_service(test, models=("hmm5", "indian_gpa"), **service_kwargs):
    """Start an in-process service, run ``await test(client)``, close."""

    async def main():
        registry = ModelRegistry()
        for name in models:
            registry.register_catalog(name)
        service = InferenceService(registry, **service_kwargs)
        host, port = await service.start()
        try:
            return await test(AsyncServeClient(host, port), service)
        finally:
            await service.close()

    return asyncio.run(main())


def mixed_queries(n=100):
    """A stream of n mixed queries covering every kind plus error paths."""
    requests = []
    for i in range(n):
        variant = i % 5
        if variant == 0:
            requests.append(
                {"id": i, "model": "hmm5", "kind": "logprob",
                 "event": "X[%d] < %r" % (i % 5, 0.2 + 0.01 * i)}
            )
        elif variant == 1:
            requests.append(
                {"id": i, "model": "indian_gpa", "kind": "prob",
                 "event": "GPA > %r" % (0.05 * (i % 60))}
            )
        elif variant == 2:
            requests.append(
                {"id": i, "model": "hmm5", "kind": "logpdf",
                 "assignment": {"X[0]": 0.1 * (i % 30)}}
            )
        elif variant == 3:
            requests.append(
                {"id": i, "model": "hmm5", "kind": "logprob",
                 "event": "Z[1] == 1", "condition": "X[0] < %r" % (0.5 + i * 0.01)}
            )
        else:
            requests.append(
                {"id": i, "model": "indian_gpa", "kind": "sample", "n": 2, "seed": i}
            )
    return requests


def expected_value(request):
    """Evaluate one request directly against library models."""
    model = {"hmm5": hmm.model(5), "indian_gpa": indian_gpa.model()}[request["model"]]
    if "condition" in request:
        model = model.condition(request["condition"])
    kind = request["kind"]
    if kind == "logprob":
        return model.logprob(request["event"])
    if kind == "prob":
        return model.prob(request["event"])
    if kind == "logpdf":
        return model.logpdf(request["assignment"])
    if kind == "sample":
        return model.sample(n=request["n"], seed=request["seed"])
    raise AssertionError(kind)


class TestServiceEndToEnd:
    def test_smoke_100_concurrent_mixed_queries(self):
        requests = mixed_queries(100)

        async def test(client, service):
            responses = await client.query_many(requests, connections=16)
            assert len(responses) == 100
            assert [r["id"] for r in responses] == list(range(100))
            assert all(r["ok"] for r in responses), [
                r for r in responses if not r["ok"]
            ][:3]
            stats = await client.stats()
            assert stats["scheduler"]["requests"] == 100
            assert stats["scheduler"]["batches"] < 100  # coalescing happened
            return responses

        run_service(test)

    def test_served_values_bit_identical_to_library(self):
        requests = mixed_queries(40)

        async def test(client, service):
            return await client.query_many(requests, connections=8)

        responses = run_service(test)
        for request, response in zip(requests, responses):
            assert response["ok"], response
            assert value_of(response) == expected_value(request)

    def test_sequential_and_concurrent_answers_agree(self):
        requests = [
            {"id": i, "model": "indian_gpa", "kind": "logprob",
             "event": "GPA > %r" % (0.1 * i)}
            for i in range(30)
        ]

        async def test(client, service):
            concurrent = await client.query_many(requests, connections=8)
            sequential = await client.query_seq(requests)
            assert [r["value"] for r in concurrent] == [
                r["value"] for r in sequential
            ]

        run_service(test, models=("indian_gpa",))

    def test_error_paths_reported_per_request(self):
        requests = [
            {"id": "bad-model", "model": "nope", "kind": "logprob", "event": "X < 1"},
            {"id": "bad-event", "model": "indian_gpa", "kind": "logprob",
             "event": "NoVar < 1"},
            {"id": "bad-syntax", "model": "indian_gpa", "kind": "logprob",
             "event": "???"},
            {"id": "zero-prob", "model": "indian_gpa", "kind": "logprob",
             "event": "GPA > 1", "condition": "GPA > 99"},
            {"id": "fine", "model": "indian_gpa", "kind": "logprob",
             "event": "GPA > 3"},
        ]

        async def test(client, service):
            return await client.query_many(requests, connections=2)

        responses = run_service(test, models=("indian_gpa",))
        by_id = {r["id"]: r for r in responses}
        assert by_id["bad-model"]["error_kind"] == "RegistryError"
        assert not by_id["bad-event"]["ok"]
        assert by_id["bad-syntax"]["error_kind"] == "SpplParseError"
        assert by_id["zero-prob"]["error_kind"] == "ZeroProbabilityError"
        assert by_id["fine"]["ok"]

    def test_admin_endpoints(self):
        async def test(client, service):
            health = await client.health()
            assert health == {"ok": True}
            models = await client.models()
            assert set(models) == {"hmm5", "indian_gpa"}
            assert models["hmm5"]["nodes"] > 0
            await client.query(
                {"model": "indian_gpa", "kind": "logprob", "event": "GPA > 3"}
            )
            stats = await client.stats()
            assert stats["backend"]["mode"] == "in-process"
            model_stats = stats["backend"]["models"]["indian_gpa"]
            assert model_stats["misses"] >= 1
            assert "results" not in model_stats
            assert "indian_gpa" in stats["scheduler"]["result_cache"]
            cleared = await client.clear_cache()
            assert cleared == {"ok": True}
            stats = await client.stats()
            assert stats["backend"]["models"]["indian_gpa"]["logprob"] == 0

        run_service(test)

    def test_result_cache_replays_repeated_queries(self):
        request = {"model": "indian_gpa", "kind": "logprob", "event": "GPA > 3"}

        async def test(client, service):
            first = await client.query(request)
            second = await client.query(request)
            assert first["value"] == second["value"]
            stats = await client.stats()
            results = stats["scheduler"]["result_cache"]["indian_gpa"]
            assert (results["hits"], results["misses"]) == (1, 1)
            assert stats["scheduler"]["requests"] == 1

        run_service(test, models=("indian_gpa",))

    def test_http_protocol_errors(self):
        async def test(client, service):
            reader, writer = await asyncio.open_connection(client.host, client.port)
            writer.write(b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n")
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            assert b"404" in head.split(b"\r\n", 1)[0]
            writer.close()
            # GET on a POST-only path
            reader, writer = await asyncio.open_connection(client.host, client.port)
            writer.write(b"GET /v1/query HTTP/1.1\r\nHost: x\r\n\r\n")
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            assert b"405" in head.split(b"\r\n", 1)[0]
            writer.close()
            # empty body
            with pytest.raises(ServeClientError, match="400"):
                from repro.serve.client import _Connection

                connection = await _Connection.open(client.host, client.port)
                await connection.round_trip("POST", "/v1/query", b"")

        run_service(test, models=("indian_gpa",))

    def test_bad_content_length_gets_400_not_a_dead_socket(self):
        async def test(client, service):
            for bad in (b"abc", b"-5"):
                reader, writer = await asyncio.open_connection(
                    client.host, client.port
                )
                writer.write(
                    b"POST /v1/query HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: " + bad + b"\r\n\r\n"
                )
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                assert b"400" in head.split(b"\r\n", 1)[0]
                writer.close()

        run_service(test, models=("indian_gpa",))

    def test_clear_cache_drops_posterior_entries_too(self):
        # Scoped clearing would keep entries keyed on posterior-subgraph
        # uids (unreachable from the prior); the endpoint promises a
        # genuinely cold cache.
        async def test(client, service):
            response = await client.query(
                {"model": "indian_gpa", "kind": "logprob", "event": "GPA > 1",
                 "condition": "Nationality == 'India'"}
            )
            assert response["ok"]
            stats = await client.stats()
            sections = stats["backend"]["models"]["indian_gpa"]
            assert sections["logprob"] + sections["condition"] > 0
            await client.clear_cache()
            stats = await client.stats()
            sections = stats["backend"]["models"]["indian_gpa"]
            for name in ("logprob", "condition", "logpdf", "constrain"):
                assert sections[name] == 0, (name, sections)

        run_service(test, models=("indian_gpa",))

    def test_pipelined_responses_keep_request_order(self):
        async def test(client, service):
            from repro.serve.client import _Connection

            connection = await _Connection.open(client.host, client.port)
            try:
                for i in range(20):
                    body = json.dumps(
                        {"id": i, "model": "indian_gpa", "kind": "logprob",
                         "event": "GPA > %r" % (0.3 * i)}
                    ).encode() + b"\n"
                    connection.send_request("POST", "/v1/query", body)
                await connection.writer.drain()
                ids = []
                for _ in range(20):
                    body = await connection.read_response()
                    (line,) = [l for l in body.split(b"\n") if l.strip()]
                    ids.append(json.loads(line)["id"])
                assert ids == list(range(20))
            finally:
                await connection.close()

        run_service(test, models=("indian_gpa",))


class TestCli:
    def test_cli_serves_and_shuts_down_cleanly(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--model", "indian_gpa",
             "--port", "0", "--workers", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        try:
            line = proc.stdout.readline()
            match = re.search(r"listening on ([\d.]+):(\d+)", line)
            assert match, line
            host, port = match.group(1), int(match.group(2))
            with socket.create_connection((host, port), timeout=10) as sock:
                body = b'{"model":"indian_gpa","kind":"logprob","event":"GPA > 3"}\n'
                sock.sendall(
                    b"POST /v1/query HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: %d\r\nConnection: close\r\n\r\n%s"
                    % (len(body), body)
                )
                deadline = time.time() + 10
                received = b""
                while b'"ok":true' not in received and time.time() < deadline:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    received += chunk
                assert b'"ok":true' in received, received
        finally:
            proc.send_signal(signal.SIGINT)
            output, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, output
        assert "shutting down" in output
        assert "Traceback" not in output, output

    def test_cli_requires_a_model(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.serve"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            timeout=120,
        )
        assert proc.returncode != 0
        assert "No models" in proc.stderr

    def test_cli_serves_spe_file(self, tmp_path):
        path = tmp_path / "gpa.json"
        indian_gpa.model().save(path)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--spe", "mygpa=%s" % path,
             "--port", "0", "--workers", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        try:
            line = proc.stdout.readline()
            assert "mygpa" in line
        finally:
            proc.send_signal(signal.SIGINT)
            output, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, output
