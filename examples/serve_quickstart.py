"""Quickstart: serving exact inference as a micro-batching service.

Demonstrates the ``repro.serve`` subsystem end to end:

1. register models (workloads catalog + a model serialized to disk),
2. start an in-process :class:`~repro.serve.InferenceService`
   (asyncio HTTP front-end with a 2 ms coalescing window),
3. fire a burst of concurrent single-event queries — the scheduler
   coalesces them into a handful of batched ``logprob_batch`` calls,
4. run posterior-chain queries (a ``condition`` field on the wire),
5. read the stats endpoint (coalescing counters, exact cache hit/miss,
   per-kind latency percentiles) and ask two spellings of one event —
   every query text is answered bit for bit as the library answers it,
   under its own result-cache entry,
6. register a new model on the **live** service (no restart), query it,
   and unregister it again — with a registry **journal** attached, so
   the registration would survive a service restart,
7. register a model by the **path + digest** of a compiled ``.spz``
   blob: the service mmaps the content-addressed file instead of
   deserializing a payload, so every worker shard shares one physical
   copy of the compiled tables,
8. fetch the **execution trace** of one query (``"trace": true`` on the
   wire, ``GET /v1/trace/<id>`` to retrieve) and print its span tree —
   queue wait, coalesced batch, cache hit/miss,
   and the compiled-vs-interpreted engine route, span by span,
9. open a **streaming posterior session** (``POST /v1/sessions``): each
   ``observe`` extends a named condition chain held only in the
   front-end, routed by session affinity to a cache-warm shard, with
   commit-on-success (rejected evidence leaves the chain untouched) —
   the wire posterior stays bit-identical to an in-process
   :class:`~repro.engine.PosteriorChain` over the same events, and
   tenant namespaces/quotas (``--max-sessions``, ``--session-ttl-s``,
   ``--max-sessions-per-tenant``, ``--max-queued-per-tenant``) bound
   what any one caller can hold,
10. start a **remote inference node** (``python -m repro.serve.node``)
   and join it into a second service's consistent-hash ring alongside a
   local worker shard: same digest handshake, same bit-identical
   answers, per-node health on ``/v1/stats`` — and if the node dies, its
   shard is marked dead, traffic fails over to the survivors, and the
   liveness probe re-admits it when it comes back.

The same service runs standalone with worker-process sharding (dead
workers are respawned transparently) and a durable lifecycle journal::

    python -m repro.serve --model hmm20 --workers 4 \
        --blob-dir /var/lib/repro/blobs \
        --registry-journal /var/lib/repro/registry.journal

To spread shards across hosts, run a node per machine and point the
front-end at them::

    python -m repro.serve.node --listen 0.0.0.0:9310 \
        --blob-dir /var/lib/repro/blobs            # on each worker host
    python -m repro.serve --model hmm20 --workers 2 \
        --nodes host-a:9310,host-b:9310            # on the front-end

Each node hosts one shard behind a framed TCP transport (length-prefixed
JSON; floats cross bit-exactly).  Connecting *is* the handshake: the
front-end ships its current model specs, the node loads them (fetching
content-addressed ``.spz`` blobs from its own ``--blob-dir`` when the
front-end's paths don't resolve locally) and answers with recomputed
digests.  A node that was down during a live registration catches up
from the same hello on reconnect.

With ``--blob-dir`` every model is compiled once into a
``<digest>.spz`` blob and all worker shards mmap the same read-only
file; live registrations journal the blob path (not the payload), so a
restart re-maps the blob after re-verifying its digest.  On restart,
the journal is replayed (digest-verified) before serving, so models
registered through ``/v1/models/register`` come back without any
``--model`` flag.

Run with::

    python examples/serve_quickstart.py
"""

import asyncio
import tempfile
from pathlib import Path

from repro.serve import AsyncServeClient
from repro.serve import InferenceService
from repro.serve import ModelRegistry
from repro.serve import RegistryJournal
from repro.serve import value_of
from repro.workloads import indian_gpa


async def main() -> None:
    # -- 1. Register models ---------------------------------------------------
    registry = ModelRegistry()
    registry.register_catalog("hmm20")
    registry.register_catalog("noisy_or")

    # Models serialized with SpplModel.save() are served too — this is
    # how a conditioned posterior, expensive to recompute, is deployed.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "gpa.json"
        indian_gpa.model().save(path)
        registry.register_file(path, name="gpa")

        # -- 2. Start the service --------------------------------------------
        # The journal makes live registrations durable: replayed on the
        # next startup (the CLI equivalent is --registry-journal PATH).
        journal = RegistryJournal(Path(tmp) / "registry.journal")
        journal.restore(registry)
        service = InferenceService(registry, workers=0, window=0.002, journal=journal)
        host, port = await service.start()
        client = AsyncServeClient(host, port)
        print("serving %s on %s:%d" % (", ".join(registry.names()), host, port))

        # -- 3. A burst of concurrent single-event queries -------------------
        burst = [
            {
                "id": i,
                "model": "hmm20",
                "kind": "logprob",
                "event": "X[%d] < %.2f" % (i % 20, 0.5 + 0.01 * i),
            }
            for i in range(64)
        ]
        responses = await client.query_many(burst, connections=8)
        print(
            "burst of %d queries -> first three: %s"
            % (len(burst), [round(value_of(r), 4) for r in responses[:3]])
        )

        # -- 4. Posterior-chain queries (consistent-hash routed) -------------
        chain = [
            {
                "model": "gpa",
                "kind": "prob",
                "event": "GPA > %.1f" % threshold,
                "condition": "Nationality == 'India'",
            }
            for threshold in (2.0, 4.0, 8.0, 9.5)
        ]
        for request, response in zip(chain, await client.query_many(chain)):
            print("  P(%s | India) = %.4f" % (request["event"], value_of(response)))

        # -- 5. Service statistics -------------------------------------------
        stats = await client.stats()
        scheduler = stats["scheduler"]
        print(
            "scheduler: %d requests coalesced into %d batches (mean %.1f/batch)"
            % (scheduler["requests"], scheduler["batches"], scheduler["mean_batch_size"])
        )
        hmm_cache = stats["backend"]["models"]["hmm20"]
        print(
            "hmm20 cache: %d hits / %d misses (exact counters)"
            % (hmm_cache["hits"], hmm_cache["misses"])
        )
        latency = scheduler["latency"]["logprob"]
        print(
            "logprob latency: p50 %.2f ms / p95 %.2f ms / p99 %.2f ms over %d requests"
            % (latency["p50_ms"], latency["p95_ms"], latency["p99_ms"], latency["count"])
        )

        # -- 5b. Two spellings, two answers ----------------------------------
        # Each text is answered bit for bit as the library answers it.
        # The first two spellings denote one event but are two
        # computations (clause order reaches the final log-sum, so the
        # answers may differ in the last bit), and each gets its own
        # result-cache entry; asking a spelling again is a cache hit.
        for spelling in (
            "disease_0 == 1 or symptom_0 == 1",
            "symptom_0 == 1 or disease_0 == 1",
            "disease_0 == 1 or symptom_0 == 1",
        ):
            response = await client.query(
                {"model": "noisy_or", "kind": "logprob", "event": spelling}
            )
            print("  logprob(%s) = %r" % (spelling, value_of(response)))
        stats = await client.stats()
        results = stats["scheduler"]["result_cache"]["noisy_or"]
        print(
            "noisy_or result cache: %d hit / %d miss"
            % (results["hits"], results["misses"])
        )

        # -- 6. Dynamic model lifecycle: register on the live service --------
        # No restart needed: the serialized payload is shipped to every
        # worker shard, each shard acks the round-trip digest, and only
        # then does the name become queryable.
        from repro.workloads import hmm

        reply = await client.register_model("hmm3", payload=hmm.model(3).to_json())
        print("registered %r live (digest %s...)" % (reply["model"], reply["digest"][:12]))
        response = await client.query(
            {"model": "hmm3", "kind": "logprob", "event": "X[0] < 0.5"}
        )
        print("  logprob(X[0] < 0.5 | hmm3) = %.4f" % value_of(response))
        await client.unregister_model("hmm3")
        print("unregistered hmm3; serving: %s" % ", ".join(await client.models()))

        # -- 7. Register a compiled blob by path + digest --------------------
        # Compile once into a content-addressed <digest>.spz blob, then
        # register by path: the service verifies the embedded digest and
        # mmaps the file — with worker shards, every shard maps the same
        # physical pages instead of deserializing its own copy.
        from repro.spe import spe_digest

        blob_dir = Path(tmp) / "blobs"
        blob_dir.mkdir()
        model5 = hmm.model(5)
        digest = spe_digest(model5.spe)
        blob_path = blob_dir / (digest + ".spz")
        model5.compile(path=str(blob_path))
        reply = await client.register_model("hmm5", path=str(blob_path))
        print(
            "registered %r from blob %s... (digest-verified)"
            % (reply["model"], blob_path.name[:12])
        )
        response = await client.query(
            {"model": "hmm5", "kind": "logprob", "event": "X[0] < 0.5"}
        )
        print("  logprob(X[0] < 0.5 | hmm5) = %.4f" % value_of(response))

        # -- 8. End-to-end query tracing -------------------------------------
        # Every response line echoes a service-assigned trace id.  A
        # request opting in with "trace": true (or sampled in via
        # --trace-sample, or --slow-query-ms for outliers) additionally
        # builds a span tree — queue wait, micro-batch coalescing,
        # cache hits, engine route — kept in the
        # flight-recorder ring and retrievable at GET /v1/trace/<id>.
        # This is the "why was this query slow?" artifact: here the cold
        # conjunction pays for evaluation, visible span by span.
        response = await client.query(
            {
                "model": "hmm20",
                "kind": "logprob",
                "event": "X[7] < 0.25 and X[11] < 0.5",
                "trace": True,
            }
        )
        trace = await client.trace(response["trace"])

        def show(span, depth=0):
            tags = span.get("tags", {})
            rendered = " ".join("%s=%s" % (key, tags[key]) for key in sorted(tags))
            print(
                "  %s%-28s %8.1f us  %s"
                % ("  " * depth, span["name"], span["dur_us"], rendered)
            )
            for child in span.get("children", ()):
                show(child, depth + 1)

        print(
            "trace %s (%s/%s, %.2f ms):"
            % (trace["trace_id"], trace["model"], trace["kind"], trace["duration_ms"])
        )
        show(trace["spans"])

        # -- 9. Streaming posterior sessions ---------------------------------
        # A session is a named, tenant-scoped condition chain: observe
        # extends it one event at a time (exact conditioning on the
        # current interned posterior, routed to a cache-warm shard via
        # session affinity), query verbs read the current posterior, and
        # the chain itself lives only in the front-end — a respawned
        # shard re-establishes it by deterministic replay, so answers
        # stay bit-identical across worker death.
        from repro.workloads import scenarios

        script = scenarios.hmm_sensor_fusion(5, seed=0)
        await client.create_session("fusion", "hmm5", tenant="acme")
        for event in script["observes"]:
            await client.observe("fusion", event, tenant="acme")
        for query in script["queries"][:2]:
            value = await client.session_logprob("fusion", query, tenant="acme")
            print("  logprob(%s | %d observes) = %.4f"
                  % (query, len(script["observes"]), value))
        # Commit-on-success: contradictory evidence is refused with 400
        # and the chain does not move — the session keeps answering.
        try:
            await client.observe("fusion", "X[0] > 1e9", tenant="acme")
        except Exception as error:
            print("  rejected observe (chain unchanged): %s" % error)
        described = await client.describe_session("fusion", tenant="acme")
        print(
            "session %r: %d observes committed, %d queries served"
            % (described["session"], described["observes"], described["queries"])
        )
        await client.delete_session("fusion", tenant="acme")
        await service.close()

        # -- 10. Multi-node serve: join a remote node into the ring ----------
        # A node is a separate process (normally a separate host) that
        # hosts shards over a framed TCP transport.  The front-end lists
        # it in `nodes` and it becomes one more ring member: the connect
        # handshake ships the model specs and verifies the digests the
        # node recomputes, exactly like a local worker's startup.
        import re
        import subprocess
        import sys

        node = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.node", "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        address = "127.0.0.1:%s" % (
            re.search(r":(\d+)", node.stdout.readline()).group(1),
        )
        registry = ModelRegistry()
        registry.register_catalog("hmm20")
        service = InferenceService(
            registry, workers=1, nodes=[address], window=0.002
        )
        host, port = await service.start()
        client = AsyncServeClient(host, port)
        responses = await client.query_many(burst, connections=8)
        print(
            "1 local shard + node %s answered %d queries (first three: %s)"
            % (address, len(burst), [round(value_of(r), 4) for r in responses[:3]])
        )
        backend = (await client.stats())["backend"]
        for entry in backend["nodes"]:
            print(
                "  node %s (%s): shards %s, live=%s"
                % (entry["address"], entry["kind"],
                   [shard["shard"] for shard in entry["shards"]], entry["live"])
            )
        await service.close()
        node.terminate()
        node.wait(10)


if __name__ == "__main__":
    asyncio.run(main())
