"""Standalone benchmark driver emitting a machine-readable perf snapshot.

Runs a fixed battery of probes covering the system's hot paths --
translation, compression (Table 1), vectorized bulk sampling (Fig. 3),
vectorized derived-variable (transform) evaluation, the bounded query
cache, cached repeated queries, the ``constrain -> query`` posterior
chain, the ``repro.serve`` micro-batching service (coalesced queries/sec
over the real wire), the service's backpressure behavior under 4x
overload (shed rate + p99), its fault tolerance (recovery time after
a worker SIGKILL), the streaming posterior-session tier (observe-step
latency and warm-chain read throughput vs a scratch rebuild), and the
framed shard channel (local shard vs
localhost-TCP node throughput and tail latency) -- and writes wall times
plus node counts
to a ``BENCH_*.json``
file, so successive PRs have a trajectory to compare against::

    PYTHONPATH=src python benchmarks/run_all.py            # BENCH_latest.json
    PYTHONPATH=src python benchmarks/run_all.py --output BENCH_pr7.json

``--gate BASELINE.json`` turns the run into a regression gate: after
writing the snapshot it compares against the baseline and exits non-zero
on a >25% slowdown of any ``translate_s`` or compiled ``logprob_batch``
probe (with a small absolute grace to ignore sub-millisecond jitter), on
any compression-ratio regression, on a query-cache bound exceeded
during the ``cache_bound`` churn, or on any bit-identity differential
mismatch (``bit_identical: false`` — compiled vs interpreted, or wire
session vs library chain)::

    PYTHONPATH=src python benchmarks/run_all.py --output BENCH_ci.json \
        --gate BENCH_latest.json

The driver needs only numpy/scipy (no pytest) and finishes in well under a
minute at the default scale.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.compiler import TranslationOptions  # noqa: E402
from repro.compiler import compile_command  # noqa: E402
from repro.distributions import uniform  # noqa: E402
from repro.engine import SpplModel  # noqa: E402
from repro.spe import intern_stats  # noqa: E402
from repro.spe import spe_leaf  # noqa: E402
from repro.transforms import Id  # noqa: E402
from repro.workloads import hmm  # noqa: E402
from repro.workloads import table1_models  # noqa: E402


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _best_of(fn, repetitions=3):
    """Best wall time over a few repetitions (discards cold-start noise)."""
    best = float("inf")
    for _ in range(repetitions):
        _, elapsed = _timed(fn)
        best = min(best, elapsed)
    return best


def bench_compression() -> dict:
    """Table 1: optimized node counts and compression ratios."""
    rows = {}
    benchmarks = [
        ("hiring", table1_models.hiring),
        ("alarm", table1_models.alarm),
        ("grass", table1_models.grass),
        ("noisy_or", table1_models.noisy_or),
        ("clinical_trial", table1_models.clinical_trial_table1),
        ("heart_disease", table1_models.heart_disease),
        ("hierarchical_hmm_20", lambda: hmm.program(20)),
    ]
    for name, builder in benchmarks:
        program = builder()
        optimized = compile_command(program)
        # translate_s is a gated quantity: best-of-3 strips cold-start and
        # scheduler noise that single-shot timing picks up.
        translate_s = _best_of(lambda: compile_command(program))
        unoptimized = compile_command(
            program, TranslationOptions(factorize=False, dedup=False)
        )
        size = optimized.size()
        tree = unoptimized.tree_size()
        rows[name] = {
            "translate_s": round(translate_s, 6),
            "optimized_nodes": size,
            "unoptimized_tree_nodes": tree,
            "compression_ratio": round(tree / size, 2),
        }
    return rows


def bench_sampling() -> dict:
    """Fig. 3 HMM: vectorized bulk sampling."""
    model = hmm.model(20)
    _, columns_s = _timed(lambda: model.sample_columns(10_000, seed=0))
    _, rows_s = _timed(lambda: model.sample(10_000, seed=0))
    return {
        "model_nodes": model.size(),
        "sample_columns_10k_s": round(columns_s, 4),
        "sample_rows_10k_s": round(rows_s, 4),
    }


def bench_transform_sampling() -> dict:
    """Vectorized derived-variable evaluation in ``Leaf._sample_batch``.

    Times the vectorized path (one ``Transform.evaluate_many`` call per
    derived column) against the per-element loop it replaced
    (``[t.evaluate(float(v)) for v in values]``) on a leaf with
    polynomial-transformed variables at n=100k.
    """
    n = 100_000
    leaf = (
        spe_leaf("X", uniform(0, 1))
        .transform("Z", Id("X") ** 3 - 2 * Id("X") + 1)
        .transform("W", 3 * Id("X") ** 2 - Id("X"))
    )
    resolved = {s: leaf.resolved_transform(s) for s in ("Z", "W")}
    rng = np.random.default_rng(0)

    vectorized_s = _best_of(lambda: leaf._sample_batch(rng, n))

    def per_element_batch():
        values = np.asarray(leaf.dist.sample_many(rng, n))
        columns = {"X": values}
        for symbol, transform in resolved.items():
            columns[symbol] = np.asarray(
                [transform.evaluate(float(v)) for v in values]
            )
        return columns

    loop_s = _best_of(per_element_batch, repetitions=2)
    return {
        "n": n,
        "derived_columns": 2,
        "sample_batch_vectorized_s": round(vectorized_s, 4),
        "sample_batch_per_element_s": round(loop_s, 4),
        "speedup": round(loop_s / vectorized_s, 1),
    }


def _logprob_battery(model, n_events):
    """A deterministic mixed battery of textual logprob events for ``model``.

    Cycles single-variable threshold events over the model's variables
    plus compound ``or``/``and`` events every few requests, so both the
    single-clause and the DNF paths of the evaluators are exercised.
    """
    variables = sorted(str(v) for v in model.variables)
    rng = np.random.default_rng(11)
    events = []
    for i in range(n_events):
        first = variables[i % len(variables)]
        threshold = float(rng.uniform(-1.0, 3.0))
        if i % 5 == 3 and len(variables) > 1:
            second = variables[(i + 1) % len(variables)]
            joiner = "or" if i % 2 else "and"
            events.append(
                "%s < %r %s %s < %r"
                % (first, threshold, joiner, second, float(rng.uniform(-1.0, 3.0)))
            )
        else:
            events.append("%s < %r" % (first, threshold))
    return events


def bench_compiled_logprob_batch() -> dict:
    """Compiled columnar kernel vs the interpreted evaluator (logprob_batch).

    For every Table-1 model plus the 20-step hierarchical HMM, replays the
    same 256-event battery through a cold-cache interpreted model and
    through the compiled :class:`repro.spe.CompiledSPE` kernel (best of 3
    each), and records the per-model ``bit_identical`` differential --
    the compiled kernel is only correct if every float matches the
    interpreter exactly, NaNs included.  ``--gate`` fails on any
    ``bit_identical: false`` and on a >25% compiled-throughput regression
    (median-normalized, like ``translate_s``).
    """
    n_events = 256
    benchmarks = [
        ("hiring", table1_models.hiring),
        ("alarm", table1_models.alarm),
        ("grass", table1_models.grass),
        ("noisy_or", table1_models.noisy_or),
        ("clinical_trial", table1_models.clinical_trial_table1),
        ("heart_disease", table1_models.heart_disease),
    ]
    loaded = {
        name: SpplModel(compile_command(builder())) for name, builder in benchmarks
    }
    loaded["hierarchical_hmm_20"] = hmm.model(20)
    rows = {}
    for name, model in loaded.items():
        events = _logprob_battery(model, n_events)
        model.compile()
        interpreted_s = compiled_s = float("inf")
        want = got = None
        for _ in range(3):
            interpreted = SpplModel(model.spe, cache=False)
            start = time.perf_counter()
            want = interpreted.logprob_batch(events)
            interpreted_s = min(interpreted_s, time.perf_counter() - start)
            start = time.perf_counter()
            got = model.logprob_batch(events)
            compiled_s = min(compiled_s, time.perf_counter() - start)
        bit_identical = all(
            g == w or (g != g and w != w) for g, w in zip(got, want)
        )
        rows[name] = {
            "events": n_events,
            "interpreted_s": round(interpreted_s, 4),
            "compiled_s": round(compiled_s, 4),
            "speedup": round(interpreted_s / compiled_s, 1),
            "compiled_qps": round(n_events / compiled_s),
            "bit_identical": bit_identical,
        }
        model.detach_compiled()
    return rows


def bench_cache_bound() -> dict:
    """Bounded QueryCache: distinct condition+logprob queries stay bounded.

    The churn runs twice on fresh models: once plain, once with a
    :class:`repro.engine.PosteriorChain` open on the model, and the
    entry count is checked after every query of both runs.
    """
    from repro.engine import PosteriorChain

    bound = 512
    n_queries = 2_000
    x0, z0 = Id(hmm.x(0)), Id(hmm.z(0))

    def churn(model, peak):
        for i in range(n_queries):
            posterior = model.condition(x0 < 0.5 + (i + 1) * 1e-4)
            posterior.logprob(z0 == 1)
            peak[0] = max(peak[0], model.cache.total_entries())

    model = SpplModel(hmm.model(1).spe, cache_size=bound)
    peak = [0]
    _, churn_s = _timed(lambda: churn(model, peak))
    chained = SpplModel(hmm.model(1).spe, cache_size=bound)
    chained_peak = [0]
    with PosteriorChain(chained, [x0 < 0.25]):
        _, chained_s = _timed(lambda: churn(chained, chained_peak))
    return {
        "bound": bound,
        "distinct_queries": n_queries,
        "total_s": round(churn_s, 4),
        "entries_at_end": model.cache.total_entries(),
        "peak_entries": peak[0],
        "evictions": model.cache.stats()["evictions"],
        "with_chain_total_s": round(chained_s, 4),
        "with_chain_peak_entries": chained_peak[0],
        "bound_respected": max(peak[0], chained_peak[0]) <= bound,
    }


def bench_repeated_queries() -> dict:
    """Repeated logprob queries: persistent-cache payoff."""
    out = {}
    for name, builder, symbol in [
        ("heart_disease", table1_models.heart_disease, "heart_disease"),
        ("clinical_trial", table1_models.clinical_trial_table1, "is_effective"),
    ]:
        model = SpplModel(compile_command(builder()))
        query = Id(symbol) == 1
        _, cold_s = _timed(lambda: model.logprob(query))
        _, warm_s = _timed(lambda: [model.logprob(query) for _ in range(100)])
        out[name] = {
            "first_query_s": round(cold_s, 6),
            "next_100_queries_s": round(warm_s, 6),
        }
    return out


def bench_posterior_chain() -> dict:
    """HMM constrain -> per-step marginals (the multi-stage workflow)."""
    n_step = 10
    data = hmm.simulate_data(n_step, seed=0)
    model = hmm.model(n_step)

    def chain():
        posterior = model.constrain(
            hmm.observation_assignment(data["x"], data["y"])
        )
        return [posterior.prob(Id(hmm.z(t)) == 1) for t in range(n_step)]

    _, first_s = _timed(chain)
    _, repeat_s = _timed(chain)
    return {
        "n_step": n_step,
        "first_chain_s": round(first_s, 4),
        "repeated_chain_s": round(repeat_s, 4),
    }


def bench_serve_throughput() -> dict:
    """``repro.serve`` micro-batching: concurrent coalesced vs sequential.

    Starts an in-process inference service (asyncio front-end, idle
    dispatch, 256-request batch bound) on ``hmm20`` and replays the same
    256 distinct single-event ``logprob`` requests two ways over the real
    HTTP wire path:

    * **concurrent** -- all 256 in flight at once over 32 pipelined
      connections (best of 3 passes),
    * **sequential** -- one at a time through the default path.

    One untimed concurrent pass first computes every answer (coalesced
    into a few ``logprob_batch`` calls; ``mean_batch_size`` reports it).
    Every timed request repeats a warmed query, so the scheduler's
    result cache answers it at submit: the sequential pass is cache
    hits, not batches of one, and both passes time the wire and the
    front end, not inference.
    ``speedup`` is sequential/concurrent; ``coalesced_qps`` is the
    concurrent throughput.
    """
    import asyncio

    from repro.serve import AsyncServeClient
    from repro.serve import InferenceService
    from repro.serve import ModelRegistry

    n_requests = 256

    async def run():
        registry = ModelRegistry()
        registry.register_catalog("hmm20")
        service = InferenceService(registry, workers=0, max_batch=n_requests)
        host, port = await service.start()
        client = AsyncServeClient(host, port)
        requests = [
            {
                "id": i,
                "model": "hmm20",
                "kind": "logprob",
                "event": "X[%d] < %r" % (i % 20, 0.05 + (i * 0.0037) % 1.0),
            }
            for i in range(n_requests)
        ]
        warm = await client.query_many(requests, connections=32)
        assert all(response["ok"] for response in warm)

        async def timed(coroutine):
            start = time.perf_counter()
            await coroutine
            return time.perf_counter() - start

        concurrent_s = min(
            [await timed(client.query_many(requests, connections=32)) for _ in range(3)]
        )
        sequential_s = await timed(client.query_seq(requests))
        stats = await client.stats()
        await service.close()
        return {
            "requests": n_requests,
            "workers": 0,
            "concurrent_s": round(concurrent_s, 4),
            "sequential_s": round(sequential_s, 4),
            "speedup": round(sequential_s / concurrent_s, 1),
            "coalesced_qps": round(n_requests / concurrent_s),
            "mean_batch_size": stats["scheduler"]["mean_batch_size"],
        }

    return asyncio.run(run())


def bench_serve_overload() -> dict:
    """Backpressure under 4x overload: shed rate and p99 tail latency.

    Starts an in-process service with a deliberately small per-key queue
    bound and fires four times that many concurrent single-key requests.
    The service must answer every request — a mix of correct results and
    429-style sheds carrying ``retry_after_ms`` — without queues growing
    past the bound.  Records the shed rate, the served/shed split, and
    the server-side p99 latency of the admitted requests (from the
    log-bucketed histograms on ``/v1/stats``).
    """
    import asyncio

    from repro.serve import AsyncServeClient
    from repro.serve import InferenceService
    from repro.serve import ModelRegistry

    bound = 64

    async def run():
        registry = ModelRegistry()
        registry.register_catalog("indian_gpa")
        service = InferenceService(
            registry, workers=0, max_batch=16,
            max_queued_per_key=bound,
        )
        host, port = await service.start()
        client = AsyncServeClient(host, port)
        requests = [
            {"id": i, "model": "indian_gpa", "kind": "logprob",
             "event": "GPA > %r" % (0.001 * i)}
            for i in range(4 * bound)
        ]
        start = time.perf_counter()
        responses = await client.query_many(requests, connections=32)
        elapsed = time.perf_counter() - start
        stats = await client.stats()
        await service.close()
        served = sum(1 for r in responses if r["ok"])
        shed = sum(1 for r in responses if r.get("error_kind") == "Overloaded")
        latency = stats["scheduler"]["latency"].get("logprob", {})
        return {
            "requests": len(requests),
            "queue_bound": bound,
            "served": served,
            "shed": shed,
            "errors": len(responses) - served - shed,
            "shed_rate": round(shed / len(requests), 3),
            "total_s": round(elapsed, 4),
            "p50_ms": latency.get("p50_ms", 0.0),
            "p99_ms": latency.get("p99_ms", 0.0),
        }

    return asyncio.run(run())


def bench_serve_chaos() -> dict:
    """Fault tolerance: recovery after a worker shard is SIGKILLed.

    Starts a 2-worker sharded service, times one warm pass of 64 spread
    requests as the healthy baseline, then SIGKILLs one worker process
    and times the same pass again: the pool must detect the dead socket,
    respawn the shard (a fresh interpreter re-running the digest-ack
    handshake for every model), requeue the batches that were in flight,
    and answer everything correctly.  ``respawn_overhead_s`` -- the
    difference between the two passes -- is dominated by the replacement
    worker's interpreter start + model deserialization, i.e. the real
    recovery cost a production pod restart would pay.
    """
    import asyncio
    import os
    import signal

    from repro.serve import AsyncServeClient
    from repro.serve import InferenceService
    from repro.serve import ModelRegistry

    n_requests = 64

    async def run():
        registry = ModelRegistry()
        registry.register_catalog("indian_gpa")
        service = InferenceService(registry, workers=2, max_batch=32)
        host, port = await service.start()
        client = AsyncServeClient(host, port)
        requests = [
            {"id": i, "model": "indian_gpa", "kind": "logprob",
             "event": "GPA > %r" % (0.01 * i)}
            for i in range(n_requests)
        ]
        warm = await client.query_many(requests, connections=8)
        assert all(response["ok"] for response in warm)

        start = time.perf_counter()
        await client.query_many(requests, connections=8)
        healthy_s = time.perf_counter() - start

        os.kill(service.backend.fault_points()[0][2], signal.SIGKILL)
        start = time.perf_counter()
        responses = await client.query_many(requests, connections=8)
        killed_s = time.perf_counter() - start
        stats = await client.stats()
        await service.close()
        assert all(response["ok"] for response in responses)
        return {
            "workers": 2,
            "requests": n_requests,
            "healthy_pass_s": round(healthy_s, 4),
            "killed_pass_s": round(killed_s, 4),
            "respawn_overhead_s": round(killed_s - healthy_s, 4),
            "respawns": stats["backend"]["respawns"],
            "requeued_batches": stats["backend"]["requeued_batches"],
        }

    return asyncio.run(run())


def bench_session_stream() -> dict:
    """Streaming posterior sessions: observe latency and warm-chain reads.

    Drives the HMM sensor-fusion scenario through the session endpoints
    of an in-process service: one ``observe`` per evidence increment
    (each an exact ``condition`` on the interned posterior, timed
    per step), then the hidden-state queries three ways:

    * **warm** -- repeated reads against the session's cache-warm chain
      (every prefix posterior interned on the serving shard),
    * **scratch** -- the same reads after ``POST /v1/clear_cache``, so
      the full chain replays from the root model (the cost a stateless
      one-shot client — or a failed-over shard — pays once),

    and records the ``bit_identical`` differential of the wire session
    against the in-process :class:`repro.engine.PosteriorChain`, which
    the regression gate fails outright when false.
    """
    import asyncio

    from repro.engine import PosteriorChain
    from repro.serve import AsyncServeClient
    from repro.serve import InferenceService
    from repro.serve import ModelRegistry
    from repro.workloads import scenarios

    script = scenarios.hmm_sensor_fusion(5, seed=0)
    warm_passes = 3

    async def run():
        registry = ModelRegistry()
        registry.register_catalog("hmm5")
        service = InferenceService(registry, workers=0)
        host, port = await service.start()
        client = AsyncServeClient(host, port, tenant="bench")
        await client.create_session("stream", "hmm5")
        observe_s = []
        for event in script["observes"]:
            start = time.perf_counter()
            response = await client.observe("stream", event)
            observe_s.append(time.perf_counter() - start)
            assert response["ok"], response
        # One untimed pass warms the chain's query caches, and its values
        # are the wire side of the bit-identity differential.
        wire_values = [
            await client.session_logprob("stream", query)
            for query in script["queries"]
        ]
        start = time.perf_counter()
        for _ in range(warm_passes):
            for query in script["queries"]:
                await client.session_logprob("stream", query)
        warm_s = time.perf_counter() - start
        await client.clear_cache()
        start = time.perf_counter()
        for query in script["queries"]:
            await client.session_logprob("stream", query)
        scratch_s = time.perf_counter() - start
        await service.close()
        return observe_s, warm_s, scratch_s, wire_values

    observe_s, warm_s, scratch_s, wire_values = asyncio.run(run())
    with PosteriorChain(hmm.model(5), script["observes"]) as chain:
        library_values = [
            chain.current.logprob(query) for query in script["queries"]
        ]
    n_queries = len(script["queries"])
    warm_per_query = warm_s / (warm_passes * n_queries)
    scratch_per_query = scratch_s / n_queries
    return {
        "scenario": script["name"],
        "observes": len(observe_s),
        "queries": n_queries,
        "observe_total_s": round(sum(observe_s), 4),
        "mean_observe_ms": round(1e3 * sum(observe_s) / len(observe_s), 3),
        "max_observe_ms": round(1e3 * max(observe_s), 3),
        "warm_query_s": round(warm_s, 4),
        "warm_qps": round(warm_passes * n_queries / warm_s),
        "scratch_rebuild_s": round(scratch_s, 4),
        "rebuild_speedup": round(scratch_per_query / warm_per_query, 1),
        "bit_identical": wire_values == library_values,
    }


def bench_node_transport() -> dict:
    """Shard-channel overhead: a local shard vs a localhost-TCP node shard.

    Starts the same single-shard worker pool twice -- once with a local
    shard (:class:`~repro.serve.transport.LocalTransport`, a spawned
    process on a socketpair) and once with
    :class:`~repro.serve.transport.TcpTransport` talking to a real
    ``python -m repro.serve.node`` subprocess on localhost -- and replays
    256 one-event batches through ``pool.run_batch`` on each, after one
    untimed warm pass.  Each batch carries a ``logprob`` probe's event
    text as an unconditioned ``observe``, which the shard acknowledges
    without running inference, so the timed pass measures the channel
    (framing, syscalls, supervision bookkeeping, the shard's batch
    handler), not symbolic inference.

    Both run the same framed-JSON loop, so ``tcp_over_local`` is the
    cost of TCP plus the node's per-connection thread over a socketpair;
    the regression gate budgets the **local** pass -- the shard channel
    must not tax the single-host path.
    """
    import asyncio
    import os
    import re
    import subprocess

    from repro.serve import ModelRegistry
    from repro.serve.sharding import WorkerPool
    from repro.serve.wire import model_spec

    n_calls = 256
    registry = ModelRegistry()
    specs = {"indian_gpa": model_spec(registry.register_catalog("indian_gpa"))}
    events = ["GPA > %r" % (0.05 + (i * 0.0037) % 3.8) for i in range(n_calls)]

    def measure(pool) -> tuple:
        async def run():
            try:
                for event in events:  # warm the channel
                    await pool.run_batch("indian_gpa", "observe", None, 0, [event])
                times = []
                start_all = time.perf_counter()
                for event in events:
                    start = time.perf_counter()
                    (row,) = await pool.run_batch(
                        "indian_gpa", "observe", None, 0, [event]
                    )
                    times.append(time.perf_counter() - start)
                    assert row == ("ok", True)
                return time.perf_counter() - start_all, times
            finally:
                await pool.close()

        return asyncio.run(run())

    def report(total_s, times) -> dict:
        return {
            "total_s": round(total_s, 4),
            "qps": round(n_calls / total_s),
            "p50_ms": round(float(np.percentile(times, 50)) * 1e3, 3),
            "p99_ms": round(float(np.percentile(times, 99)) * 1e3, 3),
        }

    local_pool = WorkerPool(1)
    local_pool.start(specs)
    local_total, local_times = measure(local_pool)

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    node = subprocess.Popen(
        [sys.executable, "-m", "repro.serve.node", "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        line = node.stdout.readline()
        port = int(re.search(r"listening on .*:(\d+)", line).group(1))
        tcp_pool = WorkerPool(0, nodes=["127.0.0.1:%d" % port])
        tcp_pool.start(specs)
        tcp_total, tcp_times = measure(tcp_pool)
    finally:
        node.terminate()
        node.wait(10)

    return {
        "calls": n_calls,
        "local": report(local_total, local_times),
        "tcp": report(tcp_total, tcp_times),
        "tcp_over_local": round(tcp_total / local_total, 2),
    }


def bench_obs_overhead() -> dict:
    """Observability cost: serve throughput with tracing off / sampled / full.

    Replays the ``bench_serve_throughput`` workload (hmm20, 256 distinct
    single-event ``logprob`` requests over 32 pipelined connections,
    caches warmed with an untimed pass) against three service
    configurations:

    * **off** -- ``trace_sample=0.0`` (the default): every response
      still mints and echoes a trace id, but no span tree is built.
      This is the hot path the regression gate budgets -- tracing must
      be near-free when off.
    * **sampled** -- ``trace_sample=0.1``: the production-style setting;
      one request in ten builds a full span tree and lands in the
      flight-recorder ring.
    * **full** -- ``trace_sample=1.0``: every request traced, the
      worst-case cost (span construction, worker span fragments on the
      wire, recorder ring churn).

    Each mode reports the best of five timed concurrent passes;
    ``overhead_sampled_pct`` / ``overhead_full_pct`` are relative to the
    off pass within the same run, so machine speed cancels out.
    """
    import asyncio

    from repro.serve import AsyncServeClient
    from repro.serve import InferenceService
    from repro.serve import ModelRegistry

    n_requests = 256

    async def measure(trace_sample: float) -> float:
        registry = ModelRegistry()
        registry.register_catalog("hmm20")
        service = InferenceService(
            registry, workers=0, max_batch=n_requests,
            trace_sample=trace_sample,
        )
        host, port = await service.start()
        client = AsyncServeClient(host, port)
        requests = [
            {
                "id": i,
                "model": "hmm20",
                "kind": "logprob",
                "event": "X[%d] < %r" % (i % 20, 0.05 + (i * 0.0037) % 1.0),
            }
            for i in range(n_requests)
        ]
        warm = await client.query_many(requests, connections=32)
        assert all(response["ok"] for response in warm)
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            await client.query_many(requests, connections=32)
            best = min(best, time.perf_counter() - start)
        await service.close()
        return best

    async def run():
        off_s = await measure(0.0)
        sampled_s = await measure(0.1)
        full_s = await measure(1.0)
        return {
            "requests": n_requests,
            "workers": 0,
            "off_s": round(off_s, 4),
            "sampled_s": round(sampled_s, 4),
            "full_s": round(full_s, 4),
            "sample_rate": 0.1,
            "overhead_sampled_pct": round((sampled_s / off_s - 1.0) * 100, 1),
            "overhead_full_pct": round((full_s / off_s - 1.0) * 100, 1),
            "off_qps": round(n_requests / off_s),
        }

    return asyncio.run(run())


#: Fail the gate when a model's translate_s grows by more than this factor
#: relative to the fleet-median ratio ...
GATE_SLOWDOWN_FACTOR = 1.25
#: ... unless the absolute growth beyond the scaled baseline is under this
#: grace (timer jitter on the sub-10ms translations; translate_s is
#: best-of-3, so the grace can stay small without false positives).
GATE_ABSOLUTE_GRACE_S = 0.01
#: Catastrophic-uniform-regression backstop: median normalization is blind
#: to a slowdown hitting every model equally, so a fleet-median ratio
#: beyond this factor fails outright.  Kept generous because it also fires
#: on a genuinely slower CI runner -- the per-model check above is the
#: precise gate, this one only catches "everything got several times
#: slower".
GATE_FLEET_SLOWDOWN_FACTOR = 3.0
#: Tracing-off budget: the observability layer may cost at most this
#: much on the serve hot path when no trace is sampled, measured as the
#: ``obs_overhead`` off-pass against the committed baseline (scaled by
#: the fleet-median translate ratio so runner speed cancels out, with
#: the usual absolute grace absorbing timer jitter on the ~30ms pass).
GATE_OBS_OFF_OVERHEAD_FACTOR = 1.05


def check_gate(snapshot: dict, baseline: dict) -> list:
    """Compare a fresh snapshot against a committed baseline.

    Returns a list of human-readable failure strings; empty means the gate
    passes.  Gated quantities:

    * per-model ``translate_s`` -- ratios to the baseline are first
      normalized by the **median ratio across all models**, so a uniformly
      faster/slower machine (CI runners vs the machine that produced the
      committed baseline) cancels out; a model >25% slower than the fleet
      median (beyond a small absolute grace) fails.
    * per-model ``compression_ratio`` -- node counts are deterministic, so
      **any** regression fails.
    * per-model ``compiled_logprob_batch`` -- ``bit_identical: false``
      (the compiled kernel diverging from the interpreter) fails outright,
      baseline or not; ``compiled_s`` regressions gate like ``translate_s``
      (>25% beyond the fleet-median ratio, with the same absolute grace).
    * ``cache_bound`` -- ``bound_respected: false`` (the query cache
      held more entries than its bound at some point of the churn, with
      or without a posterior chain open) fails outright.
    * ``obs_overhead`` tracing-off pass -- the serve hot path with
      tracing disabled may regress at most 5% against the baseline
      (fleet-median normalized, same absolute grace): observability
      must stay near-free when off.
    * ``node_transport`` local pass -- the local-shard path may regress
      at most 25% against the baseline (fleet-median normalized, same
      absolute grace): the shard channel and multi-node supervision must
      not tax the single-host configuration.
    """
    failures = []
    for name, row in sorted(snapshot.get("compiled_logprob_batch", {}).items()):
        if not row.get("bit_identical", True):
            failures.append(
                "compiled-vs-interpreted differential mismatch on %r: "
                "CompiledSPE.logprob_batch is not bit-identical" % (name,)
            )
    cache_bound = snapshot.get("cache_bound", {})
    if not cache_bound.get("bound_respected", True):
        failures.append(
            "query-cache bound %r exceeded during the cache_bound churn "
            "(peak %r entries plain, %r with a posterior chain open)"
            % (
                cache_bound.get("bound"),
                cache_bound.get("peak_entries"),
                cache_bound.get("with_chain_peak_entries"),
            )
        )
    session = snapshot.get("session_stream", {})
    if session and not session.get("bit_identical", True):
        failures.append(
            "session-vs-library differential mismatch: the streaming "
            "session posterior is not bit-identical to the in-process "
            "condition chain"
        )
    old_compiled = baseline.get("compiled_logprob_batch", {})
    new_compiled = snapshot.get("compiled_logprob_batch", {})
    compiled_ratios = {}
    for name, old in sorted(old_compiled.items()):
        new = new_compiled.get(name)
        if new is None:
            failures.append(
                "compiled_logprob_batch benchmark %r missing from snapshot" % name
            )
            continue
        if old["compiled_s"] > 0:
            compiled_ratios[name] = new["compiled_s"] / old["compiled_s"]
    if compiled_ratios:
        scale = float(np.median(list(compiled_ratios.values())))
        for name, ratio in sorted(compiled_ratios.items()):
            old_t = old_compiled[name]["compiled_s"]
            new_t = new_compiled[name]["compiled_s"]
            if (
                ratio > scale * GATE_SLOWDOWN_FACTOR
                and new_t - old_t * scale > GATE_ABSOLUTE_GRACE_S
            ):
                failures.append(
                    "compiled logprob_batch regression on %r: %.4fs -> %.4fs "
                    "(>%d%% slower than the fleet-median ratio %.2fx)"
                    % (
                        name,
                        old_t,
                        new_t,
                        round((GATE_SLOWDOWN_FACTOR - 1) * 100),
                        scale,
                    )
                )
    old_rows = baseline.get("compression", {})
    new_rows = snapshot.get("compression", {})
    ratios = {}
    for name, old in sorted(old_rows.items()):
        new = new_rows.get(name)
        if new is None:
            failures.append("compression benchmark %r missing from snapshot" % name)
            continue
        if old["translate_s"] > 0:
            ratios[name] = new["translate_s"] / old["translate_s"]
        old_r, new_r = old["compression_ratio"], new["compression_ratio"]
        if new_r < old_r - 1e-9:
            failures.append(
                "compression-ratio regression on %r: %.2f -> %.2f"
                % (name, old_r, new_r)
            )
    if ratios:
        scale = float(np.median(list(ratios.values())))
        if scale > GATE_FLEET_SLOWDOWN_FACTOR:
            failures.append(
                "fleet-wide translate_s regression: median ratio %.2fx > %.1fx"
                % (scale, GATE_FLEET_SLOWDOWN_FACTOR)
            )
        for name, ratio in sorted(ratios.items()):
            old_t = old_rows[name]["translate_s"]
            new_t = new_rows[name]["translate_s"]
            expected_t = old_t * scale
            if ratio > scale * GATE_SLOWDOWN_FACTOR and new_t - expected_t > GATE_ABSOLUTE_GRACE_S:
                failures.append(
                    "translate_s regression on %r: %.4fs -> %.4fs "
                    "(>%d%% slower than the fleet-median ratio %.2fx)"
                    % (
                        name,
                        old_t,
                        new_t,
                        round((GATE_SLOWDOWN_FACTOR - 1) * 100),
                        scale,
                    )
                )
    old_obs = baseline.get("obs_overhead", {})
    new_obs = snapshot.get("obs_overhead", {})
    if old_obs.get("off_s", 0) > 0 and new_obs:
        machine_scale = float(np.median(list(ratios.values()))) if ratios else 1.0
        expected_off = old_obs["off_s"] * machine_scale
        new_off = new_obs["off_s"]
        if (
            new_off > expected_off * GATE_OBS_OFF_OVERHEAD_FACTOR
            and new_off - expected_off > GATE_ABSOLUTE_GRACE_S
        ):
            failures.append(
                "tracing-off overhead regression: obs_overhead off pass "
                "%.4fs -> %.4fs (>%d%% over the fleet-scaled baseline "
                "%.4fs; observability must stay near-free when off)"
                % (
                    old_obs["off_s"],
                    new_off,
                    round((GATE_OBS_OFF_OVERHEAD_FACTOR - 1) * 100),
                    expected_off,
                )
            )
    old_node = baseline.get("node_transport", {}).get("local", {})
    new_node = snapshot.get("node_transport", {}).get("local", {})
    if old_node.get("total_s", 0) > 0 and new_node:
        machine_scale = float(np.median(list(ratios.values()))) if ratios else 1.0
        expected_local = old_node["total_s"] * machine_scale
        new_local = new_node["total_s"]
        if (
            new_local > expected_local * GATE_SLOWDOWN_FACTOR
            and new_local - expected_local > GATE_ABSOLUTE_GRACE_S
        ):
            failures.append(
                "local-shard regression: node_transport local pass "
                "%.4fs -> %.4fs (>%d%% over the fleet-scaled baseline "
                "%.4fs; the shard channel must stay free on the local "
                "path)"
                % (
                    old_node["total_s"],
                    new_local,
                    round((GATE_SLOWDOWN_FACTOR - 1) * 100),
                    expected_local,
                )
            )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        default="BENCH_latest.json",
        help="snapshot path (default: BENCH_latest.json in the repo root)",
    )
    parser.add_argument(
        "--gate",
        default=None,
        metavar="BASELINE",
        help="compare against a committed BENCH_*.json and exit non-zero on "
        "a >25%% translate_s, compiled-logprob_batch, or local-shard "
        "slowdown, any compression-ratio regression, a query-cache bound "
        "exceeded, any bit-identity "
        "differential mismatch (compiled vs interpreted, wire session vs "
        "library chain), or a >5%% "
        "tracing-off overhead regression",
    )
    args = parser.parse_args()

    snapshot = {
        "schema": "repro-bench/2",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "compression": bench_compression(),
        "sampling": bench_sampling(),
        "transform_sampling": bench_transform_sampling(),
        "compiled_logprob_batch": bench_compiled_logprob_batch(),
        "cache_bound": bench_cache_bound(),
        "repeated_queries": bench_repeated_queries(),
        "posterior_chain": bench_posterior_chain(),
        "serve_throughput": bench_serve_throughput(),
        "serve_overload": bench_serve_overload(),
        "serve_chaos": bench_serve_chaos(),
        "session_stream": bench_session_stream(),
        "node_transport": bench_node_transport(),
        "obs_overhead": bench_obs_overhead(),
        "intern_table": intern_stats(),
    }

    output = Path(args.output)
    if not output.is_absolute():
        output = REPO_ROOT / output
    output.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(json.dumps(snapshot, indent=2))
    print("\nwrote %s" % (output,))

    if args.gate:
        baseline_path = Path(args.gate)
        if not baseline_path.is_absolute():
            baseline_path = REPO_ROOT / baseline_path
        baseline = json.loads(baseline_path.read_text())
        failures = check_gate(snapshot, baseline)
        if failures:
            print("\nREGRESSION GATE FAILED (baseline %s):" % (baseline_path,))
            for failure in failures:
                print("  - %s" % (failure,))
            return 1
        print("\nregression gate passed (baseline %s)" % (baseline_path,))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
