"""Command-line entry point: ``python -m repro.serve --model hmm20 --workers 4``.

Starts the inference service on ``--host``/``--port`` (port 0 = pick a
free port, printed on startup) serving every ``--model`` (workloads
catalog name) and ``--spe`` (``[name=]path`` to a serialized SPE file).
``--workers N`` shards evaluation across N worker processes; ``0``
evaluates in-process; ``auto`` (the default) resolves from
``os.cpu_count()`` so multi-core hosts shard by default instead of
serving GIL-bound.  ``--registry-journal PATH`` makes the dynamic model
lifecycle durable: live ``/v1/models/register``/``unregister`` calls are
appended to an on-disk journal that is replayed (digest-verified) on the
next startup, so dynamically registered models survive restarts.  Shuts
down gracefully on SIGINT/SIGTERM: in-flight micro-batches are drained
and their responses flushed before the worker pool stops.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import os
import signal
import sys

from .http import InferenceService
from .registry import ModelRegistry
from .registry import RegistryJournal

#: ``--workers auto`` never spawns more than this many shards: past a
#: handful of workers the shard fan-out and per-shard cache duplication
#: cost more than the extra cores buy for typical catalogs.
AUTO_WORKERS_CAP = 8


def resolve_workers(spec) -> int:
    """Resolve a ``--workers`` value (int or ``"auto"``) to a shard count.

    ``auto`` maps to ``os.cpu_count()`` capped at
    :data:`AUTO_WORKERS_CAP`; a single-core host resolves to ``0``
    (in-process) because one worker process only adds serialization
    overhead over the in-process backend.
    """
    if spec == "auto":
        cores = os.cpu_count() or 1
        return 0 if cores <= 1 else min(cores, AUTO_WORKERS_CAP)
    try:
        workers = int(spec)
    except (TypeError, ValueError):
        raise SystemExit("--workers must be an integer or 'auto', got %r." % (spec,))
    if workers < 0:
        raise SystemExit("--workers must be non-negative.")
    return workers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve", description=__doc__
    )
    parser.add_argument(
        "--model",
        action="append",
        default=[],
        metavar="NAME",
        help="workloads-catalog model to serve (hmm<N>, indian_gpa, hiring, "
        "alarm, grass, noisy_or, clinical_trial, heart_disease); repeatable",
    )
    parser.add_argument(
        "--spe",
        action="append",
        default=[],
        metavar="[NAME=]PATH",
        help="serialized SPE file (SpplModel.save) to serve; repeatable",
    )
    parser.add_argument(
        "--workers",
        default="auto",
        help="worker processes: an integer (0 = in-process) or 'auto' "
        "(default; cpu_count-based sharding, in-process on single-core hosts)",
    )
    parser.add_argument(
        "--nodes",
        default=None,
        metavar="HOST:PORT,...",
        help="comma-separated repro.serve.node addresses to join into the "
        "consistent-hash ring as remote shards (each node entry hosts one "
        "shard over TCP, digest-handshaked like a local worker)",
    )
    parser.add_argument(
        "--probe-interval-ms",
        type=float,
        default=1000.0,
        metavar="MS",
        help="liveness-probe period: idle shards are pinged every MS "
        "milliseconds and dead ones respawned/reconnected before traffic "
        "hits them (default 1000; 0 disables proactive probing)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8144, help="0 picks a free port")
    parser.add_argument("--max-batch", type=int, default=256, help="max requests per batch")
    parser.add_argument(
        "--cache-size", type=int, default=None, help="per-model query-cache entry budget"
    )
    parser.add_argument(
        "--max-queued-per-key",
        type=int,
        default=None,
        metavar="N",
        help="shed (429) past N queued requests per batch key "
        "(default: the scheduler's bound; 0 disables shedding)",
    )
    parser.add_argument(
        "--max-inflight-per-conn",
        type=int,
        default=None,
        metavar="N",
        help="shed (HTTP 429) past N in-flight pipelined queries per connection",
    )
    parser.add_argument(
        "--max-queued-per-tenant",
        type=int,
        default=None,
        metavar="N",
        help="fair-share admission: shed (429) a tenant's requests past N "
        "queued across all its batch keys, leaving other tenants "
        "unaffected (default: no per-tenant bound)",
    )
    parser.add_argument(
        "--max-sessions",
        type=int,
        default=None,
        metavar="N",
        help="simultaneously open posterior sessions across all tenants; "
        "past N the least-recently-used session is evicted (default 1024)",
    )
    parser.add_argument(
        "--session-ttl-s",
        type=float,
        default=None,
        metavar="S",
        help="expire sessions idle for more than S seconds (default: no TTL)",
    )
    parser.add_argument(
        "--max-sessions-per-tenant",
        type=int,
        default=None,
        metavar="N",
        help="refuse (429) session creates past N open sessions per tenant "
        "(default: no per-tenant session quota)",
    )
    parser.add_argument(
        "--blob-dir",
        default=None,
        metavar="DIR",
        help="directory of content-addressed compiled model blobs "
        "(<digest>.spz); every model is compiled once into DIR and all "
        "worker shards mmap the same read-only file instead of "
        "deserializing their own copies",
    )
    parser.add_argument(
        "--registry-journal",
        default=None,
        metavar="PATH",
        help="append-only journal of live register/unregister events, "
        "replayed (digest-verified) on startup so dynamically registered "
        "models survive restarts",
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=0.0,
        metavar="P",
        help="probability in [0, 1] that a request gets a full span tree "
        "(default 0; requests can always opt in per-request with "
        "\"trace\": true, and every response line echoes a trace id)",
    )
    parser.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        metavar="MS",
        help="log a structured JSON line for every request slower than MS "
        "milliseconds (implies --trace-sample 1.0 unless one was given, "
        "so outliers carry their span trees)",
    )
    parser.add_argument(
        "--slow-query-log",
        default=None,
        metavar="PATH",
        help="append slow-query lines to PATH instead of stderr",
    )
    parser.add_argument(
        "--trace-capacity",
        type=int,
        default=256,
        metavar="N",
        help="completed traces retained for GET /v1/trace/<id> (default 256)",
    )
    return parser


def build_registry(args: argparse.Namespace) -> ModelRegistry:
    registry = ModelRegistry(
        default_cache_size=args.cache_size, blob_dir=args.blob_dir
    )
    for spec in args.model:
        registry.register_catalog(spec)
    for entry in args.spe:
        name, separator, path = entry.partition("=")
        if separator:
            registry.register_file(path, name=name)
        else:
            registry.register_file(entry)
    if not len(registry) and not args.registry_journal:
        raise SystemExit("No models: pass at least one --model or --spe.")
    return registry


async def run(args: argparse.Namespace) -> int:
    registry = build_registry(args)
    journal = None
    if args.registry_journal:
        # Replay before the workers start, so restored models are in the
        # specs every shard digest-verifies on startup.
        journal = RegistryJournal(args.registry_journal)
        journal.replay()
        restored = journal.restore(registry)
        if restored:
            print(
                "repro.serve restored %d journaled model(s): %s"
                % (len(restored), ", ".join(restored)),
                flush=True,
            )
        if not len(registry):
            raise SystemExit(
                "No models: pass --model/--spe, or a --registry-journal "
                "holding registered models."
            )
    workers = resolve_workers(args.workers)
    nodes = [
        address.strip()
        for address in (args.nodes or "").split(",")
        if address.strip()
    ]
    if args.probe_interval_ms < 0:
        raise SystemExit("--probe-interval-ms must be non-negative.")
    service_kwargs = {}
    if args.max_queued_per_key is not None:
        if args.max_queued_per_key < 0:
            raise SystemExit("--max-queued-per-key must be >= 0 (0 disables).")
        service_kwargs["max_queued_per_key"] = args.max_queued_per_key or None
    if args.max_inflight_per_conn is not None:
        if args.max_inflight_per_conn < 1:
            raise SystemExit("--max-inflight-per-conn must be >= 1.")
        service_kwargs["max_inflight_per_connection"] = args.max_inflight_per_conn
    if args.max_queued_per_tenant is not None:
        if args.max_queued_per_tenant < 1:
            raise SystemExit("--max-queued-per-tenant must be >= 1.")
        service_kwargs["max_queued_per_tenant"] = args.max_queued_per_tenant
    if args.max_sessions is not None:
        if args.max_sessions < 1:
            raise SystemExit("--max-sessions must be >= 1.")
        service_kwargs["max_sessions"] = args.max_sessions
    if args.session_ttl_s is not None:
        if args.session_ttl_s <= 0:
            raise SystemExit("--session-ttl-s must be positive.")
        service_kwargs["session_ttl_s"] = args.session_ttl_s
    if args.max_sessions_per_tenant is not None:
        if args.max_sessions_per_tenant < 1:
            raise SystemExit("--max-sessions-per-tenant must be >= 1.")
        service_kwargs["max_sessions_per_tenant"] = args.max_sessions_per_tenant
    if not 0.0 <= args.trace_sample <= 1.0:
        raise SystemExit("--trace-sample must be in [0, 1].")
    if args.slow_query_ms is not None and args.slow_query_ms < 0:
        raise SystemExit("--slow-query-ms must be non-negative.")
    if args.trace_capacity < 1:
        raise SystemExit("--trace-capacity must be >= 1.")
    service = InferenceService(
        registry,
        workers=workers,
        max_batch=args.max_batch,
        host=args.host,
        port=args.port,
        journal=journal,
        trace_sample=args.trace_sample,
        slow_query_ms=args.slow_query_ms,
        slow_query_log=args.slow_query_log,
        trace_capacity=args.trace_capacity,
        nodes=nodes,
        probe_interval_ms=args.probe_interval_ms,
        **service_kwargs,
    )
    host, port = await service.start()
    print(
        "repro.serve listening on %s:%d (models: %s; workers: %d%s)"
        % (host, port, ", ".join(registry.names()), workers,
           "; nodes: %s" % ",".join(nodes) if nodes else ""),
        flush=True,
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(signum, stop.set)
    try:
        await stop.wait()
    finally:
        print("repro.serve shutting down", flush=True)
        await service.close()
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return asyncio.run(run(args))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
