"""The serve workloads: ``serve_hot`` and ``serve_fresh`` against the CLI server.

One run has three rounds, each on its own launch of
``python -m repro.serve`` (set-up time is the median of the three
launches).  Every round takes the same untimed warm pass and then
measures three phases over two pipelined keep-alive connections:

* ``base``   -- open loop at the workload's fixed base rate,
* ``high``   -- open loop at a fixed rate near the seed's capacity,
* ``closed`` -- closed loop at a fixed pipelined depth (goodput).

Every answer is then checked against the in-process library.  With
``--trace 1`` the servers of rounds 1 and 2 log every request's span
tree (round 0 stays untraced; the closed-loop goodput of the two gives
the tracing overhead) and the run adds the set-up breakdown, a shard
respawn and the wire codec timings.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import signal
import statistics
import subprocess
import sys
from typing import Dict
from typing import List

import check
import gen
import stats
from loadgen import Pipe
from loadgen import clock
from loadgen import closed_loop
from loadgen import open_loop
from loadgen import query_unit
from loadgen import session_unit
from server import Server
from server import src_env

#: Fixed per-workload load shape.  Rates are requests (units) per second
#: on the open-loop schedule; ``depth`` is the closed loop's in-flight
#: count; ``limit_ms`` the latency limit goodput counts against.
PROFILES = {
    "serve_hot": {"base_rate": 140.0, "high_rate": 340.0, "depth": 16,
                  "limit_ms": 100.0, "warm": 500},
    "serve_fresh": {"base_rate": 30.0, "high_rate": 60.0, "depth": 8,
                    "limit_ms": 1000.0, "warm": 46},
}

#: Rounds per run: each on its own server, each measuring every phase.
ROUNDS = 3

#: Share of a round's ``--seconds / ROUNDS`` each phase measures.
PHASES = (("base", 0.5), ("high", 0.2), ("closed", 0.3))

#: A phase whose generator ran later than this (p99 of send minus due)
#: is flagged: its arrivals were not on schedule.
LATENESS_BOUND_MS = 20.0

#: Items held ready for the closed loop, as a multiple of what the high
#: rate would send in the same time; a closed loop that used them all
#: would under-report goodput, so running out is an error.
CLOSED_POOL = 20


def probes() -> List[Dict]:
    """One readiness query per served model."""
    return [{"model": model, "kind": "logprob", "event": gen.literals(model, 2)[-1]}
            for model in gen.SERVE_MODELS]


def build_inputs(workload: str, seed: int, seconds: float) -> Dict:
    """The warm items and, per round and phase, the items it may send
    (``{"query": ...}`` or ``{"session": ...}``)."""
    profile = PROFILES[workload]
    window = seconds / ROUNDS
    sizes = {
        "base": int(profile["base_rate"] * window * PHASES[0][1]),
        "high": int(profile["high_rate"] * window * PHASES[1][1]),
        "closed": int(CLOSED_POOL * profile["high_rate"] * window * PHASES[2][1]),
    }
    measured = ROUNDS * sum(sizes.values())
    if workload == "serve_hot":
        # Warm: the most popular keys once each, in popularity order (each
        # lands on one shard's cache); the phases then draw from the Zipf
        # law, so the tail and the other shard's copy start cold.
        keys = gen.hot_key_space()
        rng = random.Random("hot|%d" % (seed,))
        warm = [{"query": keys[i]} for i in gen.hot_ranks(len(keys))[:profile["warm"]]]
        items = [{"query": keys[i]} for i in gen.zipf_stream(len(keys), measured, rng)]
    else:
        # Warm: a few plain queries (sessions are measured work only).
        items = gen.fresh_stream(seed, measured + profile["warm"])
        positions = [i for i, item in enumerate(items) if "query" in item][:profile["warm"]]
        warm = [items[i] for i in positions]
        chosen = set(positions)
        items = [item for i, item in enumerate(items) if i not in chosen]
    rounds, cursor = [], 0
    for _ in range(ROUNDS):
        phase_items = {}
        for name, _share in PHASES:
            phase_items[name] = items[cursor:cursor + sizes[name]]
            cursor += sizes[name]
        rounds.append(phase_items)
    return {"warm": warm, "rounds": rounds}


def unit_for(item: Dict):
    if "query" in item:
        return query_unit(item["query"])
    return session_unit(item["session"])


# ---------------------------------------------------------------------------
# /v1/stats deltas.
# ---------------------------------------------------------------------------

COUNTERS = ("requests", "batches", "shed", "connection_sheds", "respawns",
            "result_hits", "result_misses", "query_hits", "query_misses",
            "plan_applied", "plan_fallbacks")


def counters(snapshot: Dict) -> Dict[str, float]:
    """The cumulative :data:`COUNTERS` a phase delta is taken over."""
    scheduler = snapshot["scheduler"]
    out = dict.fromkeys(COUNTERS, 0)
    out.update(
        requests=scheduler["requests"],
        batches=scheduler["batches"],
        shed=scheduler["shed"],
        connection_sheds=snapshot["http"]["connection_sheds"],
        respawns=snapshot["backend"].get("respawns", 0),
    )
    for shard in snapshot["backend"].get("shards", []):
        for model in shard.values():
            results = model.get("results", {})
            out["result_hits"] += results.get("hits", 0)
            out["result_misses"] += results.get("misses", 0)
            out["query_hits"] += model.get("hits", 0)
            out["query_misses"] += model.get("misses", 0)
            for bucket in model.get("plan", {}).get("passes", {}).values():
                out["plan_applied"] += bucket.get("applied", 0)
                out["plan_fallbacks"] += bucket.get("fallback", 0)
    return out


def delta(before: Dict, after: Dict) -> Dict[str, float]:
    return with_ratios({key: after[key] - before[key] for key in COUNTERS})


def merged(deltas: List[Dict]) -> Dict[str, float]:
    """Counter deltas of several bursts summed, ratios recomputed."""
    return with_ratios({key: sum(d[key] for d in deltas) for key in COUNTERS})


def with_ratios(d: Dict[str, float]) -> Dict[str, float]:
    d["batch_size_mean"] = stats.ratio(d["requests"], d["batches"])
    d["result_cache_hit_ratio"] = stats.ratio(
        d["result_hits"], d["result_hits"] + d["result_misses"])
    d["query_cache_hit_ratio"] = stats.ratio(
        d["query_hits"], d["query_hits"] + d["query_misses"])
    d["plan_apply_ratio"] = stats.ratio(
        d["plan_applied"], d["plan_applied"] + d["plan_fallbacks"])
    return d


# ---------------------------------------------------------------------------
# One measured server.
# ---------------------------------------------------------------------------

async def _open_pipes(port: int, count: int = 2) -> List[Pipe]:
    return [await Pipe.open("127.0.0.1", port) for _ in range(count)]


async def _close_pipes(pipes: List[Pipe]) -> None:
    for pipe in pipes:
        await pipe.close()


async def warm_pass(server: Server, items: List[Dict], depth: int) -> None:
    pipes = await _open_pipes(server.port)
    try:
        await closed_loop(pipes, [unit_for(item) for item in items], depth, 600.0)
    finally:
        await _close_pipes(pipes)


def cpu_times():
    """Cumulative (steal, total) jiffies of all CPUs, from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = [int(x) for x in handle.readline().split()[1:]]
    return fields[7], sum(fields)


async def run_phase(server: Server, name: str, items: List[Dict], workload: str,
                    seconds: float) -> Dict:
    """One measured phase on a warm server."""
    profile = PROFILES[workload]
    units = [unit_for(item) for item in items]
    pipes = await _open_pipes(server.port)
    before = counters(await server.stats())
    steal0, total0 = cpu_times()
    cpu0 = server.cpu_seconds()
    # The generator's own garbage collector must not stall arrivals.
    gc.collect()
    gc.disable()
    try:
        start = clock()
        if name == "closed":
            samples = await closed_loop(pipes, units, profile["depth"], seconds)
            if len(samples) == len(units):
                raise RuntimeError("closed loop ran out of inputs; raise CLOSED_POOL")
        else:
            samples = await open_loop(pipes, units, profile[name + "_rate"], seconds)
        elapsed = clock() - start
    finally:
        gc.enable()
        await _close_pipes(pipes)
    cpu1 = server.cpu_seconds()
    steal1, total1 = cpu_times()
    after = counters(await server.stats())
    return {"name": name, "samples": samples, "elapsed": elapsed,
            "window": (start, start + seconds),
            "items": [items[sample.index] for sample in samples],
            "stats": delta(before, after),
            "cpu_s": cpu1 - cpu0,
            "steal_share": stats.ratio(steal1 - steal0, total1 - total0)}


# ---------------------------------------------------------------------------
# Answer checking and per-phase accounting.
# ---------------------------------------------------------------------------

def _reply(step) -> Dict:
    try:
        body = json.loads(step.body)
    except ValueError:
        return {}
    return body if isinstance(body, dict) else {}


def judge(phases: List[Dict], root: str) -> None:
    """Classify every step as ok / failed / shed / wrong (in place).

    Answers are compared with references computed once per distinct item.
    """
    distinct: Dict[str, Dict] = {}
    for phase in phases:
        for item in phase["items"]:
            distinct.setdefault(json.dumps(item, sort_keys=True), item)
    keys = list(distinct)
    answers = dict(zip(keys, check.references([distinct[k] for k in keys], root)))
    for phase in phases:
        counts = {"units": len(phase["samples"]), "sent": 0, "succeeded": 0,
                  "failed": 0, "shed": 0, "wrong": 0}
        for sample, item in zip(phase["samples"], phase["items"]):
            expected = answers[json.dumps(item, sort_keys=True)]
            reads = iter(expected if isinstance(expected, list) else [expected])
            for step in sample.steps:
                counts["sent"] += 1
                reply = _reply(step)
                if step.status == 429 or reply.get("error_kind") == "Overloaded":
                    step.outcome = "shed"
                elif step.status != 200 or not reply.get("ok", False):
                    step.outcome = "failed"
                elif step.verb in ("query", "logprob"):
                    value = reply.get("value")
                    step.outcome = "succeeded" if value is not None and \
                        check.canonical(value) == next(reads) else "wrong"
                else:
                    step.outcome = "succeeded"
                counts[step.outcome] += 1
            # A session cut short leaves its remaining steps unsent.
            if "session" in item:
                planned = len(item["session"]["steps"]) + 2
                missing = planned - len(sample.steps)
                counts["sent"] += missing
                counts["failed"] += missing
        phase["counts"] = counts


def _ok_ms(bursts: List[Dict]) -> List[float]:
    return [step.latency * 1e3 for burst in bursts for sample in burst["samples"]
            for step in sample.steps if step.outcome == "succeeded"]


def phase_summary(bursts: List[Dict], limit_ms: float) -> Dict:
    """One phase over all rounds: counts and pooled latencies, plus the
    per-round figures the end-to-end medians are taken over."""
    firsts = [sample.steps[0] for burst in bursts for sample in burst["samples"]
              if sample.steps]
    lateness, late_q = stats.tail([step.lateness * 1e3 for step in firsts], 0.99)
    summary = {key: sum(burst["counts"][key] for burst in bursts)
               for key in bursts[0]["counts"]}
    ok = _ok_ms(bursts)
    summary.update({
        "elapsed_s": sum(burst["elapsed"] for burst in bursts),
        "lateness_ms": {"value": lateness, "q": late_q},
        "late": lateness > LATENESS_BOUND_MS,
        "stats": merged([burst["stats"] for burst in bursts]),
        "cpu_s": sum(burst["cpu_s"] for burst in bursts),
        "rounds": [],
    })
    for q in (0.5, 0.9, 0.99):
        value, used = stats.tail(ok, q)
        summary["lat_p%g_ms" % (q * 100)] = {"value": value, "q": used, "n": len(ok)}
    for burst in bursts:
        ok = _ok_ms([burst])
        begin, end = burst["window"]
        # Goodput: correct replies within the limit that arrived inside the
        # measured window, per second of window (the drain after the
        # window's end is not counted).
        good = sum(1 for sample in burst["samples"] for step in sample.steps
                   if step.outcome == "succeeded" and step.recv <= end
                   and step.latency * 1e3 <= limit_ms)
        summary["rounds"].append({
            "sent": burst["counts"]["sent"],
            "elapsed_s": burst["elapsed"],
            "lat_p50_ms": stats.tail(ok, 0.5)[0],
            "lat_p90_ms": stats.tail(ok, 0.9)[0],
            "goodput_ops": good / (end - begin),
            "steal_share": burst["steal_share"],
            "batch_size_mean": burst["stats"]["batch_size_mean"],
            "result_cache_hit_ratio": burst["stats"]["result_cache_hit_ratio"],
        })
    return summary


# ---------------------------------------------------------------------------
# Set-up.
# ---------------------------------------------------------------------------

async def launch(root: str, out_dir: str, tag: str, trace: bool = False) -> Server:
    server = Server(root, out_dir, tag, trace=trace)
    try:
        await server.start(probes())
    except BaseException:
        server.stop()
        raise
    return server


# ---------------------------------------------------------------------------
# Traced-run extras.
# ---------------------------------------------------------------------------

async def respawn_s(server: Server) -> float:
    """SIGKILL one shard child and time until it answers again.

    Pairs of fresh unconditioned queries (round-robin puts one on each
    shard) are sent until both succeed after the pool reports the
    respawn; the time is from the kill to that reply.
    """
    before = counters(await server.stats())["respawns"]
    victim = server.shard_pids()[0]
    pipes = await _open_pipes(server.port, 1)
    try:
        start = clock()
        os.kill(victim, signal.SIGKILL)
        for attempt in range(2000):
            replies = []
            for offset in range(2):
                body = json.dumps({"model": "hiring", "kind": "logprob",
                                   "event": "years_experience < %r" % (5.0 + attempt * 1e-3 + offset * 1e-4)})
                status, raw, recv = await pipes[0].send("POST", "/v1/query", body.encode() + b"\n")
                replies.append(status == 200 and b'"ok":true' in raw)
            if all(replies) and counters(await server.stats())["respawns"] > before:
                return recv - start
            await asyncio.sleep(0.005)
    finally:
        await _close_pipes(pipes)
    raise RuntimeError("shard did not come back after SIGKILL")


def setup_breakdown(root: str) -> Dict[str, float]:
    """Import, registry build and pool start, timed by direct calls in a
    fresh subprocess (``probe_setup.py``)."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe_setup.py")
    out = subprocess.run([sys.executable, script], cwd=root, env=src_env(root),
                         capture_output=True, timeout=170, check=True)
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


def wire_timings(items: List[Dict]) -> Dict[str, float]:
    """Median µs of ``wire.parse_request_line`` / ``wire.encode_response``
    on the workload's own query lines."""
    from repro.serve import wire

    lines = [json.dumps(item["query"], separators=(",", ":")).encode()
             for item in items if "query" in item][:3000]
    parse, encode = [], []
    for index, line in enumerate(lines):
        start = clock()
        wire.parse_request_line(line)
        parse.append(clock() - start)
        result = ("ok", -1.0 - index * 1e-7)
        start = clock()
        wire.encode_response(index, result, trace_id="0000-%06x" % index)
        encode.append(clock() - start)
    return {"parse_us": 1e6 * stats.percentile(parse, 0.5),
            "encode_us": 1e6 * stats.percentile(encode, 0.5)}


def read_slow_log(path: str) -> Dict[str, Dict]:
    out = {}
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            out[record["trace_id"]] = record
    return out


def layer_metrics(bursts: List[Dict], records: Dict[str, Dict]):
    """Per-layer numbers from the base phase's span trees and stats deltas
    (all rounds pooled); session observes and sheds over every phase.
    Also returns the self time per span name (ms) of those trees."""
    base_bursts = [burst for burst in bursts if burst["name"] == "base"]
    http_self, outside, queue, dispatch, transport = [], [], [], [], []
    engine, condition, observe = [], [], []
    routes = {"compiled": 0, "all": 0}
    event_hits = event_misses = 0
    seen_batches = set()
    # Share of client-seen latency spent in front of the engine (outside
    # the request span, HTTP self time, queue wait, transport) and in it.
    shares = {"client": 0.0, "front": 0.0, "engine": 0.0}
    trees = []
    for sample in (s for burst in base_bursts for s in burst["samples"]):
        for step in sample.steps:
            if step.outcome != "succeeded" or step.verb in ("create", "delete"):
                continue
            record = records.get(_trace_id(step))
            if record is None or "spans" not in record:
                continue
            tree = record["spans"]
            trees.append(tree)
            client_ms = (step.recv - step.sent) * 1e3
            http_self.append(stats.self_us(tree) / 1e3)
            outside.append(client_ms - tree["dur_us"] / 1e3)
            shares["client"] += client_ms
            shares["front"] += outside[-1] + http_self[-1]
            for node in stats.walk(tree):
                name = node["name"]
                if name == "scheduler.queue":
                    queue.append(node["dur_us"] / 1e3)
                    shares["front"] += queue[-1]
                elif name == "shard.dispatch":
                    dispatch.append(node["dur_us"] / 1e3)
                    worker = sum(c["dur_us"] for c in node.get("children", ())
                                 if c["name"] == "worker.batch")
                    transport.append((node["dur_us"] - worker) / 1e3)
                    shares["front"] += transport[-1]
                elif name.startswith("engine."):
                    engine.append(node["dur_us"] / 1e3)
                    shares["engine"] += engine[-1]
                elif name == "condition":
                    condition.append(node["dur_us"] / 1e3)
                    shares["engine"] += condition[-1]
                elif name == "batch":
                    # Batch ids count per server; the trace id prefix names it.
                    batch_id = (record["trace_id"].split("-")[0],
                                node.get("tags", {}).get("batch_id"))
                    if batch_id in seen_batches:
                        continue
                    seen_batches.add(batch_id)
                    for inner in stats.walk(node):
                        counts = inner.get("counts", {})
                        event_hits += counts.get("event_cache.hits", 0)
                        event_misses += counts.get("event_cache.misses", 0)
                        if inner["name"] == "engine.logprob_batch":
                            routes["all"] += 1
                            routes["compiled"] += inner.get("tags", {}).get("route") == "compiled"
    for burst in bursts:
        for sample in burst["samples"]:
            for step in sample.steps:
                if step.verb == "observe" and step.outcome == "succeeded":
                    record = records.get(_trace_id(step))
                    if record is not None:
                        observe.append(record["duration_ms"])
    d = merged([burst["stats"] for burst in base_bursts])
    out = {
        "serve.http.outside_ms.p50": _p50(outside),
        "serve.http.self_ms.p50": _p50(http_self),
        "serve.scheduler.queue_ms.p50": _p50(queue),
        "serve.scheduler.queue_ms.p99": stats.tail(queue, 0.99)[0],
        "serve.scheduler.batch_size.mean": d["batch_size_mean"],
        "serve.scheduler.shed": float(sum(b["stats"]["shed"] + b["stats"]["connection_sheds"]
                                          for b in bursts)),
        "serve.scheduler.result_cache.hit_ratio": d["result_cache_hit_ratio"],
        "serve.sharding.dispatch_ms.p50": _p50(dispatch),
        "serve.sharding.dispatch_ms.p99": stats.tail(dispatch, 0.99)[0],
        "serve.transport.overhead_ms.p50": _p50(transport),
        "serve.transport.overhead_ms.p99": stats.tail(transport, 0.99)[0],
        "serve.sessions.observe_ms.p50": _p50(observe),
        "serve.sessions.observe_ms.p99": stats.tail(observe, 0.99)[0],
        "engine.batch_ms.p50": _p50(engine),
        "engine.batch_ms.p99": stats.tail(engine, 0.99)[0],
        "engine.condition_ms.p50": _p50(condition),
        "engine.condition_ms.p99": stats.tail(condition, 0.99)[0],
        "engine.compiled_share": stats.ratio(routes["compiled"], routes["all"]),
        "plan.applied": float(d["plan_applied"]),
        "plan.fallbacks": float(d["plan_fallbacks"]),
        "plan.apply_ratio": d["plan_apply_ratio"],
        "spe.query_cache.hit_ratio": d["query_cache_hit_ratio"],
        "events.event_cache.hit_ratio": stats.ratio(event_hits, event_hits + event_misses),
        "serve.front_share": stats.ratio(shares["front"], shares["client"]),
        "engine.share": stats.ratio(shares["engine"], shares["client"]),
    }
    self_ms = {
        name: {"n": len(values), "p50": stats.tail(values, 0.5)[0] / 1e3,
               "total": sum(values) / 1e3}
        for name, values in stats.self_time_by_name(trees).items()
    }
    return out, self_ms


def _p50(values: List[float]) -> float:
    return stats.tail(values, 0.5)[0]


def _trace_id(step):
    return _reply(step).get("trace")


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

async def _run(workload: str, seed: int, seconds: float, trace: bool,
               root: str, out_dir: str) -> Dict:
    """One server per round: launched (set-up timed), warmed, measured
    in every phase and stopped, so each round starts from the same state."""
    profile = PROFILES[workload]
    inputs = build_inputs(workload, seed, seconds)
    report: Dict = {"input_digest": gen.digest(inputs), "profile": profile}
    result: Dict = {"report": report}
    respawn = None
    window = seconds / ROUNDS
    bursts, setups, rss, slow_logs = [], [], [], []
    for index, phase_items in enumerate(inputs["rounds"]):
        # A traced run leaves round 0 untraced: its closed-loop goodput
        # against the traced rounds' gives the tracing overhead.
        traced = trace and index > 0
        server = await launch(root, out_dir, "round%d" % (index,), trace=traced)
        try:
            setups.append(server.ready_s)
            await warm_pass(server, inputs["warm"], profile["depth"])
            for name, share in PHASES:
                burst = await run_phase(server, name, phase_items[name], workload,
                                        window * share)
                burst["round"] = index
                burst["traced"] = traced
                bursts.append(burst)
            if trace and index == ROUNDS - 1:
                respawn = await respawn_s(server)
            rss.append(server.peak_rss_mb())
        finally:
            server.stop()
        if traced:
            slow_logs.append(server.slow_log)
    judge(bursts, root)
    report["setup_s"] = setups
    report["peak_rss_mb"] = rss
    report["phases"] = {
        name: phase_summary([b for b in bursts if b["name"] == name], profile["limit_ms"])
        for name, _ in PHASES}
    if trace:
        records = {}
        for path in slow_logs:
            records.update(read_slow_log(path))
        layers, report["span_self_ms"] = layer_metrics(
            [b for b in bursts if b["traced"]], records)
        breakdown = setup_breakdown(root)
        summaries = report["phases"]["closed"]["rounds"]
        untraced = summaries[0]["goodput_ops"]
        traced_goodput = statistics.median(r["goodput_ops"] for r in summaries[1:])
        layers.update({
            "serve.sharding.start_s": breakdown["pool_start_s"],
            "serve.sharding.respawn_s": respawn,
            "serve.registry.build_s": breakdown["registry_build_s"],
            "setup.import_s": breakdown["import_s"],
            # Shards do not export their intern tables' counters.
            "spe.intern.hit_ratio": 0.0,
            "compiler.translate_ms.p50": breakdown["translate_ms_p50"],
            "compiler.translate_share": breakdown["translate_share"],
            "obs.trace_overhead_pct": 100.0 * (untraced / traced_goodput - 1.0),
        })
        layers.update({"serve.wire." + k: v for k, v in wire_timings(
            inputs["rounds"][0]["base"]).items()})
        result["layers"] = layers
    return result


def run(workload: str, seed: int, seconds: float, trace: bool, root: str,
        out_dir: str) -> Dict:
    result = asyncio.run(_run(workload, seed, seconds, trace, root, out_dir))
    report = result["report"]
    phases = report["phases"]
    totals = {key: sum(p[key] for p in phases.values())
              for key in ("sent", "succeeded", "failed", "shed", "wrong")}
    report["totals"] = totals
    report["error_rate"] = stats.ratio(
        totals["failed"] + totals["shed"] + totals["wrong"], totals["sent"])

    def per_round(phase: str, key: str) -> float:
        return statistics.median(r[key] for r in phases[phase]["rounds"])

    metrics = {
        "setup_s": (statistics.median(report["setup_s"]), "s"),
        "lat_p50_ms": (per_round("base", "lat_p50_ms"), "ms"),
        "lat_p90_ms": (per_round("base", "lat_p90_ms"), "ms"),
        "lat_p99_ms": (phases["base"]["lat_p99_ms"]["value"], "ms"),
        "lat_p99_ms.high": (phases["high"]["lat_p99_ms"]["value"], "ms"),
        "goodput_ops": (per_round("closed", "goodput_ops"), "1/s"),
        "cpu_ms_per_op": (1e3 * stats.ratio(
            sum(p["cpu_s"] for p in phases.values()),
            sum(p["succeeded"] for p in phases.values())), "ms"),
        "peak_rss_mb": (statistics.median(report["peak_rss_mb"]), "MB"),
    }
    return {
        "correct": totals["wrong"] == 0,
        "attempted": totals["sent"],
        "failed": totals["failed"] + totals["shed"] + totals["wrong"],
        "metrics": metrics,
        "layers": result.get("layers"),
        "report": report,
    }
