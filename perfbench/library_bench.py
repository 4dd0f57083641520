"""The ``paper_library`` workload: the paper's jobs run in-process.

One run: set-up is timed three times in fresh interpreters (import plus
one translated-and-answered job); then, after an untimed warm pass over
one job of every family, two measured phases run the seeded job stream:

* ``base`` -- one caller runs jobs back to back (closed loop): per-job
  latency, jobs/s within the latency limit, and per-call latency of the
  library's public entry points;
* ``high`` -- two caller threads share the stream, so every call
  contends for the interpreter with another caller.

Answers are checked afterwards against the references in
:mod:`library`.  With ``--trace 1`` the base phase runs each job under
an active :class:`repro.obs.Trace` to count cache hits, planner outcomes
and kernel routes, and the run adds the set-up breakdown and the
tracing overhead.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
import traceback
from typing import Dict
from typing import List
from typing import Optional

import gen
import stats
from library import COMPILER
from library import CONDITION
from library import QUERY
from library import Calls
from library import Programs
from library import agrees
from loadgen import clock
from server import peak_rss_kb
from server import src_env

PHASES = (("base", 0.6), ("high", 0.4))

#: Goodput counts jobs that finish within this many milliseconds.
LIMIT_MS = 500.0

#: Jobs generated per run (far more than a run can finish).
STREAM = 5000

SETUP_LAUNCHES = 3

#: One job of each family, run untimed before the phases.
WARM = [
    {"job": "fairness", "tree": "DT4", "population": "independent"},
    {"job": "hmm", "n_step": 3, "data_seed": 0},
    {"job": "transforms", "bound": 4.0, "x_split": 0.25},
    {"job": "rare", "x": 4.2, "y": 13},
    {"job": "gpa", "grid": [10, 20, 30, 40, 50, 60, 70, 80]},
    {"job": "psi", "name": "Gamma Transforms"},
]


class Cursor:
    """The shared position in the job stream (thread-safe)."""

    def __init__(self, jobs: List[Dict]):
        self.jobs = jobs
        self.next = 0
        self.lock = threading.Lock()

    def take(self):
        with self.lock:
            index = self.next
            self.next += 1
        return index, self.jobs[index]


def caller(programs: Programs, cursor: Cursor, deadline: float, done: List,
           calls: Calls, traces: Optional[List] = None) -> None:
    """Run jobs until ``deadline``; appends ``(index, seconds, answers)``,
    with ``answers`` None for a job that raised.

    With a ``traces`` list, each job runs under its own active
    :class:`repro.obs.Trace`, whose span tree is appended to it.
    """
    while clock() < deadline:
        index, job = cursor.take()
        start = clock()
        if traces is None:
            answers = _attempt(programs, job, calls)
            seconds = clock() - start
        else:
            from repro import obs

            tracer = obs.Trace()
            with obs.activate(tracer):
                answers = _attempt(programs, job, calls)
            seconds = clock() - start
            for model in calls.models:
                cache = model.cache_stats()
                tracer.root.bump("job.query_cache.hits", cache.get("hits", 0))
                tracer.root.bump("job.query_cache.misses", cache.get("misses", 0))
            traces.append(tracer.to_payload())
        calls.models.clear()
        done.append((index, seconds, answers))


def _attempt(programs: Programs, job: Dict, calls: Calls) -> Optional[List[float]]:
    try:
        return programs.run(job, calls)
    except Exception:  # counted as a failed job; the run goes on
        traceback.print_exc(file=sys.stderr)
        return None


def run_phase(programs: Programs, cursor: Cursor, threads: int, seconds: float,
              traces: Optional[List] = None) -> Dict:
    deadline = clock() + seconds
    results = [[] for _ in range(threads)]
    calls = [Calls() for _ in range(threads)]
    cpu = time.process_time()
    start = clock()
    if threads == 1:
        caller(programs, cursor, deadline, results[0], calls[0], traces)
    else:
        workers = [threading.Thread(target=caller, args=(
            programs, cursor, deadline, results[i], calls[i], traces))
            for i in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(180)
            if worker.is_alive():
                raise RuntimeError("library caller did not finish")
    return {
        "elapsed": clock() - start,
        "cpu_s": time.process_time() - cpu,
        "jobs": [record for part in results for record in part],
        "calls": [record for part in calls for record in part.records],
    }


def setup_once(root: str) -> float:
    """Launch to ready of a fresh interpreter running one job."""
    start = clock()
    process = subprocess.Popen(
        [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "library.py")],
        cwd=root, env=src_env(root), stdout=subprocess.PIPE)
    try:
        line = process.stdout.readline()
        ready = clock() - start
        process.wait(60)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if not line.startswith(b"ready"):
        raise RuntimeError("library set-up failed: %r" % (line,))
    return ready


def import_s(root: str) -> float:
    """Import time of the library modules the jobs use, in a fresh process."""
    code = ("import time; t = time.perf_counter(); import repro.engine, "
            "repro.workloads.hmm, repro.workloads.psi_benchmarks, "
            "repro.workloads.fairness.verifier; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=src_env(root),
                         capture_output=True, timeout=120, check=True)
    return float(out.stdout.decode().split()[-1])


def judge(programs: Programs, jobs: List[Dict], phases: Dict) -> Dict:
    """Per-phase counts; marks each job's outcome in ``phase["ok"]``."""
    references: Dict[str, tuple] = {}
    counts = {}
    for name, phase in phases.items():
        failed = wrong = 0
        phase["ok"] = []
        for index, _, answers in phase["jobs"]:
            phase["ok"].append(False)
            if answers is None:
                failed += 1
                continue
            job = jobs[index]
            key = json.dumps(job, sort_keys=True)
            if key not in references:
                references[key] = programs.reference(job)
            expected, log_space = references[key]
            if len(expected) != len(answers) or not all(
                    agrees(a, e, log_space) for a, e in zip(answers, expected)):
                wrong += 1
            else:
                phase["ok"][-1] = True
        counts[name] = {"sent": len(phase["jobs"]),
                        "succeeded": len(phase["jobs"]) - failed - wrong,
                        "failed": failed, "shed": 0, "wrong": wrong}
    return counts


def layer_metrics(base: Dict, traces: List[Dict], intern: Dict) -> Dict[str, float]:
    by_layer: Dict[str, List[float]] = {COMPILER: [], CONDITION: [], QUERY: []}
    for layer, seconds in base["calls"]:
        by_layer[layer].append(seconds * 1e3)
    counts: Dict[str, int] = {}
    routes = {"compiled": 0, "all": 0}
    plan = {"applied": 0, "fallback": 0}
    for tree in traces:
        for node in stats.walk(tree):
            for key, value in node.get("counts", {}).items():
                counts[key] = counts.get(key, 0) + value
            if node["name"] == "engine.logprob_batch":
                routes["all"] += 1
                routes["compiled"] += node.get("tags", {}).get("route") == "compiled"
            if node["name"].startswith("plan."):
                outcome = node.get("tags", {}).get("outcome")
                if outcome in plan:
                    plan[outcome] += 1
    job_ms = sum(seconds for _, seconds, _ in base["jobs"]) * 1e3
    hits, misses = counts.get("job.query_cache.hits", 0), counts.get("job.query_cache.misses", 0)
    event_hits = counts.get("event_cache.hits", 0)
    event_misses = counts.get("event_cache.misses", 0)
    return {
        "engine.batch_ms.p50": stats.tail(by_layer[QUERY], 0.5)[0],
        "engine.batch_ms.p99": stats.tail(by_layer[QUERY], 0.99)[0],
        "engine.condition_ms.p50": stats.tail(by_layer[CONDITION], 0.5)[0],
        "engine.condition_ms.p99": stats.tail(by_layer[CONDITION], 0.99)[0],
        "engine.compiled_share": stats.ratio(routes["compiled"], routes["all"]),
        "plan.applied": float(plan["applied"]),
        "plan.fallbacks": float(plan["fallback"]),
        "plan.apply_ratio": stats.ratio(plan["applied"], plan["applied"] + plan["fallback"]),
        "spe.query_cache.hit_ratio": stats.ratio(hits, hits + misses),
        "spe.intern.hit_ratio": stats.ratio(intern["hits"], intern["hits"] + intern["misses"]),
        "events.event_cache.hit_ratio": stats.ratio(event_hits, event_hits + event_misses),
        "compiler.translate_ms.p50": stats.tail(by_layer[COMPILER], 0.5)[0],
        "compiler.translate_share": stats.ratio(sum(by_layer[COMPILER]), job_ms),
        "engine.share": stats.ratio(sum(by_layer[QUERY]) + sum(by_layer[CONDITION]), job_ms),
    }


#: Serve layers do not run in this workload; they report 0.
SERVE_LAYERS = [
    "serve.http.outside_ms.p50", "serve.http.self_ms.p50", "serve.wire.parse_us",
    "serve.wire.encode_us", "serve.scheduler.queue_ms.p50", "serve.scheduler.queue_ms.p99",
    "serve.scheduler.batch_size.mean", "serve.scheduler.shed",
    "serve.scheduler.result_cache.hit_ratio", "serve.sharding.dispatch_ms.p50",
    "serve.sharding.dispatch_ms.p99", "serve.transport.overhead_ms.p50",
    "serve.transport.overhead_ms.p99", "serve.sharding.start_s", "serve.sharding.respawn_s",
    "serve.registry.build_s", "serve.sessions.observe_ms.p50",
    "serve.sessions.observe_ms.p99", "serve.front_share",
]


def run(seed: int, seconds: float, trace: bool, root: str, out_dir: str) -> Dict:
    setups = [setup_once(root) for _ in range(SETUP_LAUNCHES)]
    programs = Programs()
    jobs = gen.library_stream(seed, STREAM)
    report: Dict = {"input_digest": gen.digest(jobs), "setup_s": setups}
    for job in WARM:
        programs.run(job, Calls())
    layers = None
    if trace:
        from repro import obs
        from repro.spe.interning import intern_stats

        # Tracing overhead: each job of a sample runs once to warm, then
        # untraced and traced back to back.
        untraced_s = traced_s = 0.0
        for job in jobs[:12]:
            programs.run(job, Calls())
            start = clock()
            programs.run(job, Calls())
            untraced_s += clock() - start
            start = clock()
            with obs.activate(obs.Trace()):
                programs.run(job, Calls())
            traced_s += clock() - start
        traces: List[Dict] = []
        before = intern_stats()
        cursor = Cursor(jobs)
        base = run_phase(programs, cursor, 1, seconds * PHASES[0][1], traces)
        after = intern_stats()
        high = run_phase(programs, cursor, 2, seconds * PHASES[1][1])
        layers = layer_metrics(base, traces, {
            "hits": after["hits"] - before["hits"],
            "misses": after["misses"] - before["misses"]})
        layers.update({name: 0.0 for name in SERVE_LAYERS})
        layers["setup.import_s"] = import_s(root)
        layers["obs.trace_overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    else:
        cursor = Cursor(jobs)
        base = run_phase(programs, cursor, 1, seconds * PHASES[0][1])
        high = run_phase(programs, cursor, 2, seconds * PHASES[1][1])
    rss_mb = peak_rss_kb(os.getpid()) / 1024.0
    phases = {"base": base, "high": high}
    counts = judge(programs, jobs, phases)
    job_ms = [seconds_ * 1e3 for _, seconds_, _ in base["jobs"]]
    summaries = {}
    for name, phase in phases.items():
        call_ms = [seconds_ * 1e3 for _, seconds_ in phase["calls"]]
        latencies = [seconds_ * 1e3 for _, seconds_, _ in phase["jobs"]]
        summary = dict(counts[name])
        summary["elapsed_s"] = phase["elapsed"]
        summary["jobs_per_s"] = len(latencies) / phase["elapsed"]
        # A failed or wrong job misses the limit whatever its latency.
        summary["within_limit"] = sum(
            1 for v, ok in zip(latencies, phase["ok"]) if ok and v <= LIMIT_MS)
        for q in (0.5, 0.9, 0.99):
            value, used = stats.tail(latencies, q)
            summary["job_p%g_ms" % (q * 100)] = {"value": value, "q": used, "n": len(latencies)}
            value, used = stats.tail(call_ms, q)
            summary["call_p%g_ms" % (q * 100)] = {"value": value, "q": used, "n": len(call_ms)}
        summaries[name] = summary
    report["phases"] = summaries
    report["peak_rss_mb"] = rss_mb
    totals = {key: sum(s[key] for s in summaries.values())
              for key in ("sent", "succeeded", "failed", "shed", "wrong")}
    report["totals"] = totals
    report["error_rate"] = stats.ratio(totals["failed"] + totals["wrong"], totals["sent"])
    base_s, high_s = summaries["base"], summaries["high"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "lat_p50_ms": (stats.tail(job_ms, 0.5)[0], "ms"),
        "lat_p90_ms": (stats.tail(job_ms, 0.9)[0], "ms"),
        "lat_p99_ms": (base_s["call_p99_ms"]["value"], "ms"),
        "lat_p99_ms.high": (high_s["call_p99_ms"]["value"], "ms"),
        "goodput_ops": (base_s["within_limit"] / base_s["elapsed_s"], "1/s"),
        "cpu_ms_per_op": (1e3 * stats.ratio(base["cpu_s"] + high["cpu_s"],
                                            len(base["jobs"]) + len(high["jobs"])), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return {
        "correct": totals["wrong"] == 0,
        "attempted": totals["sent"],
        "failed": totals["failed"] + totals["wrong"],
        "metrics": metrics,
        "layers": layers,
        "report": report,
    }
