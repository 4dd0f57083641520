"""Benchmark entry point: one run of one workload, from the root of a checkout.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/README.md``): ``serve_hot`` and
``serve_fresh`` drive ``python -m repro.serve`` over HTTP;
``paper_library`` runs the paper's jobs in-process.  The run checks
every answer, prints a human-readable summary, writes a full report to
``.perfbench/<workload>-s<seed>-t<trace>/report.json``, and prints as
its last line one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` -- the ``end_to_end`` metrics of ``BENCHMARK.json``
with ``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

WORKLOADS = ("serve_hot", "serve_fresh", "paper_library")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    # Unwind through every ``finally`` so launched servers are stopped.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    import server

    server.become_subreaper()
    try:
        return run(args)
    finally:
        # Every process the run started, and every one those started, has
        # ended and been reaped before the run exits.
        server.stop_children()


def run(args: argparse.Namespace) -> int:
    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "repro", "serve", "__main__.py")) \
            or not os.path.isfile(spec_path):
        print("perfbench: %s holds no checkout (src/repro and BENCHMARK.json); "
              "run from the root of one" % (root,), file=sys.stderr)
        return 2
    with open(spec_path) as handle:
        spec = json.load(handle)
    sys.path.insert(0, os.path.join(root, "src"))

    import selftest_metrics

    if not selftest_metrics.run():
        print("perfbench: metric self-tests failed", file=sys.stderr)
        return 3

    out_dir = os.path.join(root, ".perfbench", "%s-s%d-t%d" % (
        args.workload, args.seed, args.trace))
    os.makedirs(out_dir, exist_ok=True)
    trace = bool(args.trace)
    if args.workload == "paper_library":
        import library_bench

        result = library_bench.run(args.seed, args.seconds, trace, root, out_dir)
    else:
        import serve_bench

        result = serve_bench.run(args.workload, args.seed, args.seconds, trace,
                                 root, out_dir)

    report = result["report"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        values = result["layers"]
    else:
        values = {name: value for name, (value, _) in result["metrics"].items()}
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        print("perfbench: no value for %s" % (", ".join(missing),), file=sys.stderr)
        return 4
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    report["metrics"] = metrics

    print("workload %s  seed %d  inputs %s" % (args.workload, args.seed,
                                               report["input_digest"]))
    for name, phase in report["phases"].items():
        line = "  phase %-6s sent %d  ok %d  failed %d  shed %d  wrong %d" % (
            name, phase["sent"], phase["succeeded"], phase["failed"], phase["shed"],
            phase["wrong"])
        if "lateness_ms" in phase:
            line += "  lateness_p%g %.2f ms%s" % (
                100 * phase["lateness_ms"]["q"], phase["lateness_ms"]["value"],
                "  LATE (over %.1f ms)" % serve_late_bound() if phase["late"] else "")
        print(line)
    print("  error_rate %.6f" % (report["error_rate"],))
    for name, metric in metrics.items():
        print("  %-40s %14.6f %s" % (name, metric["value"], metric["unit"]))
    if not trace:
        # Measured and checked like the rest, but too sensitive to host
        # CPU steal to gate on (see README.md, "Noise").
        report["reported"] = {name: {"value": value, "unit": unit}
                              for name, (value, unit) in result["metrics"].items()
                              if name not in metrics}
        for name, metric in report["reported"].items():
            print("  %-40s %14.6f %s  (reported, not gated)" % (
                name, metric["value"], metric["unit"]))
    with open(os.path.join(out_dir, "report.json"), "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True, default=str)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


def serve_late_bound() -> float:
    import serve_bench

    return serve_bench.LATENESS_BOUND_MS


if __name__ == "__main__":
    sys.exit(main())
