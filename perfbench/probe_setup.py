"""Set-up breakdown by direct calls, in a fresh interpreter.

Prints one JSON line: the import time of the serve CLI module, the time
of ``ModelRegistry.register_catalog`` over the served catalog (and the
share of it spent in ``compile_command``), and the time of
``WorkerPool.start`` for the benchmark's two shards.  Run from the root
of a checkout with ``src`` on ``PYTHONPATH``.
"""

import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from gen import SERVE_MODELS  # noqa: E402


def main() -> None:
    start = time.perf_counter()
    import repro.serve.__main__  # noqa: F401
    import_s = time.perf_counter() - start

    import repro.compiler
    import repro.compiler.parser
    import repro.engine.model
    from repro.serve.http import InferenceService
    from repro.serve.registry import ModelRegistry
    from repro.serve.sharding import WorkerPool

    # Every module that calls compile_command by its imported name.
    namespaces = [repro.compiler, repro.compiler.parser, repro.engine.model]
    compile_command = repro.compiler.compile_command
    translate = []

    def timed_compile(*args, **kwargs):
        begin = time.perf_counter()
        try:
            return compile_command(*args, **kwargs)
        finally:
            translate.append(time.perf_counter() - begin)

    registry = ModelRegistry(plan="validated")
    for namespace in namespaces:
        namespace.compile_command = timed_compile
    start = time.perf_counter()
    try:
        for name in SERVE_MODELS:
            registry.register_catalog(name)
    finally:
        build_s = time.perf_counter() - start
        for namespace in namespaces:
            namespace.compile_command = compile_command

    specs = InferenceService(registry, workers=0).worker_specs()
    pool = WorkerPool(2)
    start = time.perf_counter()
    pool.start(specs)
    pool_start_s = time.perf_counter() - start
    pool.terminate()

    print(json.dumps({
        "import_s": import_s,
        "registry_build_s": build_s,
        "pool_start_s": pool_start_s,
        "translate_ms_p50": 1e3 * statistics.median(translate) if translate else 0.0,
        "translate_share": sum(translate) / build_s if build_s else 0.0,
        "translations": len(translate),
    }))


if __name__ == "__main__":
    main()
