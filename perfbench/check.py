"""Reference answers for serve traffic, computed with the in-process library.

Every answer the server gave is compared bit-for-bit (``repr`` of the
float) with a fresh in-process :class:`repro.engine.SpplModel`
(``plan="off"``, a new cache per process): one-shot queries with the
model's ``condition``/``logprob``/``logpdf``, session reads with an
:class:`repro.engine.PosteriorChain` replaying the committed observes.
The work is split over two worker interpreters (this file run as a
script: items as JSON on stdin, answers as JSON on stdout) and runs
after the timed window.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Dict
from typing import List

from gen import SERVE_MODELS
from server import src_env

#: Seconds one worker interpreter may take over its share.
WORKER_TIMEOUT_S = 170.0

_MODELS: Dict = {}


def _models():
    if not _MODELS:
        from repro.serve.registry import ModelRegistry

        registry = ModelRegistry(plan="off")
        for name in SERVE_MODELS:
            _MODELS[name] = registry.register_catalog(name).model
    return _MODELS


def canonical(value) -> str:
    """Bit-exact text of a float answer (wire strings for non-finite)."""
    if isinstance(value, str):
        value = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}[value]
    return repr(float(value))


def query_answer(request: Dict) -> str:
    """The library's answer to one ``/v1/query`` request, as serve defines
    it (``error:<kind>`` when the library refuses the query too)."""
    model = _models()[request["model"]]
    try:
        target = model.condition(request["condition"]) if request.get("condition") else model
        if request["kind"] == "logpdf":
            return canonical(target.logpdf(request["assignment"]))
        value = target.logprob(request["event"])
    except ValueError as error:  # ZeroProbabilityError, parse errors
        return "error:" + type(error).__name__
    return canonical(math.exp(value) if request["kind"] == "prob" else value)


def session_answers(script: Dict) -> List[str]:
    """Answers of a session script's reads, one per read step, in order."""
    from repro.engine import PosteriorChain

    chain = PosteriorChain(_models()[script["model"]])
    answers = []
    try:
        for step in script["steps"]:
            if step["verb"] == "observe":
                try:
                    chain.observe(step["event"])
                except ValueError:
                    break  # the server refuses this observe and the session ends
            else:
                value = chain.current.logprob(step["event"])
                answers.append(canonical(math.exp(value) if step["verb"] == "query" else value))
    finally:
        chain.close()
    return answers


def _answer(item: Dict):
    if "query" in item:
        return query_answer(item["query"])
    return session_answers(item["session"])


def _answer_chunk(items: List[Dict]) -> List:
    return [_answer(item) for item in items]


def _run_worker(items: List[Dict], root: str) -> List:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__)], cwd=root, env=src_env(root),
        input=json.dumps(items).encode("utf-8"), capture_output=True,
        timeout=WORKER_TIMEOUT_S, check=True)
    return json.loads(out.stdout)


def references(items: List[Dict], root: str, processes: int = 2) -> List:
    """Reference answers for ``items`` (``{"query": ...}`` or
    ``{"session": ...}``), computed in ``processes`` worker interpreters
    run from the checkout at ``root``."""
    if not items:
        return []
    chunks = [items[i::processes] for i in range(processes)]
    with ThreadPoolExecutor(processes) as executor:
        results = list(executor.map(lambda chunk: _run_worker(chunk, root), chunks))
    out: List = [None] * len(items)
    for offset, chunk in enumerate(results):
        out[offset::processes] = chunk
    return out


if __name__ == "__main__":
    json.dump(_answer_chunk(json.load(sys.stdin)), sys.stdout)
