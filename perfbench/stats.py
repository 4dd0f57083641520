"""Metric math of the benchmark: supported percentiles and span self time.

Kept free of I/O and of the program under test so
``selftest_metrics.py`` can check it on fixed data.
"""

from __future__ import annotations

import math
from typing import Dict
from typing import Iterable
from typing import List
from typing import Optional
from typing import Tuple

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def supported(n: int, q: float) -> bool:
    """Whether ``n`` samples leave ``MIN_BEYOND`` of them above quantile ``q``."""
    return n > 0 and math.floor(n * (1.0 - q) + 1e-9) >= MIN_BEYOND


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank quantile ``q`` in (0, 1]; refuses an unsupported one."""
    ordered = sorted(values)
    if not supported(len(ordered), q):
        raise ValueError(
            "p%g of %d samples has fewer than %d samples beyond it"
            % (q * 100, len(ordered), MIN_BEYOND)
        )
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def highest_supported(n: int) -> Optional[float]:
    """The highest quantile ``n`` samples support (None below 2*MIN_BEYOND)."""
    if n < 2 * MIN_BEYOND:
        return None
    return 1.0 - MIN_BEYOND / float(n)


def tail(values: List[float], q: float) -> Tuple[float, float]:
    """``(value, quantile used)``: quantile ``q`` if supported, else the
    highest quantile the sample supports.  ``(0.0, 0.0)`` when no
    quantile is supported (fewer than ``2 * MIN_BEYOND`` samples, or a
    layer that did not run)."""
    if not supported(len(values), q):
        fallback = highest_supported(len(values))
        if fallback is None:
            return 0.0, 0.0
        q = fallback
    return percentile(values, q), q


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ---------------------------------------------------------------------------
# Span trees (the slow-query log's serialized shape, see repro.obs.trace).
# ---------------------------------------------------------------------------

#: Subtrees grafted from another trace: their ``offset_us`` is relative to
#: their own root, so they are placed after their earlier siblings.
GRAFTED = ("batch", "worker.batch")


def _child_intervals(node: Dict) -> List[Tuple[int, int]]:
    intervals = []
    cursor = 0
    for child in node.get("children", ()):
        start = child.get("offset_us", 0)
        if child["name"] in GRAFTED:
            start = max(start, cursor)
        end = start + child.get("dur_us", 0)
        intervals.append((start, end))
        cursor = max(cursor, end)
    return intervals


def self_us(node: Dict) -> int:
    """A span's duration minus the part of it its children cover."""
    duration = node.get("dur_us", 0)
    covered = 0
    last_end = 0
    for start, end in sorted(_child_intervals(node)):
        start, end = max(start, last_end, 0), min(end, duration)
        if end > start:
            covered += end - start
            last_end = end
    return max(0, duration - covered)


def walk(node: Dict):
    """Yield every span of a tree, depth first."""
    yield node
    for child in node.get("children", ()):
        yield from walk(child)


def self_time_by_name(trees: Iterable[Dict]) -> Dict[str, List[int]]:
    """Self time (µs) per span name, one entry per span occurrence."""
    out: Dict[str, List[int]] = {}
    for tree in trees:
        for node in walk(tree):
            out.setdefault(node["name"], []).append(self_us(node))
    return out
