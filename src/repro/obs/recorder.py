"""Flight recorder: a bounded ring of completed traces + slow-query log.

The service keeps the span trees of its most recent sampled requests in
a fixed-capacity ring (``GET /v1/trace/<id>`` serves lookups until the
entry is evicted by newer traces) and, when a slow-query threshold is
configured, appends a structured JSON line for every request whose
total latency exceeds it — including the full span tree when the
request was traced, so the outlier explains itself.

Both structures are loop-owned (mutated only from the asyncio event
loop); the slow log's file write is small, line-buffered, and rare by
construction (it only fires for outliers), so it stays on the loop
rather than paying an executor hop per slow query.
"""

from __future__ import annotations

import json
import sys
import time
from collections import OrderedDict
from typing import Dict
from typing import Optional

from .metrics import MetricsRegistry
from .trace import Trace

__all__ = ["FlightRecorder"]

#: Default ring capacity (completed traces retained for lookup).
DEFAULT_TRACE_CAPACITY = 256


class FlightRecorder:
    """Completed-trace ring buffer and slow-query logger."""

    def __init__(
        self,
        capacity: int = DEFAULT_TRACE_CAPACITY,
        slow_query_ms: Optional[float] = None,
        slow_query_log: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if capacity < 1:
            raise ValueError("FlightRecorder capacity must be positive.")
        if slow_query_ms is not None and slow_query_ms < 0:
            raise ValueError("slow_query_ms must be non-negative.")
        self.capacity = capacity
        self.slow_query_ms = slow_query_ms
        self._slow_log_path = slow_query_log
        self._slow_log_handle = None
        self._traces: "OrderedDict[str, Dict]" = OrderedDict()
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._recorded = metrics.counter("repro.trace.recorded")
        self._evicted = metrics.counter("repro.trace.evicted")
        self._slow_logged = metrics.counter("repro.trace.slow_logged")
        metrics.gauge_fn("repro.trace.ring_entries", lambda: len(self._traces))

    # -- Recording ------------------------------------------------------------

    def observe(
        self,
        trace: Optional[Trace],
        trace_id: str,
        duration_ms: float,
        model: Optional[str] = None,
        kind: Optional[str] = None,
    ) -> None:
        """Complete one request: ring-admit its trace, slow-log outliers.

        ``trace`` is None for unsampled requests — they still pass
        through so the slow-query log covers every request (span tree
        included only when one exists).
        """
        spans = None
        if trace is not None:
            trace.finish()
            spans = trace.to_payload()
            entry = {
                "trace_id": trace_id,
                "duration_ms": round(duration_ms, 3),
                "model": model,
                "kind": kind,
                "spans": spans,
            }
            self._traces[trace_id] = entry
            self._recorded.inc()
            while len(self._traces) > self.capacity:
                self._traces.popitem(last=False)
                self._evicted.inc()
        if self.slow_query_ms is not None and duration_ms >= self.slow_query_ms:
            self._log_slow(trace_id, duration_ms, model, kind, spans)

    def get(self, trace_id: str) -> Optional[Dict]:
        return self._traces.get(trace_id)

    # -- Slow-query log -------------------------------------------------------

    def _log_slow(self, trace_id, duration_ms, model, kind, spans) -> None:
        record = {
            "ts": round(time.time(), 6),
            "trace_id": trace_id,
            "duration_ms": round(duration_ms, 3),
            "threshold_ms": self.slow_query_ms,
            "model": model,
            "kind": kind,
        }
        if spans is not None:
            record["spans"] = spans
        line = json.dumps(record, separators=(",", ":"))
        self._slow_logged.inc()
        try:
            handle = self._slow_log()
            handle.write(line + "\n")
            handle.flush()
        except OSError:
            pass  # a full disk must not fail the query that was merely slow

    def _slow_log(self):
        if self._slow_log_path is None:
            return sys.stderr
        if self._slow_log_handle is None:
            self._slow_log_handle = open(
                self._slow_log_path, "a", encoding="utf-8"
            )
        return self._slow_log_handle

    # -- Lifecycle / introspection --------------------------------------------

    def stats(self) -> Dict:
        return {
            "capacity": self.capacity,
            "entries": len(self._traces),
            "recorded": self._recorded.value,
            "evicted": self._evicted.value,
            "slow_query_ms": self.slow_query_ms,
            "slow_logged": self._slow_logged.value,
        }

    def close(self) -> None:
        if self._slow_log_handle is not None:
            try:
                self._slow_log_handle.close()
            except OSError:
                pass
            self._slow_log_handle = None
