"""``repro.obs``: tracing and metrics threaded through every layer.

Three pieces, designed to cost nothing when unused:

* :mod:`repro.obs.trace` — :class:`Trace`/:class:`Span` trees on the
  monotonic clock, propagated through the asyncio front-end by a
  ``contextvars.ContextVar`` and carried into worker shards as plain
  dict fragments over the wire.  The module-level helpers
  (:func:`span`, :func:`event`, :func:`bump`) are the hot-path surface:
  one context-variable read and a ``None`` check when tracing is off.
* :mod:`repro.obs.metrics` — the central :class:`MetricsRegistry` that
  the serve stack's formerly ad-hoc counters migrated into (stable
  dotted names), rendered both into the ``/v1/stats`` JSON and as
  Prometheus text exposition on ``GET /metrics``.
* :mod:`repro.obs.recorder` — the :class:`FlightRecorder` ring of
  completed traces behind ``GET /v1/trace/<id>`` and the structured
  slow-query log.

Import discipline: this package imports nothing from ``repro.engine``,
``repro.spe``, or ``repro.serve`` (those layers all
import *it*), so it sits at the bottom of the dependency graph next to
the stdlib.
"""

from .metrics import Counter
from .metrics import Gauge
from .metrics import MetricsRegistry
from .recorder import FlightRecorder
from .trace import Span
from .trace import Trace
from .trace import activate
from .trace import bump
from .trace import current
from .trace import event
from .trace import new_trace_id
from .trace import span

__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "MetricsRegistry",
    "Span",
    "Trace",
    "activate",
    "bump",
    "current",
    "event",
    "new_trace_id",
    "span",
]
