"""The central metrics registry and its Prometheus text exposition.

Every counter the serve stack used to keep as an ad-hoc integer
attribute (scheduler sheds, pool respawns, connection sheds, ...) is now
an owned :class:`Counter`/:class:`Gauge` instrument registered here
under a stable dotted name (``repro.scheduler.shed_requests``,
``repro.pool.respawns``, ...).  Owners and tests read the instruments
themselves, ``/v1/stats`` keeps its JSON shape, and ``GET /metrics`` renders the same instruments — plus scrape-time labeled
samples for state that lives elsewhere (per-model cache counters,
journal stats) — as Prometheus text exposition (version 0.0.4).

Naming scheme: dotted lowercase names, ``repro.<component>.<metric>``;
dots become underscores in the exposition and counters gain the
conventional ``_total`` suffix.  Latency histograms reuse the serve
layer's log-bucketed :class:`~repro.serve.wire.LatencyHistogram`
(rendered with cumulative ``le`` buckets, ``_count`` and ``_sum``).

Instruments are loop-owned (mutated only on the asyncio event loop or
under their owner's existing locks); the registry itself adds no
locking — registration happens at construction time, scrapes read
plain ints.
"""

from __future__ import annotations

from typing import Callable
from typing import Dict
from typing import Iterable
from typing import List
from typing import Optional
from typing import Tuple

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "Sample",
]


class Counter:
    """A monotonically increasing counter instrument."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A settable instantaneous-value instrument."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def max(self, value) -> None:
        """Ratchet the gauge upward (high-water marks, e.g. largest batch)."""
        if value > self.value:
            self.value = value


#: One scrape-time sample: ``(dotted_name, labels_dict_or_None, value)``.
Sample = Tuple[str, Optional[Dict[str, str]], float]


def _mangle(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_labels(labels: Optional[Dict[str, str]]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        '%s="%s"' % (_mangle(key), _escape_label(value))
        for key, value in sorted(labels.items())
    )
    return "{%s}" % inner


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


class MetricsRegistry:
    """Instrument directory + exposition renderer.

    Owners create their instruments through :meth:`counter` /
    :meth:`gauge` (get-or-create by dotted name, so a component
    constructed twice against one registry shares the instrument) and
    register live histograms and scrape-time gauge callbacks.  The
    service's ``/metrics`` handler calls :meth:`render`, passing any
    labeled samples it gathered from non-owned state (worker shards,
    the journal).
    """

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._gauge_fns: Dict[str, Callable[[], float]] = {}
        self._histograms: Dict[str, object] = {}

    # -- Instrument creation --------------------------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def gauge_fn(self, name: str, fn: Callable[[], float]) -> None:
        """A gauge computed at scrape time (queue depths, ring occupancy)."""
        self._gauge_fns[name] = fn

    def histogram(self, name: str, histogram) -> None:
        """Adopt a live ``LatencyHistogram`` (duck-typed: counts/count/total)."""
        self._histograms[name] = histogram

    # -- Introspection (the /v1/stats side) -----------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Flat name -> value dict of owned counters and gauges."""
        values: Dict[str, float] = {}
        for name, counter in self._counters.items():
            values[name] = counter.value
        for name, gauge in self._gauges.items():
            values[name] = gauge.value
        for name, fn in self._gauge_fns.items():
            values[name] = fn()
        return values

    # -- Prometheus text exposition -------------------------------------------

    def render(
        self,
        extra_counters: Iterable[Sample] = (),
        extra_gauges: Iterable[Sample] = (),
    ) -> str:
        """The full exposition body (text format 0.0.4).

        ``extra_counters``/``extra_gauges`` are scrape-time labeled
        samples for state the registry does not own; samples sharing a
        dotted name are grouped under one ``# TYPE`` declaration.
        """
        lines: List[str] = []
        for name in sorted(self._counters):
            mangled = _mangle(name) + "_total"
            lines.append("# TYPE %s counter" % mangled)
            lines.append("%s %s" % (mangled, _format_value(self._counters[name].value)))
        gauge_values: List[Tuple[str, Optional[Dict], float]] = []
        for name in self._gauges:
            gauge_values.append((name, None, self._gauges[name].value))
        for name, fn in self._gauge_fns.items():
            gauge_values.append((name, None, fn()))
        for name, labels, value in sorted(gauge_values, key=lambda row: row[0]):
            mangled = _mangle(name)
            lines.append("# TYPE %s gauge" % mangled)
            lines.append("%s%s %s" % (mangled, _format_labels(labels), _format_value(value)))
        for group, kind in ((extra_counters, "counter"), (extra_gauges, "gauge")):
            grouped: Dict[str, List[Sample]] = {}
            for sample in group:
                grouped.setdefault(sample[0], []).append(sample)
            for name in sorted(grouped):
                mangled = _mangle(name) + ("_total" if kind == "counter" else "")
                lines.append("# TYPE %s %s" % (mangled, kind))
                for _, labels, value in grouped[name]:
                    lines.append(
                        "%s%s %s" % (mangled, _format_labels(labels), _format_value(value))
                    )
        for name in sorted(self._histograms):
            lines.extend(self._render_histogram(name, self._histograms[name]))
        return "\n".join(lines) + "\n"

    @staticmethod
    def _render_histogram(name: str, histogram) -> List[str]:
        """Cumulative ``le`` buckets from a log-bucketed LatencyHistogram.

        Bucket ``i`` of the source counts whole-microsecond latencies of
        bit length ``i``, i.e. values below ``2**i`` µs — so the
        cumulative count up to bucket ``i`` maps exactly onto
        ``le="2**i / 1e6"`` seconds.  Empty tail buckets are elided;
        ``+Inf`` always closes the series.
        """
        mangled = _mangle(name)
        lines = ["# TYPE %s histogram" % mangled]
        counts = histogram.counts
        highest = -1
        for index, count in enumerate(counts):
            if count:
                highest = index
        cumulative = 0
        for index in range(highest + 1):
            cumulative += counts[index]
            bound = (1 << index) / 1e6
            lines.append(
                '%s_bucket{le="%s"} %d' % (mangled, _format_value(bound), cumulative)
            )
        lines.append('%s_bucket{le="+Inf"} %d' % (mangled, histogram.count))
        lines.append(
            "%s_sum %s" % (mangled, _format_value(getattr(histogram, "total", 0.0)))
        )
        lines.append("%s_count %d" % (mangled, histogram.count))
        return lines
