"""Named counters, gauges and histograms for the serving layers.

A :class:`MetricsRegistry` is the flat, aggregate companion to the
span-level :class:`~repro.observability.trace.Tracer`: spans answer
"where did this request's time go", metrics answer "how many, how big,
how fast" across the whole run.  :class:`LatencyTracker` — the repo's
one percentile primitive (nearest-rank, exactly reproducible) — lives
here as the histogram implementation, so a metric's p99 and a
:class:`~repro.serving.server.ServeReport` p99 can never disagree
about what a percentile means (:mod:`repro.runtime.profiler`
re-exports it for its original callers).

Everything is deterministic and virtual-clock-valued; there is no
background thread, no sampling, no wall time.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Counter", "Gauge", "LatencyTracker", "MetricsRegistry",
           "sum_left_to_right"]


def sum_left_to_right(values):
    """``sum(values)`` as CPython 3.10 and 3.11 compute it: from ``0``,
    adding left to right (and ``0`` for no values).

    CPython 3.12's :func:`sum` compensates float rounding, so a modeled
    value summed with it would change its last bits, and the golden
    digests with them, with the interpreter.
    """
    total = 0
    for value in values:
        total += value
    return total


class LatencyTracker:
    """Records a latency distribution on the virtual clock.

    Percentiles use the nearest-rank definition (the smallest recorded
    value with at least ``p`` percent of the mass at or below it), so a
    reported p99 is always an actually-observed latency and the result
    is exactly reproducible — no interpolation between samples.

    Observations live in one float64 buffer, in insertion order, that
    doubles when full: 8 bytes per value (plus doubling slack) instead
    of a boxed Python float's ~33, which is what lets a fleet-scale run
    keep every latency of every replica, tenant and histogram exactly.
    Percentiles read a cached stable sort of it, so equal values (``0.0``
    and ``-0.0`` among them) keep insertion order, exactly as
    :func:`sorted` over a list of floats does.
    """

    _INITIAL = 16

    def __init__(self):
        self._buffer = np.empty(0)
        self._count = 0
        # The cache protocol is "None means invalid"; an empty tracker
        # has nothing cached yet, so it starts invalid too.
        self._sorted: np.ndarray | None = None

    @property
    def _values(self) -> np.ndarray:
        """The observations in insertion order (a view of the buffer)."""
        return self._buffer[:self._count]

    def _append(self, values) -> None:
        """Append already-validated ``values`` (an array or a sequence
        of floats), doubling the buffer as needed."""
        count = self._count
        total = count + len(values)
        buffer = self._buffer
        if total > len(buffer):
            grown = np.empty(max(len(buffer) * 2, total, self._INITIAL))
            grown[:count] = buffer[:count]
            buffer = self._buffer = grown
        buffer[count:total] = values
        self._count = total
        self._sorted = None

    def record(self, seconds: float) -> None:
        """Add one observation (seconds, must be >= 0)."""
        seconds = float(seconds)
        if not seconds >= 0.0:
            raise ValueError(f"latency must be >= 0, got {seconds}")
        self._append((seconds,))

    def record_many(self, values) -> None:
        """Bulk-ingest an iterable/array of observations (all >= 0).

        One validation pass, one slice write — the vectorized path the
        cluster report uses to build per-tenant distributions out of a
        million-row latency array without a Python-level loop per
        sample.  A numpy array validates in one ``min`` reduction; any
        other iterable takes the element-wise path.
        """
        if isinstance(values, np.ndarray):
            if len(values) == 0:
                return
            low = values.min()
            if not low >= 0.0:  # also catches NaN
                raise ValueError(f"latency must be >= 0, got {low}")
            self._append(values)
            return
        values = [float(v) for v in values]
        for value in values:
            if not value >= 0.0:
                raise ValueError(f"latency must be >= 0, got {value}")
        if values:
            self._append(values)

    def merge(self, other: "LatencyTracker") -> None:
        """Fold another tracker's observations into this one.

        Concatenate-then-invalidate: the merged tracker reports exactly
        the nearest-rank percentiles a single tracker over the union of
        observations would — the property the cluster report relies on
        to aggregate per-replica distributions without approximation
        (no bucketing, no quantile sketches).  ``other`` is unchanged.
        """
        if other is self:
            raise ValueError("cannot merge a tracker into itself")
        if other._count:
            self._append(other._values)

    @classmethod
    def merge_all(cls, trackers) -> "LatencyTracker":
        """A fresh tracker over the union of ``trackers``' observations.

        Equivalent to recording every underlying observation into one
        tracker, in tracker order; the inputs are unchanged.
        """
        trackers = list(trackers)
        merged = cls()
        # One exact-size buffer: no doubling slack on the union.
        merged._buffer = np.empty(sum(len(t) for t in trackers))
        for tracker in trackers:
            merged.merge(tracker)
        return merged

    def __len__(self) -> int:
        return self._count

    def _ordered(self) -> np.ndarray:
        if self._sorted is None:
            self._sorted = np.sort(self._values, kind="stable")
        return self._sorted

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile ``p`` in [0, 100]."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._count:
            raise ValueError("no latencies recorded")
        ordered = self._ordered()
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return float(ordered[rank - 1])

    @property
    def p50(self) -> float:
        """Median latency."""
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        """95th-percentile latency."""
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        """99th-percentile latency — the SLA metric."""
        return self.percentile(99.0)

    @property
    def mean(self) -> float:
        """Arithmetic mean latency.

        The sum adds left to right from ``0.0`` (a cumulative sum; the
        trailing ``+ 0.0`` turns an all-``-0.0`` total into ``0.0``, as
        ``0 + -0.0`` does), bit for bit what :func:`sum` gives on
        CPython 3.10/3.11.  CPython 3.12's :func:`sum` compensates
        rounding instead, so calling it here would make every modeled
        ``mean_s`` depend on the interpreter.
        """
        if not self._count:
            raise ValueError("no latencies recorded")
        with np.errstate(over="ignore"):  # sum() overflows silently
            total = float(np.cumsum(self._values)[-1]) + 0.0
        return total / self._count

    @property
    def max(self) -> float:
        """Worst observed latency."""
        if not self._count:
            raise ValueError("no latencies recorded")
        return float(self._ordered()[-1])

    def summary(self) -> dict:
        """Machine-readable percentile summary."""
        if not self._count:
            return {"count": 0}
        return {
            "count": self._count,
            "mean_s": self.mean,
            "p50_s": self.p50,
            "p95_s": self.p95,
            "p99_s": self.p99,
            "max_s": self.max,
        }


class Counter:
    """A monotonically increasing count.

    Attributes:
        name: Registry key.
        value: Current count.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0 — counters never go down)."""
        if amount < 0:
            raise ValueError(f"counters only increase, got {amount}")
        self.value += amount


class Gauge:
    """A point-in-time value (queue depth, pool size, model version).

    Attributes:
        name: Registry key.
        value: Last set value (``None`` until first set).
        peak: Largest value ever set (``None`` until first set).
    """

    __slots__ = ("name", "value", "peak")

    def __init__(self, name: str):
        self.name = name
        self.value: float | None = None
        self.peak: float | None = None

    def set(self, value: float) -> None:
        """Record the current value (and track the peak)."""
        value = float(value)
        self.value = value
        self.peak = value if self.peak is None else max(self.peak, value)


class MetricsRegistry:
    """Lazily-created named metrics with one machine-readable summary.

    Example::

        metrics = MetricsRegistry()
        metrics.counter("serve.dropped").inc()
        metrics.histogram("serve.latency_s").record(0.004)
        metrics.summary()

    Instrument names are namespaced by convention
    (``<subsystem>.<what>``, seconds-valued histograms suffixed
    ``_s``) — the catalog lives in ``docs/architecture.md``.
    """

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, LatencyTracker] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str) -> LatencyTracker:
        """Get or create the histogram ``name`` (a LatencyTracker)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = LatencyTracker()
        return histogram

    def __len__(self) -> int:
        return (len(self._counters) + len(self._gauges)
                + len(self._histograms))

    def summary(self) -> dict:
        """All instruments, keyed by kind then name (sorted)."""
        return {
            "counters": {name: c.value for name, c
                         in sorted(self._counters.items())},
            "gauges": {name: {"value": g.value, "peak": g.peak}
                       for name, g in sorted(self._gauges.items())},
            "histograms": {name: h.summary() for name, h
                           in sorted(self._histograms.items())},
        }
