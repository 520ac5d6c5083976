"""The list-based latency tracker, kept as the oracle for
:class:`repro.observability.metrics.LatencyTracker`.

This is the tracker that stored every observation as a Python float in
a list and sorted a list copy for percentiles.  One line differs:
``mean`` adds left to right in a loop instead of calling :func:`sum`.
On CPython 3.10/3.11 the two are the same bits; CPython 3.12's
:func:`sum` compensates rounding, which would make the oracle itself
depend on the interpreter.
"""

from __future__ import annotations

import math

import numpy as np


class ListLatencyTracker:
    """Nearest-rank percentiles over a list of Python floats."""

    def __init__(self):
        self._values: list[float] = []
        self._sorted: list[float] | None = None

    def record(self, seconds: float) -> None:
        seconds = float(seconds)
        if not seconds >= 0.0:
            raise ValueError(f"latency must be >= 0, got {seconds}")
        self._values.append(seconds)
        self._sorted = None

    def record_many(self, values) -> None:
        if isinstance(values, np.ndarray):
            if len(values) == 0:
                return
            low = np.min(values)
            if not low >= 0.0:  # also catches NaN
                raise ValueError(f"latency must be >= 0, got {low}")
            self._values.extend(values.tolist())
            self._sorted = None
            return
        values = [float(v) for v in values]
        for value in values:
            if not value >= 0.0:
                raise ValueError(f"latency must be >= 0, got {value}")
        if values:
            self._values.extend(values)
            self._sorted = None

    def merge(self, other: "ListLatencyTracker") -> None:
        if other is self:
            raise ValueError("cannot merge a tracker into itself")
        if other._values:
            self._values.extend(other._values)
            self._sorted = None

    @classmethod
    def merge_all(cls, trackers) -> "ListLatencyTracker":
        merged = cls()
        for tracker in trackers:
            merged.merge(tracker)
        return merged

    def __len__(self) -> int:
        return len(self._values)

    def _ordered(self) -> list[float]:
        if self._sorted is None:
            self._sorted = sorted(self._values)
        return self._sorted

    def percentile(self, p: float) -> float:
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._values:
            raise ValueError("no latencies recorded")
        ordered = self._ordered()
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    @property
    def mean(self) -> float:
        if not self._values:
            raise ValueError("no latencies recorded")
        total = 0
        for value in self._values:
            total += value
        return total / len(self._values)

    @property
    def max(self) -> float:
        if not self._values:
            raise ValueError("no latencies recorded")
        return self._ordered()[-1]

    def summary(self) -> dict:
        if not self._values:
            return {"count": 0}
        return {
            "count": len(self._values),
            "mean_s": self.mean,
            "p50_s": self.p50,
            "p95_s": self.p95,
            "p99_s": self.p99,
            "max_s": self.max,
        }
