"""Labeled metrics: counters, gauges, and histograms for serving runs.

The engine folds fault/recovery counters, the placement-action count,
per-job latencies and per-peer utilization into one
:class:`MetricsRegistry` with labeled instruments, so benches and the
CLI read a single shape instead of scraping dicts.

Instruments are deterministic, allocation-light python objects — no
background threads, no wall clocks — so a registry can ride a serving
run without perturbing it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "percentile"]

#: A label set, canonically ordered so equal label dicts are one key.
LabelKey = Tuple[Tuple[str, str], ...]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 on empty input."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count (retries spent, bytes moved)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> int:
        self.value += n
        return self.value


class Gauge:
    """A point-in-time level (queue depth, peer utilization)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> float:
        self.value = value
        return self.value


class Histogram:
    """A distribution (job latency).  Keeps raw observations.

    At serving-run scale (tens to thousands of jobs) storing the raw
    values beats maintaining bucket boundaries, and lets callers ask
    for any percentile after the fact.
    """

    __slots__ = ("name", "labels", "values")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def sum(self) -> float:
        return sum(self.values)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.values else 0.0

    def percentile(self, q: float) -> float:
        return percentile(self.values, q)


class MetricsRegistry:
    """Get-or-create registry of labeled instruments.

    ``registry.counter("faults", kind="retries").inc()`` — one instrument
    per ``(name, labels)`` pair, shared by every caller that names it.
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    # -- instruments -------------------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        key = (name, _label_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(name, key[1])
        return instrument

    def gauge(self, name: str, **labels) -> Gauge:
        key = (name, _label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(name, key[1])
        return instrument

    def histogram(self, name: str, **labels) -> Histogram:
        key = (name, _label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(name, key[1])
        return instrument

    # -- reading -----------------------------------------------------------------
    def counters(self, name: Optional[str] = None) -> List[Counter]:
        return [
            c for (n, _), c in sorted(self._counters.items())
            if name is None or n == name
        ]

    def counter_value(self, name: str, **labels) -> int:
        key = (name, _label_key(labels))
        instrument = self._counters.get(key)
        return instrument.value if instrument is not None else 0

    def to_dict(self) -> Dict[str, object]:
        """A stable, JSON-ready image of every instrument."""
        image: Dict[str, object] = {"counters": [], "gauges": [], "histograms": []}
        for (name, labels), c in sorted(self._counters.items()):
            image["counters"].append(
                {"name": name, "labels": dict(labels), "value": c.value}
            )
        for (name, labels), g in sorted(self._gauges.items()):
            image["gauges"].append(
                {"name": name, "labels": dict(labels), "value": g.value}
            )
        for (name, labels), h in sorted(self._histograms.items()):
            image["histograms"].append(
                {
                    "name": name,
                    "labels": dict(labels),
                    "count": h.count,
                    "sum": h.sum,
                    "p50": h.percentile(50),
                    "p95": h.percentile(95),
                    "p99": h.percentile(99),
                }
            )
        return image

    def describe(self) -> str:
        lines = []
        for (name, labels), c in sorted(self._counters.items()):
            tag = _format_labels(labels)
            lines.append(f"{name}{tag}: {c.value}")
        for (name, labels), g in sorted(self._gauges.items()):
            tag = _format_labels(labels)
            lines.append(f"{name}{tag}: {g.value:.6g}")
        for (name, labels), h in sorted(self._histograms.items()):
            tag = _format_labels(labels)
            lines.append(
                f"{name}{tag}: n={h.count} mean={h.mean:.6g} "
                f"p50={h.percentile(50):.6g} p95={h.percentile(95):.6g} "
                f"p99={h.percentile(99):.6g}"
            )
        return "\n".join(lines)


def _format_labels(labels: Sequence[Tuple[str, str]]) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"
