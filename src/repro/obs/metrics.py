"""Labeled counters: the fault and recovery tallies of a run.

A run's :class:`MetricsRegistry` lives on ``network.metrics``, installed
fresh by the session next to ``network.tracer`` and ``network.faults``.
The network, :class:`~repro.faults.RecoveringEvaluator` and the
scheduler count ``faults{kind=…}`` there, and a serving run hands the
same object back as ``ServingReport.registry``.  The optimizer keeps a
session-lifetime registry of its own (``rule_errors``,
``rewrites_dropped``).

Counters are deterministic, allocation-light python objects — no
background threads, no wall clocks — so a registry can ride a run
without perturbing it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["Counter", "MetricsRegistry", "percentile"]

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
    """A monotonically increasing count (retries spent, messages dropped)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> int:
        self.value += n
        return self.value


class MetricsRegistry:
    """Get-or-create registry of labeled counters.

    ``registry.counter("faults", kind="retries").inc()`` — one counter
    per ``(name, labels)`` pair, shared by every caller that names it.
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}

    def counter(self, name: str, **labels) -> Counter:
        key = (name, _label_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(name, key[1])
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
        """A stable, JSON-ready image of every counter."""
        return {
            "counters": [
                {"name": name, "labels": dict(labels), "value": c.value}
                for (name, labels), c in sorted(self._counters.items())
            ]
        }

    def describe(self) -> str:
        return "\n".join(
            f"{name}{_format_labels(labels)}: {c.value}"
            for (name, labels), c in sorted(self._counters.items())
        )


def _format_labels(labels: Sequence[Tuple[str, str]]) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"
