"""Deterministic observability: tracing, metrics, critical paths, export.

The package splits observation along the clock it observes:

* :class:`Tracer` / :class:`Trace` / :class:`Span` — **virtual-clock**
  span trees, one per served job (admission → plan → eval → settle)
  plus run-level fault-window and placement spans.  Recording spends no
  RNG and charges no virtual time; with tracing off (:data:`NO_TRACER`,
  the default) every hook is one call to a no-op method (+0.13 % to
  +0.99 % ``py_calls_per_op`` on the ``bench/`` workloads).
* :class:`MetricsRegistry` — labeled counters; a run's lives on
  ``network.metrics`` and holds its ``faults{kind=…}`` tallies (a serving
  run returns it as ``ServingReport.registry``).
* :func:`analyze` / :func:`decompose` — critical-path decomposition of
  each job's latency into queue/link/cpu/backoff/stall segments that
  sum exactly to the measured latency, naming the bottleneck resource.
* :func:`to_chrome_trace` / :func:`write_jsonl` / :func:`load_trace` —
  Perfetto-loadable Chrome-trace JSON and round-trippable JSON-lines.
"""

from .critical_path import SEGMENTS, JobPath, RunPath, analyze, decompose
from .export import (
    load_trace,
    to_chrome_trace,
    to_jsonl_records,
    write_chrome_trace,
    write_jsonl,
)
from .metrics import Counter, MetricsRegistry
from .tracer import (
    CAT_BACKOFF,
    CAT_CPU,
    CAT_EVAL,
    CAT_FAULT,
    CAT_JOB,
    CAT_LINK,
    CAT_MARK,
    CAT_PLACEMENT,
    CAT_PLAN,
    CAT_QUEUE,
    CAT_STALL,
    NO_TRACER,
    Span,
    Trace,
    Tracer,
)

__all__ = [
    "CAT_BACKOFF",
    "CAT_CPU",
    "CAT_EVAL",
    "CAT_FAULT",
    "CAT_JOB",
    "CAT_LINK",
    "CAT_MARK",
    "CAT_PLACEMENT",
    "CAT_PLAN",
    "CAT_QUEUE",
    "CAT_STALL",
    "Counter",
    "JobPath",
    "MetricsRegistry",
    "NO_TRACER",
    "RunPath",
    "SEGMENTS",
    "Span",
    "Trace",
    "Tracer",
    "analyze",
    "decompose",
    "load_trace",
    "to_chrome_trace",
    "to_jsonl_records",
    "write_chrome_trace",
    "write_jsonl",
]
