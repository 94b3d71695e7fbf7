"""Fleet-level serving metrics: what the throughput benchmarks report.

A :class:`ServingReport` is what :meth:`Session.serve
<repro.session.Session.serve>` returns: every :class:`~repro.engine.jobs.QueryJob`
(each carrying its own per-job :class:`~repro.session.ExecutionReport`)
plus the fleet aggregates the paper's shared-network regime is about —
makespan, latency percentiles, queries per second, and per-peer
utilization of the contended compute queues.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..obs.metrics import MetricsRegistry, percentile
from .jobs import DONE, FAILED, QueryJob

if TYPE_CHECKING:  # pragma: no cover
    from ..session import ExecutionReport

__all__ = ["FleetMetrics", "ServingReport", "percentile"]


@dataclass
class FleetMetrics:
    """Aggregates over one drained serving run (virtual time throughout)."""

    jobs: int = 0
    failed: int = 0
    #: Completed jobs that degraded to a partial answer under faults.
    partials: int = 0
    #: First arrival to last settle — the fleet's wall clock.
    makespan: float = 0.0
    #: Completed jobs per virtual second of makespan.
    queries_per_sec: float = 0.0
    latency_mean: float = 0.0
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_p99: float = 0.0
    latency_max: float = 0.0
    #: Mean virtual time jobs spent queueing before their site CPU freed.
    wait_mean: float = 0.0
    #: peer id -> CPU busy seconds / makespan (0 when makespan is 0).
    utilization: Dict[str, float] = field(default_factory=dict)

    def describe(self) -> str:
        partial = f" ({self.partials} partial)" if self.partials else ""
        lines = [
            f"jobs:        {self.jobs} completed{partial}, "
            f"{self.failed} failed",
            f"makespan:    {self.makespan * 1000:.2f}ms virtual "
            f"({self.queries_per_sec:.2f} queries/sec)",
            f"latency:     mean {self.latency_mean * 1000:.2f}ms  "
            f"p50 {self.latency_p50 * 1000:.2f}ms  "
            f"p95 {self.latency_p95 * 1000:.2f}ms  "
            f"p99 {self.latency_p99 * 1000:.2f}ms  "
            f"max {self.latency_max * 1000:.2f}ms",
            f"queue wait:  mean {self.wait_mean * 1000:.2f}ms",
        ]
        for peer_id in sorted(self.utilization):
            lines.append(
                f"  peer {peer_id:12s} utilization "
                f"{self.utilization[peer_id]:6.1%}"
            )
        return "\n".join(lines)


@dataclass
class ServingReport:
    """Everything one drained serving run produced.

    ``jobs`` are in admission order; ``metrics`` aggregates them;
    ``network`` / ``peers`` are the shared system's totals over the whole
    run (per-job attribution is impossible on a shared fabric — that
    contention is the point).
    """

    jobs: List[QueryJob] = field(default_factory=list)
    metrics: FleetMetrics = field(default_factory=FleetMetrics)
    #: Whole-network totals (bytes, messages, by kind) for the run.
    network: Dict[str, object] = field(default_factory=dict)
    #: Per-peer stats snapshot (traffic, work, busy time) for the run.
    peers: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: Scheduler event trace ``(time, kind, job name)``, admission order —
    #: byte-stable for a fixed seed (the determinism tests pin this).
    events: List[str] = field(default_factory=list)
    #: Timestamped placement-action trace: the kills, failovers and
    #: rejoins of the fault plan's crash/rejoin events; empty for a run
    #: without crashes.
    actions: List[str] = field(default_factory=list)
    #: The run's ``network.metrics`` (:class:`repro.obs.MetricsRegistry`):
    #: its ``faults{kind=…}`` tallies — messages dropped, transfers
    #: corrupted, retries spent, parts lost, peer crashes, … — counted
    #: where they happened; empty for a fault-free run.
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: Virtual-clock span trees (:class:`repro.obs.Trace`) when the
    #: session had a :class:`repro.obs.Tracer` installed; ``None``
    #: otherwise (tracing off is the zero-cost default).
    trace: Optional[object] = None

    @property
    def reports(self) -> List[Optional["ExecutionReport"]]:
        """Per-job execution reports, admission order."""
        return [job.report for job in self.jobs]

    def job(self, name: str) -> QueryJob:
        for job in self.jobs:
            if job.name == name:
                return job
        raise KeyError(f"no served job named {name!r}")

    def describe(self) -> str:
        lines = [self.metrics.describe(), "jobs:"]
        for job in self.jobs:
            lines.append(f"  {job.describe()}")
        if self.actions:
            lines.append("placement actions:")
            for action in self.actions:
                lines.append(f"  {action}")
        faults = self.registry.counters("faults")
        if faults:
            lines.append("faults:")
            for counter in faults:
                lines.append(f"  {dict(counter.labels)['kind']}: {counter.value}")
        return "\n".join(lines)


def summarize(
    jobs: Sequence[QueryJob],
    utilization_peers: Optional[Dict[str, float]] = None,
) -> FleetMetrics:
    """Fold per-job timestamps into :class:`FleetMetrics`."""
    completed = [job for job in jobs if job.status == DONE]
    failed = sum(1 for job in jobs if job.status == FAILED)
    partials = sum(
        1 for job in completed if getattr(job, "partial", None) is not None
    )
    metrics = FleetMetrics(jobs=len(completed), failed=failed, partials=partials)
    # the makespan window spans *every* terminal job — a failed job still
    # arrived, occupied resources, and settled (to its error) inside the
    # run; excluding it shrank the window and inflated qps on faulted runs
    terminal = [job for job in jobs if job.finished_at is not None]
    if terminal:
        first = min(job.arrival for job in terminal)
        last = max(job.finished_at for job in terminal)
        metrics.makespan = last - first
    if not completed:
        return metrics
    latencies = [job.latency for job in completed]
    metrics.latency_mean = sum(latencies) / len(latencies)
    metrics.latency_p50 = percentile(latencies, 50)
    metrics.latency_p95 = percentile(latencies, 95)
    metrics.latency_p99 = percentile(latencies, 99)
    metrics.latency_max = max(latencies)
    waits = [job.wait for job in completed]
    metrics.wait_mean = sum(waits) / len(waits)
    if metrics.makespan > 0:
        metrics.queries_per_sec = len(completed) / metrics.makespan
        for peer_id, busy in (utilization_peers or {}).items():
            metrics.utilization[peer_id] = busy / metrics.makespan
    return metrics
