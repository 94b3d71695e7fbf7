"""Serving jobs: one admitted query, its timestamps, and its outcome.

A :class:`JobRequest` is what clients hand the engine — XQuery source, an
evaluation site, bindings, and a virtual arrival time.  The scheduler
turns each request into a :class:`QueryJob`, the unit the event loop
tracks: admission / start / finish timestamps on the shared virtual
clock, the peers whose compute queues the job occupies, and the final
:class:`~repro.session.ExecutionReport` once the job settles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Mapping, Optional, Tuple

from ..core.expressions import (
    ANY,
    Expression,
    QueryApply,
    QueryRef,
    Send,
    ServiceCallExpr,
    walk,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..session import ExecutionReport

__all__ = ["JobRequest", "QueryJob", "plan_peers"]

#: Job lifecycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"


@dataclass(frozen=True)
class JobRequest:
    """One query the engine should serve, plus when it arrives.

    ``arrival`` is virtual seconds on the shared serving clock; the
    scheduler never admits a job before its arrival.  ``optimize=False``
    serves the naive plan as-is (useful as a contention baseline).
    """

    source: str
    at: str
    bind: Optional[Mapping[str, object]] = None
    name: Optional[str] = None
    arrival: float = 0.0
    optimize: bool = True
    #: Virtual seconds the client waits past ``arrival`` before the job
    #: must have settled.  ``None`` (the default) means unbounded — the
    #: historical behavior.  A blown deadline fails the job with a typed
    #: :class:`~repro.errors.DeadlineExceededError`, or degrades it to a
    #: :class:`~repro.faults.PartialAnswer` when ``partial`` is set.
    deadline: Optional[float] = None
    #: Accept a graceful partial answer under faults instead of failing:
    #: lost fragments/services/branches are dropped from the answer and
    #: recorded as :class:`~repro.faults.PartialAnswer` provenance.
    partial: bool = False


@dataclass
class QueryJob:
    """One admitted query moving through the serving engine.

    Timestamps are virtual: ``arrival`` is when the client issued the
    query, ``admitted_at`` when the scheduler popped its arrival event
    (for closed-loop feeds this is when a slot freed up), ``started_at``
    when the evaluation site's CPU could first pick it up, and
    ``finished_at`` when its value and side effects settled.
    """

    job_id: int
    request: JobRequest
    status: str = PENDING
    arrival: float = 0.0
    admitted_at: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    #: Peers whose compute queues this job occupies while in flight.
    peers: Tuple[str, ...] = ()
    report: Optional["ExecutionReport"] = None
    error: Optional[BaseException] = None
    #: Provenance of a degraded answer (:class:`~repro.faults.PartialAnswer`)
    #: when the job ran with ``partial=True`` and faults cost it parts or
    #: its deadline; ``None`` means the answer is complete and exact.
    partial: Optional[object] = None

    @property
    def name(self) -> str:
        return self.request.name or f"job-{self.job_id}"

    @property
    def latency(self) -> float:
        """Client-observed virtual latency: arrival to settle."""
        return self.finished_at - self.arrival

    @property
    def wait(self) -> float:
        """Virtual time spent queueing before the site CPU was free."""
        return self.started_at - self.arrival

    @property
    def answers(self) -> List[str]:
        """The job's serialized answer forest (empty until done)."""
        return self.report.answers if self.report is not None else []

    def describe(self) -> str:
        return (
            f"{self.name:12s} {self.status:7s} "
            f"arrive {self.arrival * 1000:8.2f}ms  "
            f"finish {self.finished_at * 1000:8.2f}ms  "
            f"latency {self.latency * 1000:8.2f}ms"
        )


def plan_peers(expr: Expression, site: str) -> Tuple[str, ...]:
    """Every concrete peer a plan names, evaluation site included.

    The scheduler charges these peers' compute queues for the job's
    lifetime, which is what the replica-aware
    :class:`~repro.peers.registry.QueueDepthPolicy` reads at pick time.
    Generic (``@any``) references contribute nothing here — their peer is
    only known once the policy resolves them (the scheduler charges those
    picks as the evaluator makes them).

    Built on the algebra's own :func:`~repro.core.expressions.walk`;
    the per-node metadata ``children()`` does not cover — apply heads,
    send destinations and relay hops, forward targets — is collected
    explicitly.
    """
    found = {site}
    for node in walk(expr):
        for attr in ("home", "peer", "provider"):
            value = getattr(node, attr, None)
            if isinstance(value, str):
                found.add(value)
        if isinstance(node, QueryApply) and isinstance(node.query, QueryRef):
            found.add(node.query.home)
        elif isinstance(node, Send):
            found.update(node.via)  # rule-(12) store-and-forward relays
            dest_peer = getattr(node.dest, "peer", None)
            if isinstance(dest_peer, str):
                found.add(dest_peer)
            for target in getattr(node.dest, "nodes", ()) or ():
                found.add(target.peer)
        elif isinstance(node, ServiceCallExpr):
            for target in node.forwards:
                found.add(target.peer)
    return tuple(sorted(p for p in found if p != ANY))
