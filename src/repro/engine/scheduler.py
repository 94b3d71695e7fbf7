"""The multi-query scheduler: interleaved discrete events on one Σ.

The paper's cost model lives on a *shared* network — links serialize
transfers FIFO, peers process one thing at a time — yet a single
:meth:`Session.query <repro.session.Session.query>` only ever threads one
plan through that fabric.  The scheduler closes the gap: it admits a
stream of jobs against one serving system and replays them as discrete
events on the shared virtual clock, so transfers and compute of
*different* queries contend exactly like the transfers of one.

Mechanics:

* an **event heap** orders admissions and completions by virtual time;
  ties break deterministically (completions before admissions, then a
  seeded jitter, then submission order), so the event trace is
  byte-stable for a fixed seed;
* each admission optimizes the job through the session's strategy with
  the session's shared :class:`~repro.core.planspace.PlanCache`
  (warm-cache serving: a job repeating an already-planned query at the
  same site skips the search and runs its prepared plan), then
  evaluates the chosen plan with ``ready_at`` equal to the admission
  instant — *not* zero — so the job queues behind every
  resource commitment made by earlier arrivals;
* peers are contended resources with explicit **compute queues**: the
  scheduler charges every peer the chosen plan names for the job's
  lifetime (:meth:`Peer.enqueue_job <repro.peers.peer.Peer.enqueue_job>`),
  and the default admission policy
  (:class:`~repro.peers.registry.QueueDepthPolicy`) resolves generic
  (``@any``) replicas toward the shallowest queue;
* completions feed closed-loop load sources
  (:class:`~repro.engine.loadgen.ClosedLoopFeed`), which admit their next
  request the instant a slot frees.

Admission order is resource-commitment order: a job admitted at *t*
owns its link and CPU slots ahead of any job admitted later, which is
precisely the FIFO semantics :class:`~repro.net.network.Link` already
implements for one query's transfers.
"""

from __future__ import annotations

import heapq
from dataclasses import replace
from random import Random
from time import perf_counter as _perf_counter
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple, Union

from ..errors import ReproError, SessionError
from ..faults.churn import ChurnController
from ..faults.plan import PEER_CRASH
from ..peers.registry import POLICIES, PickPolicy
from ..peers.system import AXMLSystem
from .jobs import DONE, FAILED, RUNNING, JobRequest, QueryJob, plan_peers
from .metrics import ServingReport, summarize

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.recovery import RecoveringEvaluator
    from ..session import Session

__all__ = ["Scheduler"]

#: Event kinds, in same-instant processing order: free resources first,
#: then apply the fault plan's crashes and rejoins, then admit new work
#: against the (possibly just failed-over) catalog.
_COMPLETION = 0
_MEMBERSHIP = 1
_ARRIVAL = 2
_KIND_NAMES = {_COMPLETION: "finish", _MEMBERSHIP: "fault", _ARRIVAL: "admit"}


class _ChargingPolicy(PickPolicy):
    """Wraps the admission policy so every pick charges a compute queue.

    Generic (``@any``) references only resolve *inside* the evaluator, so
    the scheduler cannot know up front which replica a job will lean on.
    This wrapper observes each resolution and enqueues the picked peer on
    the in-flight job — which is exactly the signal
    :class:`~repro.peers.registry.QueueDepthPolicy` needs to steer the
    *next* job's pick away from loaded replicas.

    Fragment replicas ride the same path: a replicated fragment of a
    ``doc@dist`` document (see :mod:`repro.dist`) is registered as a
    generic class, so scatter-gather fan-out resolves each fragment read
    through this wrapper too — per-fragment, replica-aware admission
    with no extra machinery.
    """

    def __init__(self, inner: Optional[PickPolicy], scheduler: "Scheduler") -> None:
        self.inner = inner
        self.scheduler = scheduler

    def choose(self, members, requester, system):
        from ..peers.registry import FirstPolicy

        member = (self.inner or FirstPolicy()).choose(members, requester, system)
        self.scheduler._charge_pick(member.peer)
        return member


class Scheduler:
    """Admits jobs against a shared system and drains them as events.

    One scheduler serves one stream: :meth:`Session.serve
    <repro.session.Session.serve>` builds a fresh one, submits the
    requests and drains it once (a second :meth:`drain` raises); a feed
    submits follow-on requests while it drains.

    Parameters
    ----------
    session:
        The configured :class:`~repro.session.Session` whose optimizer
        (strategy, rules, shared plan cache) plans every job against
        the live Σ; serving runs against a clone of Σ taken at
        :meth:`drain` time, so nothing a job does lands on the session's
        system.
    seed:
        Seeds the tie-breaking jitter for same-instant events; the whole
        event trace is a pure function of (submissions, feed, seed).
    admission:
        Pick policy resolving generic (``@any``) references at execution
        time — a registered policy name or a
        :class:`~repro.peers.registry.PickPolicy` instance.  Defaults to
        ``"queue-depth"`` (replica-aware).  ``None`` falls back to the
        session's ``pick_policy``.
    """

    def __init__(
        self,
        session: "Session",
        seed: int = 0,
        admission: Union[str, PickPolicy, None] = "queue-depth",
    ) -> None:
        self.session = session
        self.seed = seed
        #: Timestamped action trace of the fault plan's crashes and
        #: rejoins (kills, failovers, rejoins).
        self.actions: List[str] = []
        self._rng = Random(f"engine:{seed}")
        if isinstance(admission, str):
            factory = POLICIES.get(admission)
            if factory is None:
                raise SessionError(
                    f"unknown admission policy {admission!r}; "
                    f"pick one of {', '.join(sorted(POLICIES))}"
                )
            admission = factory()
        self.admission: Optional[PickPolicy] = (
            admission if admission is not None else session.pick_policy
        )
        self._heap: List[Tuple[float, int, float, int, object]] = []
        self._seq = 0
        self.jobs: List[QueryJob] = []
        self.events: List[str] = []
        self._drained = False
        #: Serving Σ, the job being admitted, and the controller applying
        #: the fault plan's crashes and rejoins (set during drain).
        self._target: Optional[AXMLSystem] = None
        self._current_job: Optional[QueryJob] = None
        self._churn: Optional[ChurnController] = None

    # -- submission --------------------------------------------------------------
    def submit(self, request: JobRequest) -> QueryJob:
        """Enqueue one request; returns its (pending) job."""
        try:
            arrival = request.arrival
        except AttributeError:
            raise SessionError(
                f"unsupported request {request!r}; pass a JobRequest"
            ) from None
        if arrival < 0:
            raise SessionError(
                f"job arrival must be non-negative, got {arrival!r}"
            )
        job = QueryJob(job_id=len(self.jobs), request=request, arrival=arrival)
        self.jobs.append(job)
        self._push(arrival, _ARRIVAL, job)
        return job

    def submit_all(self, requests: Iterable[JobRequest]) -> List[QueryJob]:
        return [self.submit(request) for request in requests]

    def _push(self, time: float, kind: int, job: QueryJob) -> None:
        self._seq += 1
        heapq.heappush(
            self._heap, (time, kind, self._rng.random(), self._seq, job)
        )

    # -- the event loop ----------------------------------------------------------
    def drain(self, feed=None) -> ServingReport:
        """Run every event to quiescence; returns the fleet report.

        ``feed`` is an optional closed-loop source: ``feed.initial()``
        yields the first wave of requests and ``feed.on_complete(job,
        now)`` is consulted at every completion for follow-on work (it
        may return a request, a list of requests, or ``None``).
        """
        if self._drained:
            raise SessionError("this scheduler was already drained")
        self._drained = True
        evaluator = self.session._evaluator(
            _ChargingPolicy(self.admission, self)
        )
        target = self._target = evaluator.system
        # the fault plan's crashes and rejoins are events on the heap, so
        # each lands at its scripted instant (a fault-free run pushes none)
        state = target.network.faults
        membership = state.plan.peer_events() if state is not None else ()
        if membership:
            self._churn = ChurnController(target)
        for event in membership:
            self._push(event.start, _MEMBERSHIP, event)
        if feed is not None:
            self.submit_all(feed.initial())
        while self._heap:
            time, kind, _tie, _seq, job = heapq.heappop(self._heap)
            if kind == _MEMBERSHIP:
                label = f"{job.kind} {job.peer}"
            else:
                label = job.name
            self.events.append(f"{time:.9f} {_KIND_NAMES[kind]} {label}")
            if kind == _MEMBERSHIP:
                self._membership(job, time, target)
            elif kind == _ARRIVAL:
                self._admit(job, time, target, evaluator)
            else:
                self._complete(job, time, target, feed)
        busy = {
            peer_id: target.peer(peer_id).busy_time
            for peer_id in target.peers
        }
        tracer = target.network.tracer
        # the scripted fault windows, as run-level spans next to the job
        # trees (instants — crash/rejoin — render zero-width)
        for event in state.plan.events if state is not None else ():
            tracer.run_span(
                f"fault {event.kind}",
                "fault",
                event.start,
                max(event.start, event.end),
                detail=event.describe(),
            )
        return ServingReport(
            jobs=list(self.jobs),
            metrics=summarize(self.jobs, busy),
            network=target.network.stats.snapshot(),
            peers=target.stats_snapshot(),
            events=list(self.events),
            actions=list(self.actions),
            registry=target.network.metrics,
            trace=tracer.trace(),
        )

    def _membership(self, event, now: float, target: AXMLSystem) -> None:
        """Apply one of the fault plan's crashes or rejoins at its instant.

        A crash kills the peer through
        :class:`~repro.faults.ChurnController` (catalog failover,
        registry scrub, in-flight traffic cancelled); a rejoin revives
        it.  Either is counted as ``faults{kind=peer_crashes|peer_rejoins}``
        and traced as a placement action.
        """
        if event.kind == PEER_CRASH:
            notes, kind = self._churn.kill(event.peer, now=now), "peer_crashes"
        else:
            notes, kind = self._churn.join(event.peer), "peer_rejoins"
        target.network.metrics.counter("faults", kind=kind).inc()
        self._act(now, notes)

    def _act(self, now: float, notes: List[str]) -> None:
        """Trace the catalog changes a crash or rejoin made at ``now``.

        The plan cache keeps its entries: a crash or rejoin changes only
        the serving clone, while every job is planned against the live Σ,
        so a prepared plan and a fresh search read the same state.  The
        run span keeps its historical category, ``"placement"``.
        """
        for note in notes:
            self.actions.append(f"{now:.9f} {note}")
            self._target.network.tracer.run_span(note, "placement", now, now)

    def _admit(
        self,
        job: QueryJob,
        now: float,
        target: AXMLSystem,
        evaluator: RecoveringEvaluator,
    ) -> None:
        """Plan a job, claim its peers and run it from ``now``.

        The job's span root opens before planning, which burns wall time
        but no virtual time: a zero-duration ``plan`` span at ``now``
        carries the search stats and the wall cost, then come the wait
        for the site CPU and the ``eval`` subtree.  A job that fails
        before its ``eval`` subtree opens gets its root closed here.
        """
        job.status = RUNNING
        job.admitted_at = now
        request = job.request
        tracer = target.network.tracer
        tracer.begin_job(job.name, job.arrival, site=request.at)
        report = None
        self._current_job = job
        try:
            plan_wall = _perf_counter()
            report = self.session.plan_job(request)
            site = report.plan.site
            job.peers = plan_peers(report.plan.expr, site)
            for peer_id in job.peers:
                target.peer(peer_id).enqueue_job()
            job.started_at = max(now, target.peer(site).busy_until)
            tracer.record(
                "plan",
                "plan",
                now,
                now,
                strategy=report.strategy,
                cost_model=self.session.cost_model.name,
                explored=report.explored,
                site=site,
                prepared=report.plan_cache.prepared_hits > 0,
                wall_ms=(_perf_counter() - plan_wall) * 1000.0,
            )
            if job.started_at > now:
                tracer.record(
                    "admission-queue",
                    "queue",
                    now,
                    job.started_at,
                    resource=f"cpu {site}",
                )
            self.session._run_report(
                report,
                evaluator,
                job.name,
                ready_at=now,
                deadline=request.deadline,
                partial=request.partial,
            )
        except ReproError as exc:
            job.status = FAILED
            job.error = exc
            # a late answer fails when its deadline ran out (the instant
            # its error carries); anything else failed right at admission
            late = report is not None and report.executed
            job.finished_at = exc.at if late else now
            # a no-op once the eval path has closed the root
            tracer.end_job(now, status="failed", error=type(exc).__name__)
        except BaseException as exc:
            # an untyped crash propagates, but never with the root open
            tracer.end_job(now, status="failed", error=type(exc).__name__)
            raise
        else:
            job.status = DONE
            job.finished_at = report.completed_at
            job.partial = report.partial
            job.report = report
        finally:
            self._current_job = None
        self._push(job.finished_at, _COMPLETION, job)

    def _charge_pick(self, peer_id: str) -> None:
        """A generic pick resolved to ``peer_id``: claim its queue.

        Called by the :class:`_ChargingPolicy` wrapper mid-evaluation; the
        claim is released with the rest of the job's peers at completion.
        ``queued`` counts in-flight *jobs* per peer, so a job already
        holding a claim on the peer does not claim twice.
        """
        job = self._current_job
        if job is None or peer_id in job.peers:
            return
        self._target.peer(peer_id).enqueue_job()
        job.peers = job.peers + (peer_id,)

    def _complete(self, job: QueryJob, now: float, target, feed) -> None:
        for peer_id in job.peers:
            target.peer(peer_id).dequeue_job()
        if feed is None:
            return
        follow = feed.on_complete(job, now)
        if follow is None:
            return
        if isinstance(follow, JobRequest):
            follow = [follow]
        for request in follow:
            if request.arrival < now:
                request = replace(request, arrival=now)
            self.submit(request)
