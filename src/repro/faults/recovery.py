"""Recovery machinery: retry policies, partial-answer provenance, and
:class:`RecoveringEvaluator`, the evaluator that applies them.

:class:`RetryPolicy` is deliberately *stateless*: the jitter for
attempt ``n`` of operation ``key`` is drawn from a fresh
``Random(f"retry:{seed}:{key}:{attempt}")``, so retry timing is a pure
function of the policy — independent of how many other operations
retried first, which keeps faulted runs byte-reproducible under
concurrency.

:class:`PartialAnswer` is the provenance record of a gracefully
degraded job (``partial=True`` + faults): which fragments, service
calls, or plan branches were lost (each a :class:`LostPart` with the
typed error that killed it), how many retries were spent, and whether
the deadline was blown.  The differential harness proves every partial
answer is a multiset subset of the fault-free answer — degradation
never invents data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import count
from random import Random
from typing import List, Optional, Tuple

from ..core.evaluator import EvalOutcome, ExpressionEvaluator
from ..core.expressions import DocExpr, GenericDoc, TreeExpr
from ..errors import (
    DeadlineExceededError,
    PeerDownError,
    ServiceCallFaultError,
    TransferFaultError,
    TransferTimeoutError,
    WorkloadError,
)
from ..net.message import Message
from .plan import SERVICE_HANG

__all__ = ["RetryPolicy", "LostPart", "PartialAnswer", "RecoveringEvaluator"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, seeded, virtual-clock-charged retry behavior.

    ``delay(attempt, key)`` is the backoff charged *on the virtual
    clock* after failed attempt ``attempt`` (0-based): exponential in
    the attempt with a seeded jitter fraction on top.  ``call_timeout``
    is the budget after which a silent service call is declared hung and
    cancelled.
    """

    max_attempts: int = 4
    backoff: float = 0.005
    multiplier: float = 2.0
    jitter: float = 0.25
    seed: int = 0
    call_timeout: float = 0.05

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise WorkloadError(
                f"RetryPolicy.max_attempts must be >= 1, "
                f"got {self.max_attempts!r}"
            )
        if self.backoff <= 0 or self.multiplier < 1:
            raise WorkloadError(
                "RetryPolicy needs backoff > 0 and multiplier >= 1, got "
                f"({self.backoff!r}, {self.multiplier!r})"
            )
        if not (0 <= self.jitter <= 1):
            raise WorkloadError(
                f"RetryPolicy.jitter must be in [0, 1], got {self.jitter!r}"
            )
        if self.call_timeout <= 0:
            raise WorkloadError(
                f"RetryPolicy.call_timeout must be positive, got {self.call_timeout!r}"
            )

    def delay(self, attempt: int, key: str) -> float:
        """Backoff after failed 0-based ``attempt`` of operation ``key``."""
        base = self.backoff * self.multiplier ** attempt
        spread = Random(f"retry:{self.seed}:{key}:{attempt}").random()
        return base * (1.0 + self.jitter * spread)


@dataclass(frozen=True)
class LostPart:
    """One piece of the answer that faults took away.

    ``kind`` is ``"fragment"`` (a fragment with no reachable copy),
    ``"service"`` (an unactivatable service call), or ``"branch"`` (a
    failed gather arm); ``error`` names the typed exception class that
    sealed the loss at virtual instant ``at``.
    """

    kind: str
    name: str
    peers: Tuple[str, ...] = ()
    error: str = ""
    at: float = 0.0

    def describe(self) -> str:
        where = f" (on {', '.join(self.peers)})" if self.peers else ""
        return f"{self.kind} {self.name}{where}: {self.error} @ {self.at:.6f}"


@dataclass(frozen=True)
class PartialAnswer:
    """Provenance of a gracefully degraded answer.

    Attached to a DONE job (``QueryJob.partial`` /
    ``ExecutionReport.partial``) whenever ``partial=True`` and the run
    lost parts or blew its deadline; ``None`` on the job means the
    answer is complete and exact.
    """

    lost: Tuple[LostPart, ...] = field(default_factory=tuple)
    retries: int = 0
    deadline_exceeded: bool = False

    @property
    def complete(self) -> bool:
        return not self.lost and not self.deadline_exceeded

    def describe(self) -> str:
        lines = [
            f"partial answer: {len(self.lost)} part(s) lost, "
            f"{self.retries} retries spent"
            + (", deadline exceeded" if self.deadline_exceeded else "")
        ]
        for part in self.lost:
            lines.append(f"  - {part.describe()}")
        return "\n".join(lines)


class RecoveringEvaluator(ExpressionEvaluator):
    """Definitions (1)-(9) under faults: retry, fail over, degrade, observe.

    The one evaluator a :class:`~repro.session.Session` builds (the cost
    oracle and the equivalence checker build the bare one).  Overrides
    the bare evaluator's effect seam and nothing else.  With
    no fault state on ``system.network`` (installing it is the caller's
    job) and no ``policy`` (:class:`RetryPolicy`; ``None``: faults
    propagate typed on first occurrence), every override falls through
    to the bare body.  Spans go to ``system.network.tracer`` and
    recovery tallies to ``system.network.metrics`` as ``faults{kind=…}``
    (observational only: recording never consults the RNG or the clock).
    """

    def __init__(self, system, pick_policy=None, *, policy=None) -> None:
        super().__init__(system, pick_policy)
        self.policy: Optional[RetryPolicy] = policy
        self.begin_job()

    # -- per-job context -----------------------------------------------------------
    def begin_job(self, deadline_at: float = math.inf, partial: bool = False) -> None:
        """Reset the per-job context (deadline, lost parts, retry count)."""
        self.deadline_at = deadline_at
        self.partial = partial
        self.losses: List[LostPart] = []
        self.job_retries = 0

    def end_job(self, completed_at: float) -> Optional[PartialAnswer]:
        """Tally a job that settled at ``completed_at``; returns the
        provenance of its answer if that is degraded, else ``None``."""
        late = completed_at > self.deadline_at
        if late:
            self._count("deadlines_exceeded")
        if not (self.partial and (self.losses or late)):
            return None
        self._count("partial_answers")
        return PartialAnswer(tuple(self.losses), self.job_retries, late)

    def _count(self, kind: str) -> None:
        self.system.network.metrics.counter("faults", kind=kind).inc()

    def _span(self, name: str, cat: str, start: float, end: float, **attrs) -> None:
        self.system.network.tracer.record(name, cat, start, end, **attrs)

    def _retry_at(self, attempt, failure, key, what, label, exhausted) -> float:
        """When to retry after 0-based ``attempt`` ended in ``failure``.

        The one backoff / attempt-budget / deadline rule of every retried
        operation: ``policy.delay`` (keyed by ``key``) past the instant
        the failure was detected — unless the budget is spent (raises
        ``exhausted``) or that is past the job deadline
        (:class:`DeadlineExceededError`).
        """
        if attempt + 1 >= self.policy.max_attempts:
            raise exhausted from failure
        retry_at = failure.at + self.policy.delay(attempt, key)
        if retry_at > self.deadline_at:
            raise DeadlineExceededError(
                f"{what} would retry at {retry_at:.6f}, "
                f"past the deadline {self.deadline_at:.6f}",
                at=failure.at,
            ) from failure
        self.job_retries += 1
        self._count("retries")
        self._span(
            f"backoff {label}", "backoff", failure.at, retry_at, attempt=attempt + 1
        )
        return retry_at

    # -- the seam ------------------------------------------------------------------
    def _deliver(self, message: Message, ready_at: float) -> float:
        """Lost and corrupted transfers are retried, on the virtual clock,
        until one arrives or :class:`TransferTimeoutError`."""
        network = self.system.network
        if self.policy is None or network.faults is None:
            return network.deliver(message, ready_at)
        key = f"{message.src}->{message.dst}:{message.kind}"
        for attempt in count():
            try:
                return network.deliver(message, ready_at)
            except TransferFaultError as exc:
                self._count("transfer_faults")
                spent = TransferTimeoutError(
                    f"transfer {key} failed {attempt + 1} attempts "
                    f"(retry budget exhausted)",
                    at=exc.at,
                )
                ready_at = self._retry_at(
                    attempt, exc, key, f"transfer {key}", key, spent
                )

    def _call_provider(self, message: Message, ready_at: float) -> float:
        """Ship the CALL message, surviving injected service faults.

        A ``service-fail`` window covering the arrival fails the call; a
        ``service-hang`` window delays the answer to the window's end
        (bounded virtual time — never a real hang).  With a policy a hung
        call is *cancelled* at the per-call timeout budget, and cancelled
        and failed calls are retried; without one, failures raise
        :class:`ServiceCallFaultError` on first occurrence.
        """
        faults = self.system.network.faults
        if faults is None:
            return self._deliver(message, ready_at)
        policy = self.policy
        provider_id, service_name = message.dst, message.headers["service"]
        where = f"{service_name}@{provider_id}"
        whom = f"service {service_name!r} on {provider_id!r}"
        for attempt in count():
            arrival = self._deliver(message, ready_at)
            verdict = faults.service_verdict(provider_id, service_name, arrival)
            if verdict is None:
                return arrival
            self._count("service_faults")
            failed_at, detail = arrival, "failed"
            if verdict.kind == SERVICE_HANG:
                failed_at = verdict.end
                if policy is not None:
                    failed_at = min(failed_at, arrival + policy.call_timeout)
                cancelled = failed_at < verdict.end
                self._count("calls_cancelled" if cancelled else "calls_hung")
                self._span(
                    f"{'hang-cancel' if cancelled else 'hang'} {where}", "stall",
                    arrival, failed_at, peer=provider_id, service=service_name,
                )
                if not cancelled:
                    return failed_at  # waited the window out: slow, still correct
                detail = "hung (cancelled at timeout)"
            failure = ServiceCallFaultError(f"{whom} {detail}", at=failed_at)
            if policy is None:
                raise failure
            spent = ServiceCallFaultError(
                f"{whom} {detail} after {attempt + 1} attempts", at=failed_at
            )
            ready_at = self._retry_at(
                attempt, failure, f"call:{provider_id}:{service_name}",
                f"call to {service_name!r} on {provider_id!r}", f"call:{where}", spent,
            )

    def _on_cpu(self, peer_id: str, label: str, ready_at: float, work):
        """Start past any injected stall window on the peer; span the charge."""
        faults = self.system.network.faults
        start = ready_at if faults is None else faults.stall_until(peer_id, ready_at)
        if start > ready_at:
            self._count("stall_waits")
            self._span(f"stall {peer_id}", "stall", ready_at, start, peer=peer_id)
        busy_before = self.system.peer(peer_id).busy_until
        value, done = work(start)
        self.system.network.tracer.cpu(peer_id, label, start, busy_before, done)
        return value, done

    def _lost(self, kind: str, name: str, peers, exc) -> None:
        """Graceful degradation: a ``partial`` job notes the part as
        missing in its :class:`PartialAnswer` and goes on without it."""
        if not self.partial:
            raise exc
        at = getattr(exc, "at", 0.0)
        self.losses.append(LostPart(kind, name, tuple(peers), type(exc).__name__, at))
        self._count("parts_lost")

    def _read_fragment(self, fragment, ref, live, at, ready_at, depth) -> EvalOutcome:
        """With a policy, a copy whose transfers kept failing (or whose
        peer died mid-read) is abandoned for the next live one, which
        starts no earlier than the failure was detected."""
        refs = [ref]
        if self.policy is not None:
            spares = live if isinstance(ref, GenericDoc) else live[1:]
            refs.extend(DocExpr(fragment.name, pid) for pid in spares)
        for ref in refs:
            try:
                return self.eval(ref, at, ready_at, depth + 1)
            except (TransferTimeoutError, PeerDownError) as exc:
                unreachable = exc
                self._count("fragment_failovers")
                ready_at = max(ready_at, getattr(exc, "at", ready_at))
        raise unreachable

    def _activate_document(self, home, name, tree, ready_at, depth) -> EvalOutcome:
        """A degraded activation must not become the stored document.

        A ``partial`` job that lost a service call drops the ``sc`` node
        from its *answer* copy; committing that copy would silently erase
        the call from Σ — every later job would then miss its data with
        no partial marker (the silent wrong answer the three-way fault
        invariant forbids).  The loss watermark tells degraded
        activations apart from complete ones.
        """
        if not self.partial:
            return super()._activate_document(home, name, tree, ready_at, depth)
        watermark = len(self.losses)
        here = home.peer_id
        outcome = self.eval(TreeExpr(tree, here), here, ready_at, depth + 1)
        if len(outcome.items) == 1 and len(self.losses) == watermark:
            outcome.items = [self._install(home, name, outcome.items[0])]
        return outcome
