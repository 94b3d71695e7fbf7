"""Deterministic fault injection and recovery (chaos as a seeded scenario).

The paper's peers live on an unreliable wide-area network; this package
makes that unreliability a *first-class, reproducible* input.  A
:class:`FaultPlan`, given once as ``Session(fault_plan=)``, scripts link
drops/degradations, transfer corruption, service failures/hangs, peer
stalls, and crash/rejoin pairs on the virtual clock (a serving run
applies each crash and rejoin at its instant through
:class:`ChurnController`: catalog failover, registry scrub, typed
unavailability of a fragment whose last copy died); every fault a run
meets is counted as ``faults{kind=…}`` on its ``network.metrics``.
:class:`RecoveringEvaluator` applies a
:class:`RetryPolicy` — bounded retries with seeded exponential backoff,
a call timeout, replica failover — on the bare evaluator's seam; jobs can
carry deadlines and opt into graceful degradation, yielding a
:class:`PartialAnswer` whose provenance the differential harness proves
is a subset of the fault-free answer.  An empty plan is a strict no-op:
fault-free runs stay byte-identical to a build without this package.
"""

from .churn import ChurnController
from .injector import FaultState
from .plan import (
    CORRUPT,
    LINK_DEGRADE,
    LINK_DROP,
    PEER_CRASH,
    PEER_REJOIN,
    PEER_STALL,
    SERVICE_FAIL,
    SERVICE_HANG,
    FaultEvent,
    FaultPlan,
    FaultSpec,
)
from .recovery import LostPart, PartialAnswer, RecoveringEvaluator, RetryPolicy

__all__ = [
    "LINK_DROP",
    "LINK_DEGRADE",
    "CORRUPT",
    "SERVICE_FAIL",
    "SERVICE_HANG",
    "PEER_STALL",
    "PEER_CRASH",
    "PEER_REJOIN",
    "FaultEvent",
    "FaultSpec",
    "FaultPlan",
    "FaultState",
    "ChurnController",
    "RetryPolicy",
    "LostPart",
    "PartialAnswer",
    "RecoveringEvaluator",
]
