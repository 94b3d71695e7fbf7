"""Compiled fault state.

:class:`FaultState` is a :class:`~repro.faults.FaultPlan` indexed for
the hot path: the network consults it per hop, the evaluator per
service call and per compute charge.  Every lookup is a pure function
of ``(target, virtual instant)`` — no randomness, no hidden state — so
retried operations re-observe exactly the windows the plan scripted.
The plan's crash/rejoin instants are not looked up: the serving
scheduler applies them at their instants
(:meth:`repro.engine.Scheduler.drain`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .plan import (
    CORRUPT,
    LINK_DEGRADE,
    LINK_DROP,
    PEER_STALL,
    SERVICE_FAIL,
    SERVICE_HANG,
    FaultEvent,
    FaultPlan,
)

__all__ = ["FaultState"]


class FaultState:
    """A plan compiled for fast window lookups.

    Installed as ``network.faults``; ``None`` there (the default) means
    the exact historical fault-free code path runs.  What the windows
    cause is counted on ``network.metrics`` as ``faults{kind=…}``.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._drops: Dict[tuple, List[FaultEvent]] = {}
        self._degrades: Dict[tuple, List[FaultEvent]] = {}
        self._corruptions: Dict[tuple, List[FaultEvent]] = {}
        self._services: Dict[tuple, List[FaultEvent]] = {}
        self._stalls: Dict[str, List[FaultEvent]] = {}
        for event in plan.events:
            if event.kind == LINK_DROP:
                self._drops.setdefault((event.src, event.dst), []).append(event)
            elif event.kind == LINK_DEGRADE:
                self._degrades.setdefault(
                    (event.src, event.dst), []
                ).append(event)
            elif event.kind == CORRUPT:
                self._corruptions.setdefault(
                    (event.src, event.dst), []
                ).append(event)
            elif event.kind in (SERVICE_FAIL, SERVICE_HANG):
                self._services.setdefault(
                    (event.peer, event.service), []
                ).append(event)
            elif event.kind == PEER_STALL:
                self._stalls.setdefault(event.peer, []).append(event)

    # -- lookups (pure in (target, at)) ---------------------------------------
    def hop_verdict(self, src: str, dst: str, at: float) -> Optional[str]:
        """``"drop"``, ``"corrupt"``, or ``None`` for a hop starting at ``at``."""
        for event in self._drops.get((src, dst), ()):
            if event.covers(at):
                return "drop"
        for event in self._corruptions.get((src, dst), ()):
            if event.covers(at):
                return "corrupt"
        return None

    def degrade_factor(self, src: str, dst: str, at: float) -> float:
        """Slowdown multiplier for a hop starting at ``at`` (1.0 = clean)."""
        factor = 1.0
        for event in self._degrades.get((src, dst), ()):
            if event.covers(at):
                factor = max(factor, event.factor)
        return factor

    def service_verdict(
        self, peer: str, service: str, at: float
    ) -> Optional[FaultEvent]:
        """The fail/hang event covering a call arriving at ``at``, if any."""
        for event in self._services.get((peer, service), ()):
            if event.covers(at):
                return event
        return None

    def stall_until(self, peer: str, at: float) -> float:
        """When work ready at ``at`` can actually start on ``peer``."""
        ready = at
        for event in self._stalls.get(peer, ()):
            if event.covers(ready):
                ready = event.end
        return ready
