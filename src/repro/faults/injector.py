"""Compiled fault state and the serving-clock fault actor.

:class:`FaultState` is a :class:`~repro.faults.FaultPlan` indexed for
the hot path: the network consults it per hop, the evaluator per
service call and per compute charge.  Every lookup is a pure function
of ``(target, virtual instant)`` — no randomness, no hidden state
besides the fault counters — so retried operations re-observe exactly
the windows the plan scripted.

:class:`FaultActor` plugs into the scheduler's actor slot (duck-typed
like :class:`~repro.placement.PlacementActor`): ``on_start`` installs
the fault state on the serving system's network *before the first
admission*, and ``on_tick`` applies the plan's crash/rejoin instants
through :class:`~repro.placement.ChurnController` as the virtual clock
passes them.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

from .plan import (
    CORRUPT,
    LINK_DEGRADE,
    LINK_DROP,
    PEER_CRASH,
    PEER_STALL,
    SERVICE_FAIL,
    SERVICE_HANG,
    FaultEvent,
    FaultPlan,
)

__all__ = ["FaultState", "FaultActor"]


class FaultState:
    """A plan compiled for fast window lookups, plus fault counters.

    Installed as ``network.faults``; ``None`` there (the default) means
    the exact historical fault-free code path runs.  ``counters``
    accumulates across the run and is folded into
    ``ServingReport.registry`` as ``faults{kind=…}`` counters.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.counters: Counter = Counter()
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


class FaultActor:
    """Scheduler actor that installs fault state and drives peer churn.

    ``interval`` paces the membership checks on the scheduler's tick
    heap; link/service/stall windows need no ticking at all (they are
    consulted passively), so a plan without crash/rejoin events costs
    one no-op tick per interval.
    """

    def __init__(self, plan: FaultPlan, interval: float = 0.01) -> None:
        self.plan = plan
        self.interval = interval
        self._controller = None
        self._membership = sorted(
            plan.peer_events(), key=lambda e: (e.start, e.kind, e.peer)
        )
        self._cursor = 0

    def _bind(self, target) -> None:
        from ..placement.churn import ChurnController

        if self._controller is None or self._controller.system is not target:
            self._controller = ChurnController(target)
            self._cursor = 0
            state = getattr(target.network, "faults", None)
            if state is None or state.plan is not self.plan:
                target.network.faults = FaultState(self.plan)

    # -- scheduler hooks -------------------------------------------------------
    def on_start(self, target) -> List[str]:
        """Install fault state before the first admission."""
        self._bind(target)
        if self._membership:
            return [
                f"fault plan seed={self.plan.seed}: "
                f"{len(self.plan.events)} events, "
                f"{len(self._membership)} membership changes"
            ]
        if self.plan.events:
            return [
                f"fault plan seed={self.plan.seed}: "
                f"{len(self.plan.events)} events"
            ]
        return []

    def on_tick(self, target, now: float) -> List[str]:
        self._bind(target)
        notes: List[str] = []
        while (
            self._cursor < len(self._membership)
            and self._membership[self._cursor].start <= now
        ):
            event = self._membership[self._cursor]
            self._cursor += 1
            state = target.network.faults
            if event.kind == PEER_CRASH:
                notes.extend(self._controller.kill(event.peer, now=now))
                if state is not None:
                    state.counters["peer_crashes"] += 1
            else:
                notes.extend(self._controller.join(event.peer))
                if state is not None:
                    state.counters["peer_rejoins"] += 1
        return notes
