"""The placement loop: observe → decide → act on the virtual clock.

:class:`Rebalancer` closes the loop between serving telemetry
(:class:`~repro.placement.telemetry.PlacementMonitor`) and the catalog
(:mod:`repro.placement.transactions`): each tick it observes one load
window, asks a pluggable :class:`PlacementPolicy` for actions, and
applies them as catalog transactions on the same shared fabric the
queries use — rebalancing traffic contends with query traffic, so a
replica pays off only when the reads it absorbs outweigh its transfer.

:class:`ThresholdPolicy` is the first policy: threshold + hysteresis.
A fragment whose per-window reads stay above ``hot_reads`` for
``hysteresis`` consecutive windows gains a replica on the least-loaded
live peer without a copy (up to ``max_copies``); one cold for
``hysteresis`` windows sheds a replica; an empty live peer (a fresh
joiner) attracts a migration from the most-crowded peer.  A per-fragment
``cooldown`` keeps the loop from thrashing.

:class:`PlacementActor` packages the loop (plus an optional
:class:`~repro.placement.churn.ChurnSchedule`) behind the duck-typed
actor interface the scheduler ticks
(:class:`repro.engine.scheduler.Scheduler`): ``interval`` and
``on_tick(target, now) -> list[str]``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import ReproError
from ..peers.system import AXMLSystem
from .churn import ChurnController, ChurnSchedule
from .telemetry import (
    FragmentLoad,
    PeerLoad,
    PlacementMonitor,
    PlacementSnapshot,
)
from .transactions import (
    AddReplica,
    CatalogTransaction,
    MigrateFragment,
    RetireReplica,
    SplitFragment,
)

__all__ = ["PlacementPolicy", "ThresholdPolicy", "Rebalancer", "PlacementActor"]


class PlacementPolicy:
    """Strategy mapping one load snapshot to catalog transactions."""

    def decide(
        self, snapshot: PlacementSnapshot, system: AXMLSystem
    ) -> List[CatalogTransaction]:
        raise NotImplementedError


class ThresholdPolicy(PlacementPolicy):
    """Threshold + hysteresis, the classic feedback-control baseline.

    Parameters
    ----------
    hot_reads:
        Per-window read count at which a fragment counts as hot.
    hysteresis:
        Consecutive hot windows required before scaling up —
        one-window blips never trigger data movement.
    cold_hysteresis:
        Consecutive zero-read windows required before shedding a
        replica; defaults to ``hysteresis``.  Shedding deserves a longer
        fuse than scaling: a warm fragment can draw a zero window by
        chance, and re-shipping a dropped copy is the expensive way to
        find out.
    cooldown:
        Windows a fragment rests after any action on it.
    max_copies:
        Ceiling on copies per fragment (primary + replicas).
    split_items:
        When set, a fragment still hot at ``max_copies`` with at least
        this many items re-splits in two instead (one half stays home,
        the other goes to the least-loaded free peer).  ``None``
        disables splitting.
    """

    def __init__(
        self,
        hot_reads: int = 4,
        hysteresis: int = 2,
        cooldown: int = 2,
        max_copies: int = 3,
        split_items: Optional[int] = None,
        cold_hysteresis: Optional[int] = None,
    ) -> None:
        self.hot_reads = hot_reads
        self.hysteresis = hysteresis
        self.cold_hysteresis = (
            hysteresis if cold_hysteresis is None else cold_hysteresis
        )
        self.cooldown = cooldown
        self.max_copies = max_copies
        self.split_items = split_items
        self._hot_streak: Dict[str, int] = {}
        self._cold_streak: Dict[str, int] = {}
        self._resting: Dict[str, int] = {}

    # -- scoring helpers ---------------------------------------------------------
    @staticmethod
    def _peer_load(snapshot: PlacementSnapshot) -> Dict[str, "PeerLoad"]:
        return {load.peer: load for load in snapshot.peers if load.alive}

    @staticmethod
    def _pressure(load: "PeerLoad") -> Tuple[float, float, int, str]:
        """How contended a peer is as a *data host*.

        Network traffic leads: fragment serving occupies links, not CPU,
        so a peer's window bytes are the signal that its links are the
        convoy.  CPU and queue depth break ties.
        """
        return (float(load.traffic), load.busy, load.queued, load.peer)

    def _spread_target(
        self,
        fragment: FragmentLoad,
        loads: Dict[str, "PeerLoad"],
    ) -> Optional[str]:
        """Least-contended live peer not yet holding a copy, if any."""
        candidates = [
            peer for peer in loads if peer not in fragment.copies
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda p: self._pressure(loads[p]))

    def decide(
        self, snapshot: PlacementSnapshot, system: AXMLSystem
    ) -> List[CatalogTransaction]:
        loads = self._peer_load(snapshot)
        actions: List[CatalogTransaction] = []
        seen = set()
        for fragment in snapshot.fragments:
            seen.add(fragment.name)
            resting = self._resting.get(fragment.name, 0)
            if resting:
                self._resting[fragment.name] = resting - 1
            hot = fragment.reads >= self.hot_reads
            self._hot_streak[fragment.name] = (
                self._hot_streak.get(fragment.name, 0) + 1 if hot else 0
            )
            self._cold_streak[fragment.name] = (
                self._cold_streak.get(fragment.name, 0) + 1
                if fragment.reads == 0
                else 0
            )
            if resting or not fragment.live_copies:
                continue
            if self._hot_streak[fragment.name] >= self.hysteresis:
                action = self._scale_up(fragment, loads)
                if action is not None:
                    actions.append(action)
                    self._resting[fragment.name] = self.cooldown
                    self._hot_streak[fragment.name] = 0
            elif (
                self._cold_streak[fragment.name] >= self.cold_hysteresis
                and len(fragment.live_copies) > 1
            ):
                # shed the replica on the most-loaded live peer
                live_replicas = [
                    p for p in fragment.live_copies[1:] if p in loads
                ]
                if live_replicas:
                    victim = max(
                        live_replicas, key=lambda p: self._pressure(loads[p])
                    )
                    actions.append(
                        RetireReplica(fragment.doc, fragment.index, victim)
                    )
                    self._resting[fragment.name] = self.cooldown
                    self._cold_streak[fragment.name] = 0
        actions.extend(self._fill_joiners(snapshot, loads))
        # drop tracking for fragments that no longer exist (splits rename)
        for table in (self._hot_streak, self._cold_streak, self._resting):
            for name in list(table):
                if name not in seen:
                    del table[name]
        return actions

    def _scale_up(
        self,
        fragment: FragmentLoad,
        loads: Dict[str, Tuple[float, int]],
    ) -> Optional[CatalogTransaction]:
        target = self._spread_target(fragment, loads)
        if len(fragment.live_copies) < self.max_copies:
            if target is None:
                return None
            return AddReplica(fragment.doc, fragment.index, target)
        if (
            self.split_items is not None
            and fragment.items >= max(self.split_items, 2)
            and target is not None
        ):
            home = fragment.live_copies[0]
            return SplitFragment(
                fragment.doc, fragment.index, (home, target)
            )
        return None

    def _fill_joiners(
        self,
        snapshot: PlacementSnapshot,
        loads: Dict[str, Tuple[float, int]],
    ) -> List[CatalogTransaction]:
        """Re-fragment onto empty live peers (fresh joiners).

        An empty peer attracts the coldest primary from the peer hosting
        the most primaries — one migration per empty peer per tick, each
        behind the same per-fragment cooldown as every other action.
        """
        primaries: Dict[str, List[FragmentLoad]] = {}
        hosted: Dict[str, int] = {peer: 0 for peer in loads}
        for fragment in snapshot.fragments:
            if not fragment.live_copies:
                continue
            home = fragment.live_copies[0]
            primaries.setdefault(home, []).append(fragment)
            for holder in fragment.live_copies:
                if holder in hosted:
                    hosted[holder] += 1
        empty = sorted(peer for peer, count in hosted.items() if count == 0)
        actions: List[CatalogTransaction] = []
        for joiner in empty:
            crowded = [
                (len(frags), peer)
                for peer, frags in primaries.items()
                if len(frags) > 1
            ]
            if not crowded:
                break
            _, donor = max(crowded)
            movable = [
                f
                for f in primaries[donor]
                if not self._resting.get(f.name, 0)
            ]
            if not movable:
                continue
            coldest = min(movable, key=lambda f: (f.reads, f.name))
            actions.append(
                MigrateFragment(coldest.doc, coldest.index, joiner)
            )
            self._resting[coldest.name] = self.cooldown
            primaries[donor].remove(coldest)
        return actions


class Rebalancer:
    """Observe one window, decide, and apply — one placement heartbeat."""

    def __init__(
        self,
        system: AXMLSystem,
        policy: Optional[PlacementPolicy] = None,
        monitor: Optional[PlacementMonitor] = None,
    ) -> None:
        self.system = system
        self.policy = policy or ThresholdPolicy()
        self.monitor = monitor or PlacementMonitor(system)

    def tick(self, now: float = 0.0) -> List[str]:
        """Run one observe→decide→act cycle; returns action notes."""
        snapshot = self.monitor.observe(now)
        notes: List[str] = []
        for action in self.policy.decide(snapshot, self.system):
            try:
                settled = action.apply(self.system, now)
            except ReproError as exc:
                notes.append(f"{action.describe()} REFUSED: {exc}")
                continue
            notes.append(
                f"{action.describe()} [settled {settled * 1000:.2f}ms]"
            )
        return notes


class PlacementActor:
    """The scheduler-facing adaptive-placement agent.

    Ticks on the serving engine's virtual clock (``interval`` seconds
    apart): first applies any due churn events from the schedule, then
    runs the rebalancing loop.  Binds lazily to the serving Σ handed to
    the first :meth:`on_tick` — sessions may serve against a clone, and
    the actor must observe and mutate *that* system, not the blueprint.
    """

    def __init__(
        self,
        interval: float = 0.01,
        policy: Optional[PlacementPolicy] = None,
        churn: Optional[ChurnSchedule] = None,
        rebalance: bool = True,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"tick interval must be positive, got {interval!r}")
        self.interval = interval
        self.policy = policy
        self.churn = churn
        self.rebalance = rebalance
        self._system: Optional[AXMLSystem] = None
        self._rebalancer: Optional[Rebalancer] = None
        self._controller: Optional[ChurnController] = None

    def _bind(self, target: AXMLSystem) -> None:
        if self._system is target:
            return
        self._system = target
        self._rebalancer = Rebalancer(target, policy=self.policy)
        self._controller = ChurnController(target)

    def on_tick(self, target: AXMLSystem, now: float) -> List[str]:
        """One heartbeat: churn first, then rebalancing.  Returns notes."""
        self._bind(target)
        notes: List[str] = []
        if self.churn is not None:
            for event in self.churn.due(now):
                notes.extend(self._controller.apply(event, now))
        if self.rebalance:
            notes.extend(self._rebalancer.tick(now))
        return notes
