"""Adaptive placement (``repro.placement``): close the telemetry loop.

The paper assumes data placement is chosen once, by hand.  This
subsystem makes it a feedback loop over the serving engine's telemetry:

* :class:`~repro.placement.telemetry.PlacementMonitor` snapshots
  per-peer and per-fragment load (document reads, CPU windows, queue
  depth, traffic) as deltas per observation window;
* :mod:`~repro.placement.transactions` expresses every placement action
  — :class:`AddReplica`, :class:`RetireReplica`,
  :class:`MigrateFragment`, :class:`SplitFragment` — as an atomic
  catalog transaction: data ships on the shared fabric, the catalog
  entry swaps atomically, stale copies retire last, and answers stay
  byte-identical throughout;
* :class:`~repro.placement.rebalancer.Rebalancer` runs the
  observe→decide→act loop under a pluggable
  :class:`~repro.placement.rebalancer.PlacementPolicy`
  (:class:`ThresholdPolicy` — threshold + hysteresis — first);
* :class:`~repro.placement.churn.ChurnController` survives membership
  changes: kills fail the catalog over to surviving replicas (the last
  copy's death makes reads raise the typed
  :class:`~repro.errors.FragmentUnavailableError`), joins attract data
  through ordinary rebalancing;
* :class:`~repro.placement.rebalancer.PlacementActor` packages it all
  behind the scheduler's background-actor interface, ticking on the
  serving engine's virtual clock between query events (pass it as
  ``actor=`` to :meth:`Session.serve <repro.session.Session.serve>`).

The payoff, adaptive against static placement on one stream: at least
x1.5 the virtual qps under a mid-run hotspot shift, and 100% completion
under a scripted peer kill that static placement does not survive.
"""

from .churn import ChurnController, ChurnEvent, ChurnSchedule
from .rebalancer import (
    PlacementActor,
    PlacementPolicy,
    Rebalancer,
    ThresholdPolicy,
)
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

__all__ = [
    "AddReplica",
    "CatalogTransaction",
    "ChurnController",
    "ChurnEvent",
    "ChurnSchedule",
    "FragmentLoad",
    "MigrateFragment",
    "PeerLoad",
    "PlacementActor",
    "PlacementMonitor",
    "PlacementPolicy",
    "PlacementSnapshot",
    "Rebalancer",
    "RetireReplica",
    "SplitFragment",
    "ThresholdPolicy",
]
