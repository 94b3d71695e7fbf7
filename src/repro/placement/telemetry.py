"""Placement telemetry: windowed load snapshots over one serving Σ.

The serving engine already accounts for everything the placement loop
needs — per-peer CPU time (:attr:`Peer.busy_time
<repro.peers.peer.Peer.busy_time>`), compute-queue depth
(:attr:`Peer.queued <repro.peers.peer.Peer.queued>`), per-document read
counts (:attr:`Peer.doc_reads <repro.peers.peer.Peer.doc_reads>`) and
per-peer network traffic (:meth:`Network.peer_traffic
<repro.net.network.Network.peer_traffic>`).  :class:`PlacementMonitor`
turns those monotone counters into *windows*: each :meth:`observe
<PlacementMonitor.observe>` call reports the delta since the previous
call, so a :class:`~repro.placement.rebalancer.Rebalancer` ticking on
the scheduler's virtual clock sees recent demand, not all-time totals —
a fragment that was hot ten windows ago and is cold now reads as cold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..peers.system import AXMLSystem

__all__ = ["PeerLoad", "FragmentLoad", "PlacementSnapshot", "PlacementMonitor"]


@dataclass(frozen=True)
class PeerLoad:
    """One peer's load over the last observation window."""

    peer: str
    alive: bool
    #: Jobs admitted-but-unfinished at observation time (instantaneous).
    queued: int
    #: CPU seconds spent inside the window.
    busy: float
    #: Document reads served inside the window (all documents).
    reads: int
    #: Bytes sent + received inside the window.
    traffic: int


@dataclass(frozen=True)
class FragmentLoad:
    """One fragment's demand over the last observation window."""

    doc: str
    index: int
    name: str
    #: Every peer holding a copy, primary first (catalog order).
    copies: Tuple[str, ...]
    #: Copies whose hosting peer is still alive.
    live_copies: Tuple[str, ...]
    #: Reads of the fragment document inside the window, summed over
    #: copies (each scatter-gather fan-out reads exactly one copy).
    reads: int
    #: Items (root children) in the fragment — re-split candidates are
    #: the large ones.
    items: int


@dataclass(frozen=True)
class PlacementSnapshot:
    """Everything one monitor window observed, in deterministic order."""

    time: float
    peers: Tuple[PeerLoad, ...] = ()
    fragments: Tuple[FragmentLoad, ...] = ()

    def peer(self, peer_id: str) -> PeerLoad:
        for load in self.peers:
            if load.peer == peer_id:
                return load
        raise KeyError(f"no peer {peer_id!r} in snapshot")

    def fragment(self, name: str) -> FragmentLoad:
        for load in self.fragments:
            if load.name == name:
                return load
        raise KeyError(f"no fragment {name!r} in snapshot")

    def describe(self) -> str:
        lines = [f"placement snapshot @ {self.time * 1000:.2f}ms"]
        for load in self.peers:
            state = "up" if load.alive else "DOWN"
            lines.append(
                f"  peer {load.peer:10s} [{state}] queued={load.queued} "
                f"busy={load.busy * 1000:.2f}ms reads={load.reads} "
                f"traffic={load.traffic}B"
            )
        for load in self.fragments:
            lines.append(
                f"  fragment {load.name:14s} reads={load.reads} "
                f"copies={','.join(load.live_copies) or '-'}"
            )
        return "\n".join(lines)


class PlacementMonitor:
    """Turns Σ's monotone counters into per-window load deltas.

    Stateful: the first :meth:`observe` call baselines every counter
    (reporting the activity since the run's reset), and each subsequent
    call reports the delta since the previous one.  Purely observational
    — never mutates peers, the network, or the catalog.
    """

    def __init__(self, system: AXMLSystem) -> None:
        self.system = system
        self._last_reads: Dict[str, Dict[str, int]] = {}
        self._last_busy: Dict[str, float] = {}
        self._last_traffic: Dict[str, int] = {}

    def observe(self, now: float = 0.0) -> PlacementSnapshot:
        """One window: deltas since the previous call, as a snapshot."""
        traffic = self.system.network.peer_traffic()
        peer_loads: List[PeerLoad] = []
        window_reads: Dict[str, Dict[str, int]] = {}
        for peer_id in sorted(self.system.peers):
            peer = self.system.peers[peer_id]
            prev_reads = self._last_reads.get(peer_id, {})
            deltas = {
                name: count - prev_reads.get(name, 0)
                for name, count in peer.doc_reads.items()
                if count - prev_reads.get(name, 0) > 0
            }
            window_reads[peer_id] = deltas
            flow = traffic.get(peer_id)
            moved = (flow.sent_bytes + flow.received_bytes) if flow else 0
            peer_loads.append(
                PeerLoad(
                    peer=peer_id,
                    alive=peer.alive,
                    queued=peer.queued,
                    busy=peer.busy_time - self._last_busy.get(peer_id, 0.0),
                    reads=sum(deltas.values()),
                    traffic=moved - self._last_traffic.get(peer_id, 0),
                )
            )
            self._last_reads[peer_id] = dict(peer.doc_reads)
            self._last_busy[peer_id] = peer.busy_time
            self._last_traffic[peer_id] = moved

        fragment_loads: List[FragmentLoad] = []
        for info in self.system.fragments:
            for fragment in info.fragments:
                live = tuple(
                    pid
                    for pid in fragment.peers
                    if pid in self.system.peers and self.system.peers[pid].alive
                )
                reads = sum(
                    window_reads.get(pid, {}).get(fragment.name, 0)
                    for pid in fragment.peers
                )
                fragment_loads.append(
                    FragmentLoad(
                        doc=fragment.doc,
                        index=fragment.index,
                        name=fragment.name,
                        copies=fragment.peers,
                        live_copies=live,
                        reads=reads,
                        items=fragment.count,
                    )
                )
        return PlacementSnapshot(
            time=now,
            peers=tuple(peer_loads),
            fragments=tuple(fragment_loads),
        )
