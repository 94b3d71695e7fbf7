"""Discrete-event network simulator.

The simulator models what the paper's algebra observes about
communication: *when* a shipped tree becomes available at its destination
and *how many bytes* crossed which link.  Links have latency (seconds) and
bandwidth (bytes/second) and serialize transfers FIFO — two large
transfers on one link queue behind each other, which is exactly the
effect rule (13) (transfer reuse) trades against parallelism.

Time is virtual.  A transfer scheduled at ``ready_at`` on a link free at
``busy_until`` starts at ``max(ready_at, busy_until)``, occupies the link
for ``size / bandwidth``, and arrives one ``latency`` after it starts.
Multi-hop routes (no direct link) are store-and-forward over the
lowest-cost path.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import (
    MessageLostError,
    NetworkError,
    NoRouteError,
    TransferCorruptionError,
    UnknownPeerError,
)
from ..obs.tracer import NO_TRACER
from .message import Message

__all__ = ["Link", "LinkStats", "NetworkStats", "PeerTraffic", "Network"]

#: The message size routing prices a link at (its ``1kB/bandwidth`` term).
_NOMINAL_BYTES = 1024.0

#: A route as the memo keeps it: the (src, dst) key of every link on it.
_Hops = Tuple[Tuple[str, str], ...]


@dataclass
class LinkStats:
    """Per-link accounting: messages, bytes, busy time."""

    messages: int = 0
    bytes: int = 0
    busy_time: float = 0.0

    def record(self, size: int, duration: float) -> None:
        self.messages += 1
        self.bytes += size
        self.busy_time += duration


def _fixed(name: str) -> property:
    """A link quality: read like a plain attribute, refused on assignment."""

    def refuse(link: "Link", value: float) -> None:
        raise NetworkError(
            f"link {link.src!r}->{link.dst!r}: {name} is fixed once built "
            "(routes were computed from it); call Network.add_link to re-link"
        )

    return property(attrgetter("_" + name), refuse)


class Link:
    """A directed link ``src -> dst``.

    ``latency`` in seconds, ``bandwidth`` in bytes/second — both fixed at
    construction, since the network memoises the routes it computes from
    them.  ``busy_until`` is simulator state: the first instant the link
    can accept the next transfer.
    """

    __slots__ = ("src", "dst", "_latency", "_bandwidth", "busy_until", "stats")

    latency = _fixed("latency")
    bandwidth = _fixed("bandwidth")

    def __init__(
        self,
        src: str,
        dst: str,
        latency: float = 0.01,
        bandwidth: float = 1_000_000.0,
    ) -> None:
        self.src = src
        self.dst = dst
        self._latency = latency
        self._bandwidth = bandwidth
        self.busy_until = 0.0
        self.stats = LinkStats()

    def __repr__(self) -> str:
        return (
            f"Link({self.src!r}->{self.dst!r}, latency={self._latency!r}, "
            f"bandwidth={self._bandwidth!r}, busy_until={self.busy_until!r})"
        )

    def transfer_cost(self, size: int) -> float:
        """Time the link is occupied by a transfer of ``size`` bytes."""
        return size / self.bandwidth

    def schedule(
        self, size: int, ready_at: float, slow: float = 1.0
    ) -> Tuple[float, float]:
        """Occupy the link; returns (start_time, arrival_time).

        ``slow`` multiplies both occupancy and latency — the injected
        link-degrade fault.  The default 1.0 leaves every arithmetic
        result bit-identical to the pre-fault code path (``x * 1.0 == x``
        exactly in IEEE 754), preserving the empty-plan no-op contract.
        """
        start = max(ready_at, self.busy_until)
        occupancy = self.transfer_cost(size) * slow
        self.busy_until = start + occupancy
        arrival = start + occupancy + self.latency * slow
        self.stats.record(size, occupancy)
        return start, arrival


@dataclass
class NetworkStats:
    """Whole-network accounting, also broken down by message kind."""

    messages: int = 0
    bytes: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    bytes_by_kind: Dict[str, int] = field(default_factory=dict)

    def record(self, message: Message) -> None:
        self.messages += 1
        self.bytes += message.size
        self.by_kind[message.kind] = self.by_kind.get(message.kind, 0) + 1
        self.bytes_by_kind[message.kind] = (
            self.bytes_by_kind.get(message.kind, 0) + message.size
        )

    def snapshot(self) -> Dict[str, object]:
        """The totals execution and serving reports carry (copied dicts)."""
        return {
            "bytes": self.bytes,
            "messages": self.messages,
            "bytes_by_kind": dict(self.bytes_by_kind),
            "messages_by_kind": dict(self.by_kind),
        }


@dataclass
class PeerTraffic:
    """Per-peer traffic totals aggregated from link statistics.

    Counted per *hop* (store-and-forward relays are charged on every
    link they occupy), so totals can exceed the per-message accounting
    in :class:`NetworkStats` on multi-hop topologies.
    """

    sent_bytes: int = 0
    sent_messages: int = 0
    received_bytes: int = 0
    received_messages: int = 0
    link_busy_time: float = 0.0

    def describe(self) -> str:
        return (
            f"sent {self.sent_bytes}B/{self.sent_messages} msgs, "
            f"recv {self.received_bytes}B/{self.received_messages} msgs"
        )


class Network:
    """The peer-to-peer transport fabric.

    Built from a set of peers and directed links (use
    :mod:`repro.net.topology` helpers).  The two central operations:

    * :meth:`deliver` — ship a :class:`Message`, returning its arrival
      time, charging link occupancy and statistics;
    * :meth:`reset_clocks` — clear busy state between benchmark runs while
      keeping the topology.

    The paper makes no assumption about network structure (Section 2);
    accordingly, any digraph is accepted and routing falls back to the
    cheapest multi-hop path when no direct link exists.
    """

    def __init__(self) -> None:
        self._peers: Dict[str, None] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        # The topology as routing reads it, shared with every clone() until
        # either side calls add_link — which rebinds both, never edits them:
        #: src -> [(dst, per-link route cost)], built on first use.
        self._adjacency: Optional[Dict[str, List[Tuple[str, float]]]] = None
        #: (src, dst) -> the hops of the cheapest route, None for no route.
        self._routes: Dict[Tuple[str, str], Optional[_Hops]] = {}
        self.stats = NetworkStats()
        self.log: List[Tuple[float, Message]] = []
        self.keep_log = False
        #: Installed :class:`repro.faults.FaultState`, or ``None`` for the
        #: exact historical fault-free behavior (the default).
        self.faults = None
        #: Installed :class:`repro.obs.Tracer`; :data:`~repro.obs.NO_TRACER`
        #: (the default) costs one no-op call per hop (with the other
        #: hooks, +0.08 % to +0.35 % ``py_calls_per_op``).  Purely
        #: observational: the tracer is handed the instants
        #: :meth:`Link.schedule` already computed and never feeds back
        #: into timing, routing, or fault decisions.
        self.tracer = NO_TRACER

    # -- construction ---------------------------------------------------------
    def add_peer(self, peer_id: str) -> None:
        self._peers.setdefault(peer_id, None)

    def add_link(
        self,
        src: str,
        dst: str,
        latency: float = 0.01,
        bandwidth: float = 1_000_000.0,
        symmetric: bool = True,
    ) -> None:
        """Add a link (and its reverse when ``symmetric``).

        Link quality must be physical: a zero or negative bandwidth would
        make :meth:`Link.transfer_cost` divide by zero (or run time
        backwards) deep inside a simulation, so it is rejected here at
        construction time, as is a negative latency.
        """
        if bandwidth <= 0:
            raise NetworkError(
                f"link {src!r}->{dst!r} needs a positive bandwidth, "
                f"got {bandwidth!r}"
            )
        if latency < 0:
            raise NetworkError(
                f"link {src!r}->{dst!r} needs a non-negative latency, "
                f"got {latency!r}"
            )
        self.add_peer(src)
        self.add_peer(dst)
        self._links[(src, dst)] = Link(src, dst, latency, bandwidth)
        if symmetric:
            self._links[(dst, src)] = Link(dst, src, latency, bandwidth)
        self._adjacency = None
        self._routes = {}

    def clone(self) -> "Network":
        """The same fabric with fresh link clocks and statistics.

        The twin shares this network's adjacency index and route memo, so
        a route either side computes serves both, until either side calls
        :meth:`add_link`.  Faults, tracer and message log start off.
        """
        twin = Network()
        twin._peers = dict(self._peers)
        twin._links = {
            key: Link(link.src, link.dst, link.latency, link.bandwidth)
            for key, link in self._links.items()
        }
        twin._adjacency = self._topology()
        twin._routes = self._routes
        return twin

    @property
    def peers(self) -> List[str]:
        return sorted(self._peers)

    def link(self, src: str, dst: str) -> Optional[Link]:
        return self._links.get((src, dst))

    def links(self) -> Iterable[Link]:
        return self._links.values()

    # -- routing ----------------------------------------------------------------
    def _topology(self) -> Dict[str, List[Tuple[str, float]]]:
        """The adjacency index: per source, its links in insertion order."""
        if self._adjacency is None:
            adjacency: Dict[str, List[Tuple[str, float]]] = {}
            for (src, dst), link in self._links.items():
                step = link.latency + _NOMINAL_BYTES / link.bandwidth
                adjacency.setdefault(src, []).append((dst, step))
            self._adjacency = adjacency
        return self._adjacency

    def route(self, src: str, dst: str) -> List[Link]:
        """Links along the cheapest path (latency + a nominal size term).

        Uses Dijkstra over per-link cost ``latency + 1kB/bandwidth`` so
        that both slow and laggy links are penalized.  The direct link, if
        present, is considered like any other path (it usually wins).
        Each (src, dst) pair is searched once per topology; later calls
        read the memo.
        """
        if src not in self._peers:
            raise UnknownPeerError(f"unknown peer {src!r}")
        if dst not in self._peers:
            raise UnknownPeerError(f"unknown peer {dst!r}")
        if src == dst:
            return []
        key = (src, dst)
        try:
            hops = self._routes[key]
        except KeyError:
            hops = self._routes[key] = self._cheapest_hops(src, dst)
        if hops is None:
            raise NoRouteError(f"no route from {src!r} to {dst!r}")
        links = self._links
        return [links[hop] for hop in hops]

    def _cheapest_hops(self, src: str, dst: str) -> Optional[_Hops]:
        """Dijkstra from ``src``; the (src, dst) pairs of the path, or None."""
        adjacency = self._topology()
        dist: Dict[str, float] = {src: 0.0}
        prev: Dict[str, str] = {}
        heap: List[Tuple[float, str]] = [(0.0, src)]
        visited = set()
        while heap:
            cost, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            if node == dst:
                break
            for neighbor, step in adjacency.get(node, ()):
                candidate = cost + step
                if candidate < dist.get(neighbor, math.inf):
                    dist[neighbor] = candidate
                    prev[neighbor] = node
                    heapq.heappush(heap, (candidate, neighbor))
        if dst not in dist:
            return None
        path: List[str] = [dst]
        while path[-1] != src:
            path.append(prev[path[-1]])
        path.reverse()
        return tuple(zip(path, path[1:]))

    # -- transfer -----------------------------------------------------------------
    def deliver(self, message: Message, ready_at: float = 0.0) -> float:
        """Ship ``message``; returns arrival time at the destination.

        Multi-hop routes are store-and-forward: the message fully arrives
        at each hop before the next link starts.  Loopback (src == dst)
        is free and instantaneous — local "transfers" cost nothing, as in
        the paper's model where only inter-peer communication matters.
        """
        if message.src == message.dst:
            return ready_at
        links = self.route(message.src, message.dst)
        faults = self.faults
        tracer = self.tracer
        clock = ready_at
        slow = 1.0  # no fault state: the exact fault-free arithmetic
        corrupted = False
        for link in links:
            if faults is not None:
                slow = faults.degrade_factor(link.src, link.dst, clock)
                if slow > 1.0:
                    faults.counters["hops_degraded"] += 1
            ready = clock
            start, clock = link.schedule(message.size, clock, slow)
            tracer.hop(message, link, ready, start, clock)
            if faults is None:
                continue
            verdict = faults.hop_verdict(link.src, link.dst, start)
            if verdict == "drop":
                # the hop was charged (the bytes left the sender) but the
                # message never completes; the sender detects the loss at
                # the would-be hop completion and may retry from there
                self._faulted(
                    message, "messages_dropped", f"lost {link.src}->{link.dst}", clock
                )
                raise MessageLostError(
                    f"message {message.src!r}->{message.dst!r} "
                    f"({message.kind}) lost on hop "
                    f"{link.src!r}->{link.dst!r}",
                    at=clock,
                )
            if verdict == "corrupt":
                corrupted = True
        if corrupted:
            # every hop was charged; the receiver's content-fingerprint
            # check rejects the payload at arrival time
            self._faulted(
                message,
                "transfers_corrupted",
                f"corrupt {message.src}->{message.dst}",
                clock,
            )
            raise TransferCorruptionError(
                f"message {message.src!r}->{message.dst!r} "
                f"({message.kind}) arrived corrupted "
                f"(fingerprint mismatch)",
                at=clock,
            )
        self.stats.record(message)
        if self.keep_log:
            self.log.append((clock, message))
        return clock

    def _faulted(self, message: Message, tally: str, mark: str, at: float) -> None:
        """Account for a transfer an injected fault just killed at ``at``."""
        self.faults.counters[tally] += 1
        self.stats.record(message)
        self.tracer.mark(mark, "fault", at, kind=message.kind)

    # -- reporting -----------------------------------------------------------------
    def peer_traffic(self) -> Dict[str, PeerTraffic]:
        """Traffic attributed to each peer: what it sent and what it got.

        Aggregates the per-link counters, crediting ``link.src`` with the
        send and ``link.dst`` with the receipt.  Every known peer appears
        in the result, including silent ones — execution reports want a
        row per peer, zeros and all.
        """
        traffic = {peer_id: PeerTraffic() for peer_id in self._peers}
        for link in self._links.values():
            stats = link.stats
            sender = traffic[link.src]
            sender.sent_bytes += stats.bytes
            sender.sent_messages += stats.messages
            sender.link_busy_time += stats.busy_time
            receiver = traffic[link.dst]
            receiver.received_bytes += stats.bytes
            receiver.received_messages += stats.messages
        return traffic

    def cancel_peer_traffic(self, peer_id: str, now: float = 0.0) -> int:
        """Cancel in-flight transfers on links touching ``peer_id``.

        Called when a peer dies: anything still occupying its links is
        torn down, not silently delivered after a later rejoin.  Each
        adjacent link's ``busy_until`` is clamped to ``now`` (traffic
        already completed stays charged in the stats — the bytes did
        cross the wire before the crash).  Returns the number of links
        that had pending traffic cancelled.
        """
        cancelled = 0
        for (src, dst), link in self._links.items():
            if peer_id in (src, dst) and link.busy_until > now:
                link.busy_until = now
                cancelled += 1
        # reset_clocks-style postcondition: nothing adjacent to the dead
        # peer is still occupying a link past this instant
        assert all(
            link.busy_until <= now
            for (src, dst), link in self._links.items()
            if peer_id in (src, dst)
        ), f"pending traffic survived cancel_peer_traffic({peer_id!r})"
        return cancelled

    # -- lifecycle ----------------------------------------------------------------
    def reset_clocks(self) -> None:
        """Clear busy windows (new virtual-time experiment, same fabric).

        The one reset entry point, named to match
        :meth:`repro.peers.system.AXMLSystem.reset_clocks` so the serving
        engine can treat systems and networks uniformly.
        """
        for link in self._links.values():
            link.busy_until = 0.0

    def reset_stats(self) -> None:
        self.stats = NetworkStats()
        self.log.clear()
        for link in self._links.values():
            link.stats = LinkStats()

    def reset(self) -> None:
        self.reset_clocks()
        self.reset_stats()
