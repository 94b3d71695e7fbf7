"""Discrete-event network simulator.

The simulator models what the paper's algebra observes about
communication: *when* a shipped tree becomes available at its destination
and *how many bytes* crossed which link.  Links have latency (seconds) and
bandwidth (bytes/second) and serialize transfers FIFO — two large
transfers on one link queue behind each other, which is exactly the
effect rule (13) (transfer reuse) trades against parallelism.

Time is virtual.  A transfer ready at ``ready`` on a link free at
``busy_until`` starts at ``max(ready, busy_until)``, occupies the link for
``size / bandwidth * slow`` and arrives ``latency * slow`` after that.
``slow`` is an injected link degrade, 1.0 without fault state, and
``x * 1.0 == x`` exactly: the instants are the fault-free ones bit for
bit.  Multi-hop routes (no direct link) are store-and-forward over the
lowest-cost path.  :meth:`Network.deliver` simulates a message in one
loop over its route's links (the network's own, memoised per pair), with
each hop's arithmetic and accounting inline.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, List, NoReturn, Optional, Tuple

from ..errors import (
    MessageLostError,
    NetworkError,
    NoRouteError,
    TransferCorruptionError,
    UnknownPeerError,
)
from ..obs.metrics import MetricsRegistry
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


@dataclass
class NetworkStats:
    """Whole-network accounting, also broken down by message kind."""

    messages: int = 0
    bytes: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    bytes_by_kind: Dict[str, int] = field(default_factory=dict)

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


class _HopQualities(dict):
    """A network's ``(src, dst) -> ((latency, bandwidth), ...)`` memo
    (``Network.hop_qualities``); a missing route is read from the fabric."""

    def __init__(self, network: "Network") -> None:
        super().__init__()
        self.network = network

    def __missing__(self, key: Tuple[str, str]) -> Tuple[Tuple[float, float], ...]:
        network = self.network
        fabric = network._fabric
        qualities = self[key] = tuple(
            (fabric[hop]._latency, fabric[hop]._bandwidth)
            for hop in network._hops(*key)
        )
        return qualities


class Network:
    """The peer-to-peer transport fabric.

    Built from a set of peers and directed links (use
    :mod:`repro.net.topology` helpers).  The two central operations:

    * :meth:`deliver` — ship a :class:`Message`, returning its arrival
      time, charging link occupancy and statistics;
    * :meth:`clone` — a twin with the same topology and fresh clocks,
      which is how every run starts from a clean measurement baseline.

    The paper makes no assumption about network structure (Section 2);
    accordingly, any digraph is accepted and routing falls back to the
    cheapest multi-hop path when no direct link exists.
    """

    def __init__(self) -> None:
        self._peers: Dict[str, None] = {}
        #: (src, dst) -> the link as added: the whole topology, in
        #: add_link order.  Shared with every clone() as a read-only
        #: template (a link's latency and bandwidth are fixed once built),
        #: so whichever side adds a link first copies it.
        self._fabric: Dict[Tuple[str, str], Link] = {}
        self._fabric_shared = False
        #: (src, dst) -> this network's own link (clock and statistics):
        #: every link a transfer or lookup has touched.  A clone starts
        #: with none and builds each from the fabric on first use.
        self._links: Dict[Tuple[str, str], Link] = {}
        # The topology as routing reads it, shared with every clone() until
        # either side calls add_link — which rebinds both, never edits them:
        #: src -> [(dst, per-link route cost)], built on first use.
        self._adjacency: Optional[Dict[str, List[Tuple[str, float]]]] = None
        #: (src, dst) -> the hops of the cheapest route, None for no route.
        self._routes: Dict[Tuple[str, str], Optional[_Hops]] = {}
        #: (src, dst) -> this network's own links on that route, what
        #: :meth:`deliver` walks; a clone starts with none, add_link drops it.
        self._paths: Dict[Tuple[str, str], Tuple[Link, ...]] = {}
        #: :attr:`hop_qualities`, made on first use; add_link drops it.
        self._qualities: Optional[_HopQualities] = None
        self.stats = NetworkStats()
        self.log: List[Tuple[float, Message]] = []
        self.keep_log = False
        #: Installed :class:`repro.faults.FaultState`, or ``None`` for the
        #: exact historical fault-free behavior (the default).
        self.faults = None
        #: Installed :class:`repro.obs.Tracer`; :data:`~repro.obs.NO_TRACER`
        #: (the default) costs one no-op call per hop (with the other
        #: hooks, +0.13 % to +0.99 % ``py_calls_per_op``).  Purely
        #: observational: the tracer is handed the instants
        #: :meth:`deliver` already computed and never feeds back
        #: into timing, routing, or fault decisions.
        self.tracer = NO_TRACER
        #: The run's :class:`repro.obs.MetricsRegistry`: the network, the
        #: recovering evaluator and the scheduler count ``faults{kind=…}``
        #: here.
        self.metrics = MetricsRegistry()

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
        make :meth:`deliver` divide by zero (or run time backwards) deep
        inside a simulation, so it is rejected here at
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
        if self._fabric_shared:
            self._fabric = dict(self._fabric)
            self._fabric_shared = False
        pairs = [(src, dst), (dst, src)] if symmetric else [(src, dst)]
        for key in pairs:
            self._fabric[key] = self._links[key] = Link(*key, latency, bandwidth)
        self._adjacency = None
        self._routes = {}
        self._paths = {}
        self._qualities = None

    def clone(self) -> "Network":
        """The same fabric with fresh link clocks and statistics.

        The twin shares this network's links as a read-only template and
        builds its own :class:`Link` for a pair the first time a transfer
        or lookup needs it, so a clone costs O(peers), not O(links).  It
        also shares the adjacency index and route memo, so a route either
        side computes serves both, until either side calls
        :meth:`add_link`.  Faults, tracer and message log start off, and
        its fault tallies start empty.
        """
        twin = Network()
        twin._peers = dict(self._peers)
        twin._fabric = self._fabric
        twin._fabric_shared = self._fabric_shared = True
        twin._adjacency = self._topology()
        twin._routes = self._routes
        return twin

    @property
    def hop_qualities(self) -> Dict[Tuple[str, str], Tuple[Tuple[float, float], ...]]:
        """``(src, dst) -> ((latency, bandwidth), ...)`` of each link on
        that route, as :meth:`deliver` charges them: read from the fabric
        on first lookup (building no link) and kept.  A lookup raises
        what routing raises.  Made on first use, so a clone that never
        asks holds none."""
        qualities = self._qualities
        if qualities is None:
            qualities = self._qualities = _HopQualities(self)
        return qualities

    @property
    def peers(self) -> List[str]:
        return sorted(self._peers)

    def link(self, src: str, dst: str) -> Optional[Link]:
        key = (src, dst)
        if key in self._links:
            return self._links[key]
        return self._build(key) if key in self._fabric else None

    def links(self) -> List[Link]:
        """Every link of the topology, in :meth:`add_link` order.

        Builds the links a clone has not touched yet, so this is the walk
        for whoever draws from the whole topology (fault plans, scenario
        files).  The statistics walks (:meth:`peer_traffic`,
        :meth:`cancel_peer_traffic`) go over :meth:`built_links` only: a
        link not built yet is idle and has carried nothing.
        """
        own = self._links
        return [own[key] if key in own else self._build(key) for key in self._fabric]

    def built_links(self) -> Iterable[Link]:
        """The links this network has built (all of them, unless a clone)."""
        return self._links.values()

    def _build(self, key: Tuple[str, str]) -> Link:
        """This network's own link for ``key``: the template's qualities,
        a fresh clock and statistics."""
        template = self._fabric[key]
        link = self._links[key] = Link(
            template.src, template.dst, template._latency, template._bandwidth
        )
        return link

    # -- routing ----------------------------------------------------------------
    def _topology(self) -> Dict[str, List[Tuple[str, float]]]:
        """The adjacency index: per source, its links in insertion order."""
        if self._adjacency is None:
            adjacency: Dict[str, List[Tuple[str, float]]] = {}
            for (src, dst), link in self._fabric.items():
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
        try:
            return list(self._paths[src, dst])
        except KeyError:
            return list(self._path(src, dst))

    def _path(self, src: str, dst: str) -> Tuple[Link, ...]:
        """This network's own links from ``src`` to ``dst``, memoised."""
        links = self._links
        path = self._paths[src, dst] = tuple(
            links[hop] if hop in links else self._build(hop)
            for hop in self._hops(src, dst)
        )
        return path

    def _hops(self, src: str, dst: str) -> _Hops:
        """The (src, dst) pairs of the cheapest route, memoised; raises
        for an unknown peer or a missing route."""
        if src not in self._peers:
            raise UnknownPeerError(f"unknown peer {src!r}")
        if dst not in self._peers:
            raise UnknownPeerError(f"unknown peer {dst!r}")
        key = (src, dst)
        try:
            hops = self._routes[key]
        except KeyError:
            hops = self._routes[key] = self._cheapest_hops(src, dst)
        if hops is None:
            raise NoRouteError(f"no route from {src!r} to {dst!r}")
        return hops

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

        One loop over the route's links (the module docstring has a hop's
        arithmetic); a dropped or corrupted transfer is charged, then raises.
        """
        src, dst = message.src, message.dst
        if src == dst:
            return ready_at
        try:
            path = self._paths[src, dst]
        except KeyError:
            path = self._path(src, dst)
        faults = self.faults
        hop = self.tracer.hop
        size = message.size
        clock = ready_at
        slow = 1.0
        lost: Optional[Link] = None
        corrupted = False
        for link in path:
            if faults is not None:
                slow = faults.degrade_factor(link.src, link.dst, clock)
                if slow > 1.0:
                    self.metrics.counter("faults", kind="hops_degraded").inc()
            busy = link.busy_until
            start = busy if busy > clock else clock  # max(clock, busy)
            occupancy = size / link._bandwidth * slow
            link.busy_until = start + occupancy
            arrival = start + occupancy + link._latency * slow
            stats = link.stats
            stats.messages += 1
            stats.bytes += size
            stats.busy_time += occupancy
            hop(message, link, clock, start, arrival)
            clock = arrival
            if faults is not None:
                verdict = faults.hop_verdict(link.src, link.dst, start)
                if verdict == "drop":
                    # the bytes left the sender, but the message never
                    # completes; the sender detects the loss at the
                    # would-be hop completion and may retry from there
                    lost = link
                    break
                if verdict == "corrupt":
                    corrupted = True
        stats = self.stats
        stats.messages += 1
        stats.bytes += size
        kind = message.kind
        counts, volumes = stats.by_kind, stats.bytes_by_kind
        counts[kind] = counts[kind] + 1 if kind in counts else 1
        volumes[kind] = volumes[kind] + size if kind in volumes else size
        if lost is not None or corrupted:
            self._faulted(message, lost, clock)
        if self.keep_log:
            self.log.append((clock, message))
        return clock

    def _faulted(self, message: Message, lost: Optional[Link], at: float) -> NoReturn:
        """Count and raise a transfer an injected fault killed at ``at``:
        dropped on hop ``lost``, or (``lost`` None) arrived corrupted, so
        the receiver's content-fingerprint check rejects it."""
        what = f"{message.src!r}->{message.dst!r} ({message.kind})"
        if lost is not None:
            tally, mark = "messages_dropped", f"lost {lost.src}->{lost.dst}"
            error = MessageLostError(
                f"message {what} lost on hop {lost.src!r}->{lost.dst!r}", at=at
            )
        else:
            tally, mark = "transfers_corrupted", f"corrupt {message.src}->{message.dst}"
            error = TransferCorruptionError(
                f"message {what} arrived corrupted (fingerprint mismatch)", at=at
            )
        self.metrics.counter("faults", kind=tally).inc()
        self.tracer.mark(mark, "fault", at, kind=message.kind)
        raise error

    # -- reporting -----------------------------------------------------------------
    def peer_traffic(self) -> Dict[str, PeerTraffic]:
        """Traffic attributed to each peer: what it sent and what it got.

        Aggregates the per-link counters, crediting ``link.src`` with the
        send and ``link.dst`` with the receipt.  Every known peer appears
        in the result, including silent ones — execution reports want a
        row per peer, zeros and all.
        """
        traffic = {peer_id: PeerTraffic() for peer_id in self._peers}
        # fabric order, not build order: the float sums stay the same
        # whichever order a clone happened to touch its links in
        own = self._links
        for key in self._fabric:
            if key not in own:
                continue
            link = own[key]
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
        # postcondition: nothing adjacent to the dead peer is still
        # occupying a link past this instant
        assert all(
            link.busy_until <= now
            for (src, dst), link in self._links.items()
            if peer_id in (src, dst)
        ), f"pending traffic survived cancel_peer_traffic({peer_id!r})"
        return cancelled

