"""Topology builders for the simulated peer network.

The paper explicitly makes no assumption about network structure
(Section 2: "We make no assumption about the structure of the peer
network, e.g. whether a DHT-style index is present or not"), so the
benchmarks probe several shapes.  Every builder returns a fresh
:class:`~repro.net.network.Network` whose peers are named from the given
list.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..errors import NetworkError
from .network import Network

__all__ = [
    "BUILDERS",
    "full_mesh",
    "star",
    "ring",
    "line",
    "clustered",
]

DEFAULT_LATENCY = 0.01       # 10 ms
DEFAULT_BANDWIDTH = 1_000_000.0  # 1 MB/s


def full_mesh(
    peers: Sequence[str],
    latency: float = DEFAULT_LATENCY,
    bandwidth: float = DEFAULT_BANDWIDTH,
) -> Network:
    """Every pair of peers directly connected with identical links."""
    network = Network()
    for peer in peers:
        network.add_peer(peer)
    for i, a in enumerate(peers):
        for b in peers[i + 1:]:
            network.add_link(a, b, latency, bandwidth)
    return network


def star(
    peers: Sequence[str],
    hub: Optional[str] = None,
    latency: float = DEFAULT_LATENCY,
    bandwidth: float = DEFAULT_BANDWIDTH,
) -> Network:
    """All peers connected to a hub (first peer by default).

    Non-hub pairs communicate through the hub via routing — the classic
    mediator configuration of the related work the paper cites.
    """
    if not peers:
        raise NetworkError("star() needs at least one peer")
    hub = hub or peers[0]
    network = Network()
    for peer in peers:
        network.add_peer(peer)
    for peer in peers:
        if peer != hub:
            network.add_link(hub, peer, latency, bandwidth)
    return network


def ring(
    peers: Sequence[str],
    latency: float = DEFAULT_LATENCY,
    bandwidth: float = DEFAULT_BANDWIDTH,
) -> Network:
    """Peers in a cycle; messages hop around the shorter arc."""
    if len(peers) < 2:
        raise NetworkError("ring() needs at least two peers")
    network = Network()
    for peer in peers:
        network.add_peer(peer)
    for index, peer in enumerate(peers):
        network.add_link(peer, peers[(index + 1) % len(peers)], latency, bandwidth)
    return network


def line(
    peers: Sequence[str],
    latency: float = DEFAULT_LATENCY,
    bandwidth: float = DEFAULT_BANDWIDTH,
) -> Network:
    """Peers on a path; the worst case for end-to-end hops."""
    if len(peers) < 2:
        raise NetworkError("line() needs at least two peers")
    network = Network()
    for peer in peers:
        network.add_peer(peer)
    for a, b in zip(peers, peers[1:]):
        network.add_link(a, b, latency, bandwidth)
    return network


def clustered(
    peers: Sequence[str],
    clusters: int = 2,
    intra_latency: float = 0.002,
    intra_bandwidth: float = 10_000_000.0,
    bridge_latency: float = 0.04,
    bridge_bandwidth: float = 250_000.0,
) -> Network:
    """Fully-meshed clusters joined by slow bridge links.

    Peer ``i`` lands in cluster ``i % clusters``; within a cluster every
    pair is directly connected with fast links, and the first member of
    each cluster bridges to the next cluster's first member (a ring of
    gateways).  Cross-cluster traffic is therefore store-and-forward
    through the gateways — the shape where relocating computation next
    to the data (rules (10)/(14)) pays the most.
    """
    if not peers:
        raise NetworkError("clustered() needs at least one peer")
    if clusters < 1:
        raise NetworkError("clustered() needs at least one cluster")
    clusters = min(clusters, len(peers))
    groups: List[List[str]] = [[] for _ in range(clusters)]
    for index, peer in enumerate(peers):
        groups[index % clusters].append(peer)
    network = Network()
    for peer in peers:
        network.add_peer(peer)
    for group in groups:
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                network.add_link(a, b, intra_latency, intra_bandwidth)
    if clusters > 1:
        gateways = [group[0] for group in groups]
        for index, gateway in enumerate(gateways):
            network.add_link(
                gateway,
                gateways[(index + 1) % len(gateways)],
                bridge_latency,
                bridge_bandwidth,
            )
    return network


#: Topology name -> builder, the names :meth:`AXMLSystem.with_peers
#: <repro.peers.system.AXMLSystem.with_peers>` accepts.
BUILDERS: Dict[str, Callable[..., Network]] = {
    "full_mesh": full_mesh,
    "star": star,
    "ring": ring,
    "line": line,
    "clustered": clustered,
}
