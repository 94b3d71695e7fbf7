"""Simulated network substrate: messages, links, statistics, topologies.

>>> from repro.net import Message, MessageKind, topology
>>> net = topology.full_mesh(["p0", "p1", "p2"])
>>> arrival = net.deliver(Message("p0", "p1", MessageKind.DATA, 14))
>>> net.stats.messages
1
"""

from . import topology
from .message import Message, MessageKind, wire_size
from .network import Link, LinkStats, Network, NetworkStats, PeerTraffic

__all__ = [
    "topology",
    "Message",
    "MessageKind",
    "wire_size",
    "Link",
    "LinkStats",
    "Network",
    "NetworkStats",
    "PeerTraffic",
]
