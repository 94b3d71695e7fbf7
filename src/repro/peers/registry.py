"""Generic documents and services (paper Section 2.3) and pick policies.

A *generic document* ``d@any`` names an equivalence class of regular
documents considered interchangeable (replicas whose fixpoints coincide);
similarly for generic services.  Definition (9) of the paper resolves a
generic reference via a per-peer ``pickDoc`` / ``pickService`` function
whose "implementation ... depends on p's knowledge of the existing
documents and services, p's preferences etc.".

We implement that as a shared :class:`GenericRegistry` (who belongs to
which class) plus pluggable :class:`PickPolicy` strategies (what a given
peer prefers): first / random / nearest-by-latency / least-loaded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..errors import GenericResolutionError
from ..xmlcore.canon import canonical_hash

if TYPE_CHECKING:  # pragma: no cover
    from .system import AXMLSystem

__all__ = [
    "GenericMember",
    "GenericRegistry",
    "PickPolicy",
    "FirstPolicy",
    "RandomPolicy",
    "NearestPolicy",
    "LeastLoadedPolicy",
    "QueueDepthPolicy",
    "POLICIES",
]

ANY_PEER = "any"


@dataclass(frozen=True)
class GenericMember:
    """One member of an equivalence class: a concrete name at a peer."""

    name: str
    peer: str

    def __str__(self) -> str:
        return f"{self.name}@{self.peer}"


class PickPolicy:
    """Strategy deciding which member a given peer should use."""

    def choose(
        self,
        members: List[GenericMember],
        requester: str,
        system: "AXMLSystem",
    ) -> GenericMember:
        raise NotImplementedError


class FirstPolicy(PickPolicy):
    """Deterministic: registration order (the AXML default behaviour)."""

    def choose(self, members, requester, system):
        return members[0]


class RandomPolicy(PickPolicy):
    """Uniform random choice; seeded for reproducibility."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def choose(self, members, requester, system):
        return self._rng.choice(members)


class NearestPolicy(PickPolicy):
    """Pick the member whose route from the requester is cheapest.

    Locality preference — with replicated mirrors this is the policy that
    makes generic documents an optimization rather than a convenience.
    A member on the requesting peer itself always wins (cost 0).
    """

    def choose(self, members, requester, system):
        def cost(member: GenericMember) -> float:
            if member.peer == requester:
                return 0.0
            links = system.network.route(requester, member.peer)
            return sum(
                link.latency + 1024.0 / link.bandwidth for link in links
            )

        return min(members, key=cost)


class LeastLoadedPolicy(PickPolicy):
    """Pick the member whose hosting peer is least busy (CPU pressure)."""

    def choose(self, members, requester, system):
        def load(member: GenericMember) -> float:
            return system.peer(member.peer).busy_until

        return min(members, key=load)


class QueueDepthPolicy(PickPolicy):
    """Replica-aware serving admission: route to the shallowest queue.

    Under concurrent serving (:mod:`repro.engine`) peers are contended
    resources with explicit compute queues (:attr:`Peer.queued
    <repro.peers.peer.Peer.queued>`).  This policy resolves a generic
    reference toward the member whose hosting peer currently has the
    fewest admitted-but-unfinished jobs; ties break on the CPU clock
    (``busy_until``), then on locality (a member on the requesting peer
    wins), then on registration order — fully deterministic, so the
    scheduler's event trace stays byte-stable across runs.
    """

    def choose(self, members, requester, system):
        def depth(indexed: Tuple[int, GenericMember]):
            index, member = indexed
            peer = system.peer(member.peer)
            return (
                peer.queued,
                peer.busy_until,
                member.peer != requester,
                index,
            )

        return min(enumerate(members), key=depth)[1]


POLICIES: Dict[str, Callable[[], PickPolicy]] = {
    "first": FirstPolicy,
    "random": RandomPolicy,
    "nearest": NearestPolicy,
    "least-loaded": LeastLoadedPolicy,
    "queue-depth": QueueDepthPolicy,
}


def _live(
    members: Optional[List[GenericMember]], system: "AXMLSystem"
) -> List[GenericMember]:
    """Members whose hosting peer is still alive (or unknown to Σ).

    :class:`ChurnController <repro.faults.ChurnController>` eagerly
    unregisters dead peers' members; this filter is the belt-and-braces
    guarantee that even an un-reacted kill never routes a pick to a dead
    peer mid-run.
    """
    if not members:
        return []
    return [
        m
        for m in members
        if m.peer not in system.peers or system.peers[m.peer].alive
    ]


class GenericRegistry:
    """Membership of document / service equivalence classes.

    The registry is logically replicated on every peer (the paper leaves
    the mechanism open — DHT, gossip, static config); we model it as
    shared state with zero lookup cost, and charge only the *data*
    transfers that follow a pick, which is what the experiments measure.
    """

    def __init__(self) -> None:
        self._documents: Dict[str, List[GenericMember]] = {}
        self._services: Dict[str, List[GenericMember]] = {}

    def copy(self) -> "GenericRegistry":
        """An independent registry with the same classes and members."""
        twin = GenericRegistry()
        twin._documents = {g: list(m) for g, m in self._documents.items()}
        twin._services = {g: list(m) for g, m in self._services.items()}
        return twin

    # -- registration ----------------------------------------------------------
    def register_document(self, generic_name: str, name: str, peer: str) -> None:
        members = self._documents.setdefault(generic_name, [])
        member = GenericMember(name, peer)
        if member not in members:
            members.append(member)

    def register_service(self, generic_name: str, name: str, peer: str) -> None:
        members = self._services.setdefault(generic_name, [])
        member = GenericMember(name, peer)
        if member not in members:
            members.append(member)

    def document_classes(self, name: str, peer: str) -> List[str]:
        """Generic classes containing the concrete member ``name@peer``.

        The write path (:mod:`repro.writes`) uses this to find every
        mirror a mutated document must stay coherent with.
        """
        return sorted(
            generic
            for generic, members in self._documents.items()
            if any(m.name == name and m.peer == peer for m in members)
        )

    def unregister_document(self, generic_name: str, name: str, peer: str) -> None:
        members = self._documents.get(generic_name, [])
        members[:] = [m for m in members if not (m.name == name and m.peer == peer)]

    def remove_peer(self, peer: str) -> int:
        """Drop every membership hosted on ``peer`` (churn cleanup).

        Called by :class:`repro.faults.ChurnController` when a peer
        dies, so generic resolution never routes a pick to it.  Returns
        the number of memberships removed.
        """
        removed = 0
        for classes in (self._documents, self._services):
            for members in classes.values():
                before = len(members)
                members[:] = [m for m in members if m.peer != peer]
                removed += before - len(members)
        return removed

    def document_members(self, generic_name: str) -> List[GenericMember]:
        return list(self._documents.get(generic_name, []))

    def service_members(self, generic_name: str) -> List[GenericMember]:
        return list(self._services.get(generic_name, []))

    # -- resolution (definition (9)) ------------------------------------------------
    def pick_document(
        self,
        generic_name: str,
        requester: str,
        system: "AXMLSystem",
        policy: Optional[PickPolicy] = None,
    ) -> GenericMember:
        members = _live(self._documents.get(generic_name), system)
        if not members:
            raise GenericResolutionError(
                f"generic document {generic_name!r}@any has no live members"
            )
        return (policy or FirstPolicy()).choose(members, requester, system)

    def pick_service(
        self,
        generic_name: str,
        requester: str,
        system: "AXMLSystem",
        policy: Optional[PickPolicy] = None,
    ) -> GenericMember:
        members = _live(self._services.get(generic_name), system)
        if not members:
            raise GenericResolutionError(
                f"generic service {generic_name!r}@any has no live members"
            )
        return (policy or FirstPolicy()).choose(members, requester, system)

    # -- integrity ---------------------------------------------------------------
    def check_document_equivalence(self, generic_name: str, system: "AXMLSystem") -> bool:
        """Verify all current members are structurally equivalent.

        The paper's ≡ is about eventual fixpoints; for materialized
        replicas the decidable check is canonical-form equality.  Returns
        True when the class is consistent (or has < 2 members).
        """
        members = self._documents.get(generic_name, [])
        digests = set()
        for member in members:
            peer = system.peer(member.peer)
            if not peer.has_document(member.name):
                continue
            digests.add(canonical_hash(peer.document(member.name)))
        return len(digests) <= 1
