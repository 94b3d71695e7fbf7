"""The AXML system state Σ: all documents and services on all peers.

Section 3.3 defines Σ as "all documents and services on p1, ..., pn" and
expression equivalence as equality of post-states over *any* Σ.  This
module provides:

* :class:`AXMLSystem` — peers + network + generic registry, with
  convenience construction;
* :meth:`AXMLSystem.snapshot` — a canonical, comparable image of Σ
  (document canonical forms per peer plus service inventories), which
  tests compare to show that a run left Σ as it was (the rewrite
  verifier, :mod:`repro.core.verify`, checks ``eval(e)(Σ) = eval(e')(Σ)``
  on its own ``observable_state``, which leaves out rewrite artifacts);
* :meth:`AXMLSystem.clone` — a second Σ so both sides of an equivalence
  can be evaluated from the same starting state.  A clone is *copy on
  write*: its peers hold the same document trees as the original's, by
  reference, and those trees are frozen from then on
  (:meth:`Element.freeze <repro.xmlcore.model.Element.freeze>`).
  Whichever side wants to edit a stored document in place takes its own
  copy first through :meth:`Peer.own_document
  <repro.peers.peer.Peer.own_document>` — every write path in the library
  does — so an edit on one side never shows on the other, and an in-place
  edit of what :meth:`Peer.document <repro.peers.peer.Peer.document>`
  returns raises :class:`~repro.errors.FrozenTreeError` instead of
  corrupting the other Σ.  Cloning costs O(peers + documents), with no
  term per node or link: the twin shares the original's routes, builds
  its own link the first time a transfer crosses it, and copies a service
  the first time it is looked up.
"""

from __future__ import annotations

import inspect
from typing import Dict, List, Optional, Sequence

from ..dist.catalog import FragmentCatalog
from ..errors import NetworkError, UnknownPeerError
from ..net.network import Network
from ..net import topology as topo
from ..xmlcore.canon import canonical_form
from .peer import Peer
from .registry import GenericRegistry
from .service import DeclarativeService

__all__ = ["AXMLSystem"]


class AXMLSystem:
    """A set of peers, the fabric connecting them, and the shared registry."""

    def __init__(self, network: Optional[Network] = None) -> None:
        self.network = network or Network()
        self.peers: Dict[str, Peer] = {}
        self.registry = GenericRegistry()
        #: Fragment catalog: where the pieces of horizontally fragmented
        #: documents live (see :mod:`repro.dist`).  Queryable through the
        #: ``doc@dist`` binding form and the ``FragmentedDoc`` expression.
        self.fragments = FragmentCatalog()
        #: Virtual time at which the whole system became quiescent after
        #: the last evaluation (set by the expression evaluator).
        self.clock = 0.0
        #: Per-document mutation epochs (see :mod:`repro.writes`).  Only
        #: names that have actually been written appear here; a missing
        #: entry means epoch 0, i.e. the document is exactly as installed.
        #: Cache keys downstream (:func:`repro.core.planspace.doc_epoch_signature`)
        #: fold non-zero epochs in, so a write invalidates precisely the
        #: memo entries that mention the mutated names.
        self.doc_epochs: Dict[str, int] = {}

    # -- construction ----------------------------------------------------------
    @classmethod
    def with_peers(
        cls,
        peer_ids: Sequence[str],
        topology: str = "full_mesh",
        **topology_kwargs,
    ) -> "AXMLSystem":
        """Build a system with the named peers on a topology named in
        :data:`repro.net.topology.BUILDERS`; ``topology_kwargs`` go to its
        builder, which names the ones it accepts when given another."""
        builder = topo.BUILDERS.get(topology)
        if builder is None:
            raise NetworkError(
                f"unknown topology {topology!r}; "
                f"pick one of {', '.join(sorted(topo.BUILDERS))}"
            )
        accepted = list(inspect.signature(builder).parameters)[1:]
        unknown = sorted(set(topology_kwargs) - set(accepted))
        if unknown:
            raise NetworkError(
                f"topology {topology!r} takes no {', '.join(unknown)}; "
                f"it accepts {', '.join(accepted)}"
            )
        system = cls(builder(list(peer_ids), **topology_kwargs))
        for peer_id in peer_ids:
            system.add_peer(peer_id)
        return system

    def add_peer(self, peer_id: str, compute_speed: float = 100_000.0) -> Peer:
        if peer_id in self.peers:
            return self.peers[peer_id]
        peer = Peer(peer_id, compute_speed)
        self.peers[peer_id] = peer
        self.network.add_peer(peer_id)
        return peer

    def peer(self, peer_id: str) -> Peer:
        try:
            return self.peers[peer_id]
        except KeyError:
            raise UnknownPeerError(f"unknown peer {peer_id!r}") from None

    def live_peers(self) -> List[str]:
        """Identifiers of peers currently in the system, sorted.

        Dead peers (crash victims, see
        :class:`repro.faults.ChurnController`) keep their entry in
        :attr:`peers` for accounting but are excluded here.
        """
        return sorted(pid for pid, peer in self.peers.items() if peer.alive)

    # -- document epochs -----------------------------------------------------------
    def doc_epoch(self, name: str) -> int:
        """Mutation epoch of a document-like name (0 = never written)."""
        return self.doc_epochs.get(name, 0)

    def bump_doc_epoch(self, name: str) -> int:
        """Advance a name's epoch after a mutation; returns the new epoch.

        Callers (:class:`repro.writes.DocumentWriter`) bump every name a
        write made observable through: the logical document, the owning
        fragment, whole-document mirrors, and generic classes.  Activation
        is a write too: the evaluator bumps a document, and its generic
        classes, when it installs the document's activated value.
        """
        epoch = self.doc_epochs.get(name, 0) + 1
        self.doc_epochs[name] = epoch
        return epoch

    # -- state Σ -------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """A canonical image of Σ for equality comparison.

        Captures, per peer: every document's canonical form (unordered,
        id-free — matching the paper's tree model) and the service
        inventory (name, declarative source when visible).  Two systems
        with equal snapshots are indistinguishable to further queries.
        Artifacts count too, unlike in the verifier's
        :func:`~repro.core.verify.observable_state`.
        """
        image: Dict[str, object] = {}
        for peer_id in sorted(self.peers):
            peer = self.peers[peer_id]
            docs = {
                name: canonical_form(tree)
                for name, tree in sorted(peer.documents.items())
            }
            services = {}
            for name, service in sorted(peer.services.items()):
                if isinstance(service, DeclarativeService):
                    services[name] = ("declarative", service.query.source)
                else:
                    services[name] = (type(service).__name__,)
            image[peer_id] = (tuple(sorted(docs.items())), tuple(sorted(services.items())))
        return image

    def clone(self) -> "AXMLSystem":
        """A second Σ with the same state, sharing everything that cannot differ.

        *Frozen, by reference*: the twin's peers hold the *same* document
        trees, frozen by this call on both sides (see the module docstring
        for the copy-before-write rule, and call ``tree.copy()`` for
        physically distinct nodes).  The network is :meth:`Network.clone
        <repro.net.network.Network.clone>`: the same topology, adjacency
        index and route memo, and links built on first use with fresh
        clocks and statistics, so both sides of an equivalence check begin
        from the same ground.  Services are the original's until
        :meth:`Peer.service <repro.peers.peer.Peer.service>` first hands
        one out, which copies it.  The peer, document, service, registry,
        fragment and epoch tables are copied whole, and what they share is
        fixed once built (link qualities, frozen trees, the fields a
        service copy reads), so neither side's later edits show on the
        other and no staleness check is needed.  Node-id allocators
        resume where the original's stand, so ids handed out on the twin
        never collide with ids its trees already carry.
        """
        twin = AXMLSystem(self.network.clone())
        peers = twin.peers
        for peer_id, peer in self.peers.items():
            # the network clone already knows every peer: no add_peer
            twin_peer = peers[peer_id] = Peer(peer_id, peer.compute_speed)
            twin_peer.alive = peer.alive
            twin_peer.allocator.next_serial = peer.allocator.next_serial
            documents = peer.documents
            for tree in documents.values():
                if not tree._frozen:
                    tree.freeze()
            twin_peer.documents = dict(documents)
            # still bound to their provider here: Peer.service copies one
            # for the twin on its first lookup
            twin_peer.services = dict(peer.services)
        twin.registry = self.registry.copy()
        # fragment *documents* were shared with their hosting peers above;
        # the catalog copy is independent, so registering/dropping on one
        # side never shows through to the other.
        twin.fragments = self.fragments.copy()
        twin.doc_epochs = dict(self.doc_epochs)
        return twin

    # -- reporting -----------------------------------------------------------------
    def stats_snapshot(self) -> Dict[str, Dict[str, object]]:
        """Per-peer accounting for execution reports.

        Merges the network's per-peer traffic attribution with each
        peer's compute counters.  Purely observational — does not touch
        clocks or statistics.
        """
        traffic = self.network.peer_traffic()
        image: Dict[str, Dict[str, object]] = {}
        for peer_id in sorted(self.peers):
            peer = self.peers[peer_id]
            image[peer_id] = {
                "traffic": traffic.get(peer_id),
                "work_done": peer.work_done,
                "busy_until": peer.busy_until,
                "busy_time": peer.busy_time,
                "queued": peer.queued,
                "alive": peer.alive,
            }
        return image

    def __repr__(self) -> str:
        return f"AXMLSystem(peers={sorted(self.peers)})"

