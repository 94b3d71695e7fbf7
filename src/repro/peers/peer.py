"""Peers: the contexts of computation hosting documents and services.

A peer (Section 2 of the paper) is identified by ``p ∈ P`` and hosts

* *documents* — named XML trees, ``d@p``, names unique per peer;
* *services* — named operations, ``s@p``.

Peers also model compute capacity: evaluating queries costs virtual time
proportional to the work units divided by ``compute_speed``, and a peer
processes one thing at a time (``busy_until``), so delegating work to an
idle fast peer is a *measurable* win — which is what rules (10)/(14) are
about.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..errors import (
    DuplicateNameError,
    UnknownDocumentError,
    UnknownServiceError,
)
from ..xmlcore.model import Element, NodeId, NodeIdAllocator, find_by_id, tree_size
from ..xquery import Query
from .service import DeclarativeService, QueryMemo, Service, run_query

__all__ = ["Peer"]


class Peer:
    """One peer: documents, services, id allocation, compute accounting."""

    def __init__(self, peer_id: str, compute_speed: float = 100_000.0) -> None:
        self.peer_id = peer_id
        self.documents: Dict[str, Element] = {}
        self.services: Dict[str, Service] = {}
        self.allocator = NodeIdAllocator(peer_id)
        #: Work units (tree nodes) processed per second of virtual time.
        self.compute_speed = compute_speed
        #: Virtual instant until which the peer's CPU is occupied.
        self.busy_until = 0.0
        #: Total work units executed (for benchmark reporting).
        self.work_done = 0
        #: Total virtual seconds the CPU was occupied (utilization numerator;
        #: unlike ``busy_until`` this survives idle gaps between jobs).
        self.busy_time = 0.0
        #: Jobs currently admitted to this peer's compute queue but not yet
        #: finished.  Maintained by the serving engine
        #: (:mod:`repro.engine.scheduler`); replica-aware admission policies
        #: read it to route generic picks toward shallow queues.
        self.queued = 0
        #: Whether the peer is part of the live system.  Churn
        #: (:mod:`repro.placement`) marks peers dead instead of deleting
        #: them so in-flight accounting can settle; dead peers refuse
        #: evaluations and document reads via the evaluator.
        self.alive = True
        #: Per-document read counter (``document()`` hits), the demand
        #: signal consumed by :class:`repro.placement.PlacementMonitor`.
        self.doc_reads: Dict[str, int] = {}

    # -- documents ---------------------------------------------------------------
    def install_document(
        self, name: str, tree: Element, replace: bool = False
    ) -> Element:
        """Install ``tree`` under ``name``; assigns fresh node ids.

        The paper forbids two documents agreeing on ``(d, p)``; installing
        an existing name raises unless ``replace`` is set (used by stream
        re-materialization).  A frozen ``tree`` is copied first — id
        assignment is an edit its other holder would see — so the
        installed (returned) tree is then not the one handed in.
        """
        if name in self.documents and not replace:
            raise DuplicateNameError(
                f"document {name!r} already exists on peer {self.peer_id!r}"
            )
        if tree.frozen:
            tree = tree.copy()
        self.allocator.assign(tree)
        self.documents[name] = tree
        return tree

    def document(self, name: str) -> Element:
        """The stored tree, for *reading* (counted in :attr:`doc_reads`).

        The tree may be shared with a clone of Σ and frozen; to edit it
        in place, ask :meth:`own_document` instead.
        """
        tree = self._stored(name)
        self.doc_reads[name] = self.doc_reads.get(name, 0) + 1
        return tree

    def own_document(self, name: str) -> Element:
        """The stored tree, for *editing in place* (not counted as a read).

        The one place a document shared with another Σ is un-shared: a
        frozen tree is replaced in :attr:`documents` by a private copy
        (node ids kept) and the copy is returned; the other holder keeps
        the frozen original.  An unshared tree is returned as is.
        """
        tree = self._stored(name)
        if tree.frozen:
            tree = self.documents[name] = tree.copy()
        return tree

    def _stored(self, name: str) -> Element:
        try:
            return self.documents[name]
        except KeyError:
            raise UnknownDocumentError(
                f"no document {name!r} on peer {self.peer_id!r}"
            ) from None

    def has_document(self, name: str) -> bool:
        return name in self.documents

    def drop_document(self, name: str) -> None:
        self.documents.pop(name, None)

    def fresh_document_name(self, prefix: str = "tmp") -> str:
        index = 0
        while f"{prefix}-{index}" in self.documents:
            index += 1
        return f"{prefix}-{index}"

    def doc_resolver(self, name: str) -> Element:
        """Resolver handed to queries: ``doc(n)`` reads this peer's data."""
        return self.document(name)

    def deliver(self, target: NodeId, tree: Element) -> Optional[Element]:
        """Append an id-free copy of ``tree`` under the node ``target``.

        How forwarded results and stream items arrive (Section 2.3).  The
        containing document is owned first (:meth:`own_document`), the
        copy gets fresh ids from this peer.  Returns the appended copy,
        or ``None`` when no hosted document holds ``target``.
        """
        if target.peer != self.peer_id:
            return None
        for name, stored in self.documents.items():
            node = find_by_id(stored, target)
            if node is None:
                continue
            if stored.frozen:
                node = find_by_id(self.own_document(name), target)
            copy = tree.copy_without_ids()
            self.allocator.assign(copy)
            node.append(copy)
            return copy
        return None

    # -- services -----------------------------------------------------------------
    def install_service(self, service: Service, replace: bool = False) -> Service:
        if service.name in self.services and not replace:
            raise DuplicateNameError(
                f"service {service.name!r} already exists on peer {self.peer_id!r}"
            )
        service.bind(self)
        self.services[service.name] = service
        return service

    def install_query_service(
        self, name: str, source: str, params: Sequence[str] = (), replace: bool = False
    ) -> DeclarativeService:
        """Shorthand: wrap XQuery source as a declarative service."""
        query = Query(source, params=params, name=name)
        service = DeclarativeService(name, query)
        self.install_service(service, replace=replace)
        return service

    def service(self, name: str) -> Service:
        try:
            return self.services[name]
        except KeyError:
            raise UnknownServiceError(
                f"no service {name!r} on peer {self.peer_id!r}"
            ) from None

    def has_service(self, name: str) -> bool:
        return name in self.services

    # -- compute accounting ----------------------------------------------------------
    def charge(self, work_units: int, ready_at: float = 0.0) -> float:
        """Run ``work_units`` of computation; returns completion time.

        The CPU is a serial resource: work starts at
        ``max(ready_at, busy_until)``.
        """
        start = max(ready_at, self.busy_until)
        duration = work_units / self.compute_speed
        self.busy_until = start + duration
        self.work_done += work_units
        self.busy_time += duration
        return self.busy_until

    def evaluate(
        self,
        query: Query,
        params: Sequence[List] = (),
        ready_at: float = 0.0,
        memo: Optional[QueryMemo] = None,
    ) -> tuple:
        """Evaluate ``query`` locally; returns (result_items, done_time).

        ``doc()`` resolves against this peer.  Work is estimated as the
        size of all inputs plus referenced documents.  With a plan
        search's ``memo``, a result the search already computed is
        looked up instead; the work is charged all the same.
        """
        result = run_query(query, params, self, memo)
        work = 1
        for param in params:
            for item in param if isinstance(param, list) else [param]:
                if isinstance(item, Element):
                    work += tree_size(item)
        done = self.charge(work, ready_at)
        return result, done

    # -- compute queue -----------------------------------------------------------
    def enqueue_job(self) -> int:
        """Admit one serving job to this peer's compute queue."""
        self.queued += 1
        return self.queued

    def dequeue_job(self) -> int:
        """Retire one serving job from this peer's compute queue."""
        if self.queued > 0:
            self.queued -= 1
        return self.queued

    def reset_clock(self) -> None:
        """Zero occupancy state: the CPU clock and the compute queue."""
        self.busy_until = 0.0
        self.queued = 0

    def __repr__(self) -> str:
        return (
            f"Peer({self.peer_id!r}, docs={len(self.documents)}, "
            f"services={len(self.services)})"
        )
