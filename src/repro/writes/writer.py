"""The write path: route a mutation to its owning copies, keep Σ coherent.

:class:`DocumentWriter` applies one :mod:`op <repro.writes.ops>` to a
live system under **primary-copy** coherence:

* the catalog's ordinal ranges name the owning fragment; the write lands
  on the fragment's home (or, when the home is dead, fails over to the
  first surviving copy — a last-copy loss raises the typed
  :class:`~repro.errors.FragmentUnavailableError`, never a ``KeyError``);
* every other live copy — fragment replicas, the whole-document baseline
  kept at the home, generic-class mirrors — receives the same edit as a
  *delta* shipped over the simulated network, so coherence is charged on
  the virtual clock like any other traffic; :attr:`WriteResult.settled_at
  <repro.writes.ops.WriteResult.settled_at>` is when the slowest ship
  arrived and reads from any copy are consistent again;
* the owning fragment's catalog entry is re-derived in place — new count,
  shifted ordinal ranges downstream, refreshed per-tag ``(min, max)``
  stats — so fragment-prune stays sound against the mutated content;
* finally every name the write made observable through — including
  every stored document whose embedded calls read a written name — gets
  its **epoch** bumped (:meth:`AXMLSystem.bump_doc_epoch`), which is the
  whole cache-invalidation story: plan/cost memo keys fold non-zero
  epochs in (:func:`repro.core.planspace.doc_epoch_signature`), so stale
  entries stop matching while entries for untouched documents survive.

:func:`apply_to_tree` is the single-tree edit primitive both the writer
and the rebuild-from-scratch baseline (differential harness, bench) use,
so "incremental" and "rebuild" can only differ in *distribution*
machinery, never in edit semantics.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Set, Tuple

from ..axml.document import ServiceCall
from ..dist.fragmenter import _numeric_stats
from ..errors import (
    PeerDownError,
    ServiceCallError,
    UnknownDocumentError,
    WriteError,
)
from ..net.message import Message, MessageKind
from ..peers.service import DeclarativeService, _doc_references
from ..peers.system import AXMLSystem
from ..xmlcore.model import Element, element, iter_elements
from .ops import DeleteOp, InsertOp, UpdateOp, WriteOp, WriteResult

__all__ = ["DocumentWriter", "apply_to_tree", "op_kind"]


def op_kind(op: WriteOp) -> str:
    """``"insert"`` / ``"update"`` / ``"delete"`` for a write op."""
    if isinstance(op, InsertOp):
        return "insert"
    if isinstance(op, UpdateOp):
        return "update"
    if isinstance(op, DeleteOp):
        return "delete"
    raise WriteError(f"unknown write operation {type(op).__name__}")


def apply_to_tree(root: Element, op: WriteOp, offset: int = 0) -> None:
    """Apply one op to ``root``'s child list at local index ``ordinal - offset``.

    ``offset`` is the fragment's ``lo`` ordinal (0 for whole documents),
    so the same absolute-ordinal op edits a fragment copy and the whole
    baseline identically.  Inserted items are copied id-free; updates
    build a fresh ``<tag>value</tag>`` — every copy therefore serializes
    byte-identically.  All edits go through the :class:`Element` mutation
    helpers, which invalidate the size/fingerprint caches up the ancestor
    chain.
    """
    items = root.children
    if isinstance(op, InsertOp):
        ordinal = len(items) + offset if op.ordinal is None else op.ordinal
        local = ordinal - offset
        if not 0 <= local <= len(items):
            raise WriteError(
                f"insert ordinal {ordinal} outside [{offset}, "
                f"{offset + len(items)}] for {op.doc!r}"
            )
        root.insert(local, op.item.copy_without_ids())
        return
    local = op.ordinal - offset
    if not 0 <= local < len(items):
        raise WriteError(
            f"{op_kind(op)} ordinal {op.ordinal} outside [{offset}, "
            f"{offset + len(items)}) for {op.doc!r}"
        )
    target = items[local]
    if isinstance(op, DeleteOp):
        root.remove(target)
        return
    if isinstance(op, UpdateOp):
        if not isinstance(target, Element):
            raise WriteError(
                f"update ordinal {op.ordinal} of {op.doc!r} is not an element"
            )
        fresh = element(op.tag, op.value)
        existing = target.child_by_tag(op.tag)
        if existing is None:
            target.append(fresh)
        else:
            target.replace_child(existing, fresh)
        return
    raise WriteError(f"unknown write operation {type(op).__name__}")


class DocumentWriter:
    """Applies write ops to one live Σ (see the module docstring)."""

    def __init__(self, system: AXMLSystem) -> None:
        self.system = system

    def apply(self, op: WriteOp, now: float = 0.0) -> WriteResult:
        """Route, apply, propagate, refresh stats, bump epochs."""
        op_kind(op)  # reject unknown op types before touching Σ
        if self.system.fragments.is_fragmented(op.doc):
            return self._apply_fragmented(op, now)
        return self._apply_whole(op, now)

    # -- whole documents ----------------------------------------------------
    def _apply_whole(self, op: WriteOp, now: float) -> WriteResult:
        system = self.system
        hosts = [
            pid
            for pid in sorted(system.peers)
            if system.peers[pid].has_document(op.doc)
        ]
        if not hosts:
            raise UnknownDocumentError(f"no peer hosts a document named {op.doc!r}")
        live = [pid for pid in hosts if system.peers[pid].alive]
        if not live:
            raise PeerDownError(
                f"every copy of {op.doc!r} is on a dead peer ({', '.join(hosts)})"
            )
        primary = live[0]
        op = self._concretize(
            op, len(system.peers[primary].documents[op.doc].children)
        )
        self._edit(primary, op.doc, op)

        settled = now
        shipped: List[str] = []
        touched: Set[str] = {op.doc}
        # same-name copies on other live peers
        for pid in live[1:]:
            settled = max(settled, self._ship_delta(primary, pid, op.doc, op, now))
            self._edit(pid, op.doc, op)
            shipped.append(pid)
        # generic-class mirrors under other names (e.g. "d0.r1" in "g-d0")
        for generic in system.registry.document_classes(op.doc, primary):
            touched.add(generic)
            for member in system.registry.document_members(generic):
                if member.name == op.doc:
                    continue
                peer = system.peers.get(member.peer)
                if peer is None or not peer.alive or not peer.has_document(member.name):
                    continue
                settled = max(
                    settled,
                    self._ship_delta(primary, member.peer, member.name, op, now),
                )
                self._edit(member.peer, member.name, op)
                shipped.append(member.peer)
                touched.add(member.name)

        return WriteResult(
            doc=op.doc,
            kind=op_kind(op),
            ordinal=op.ordinal,
            fragment=None,
            primary=primary,
            replicas=tuple(shipped),
            touched=self._bump_epochs(touched),
            settled_at=settled,
            epoch=system.doc_epoch(op.doc),
        )

    # -- fragmented documents -----------------------------------------------
    def _apply_fragmented(self, op: WriteOp, now: float) -> WriteResult:
        system = self.system
        info = system.fragments.info(op.doc)
        op = self._concretize(op, info.total_items)
        owner = self._owning_fragment(info, op)
        # the catalog may still name a dead home (churn failover runs
        # asynchronously): the write lands on the first surviving copy
        copies = owner.live_copies(system)
        primary = copies[0]

        lo, hi = owner.ordinals
        primary_tree = self._edit(primary, owner.name, op, offset=lo)

        settled = now
        shipped: List[str] = []
        # replica copies of the owning fragment
        for pid in copies[1:]:
            settled = max(settled, self._ship_delta(primary, pid, owner.name, op, now))
            self._edit(pid, owner.name, op, offset=lo)
            shipped.append(pid)
        # whole-document baselines kept alongside the fragments
        # (Fragmenter's keep_original) edit at the absolute ordinal
        for pid in sorted(system.peers):
            peer = system.peers[pid]
            if not peer.alive or not peer.has_document(op.doc):
                continue
            if pid != primary:
                settled = max(settled, self._ship_delta(primary, pid, op.doc, op, now))
                shipped.append(pid)
            self._edit(pid, op.doc, op)

        self._refresh_catalog(info, owner, op, primary_tree)

        touched = {op.doc, owner.name}
        if owner.generic:
            touched.add(owner.generic)
        return WriteResult(
            doc=op.doc,
            kind=op_kind(op),
            ordinal=op.ordinal,
            fragment=owner.name,
            primary=primary,
            replicas=tuple(shipped),
            touched=self._bump_epochs(touched),
            settled_at=settled,
            epoch=system.doc_epoch(op.doc),
        )

    def _bump_epochs(self, touched: Set[str]) -> Tuple[str, ...]:
        """Bump the epoch of every name the write is observable through;
        returns them, sorted.

        Besides the written names, that is every stored document whose
        embedded calls invoke a declarative service reading one of them,
        and the generic classes it belongs to: activating the document
        reads what was written.
        """
        system = self.system
        names = set(touched)
        readers = {
            (pid, name)
            for pid, peer in system.peers.items()
            for name, service in peer.services.items()
            if isinstance(service, DeclarativeService)
            and touched.intersection(_doc_references(service.query))
        }
        if readers:
            for pid, peer in system.peers.items():
                for name, tree in peer.documents.items():
                    if tree.has_service_calls() and self._calls_any(tree, readers):
                        names.add(name)
                        names.update(system.registry.document_classes(name, pid))
        for name in sorted(names):
            system.bump_doc_epoch(name)
        return tuple(sorted(names))

    def _calls_any(self, tree: Element, services: Set[Tuple[str, str]]) -> bool:
        """Whether an ``sc`` of ``tree`` may invoke one of ``services``,
        ``(peer, name)`` pairs: a generic call, through any member."""
        registry = self.system.registry
        for node in iter_elements(tree):
            if not node.is_service_call():
                continue
            try:
                call = ServiceCall.parse(node)
            except ServiceCallError:
                continue  # malformed: activation fails, nothing is read
            if call.is_generic:
                members = registry.service_members(call.service)
                if any((m.peer, m.name) in services for m in members):
                    return True
            elif (call.provider, call.service) in services:
                return True
        return False

    def _edit(self, pid: str, name: str, op: WriteOp, offset: int = 0) -> Element:
        """Apply ``op`` to ``name``@``pid`` in place; returns the edited tree.

        The tree is owned first (:meth:`Peer.own_document`): a copy this Σ
        shares with a clone is un-shared before it changes.
        """
        peer = self.system.peers[pid]
        tree = peer.own_document(name)
        apply_to_tree(tree, op, offset)
        peer.allocator.assign(tree)
        return tree

    # -- routing helpers ----------------------------------------------------
    @staticmethod
    def _concretize(op: WriteOp, total: int) -> WriteOp:
        """Resolve append-inserts to a number, bounds-check the ordinal."""
        if isinstance(op, InsertOp):
            ordinal = total if op.ordinal is None else op.ordinal
            if not 0 <= ordinal <= total:
                raise WriteError(
                    f"insert ordinal {ordinal} outside [0, {total}] for {op.doc!r}"
                )
            return replace(op, ordinal=ordinal)
        if not 0 <= op.ordinal < total:
            raise WriteError(
                f"{op_kind(op)} ordinal {op.ordinal} outside [0, {total}) "
                f"for {op.doc!r}"
            )
        return op

    @staticmethod
    def _owning_fragment(info, op: WriteOp):
        """The fragment whose ``[lo, hi)`` range contains the ordinal.

        An insert at ``total`` (append) falls past every range and lands
        in the last fragment.
        """
        for fragment in info.fragments:
            lo, hi = fragment.ordinals
            if lo <= op.ordinal < hi:
                return fragment
        if isinstance(op, InsertOp) and info.fragments:
            return info.fragments[-1]
        raise WriteError(
            f"ordinal {op.ordinal} not covered by any fragment of {op.doc!r}"
        )

    def _ship_delta(
        self, src: str, dst: str, doc: str, op: WriteOp, now: float
    ) -> float:
        """Charge one coherence delta on the network; returns arrival time."""
        if src == dst:
            return now
        message = Message(
            src=src,
            dst=dst,
            kind=MessageKind.DATA,
            payload_bytes=self._delta_bytes(op),
            headers={"doc": doc, "write": op_kind(op)},
        )
        return self.system.network.deliver(message, now)

    @staticmethod
    def _delta_bytes(op: WriteOp) -> int:
        """Wire size of ``ordinal[:item | :tag=value]``, the shipped delta."""
        size = len(str(op.ordinal))
        if isinstance(op, InsertOp):
            size += 1 + op.item.serialized_size()
        elif isinstance(op, UpdateOp):
            size += 2 + len(f"{op.tag}{op.value}".encode("utf-8"))
        return size

    # -- catalog maintenance ------------------------------------------------
    def _refresh_catalog(self, info, owner, op: WriteOp, primary_tree) -> None:
        """Re-derive the owning fragment's entry; shift downstream ranges.

        Atomic swap via ``register(replace_existing=True)`` — readers see
        either the old coherent entry or the new one.  Stats come from
        the primary's post-write items, so fragment-prune keeps its
        invariant: a pruned fragment provably holds no matching item.
        """
        delta = {"insert": 1, "update": 0, "delete": -1}[op_kind(op)]
        lo, hi = owner.ordinals
        fragments = []
        for fragment in info.fragments:
            if fragment.index == owner.index:
                items = [
                    child
                    for child in primary_tree.children
                    if isinstance(child, Element)
                ]
                fragment = replace(
                    fragment,
                    count=fragment.count + delta,
                    ordinals=(lo, hi + delta),
                    stats=_numeric_stats(items),
                )
            elif delta and fragment.index > owner.index:
                flo, fhi = fragment.ordinals
                fragment = replace(fragment, ordinals=(flo + delta, fhi + delta))
            fragments.append(fragment)
        self.system.fragments.register(
            replace(info, fragments=tuple(fragments)), replace_existing=True
        )
