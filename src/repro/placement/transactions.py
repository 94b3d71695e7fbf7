"""Catalog transactions: placement actions that keep answers identical.

Every placement decision — spawn a replica, retire one, migrate a
fragment, re-split a hot fragment — executes as a *transaction* against
one Σ: the data ships first (a real :class:`~repro.net.message.Message`
on the shared fabric, paying latency and bandwidth like any query
transfer), the new copies are installed, and only then does the catalog
entry swap — atomically, via :meth:`FragmentCatalog.register
<repro.dist.catalog.FragmentCatalog.register>` with
``replace_existing`` — before the stale copies retire.  Validation runs
up front, so a refused transaction leaves Σ byte-identical to before;
a failure after installation rolls the installed copies back.

The invariant every transaction preserves: at any instant, reassembling
the catalog's fragments in index order reproduces the original document
byte-identically.  Queries racing a transaction on the virtual clock
see either the old layout or the new one, never a torn mix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from ..dist.catalog import FragmentInfo, FragmentedDocInfo
from ..dist.fragmenter import _numeric_stats
from ..errors import FragmentationError
from ..net.message import Message, MessageKind
from ..peers.system import AXMLSystem
from ..xmlcore.model import Element

__all__ = [
    "CatalogTransaction",
    "AddReplica",
    "RetireReplica",
    "MigrateFragment",
    "SplitFragment",
]


class CatalogTransaction:
    """One atomic placement action against a system's fragment catalog."""

    def describe(self) -> str:
        raise NotImplementedError

    def apply(self, system: AXMLSystem, now: float = 0.0) -> float:
        """Execute against ``system`` starting at virtual ``now``.

        Returns the virtual instant the action settled (transfers done,
        catalog swapped).  Raises :class:`FragmentationError` without
        touching Σ when the action is invalid.
        """
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------------
    @staticmethod
    def _fragment(
        system: AXMLSystem, doc: str, index: int
    ) -> Tuple[FragmentedDocInfo, FragmentInfo]:
        info = system.fragments.info(doc)
        if not 0 <= index < len(info.fragments):
            raise FragmentationError(
                f"document {doc!r} has no fragment index {index}"
            )
        return info, info.fragments[index]

    @staticmethod
    def _check_target(
        system: AXMLSystem, fragment: FragmentInfo, target: str, name: str
    ) -> None:
        peer = system.peer(target)  # raises UnknownPeerError when absent
        if not peer.alive:
            raise FragmentationError(
                f"cannot place {name!r} on dead peer {target!r}"
            )
        if peer.has_document(name):
            raise FragmentationError(
                f"peer {target!r} already hosts a document named {name!r}"
            )

    @staticmethod
    def _ship(
        system: AXMLSystem,
        src: str,
        dst: str,
        name: str,
        tree: Element,
        now: float,
    ) -> float:
        """Ship one fragment copy src→dst and install it; returns arrival."""
        message = Message(
            src=src,
            dst=dst,
            kind=MessageKind.INSTALL,
            payload_bytes=tree.serialized_size(),
            headers={"doc": name},
        )
        arrival = system.network.deliver(message, now)
        system.peer(dst).install_document(name, tree.copy_without_ids())
        return arrival

    @staticmethod
    def _swap_fragment(
        system: AXMLSystem, info: FragmentedDocInfo, new_fragment: FragmentInfo
    ) -> None:
        """Atomically replace one fragment entry of ``info`` in the catalog."""
        fragments = tuple(
            new_fragment if f.index == new_fragment.index else f
            for f in info.fragments
        )
        system.fragments.register(
            replace(info, fragments=fragments), replace_existing=True
        )


@dataclass
class AddReplica(CatalogTransaction):
    """Mirror one fragment onto ``target`` and register it as a pick.

    The fragment becomes (or stays) a generic class, so replica-aware
    admission (:class:`~repro.peers.registry.QueueDepthPolicy`) starts
    steering reads toward the new copy on the very next pick.
    """

    doc: str
    index: int
    target: str

    def describe(self) -> str:
        return f"add-replica {self.doc}.f{self.index} -> {self.target}"

    def apply(self, system: AXMLSystem, now: float = 0.0) -> float:
        info, fragment = self._fragment(system, self.doc, self.index)
        if self.target in fragment.peers:
            raise FragmentationError(
                f"peer {self.target!r} already holds a copy of {fragment.name!r}"
            )
        self._check_target(system, fragment, self.target, fragment.name)
        source = fragment.live_copies(system)[0]
        tree = system.peers[source].documents[fragment.name]
        settled = self._ship(
            system, source, self.target, fragment.name, tree, now
        )
        generic = fragment.generic
        if generic is None:
            # first replica: open the class with the existing copies
            generic = fragment.name
            for holder in fragment.peers:
                system.registry.register_document(generic, fragment.name, holder)
        system.registry.register_document(generic, fragment.name, self.target)
        self._swap_fragment(
            system,
            info,
            replace(
                fragment,
                replicas=fragment.replicas + (self.target,),
                generic=generic,
            ),
        )
        return settled


@dataclass
class RetireReplica(CatalogTransaction):
    """Drop one replica copy (never the primary) of a fragment."""

    doc: str
    index: int
    peer: str

    def describe(self) -> str:
        return f"retire-replica {self.doc}.f{self.index} @ {self.peer}"

    def apply(self, system: AXMLSystem, now: float = 0.0) -> float:
        info, fragment = self._fragment(system, self.doc, self.index)
        if self.peer == fragment.home:
            raise FragmentationError(
                f"cannot retire the primary copy of {fragment.name!r}; "
                "migrate it instead"
            )
        if self.peer not in fragment.replicas:
            raise FragmentationError(
                f"peer {self.peer!r} holds no replica of {fragment.name!r}"
            )
        replicas = tuple(p for p in fragment.replicas if p != self.peer)
        generic: Optional[str] = fragment.generic
        system.registry.unregister_document(generic, fragment.name, self.peer)
        if not replicas and generic is not None:
            # class collapsed to the primary alone: close it so the
            # evaluator goes back to the direct (cheaper) reference
            system.registry.unregister_document(
                generic, fragment.name, fragment.home
            )
            generic = None
        self._swap_fragment(
            system, info, replace(fragment, replicas=replicas, generic=generic)
        )
        if self.peer in system.peers:
            system.peers[self.peer].drop_document(fragment.name)
        return now


@dataclass
class MigrateFragment(CatalogTransaction):
    """Move a fragment's primary copy to ``target``.

    Ship → install → swap catalog → retire the old primary, in that
    order: a failure before the swap leaves the old entry (and the old
    copy) fully intact, which is the atomicity contract the placement
    tests pin.
    """

    doc: str
    index: int
    target: str

    def describe(self) -> str:
        return f"migrate {self.doc}.f{self.index} -> {self.target}"

    def apply(self, system: AXMLSystem, now: float = 0.0) -> float:
        info, fragment = self._fragment(system, self.doc, self.index)
        if self.target == fragment.home:
            raise FragmentationError(
                f"fragment {fragment.name!r} is already primary on "
                f"{self.target!r}"
            )
        old_home = fragment.home
        if self.target in fragment.replicas:
            # promotion: the copy is already there, no transfer needed
            replicas = tuple(
                p for p in fragment.replicas if p != self.target
            )
            new_fragment = replace(
                fragment, home=self.target, replicas=replicas + (old_home,)
            )
            self._swap_fragment(system, info, new_fragment)
            return now
        self._check_target(system, fragment, self.target, fragment.name)
        source = fragment.live_copies(system)[0]
        tree = system.peers[source].documents[fragment.name]
        settled = self._ship(
            system, source, self.target, fragment.name, tree, now
        )
        try:
            if fragment.generic is not None:
                system.registry.register_document(
                    fragment.generic, fragment.name, self.target
                )
                system.registry.unregister_document(
                    fragment.generic, fragment.name, old_home
                )
            self._swap_fragment(
                system, info, replace(fragment, home=self.target)
            )
        except Exception:
            # roll the shipped copy back; the old entry never changed
            system.peer(self.target).drop_document(fragment.name)
            raise
        if old_home in system.peers:
            system.peers[old_home].drop_document(fragment.name)
        return settled


@dataclass
class SplitFragment(CatalogTransaction):
    """Re-split one hot fragment's items across several peers.

    The fragment's contiguous ordinal slice divides into one sub-slice
    per ``across`` peer (names carry the absolute ordinal range, e.g.
    ``cat.f4_8``, so repeated splits never collide).  Sub-fragments
    start unreplicated; the old fragment's copies — including replicas —
    retire once the new entry is registered.
    """

    doc: str
    index: int
    across: Sequence[str] = ()

    def describe(self) -> str:
        return (
            f"split {self.doc}.f{self.index} across "
            f"{','.join(self.across)}"
        )

    def apply(self, system: AXMLSystem, now: float = 0.0) -> float:
        targets = list(self.across)
        if len(targets) < 2:
            raise FragmentationError(
                "a split needs at least two target peers"
            )
        if len(set(targets)) != len(targets):
            raise FragmentationError("split targets must be distinct peers")
        info, fragment = self._fragment(system, self.doc, self.index)
        if fragment.count < len(targets):
            raise FragmentationError(
                f"fragment {fragment.name!r} has {fragment.count} items, "
                f"fewer than the {len(targets)} requested sub-fragments"
            )
        source = fragment.live_copies(system)[0]
        tree = system.peers[source].documents[fragment.name]
        items = list(tree.children)
        lo, hi = fragment.ordinals

        # carve the sub-slices and their names, then validate targets
        base, extra = divmod(len(items), len(targets))
        pieces: List[Tuple[str, str, Tuple[int, int], List[Element]]] = []
        offset = 0
        for position, target in enumerate(targets):
            width = base + (1 if position < extra else 0)
            piece_items = items[offset:offset + width]
            piece_lo, piece_hi = lo + offset, lo + offset + width
            name = f"{self.doc}.f{piece_lo}_{piece_hi}"
            self._check_target(system, fragment, target, name)
            pieces.append((name, target, (piece_lo, piece_hi), piece_items))
            offset += width

        installed: List[Tuple[str, str]] = []
        settled = now
        try:
            sub_fragments: List[FragmentInfo] = []
            for name, target, ordinals, piece_items in pieces:
                root = Element(tree.tag, attrs=dict(tree.attrs))
                for item in piece_items:
                    root.append(item.copy_without_ids())
                if target == source:
                    system.peer(target).install_document(name, root)
                else:
                    settled = max(
                        settled,
                        self._ship(system, source, target, name, root, now),
                    )
                installed.append((name, target))
                sub_fragments.append(
                    FragmentInfo(
                        doc=self.doc,
                        index=0,  # renumbered below
                        name=name,
                        home=target,
                        count=len(piece_items),
                        ordinals=ordinals,
                        stats=_numeric_stats(piece_items),
                    )
                )
            fragments = [
                f for f in info.fragments if f.index != fragment.index
            ]
            fragments[fragment.index:fragment.index] = sub_fragments
            renumbered = tuple(
                replace(f, index=position)
                for position, f in enumerate(fragments)
            )
            system.fragments.register(
                replace(info, fragments=renumbered), replace_existing=True
            )
        except Exception:
            for name, target in installed:
                system.peer(target).drop_document(name)
            raise
        # old copies (primary + any replicas) retire after the swap
        if fragment.generic is not None:
            for holder in fragment.peers:
                system.registry.unregister_document(
                    fragment.generic, fragment.name, holder
                )
        for holder in fragment.peers:
            if holder in system.peers:
                system.peers[holder].drop_document(fragment.name)
        return settled
