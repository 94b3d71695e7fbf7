"""The fragment catalog: where the pieces of a fragmented document live.

Horizontal fragmentation (the ROADMAP's first scaling direction) splits a
document's repeated children into per-peer *fragments*.  The catalog is
the Σ-level metadata making that split queryable:

* :class:`FragmentInfo` — one fragment: its concrete document name, the
  primary hosting peer, any replica peers, the ordinal slice of the
  original child list it covers, and per-tag numeric ``(min, max)``
  statistics the optimizer's pruning rule reads;
* :class:`FragmentedDocInfo` — one logical document: its root tag and
  attributes (needed to reassemble the whole tree byte-identically) plus
  the ordered fragment list;
* :class:`FragmentCatalog` — the registry hung off
  :attr:`AXMLSystem.fragments <repro.peers.system.AXMLSystem.fragments>`.

Like the generic registry, the catalog is logically replicated on every
peer with zero lookup cost; only the *data* transfers that follow a
lookup are charged.  Entries are immutable, so
:meth:`FragmentCatalog.copy` (used by ``AXMLSystem.clone()``) yields a
fully independent catalog without deep-copying trees — the fragment
*documents* themselves are cloned with the peers that host them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import FragmentationError, FragmentUnavailableError

__all__ = ["FragmentInfo", "FragmentedDocInfo", "FragmentCatalog"]


@dataclass(frozen=True)
class FragmentInfo:
    """One horizontal fragment of a logical document."""

    #: Logical document this fragment belongs to.
    doc: str
    #: Position of the fragment in the reassembly order.
    index: int
    #: Concrete document name hosting the slice (e.g. ``"cat.f0"``).
    name: str
    #: Primary hosting peer.
    home: str
    #: Peers holding byte-identical replicas of the fragment.
    replicas: Tuple[str, ...] = ()
    #: Number of items (root children) in the fragment.
    count: int = 0
    #: ``[lo, hi)`` slice of the original root's child list.
    ordinals: Tuple[int, int] = (0, 0)
    #: Per-tag numeric ``(min, max)`` over the fragment's items, as a
    #: sorted tuple of pairs so the info stays hashable.  The pruning
    #: rewrite treats these as invariants: a fragment whose range cannot
    #: satisfy a pushed selection is never contacted.
    stats: Tuple[Tuple[str, Tuple[float, float]], ...] = ()
    #: Generic-registry class name when the fragment is replicated
    #: (resolved through pick policies, e.g. queue-depth admission).
    generic: Optional[str] = None

    @property
    def peers(self) -> Tuple[str, ...]:
        """Every peer holding a copy, primary first."""
        return (self.home,) + self.replicas

    def live_copies(self, system) -> Tuple[str, ...]:
        """Peers of ``system`` alive and still holding the fragment,
        primary first; the typed :class:`FragmentUnavailableError` when
        every copy is gone (the catalog may still name a dead home)."""
        peers = system.peers
        live = tuple(
            pid
            for pid in self.peers
            if pid in peers and peers[pid].alive and peers[pid].has_document(self.name)
        )
        if not live:
            raise FragmentUnavailableError(self.name, self.peers)
        return live

    def bounds(self, tag: str) -> Optional[Tuple[float, float]]:
        """The fragment's ``(min, max)`` for a numeric child tag, if known."""
        for name, pair in self.stats:
            if name == tag:
                return pair
        return None

    def describe(self) -> str:
        lo, hi = self.ordinals
        reps = f" +{len(self.replicas)} replicas" if self.replicas else ""
        return f"{self.name}@{self.home} items[{lo}:{hi}]{reps}"


@dataclass(frozen=True)
class FragmentedDocInfo:
    """Catalog entry for one logical document."""

    doc: str
    root_tag: str
    #: Root attributes, sorted, so reassembly reproduces the original root.
    root_attrs: Tuple[Tuple[str, str], ...] = ()
    fragments: Tuple[FragmentInfo, ...] = ()

    @property
    def total_items(self) -> int:
        return sum(fragment.count for fragment in self.fragments)

    def describe(self) -> str:
        parts = ", ".join(f.describe() for f in self.fragments)
        return f"{self.doc} = <{self.root_tag}> over [{parts}]"


class FragmentCatalog:
    """Registry of fragmented logical documents on one Σ.

    The catalog maps logical names to :class:`FragmentedDocInfo`.  A
    logical name may coexist with a whole-document replica of the same
    name (useful as a migration baseline); the ``@dist`` binding form
    selects the fragmented view explicitly.
    """

    def __init__(self) -> None:
        self._docs: Dict[str, FragmentedDocInfo] = {}

    # -- registration ----------------------------------------------------------
    def register(self, info: FragmentedDocInfo, replace_existing: bool = False) -> None:
        if info.doc in self._docs and not replace_existing:
            raise FragmentationError(
                f"document {info.doc!r} already has a fragment catalog entry"
            )
        if not info.fragments:
            raise FragmentationError(
                f"catalog entry for {info.doc!r} needs at least one fragment"
            )
        self._docs[info.doc] = info

    def drop(self, doc: str) -> None:
        self._docs.pop(doc, None)

    # -- lookup ----------------------------------------------------------------
    def is_fragmented(self, doc: str) -> bool:
        return doc in self._docs

    def info(self, doc: str) -> FragmentedDocInfo:
        try:
            return self._docs[doc]
        except KeyError:
            raise FragmentationError(
                f"document {doc!r} has no fragment catalog entry"
            ) from None

    def fragments(self, doc: str) -> Tuple[FragmentInfo, ...]:
        return self.info(doc).fragments

    def documents(self) -> List[str]:
        return sorted(self._docs)

    def __len__(self) -> int:
        return len(self._docs)

    def __iter__(self) -> Iterator[FragmentedDocInfo]:
        for doc in sorted(self._docs):
            yield self._docs[doc]

    # -- lifecycle -------------------------------------------------------------
    def copy(self) -> "FragmentCatalog":
        """An independent catalog with the same entries.

        Entries are immutable, so sharing them is safe; registering or
        dropping on either side never shows through to the other —
        exactly the independence ``AXMLSystem.clone()`` promises.
        """
        twin = FragmentCatalog()
        twin._docs = dict(self._docs)
        return twin

    def describe(self) -> str:
        if not self._docs:
            return "fragment catalog: empty"
        lines = [f"fragment catalog: {len(self._docs)} documents"]
        for info in self:
            lines.append("  " + info.describe())
        return "\n".join(lines)
