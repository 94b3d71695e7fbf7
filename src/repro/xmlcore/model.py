"""XML data model: labelled, unranked trees with peer-scoped node identifiers.

The paper (Section 2.1) views an XML tree as an unranked, *unordered* tree
whose leaves carry labels from ``L`` and whose internal nodes carry a label
and an identifier from ``N``.  We keep children in an ordered list — XQuery
semantics need a document order — but all equivalence comparisons used by
the framework (:mod:`repro.xmlcore.canon`) treat trees as unordered, as the
paper specifies.

Two node kinds exist:

* :class:`Element` — label (tag), attributes, children, optional node id;
* :class:`Text` — a leaf holding character data.

Node identifiers (:class:`NodeId`) are ``n@p`` pairs: a serial number plus
the identifier of the hosting peer, so forward lists (``forw`` children of
``sc`` nodes) can address "add the response under node n on peer p".
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b
from typing import Dict, Iterable, Iterator, List, Optional, Union

from ..errors import FrozenTreeError

__all__ = [
    "NodeId",
    "NodeIdAllocator",
    "Node",
    "Element",
    "Text",
    "element",
    "text",
    "tree_size",
    "iter_elements",
    "iter_nodes",
    "find_by_id",
    "SC_LABEL",
]

#: Reserved label marking service-call nodes in AXML documents (Section 2.2).
SC_LABEL = "sc"

#: Digest width of :meth:`Node.content_fingerprint` (collision probability
#: is negligible at the plan-space scales the optimizer enumerates).
_FP_BYTES = 12


@dataclass(frozen=True, order=True)
class NodeId:
    """A node identifier ``n@p``: serial number ``serial`` on peer ``peer``."""

    peer: str
    serial: int

    def __str__(self) -> str:
        return f"n{self.serial}@{self.peer}"

    @classmethod
    def parse(cls, token: str) -> "NodeId":
        """Parse ``n<serial>@<peer>`` back into a :class:`NodeId`."""
        if "@" not in token or not token.startswith("n"):
            raise ValueError(f"not a node identifier: {token!r}")
        serial_part, peer = token[1:].split("@", 1)
        return cls(peer=peer, serial=int(serial_part))


class NodeIdAllocator:
    """Hands out fresh :class:`NodeId` values for one peer.

    Each peer owns one allocator, guaranteeing that identifiers are unique
    per peer and therefore globally unique as ``(peer, serial)`` pairs.
    """

    def __init__(self, peer: str, start: int = 1) -> None:
        self.peer = peer
        #: Serial the next :meth:`fresh` hands out.  A cloned Σ starts its
        #: allocators here, not at 1: the twin's trees carry this peer's
        #: ids, and restarting would hand the same ids out a second time.
        self.next_serial = start

    def fresh(self) -> NodeId:
        """Return the next unused node identifier on this peer."""
        serial = self.next_serial
        self.next_serial = serial + 1
        return NodeId(self.peer, serial)

    def assign(self, root: "Element") -> None:
        """Assign fresh ids to every element in ``root`` lacking one."""
        for node in iter_elements(root):
            if node.node_id is None:
                node.node_id = self.fresh()


class Node:
    """Abstract base for tree nodes.  See :class:`Element`, :class:`Text`."""

    __slots__ = ("parent",)

    #: Only an :class:`Element` root is ever frozen (its slot shadows this).
    _frozen = False

    def __init__(self) -> None:
        self.parent: Optional["Element"] = None

    # -- interface -------------------------------------------------------
    def copy(self) -> "Node":
        """Deep-copy the subtree rooted here (parent pointer cleared)."""
        raise NotImplementedError

    def string_value(self) -> str:
        """Concatenation of all descendant text, per XPath string-value."""
        raise NotImplementedError

    def serialized_size(self) -> int:
        """Exact UTF-8 byte length of the compact serialization
        (``len(serialize(node).encode("utf-8"))``, node ids left out):
        what a message shipping this subtree puts on the wire."""
        raise NotImplementedError

    def content_fingerprint(self) -> str:
        """Structural digest of the subtree: label, attributes, children.

        Node identifiers are excluded (like :meth:`serialized_size`), so
        a copy — including copies living on a cloned Σ — fingerprints
        identically to its original.  Child *order* is preserved: this is
        the digest of the serialized form, not of the unordered canonical
        form in :mod:`repro.xmlcore.canon`.
        """
        raise NotImplementedError


class Text(Node):
    """A text leaf.  ``value`` holds the character data.

    ``value`` is treated as immutable by the caching layer: replace a
    text node (via its parent's mutators) rather than assigning to
    ``value`` on a tree whose sizes/fingerprints may be cached.
    """

    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        super().__init__()
        self.value = value

    def copy(self) -> "Text":
        return Text(self.value)

    def string_value(self) -> str:
        return self.value

    def serialized_size(self) -> int:
        value = self.value  # escaped on the wire: &amp; &lt; &gt;
        escapes = 4 * value.count("&") + 3 * (value.count("<") + value.count(">"))
        return len(value.encode("utf-8")) + escapes

    def content_fingerprint(self) -> str:
        digest = blake2b(digest_size=_FP_BYTES)
        digest.update(b"t\x00")
        digest.update(self.value.encode("utf-8"))
        return digest.hexdigest()

    def __repr__(self) -> str:
        return f"Text({self.value!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Text) and other.value == self.value

    def __hash__(self) -> int:  # pragma: no cover - identity not hashed often
        return hash(("text", self.value))


class Element(Node):
    """An element node: label, attributes, ordered children, optional id.

    Children are either :class:`Element` or :class:`Text`.  Mutating helpers
    (:meth:`append`, :meth:`remove`, :meth:`replace_child`, :meth:`set_attr`)
    keep parent pointers consistent *and* invalidate the cached
    ``serialized_size`` / ``content_fingerprint`` of every ancestor; use
    them rather than touching ``children`` or ``attrs`` directly when
    restructuring live documents, or stale caches will follow.

    **Frozen trees.**  A tree that two holders share — two states Σ (see
    :meth:`AXMLSystem.clone <repro.peers.system.AXMLSystem.clone>`), or a
    sender and a receiver of a value shipped by reference — is frozen at
    its root (:meth:`freeze`), for life.  Every mutating helper of every
    node under a frozen root raises :class:`~repro.errors.FrozenTreeError`
    *before* changing anything, and so does adopting a frozen root or a
    node that still hangs in a frozen tree.  Whoever wants to change a
    frozen tree takes a :meth:`copy` first — copies are never frozen.
    Direct edits of ``children``, ``attrs``, ``node_id`` or ``Text.value``
    bypass the guard as they bypass the caches.
    """

    __slots__ = (
        "tag",
        "attrs",
        "children",
        "node_id",
        "_size_cache",
        "_fp_cache",
        "_sc_cache",
        "_count_cache",
        "_frozen",
    )

    def __init__(
        self,
        tag: str,
        attrs: Optional[Dict[str, str]] = None,
        children: Optional[Iterable[Node]] = None,
        node_id: Optional[NodeId] = None,
    ) -> None:
        super().__init__()
        self.tag = tag
        self.attrs: Dict[str, str] = dict(attrs) if attrs else {}
        self.children: List[Node] = []
        self.node_id = node_id
        self._size_cache: Optional[int] = None
        self._fp_cache: Optional[str] = None
        self._sc_cache: Optional[bool] = None
        self._count_cache: Optional[int] = None
        #: Meaningful on a root only; see :meth:`freeze`.
        self._frozen = False
        if children:
            for child in children:
                self.append(child)

    # -- construction / mutation -----------------------------------------
    def _invalidate_content(self) -> None:
        """Drop the content-derived caches here and on every ancestor.

        Every mutator calls this *first*: the walk ends at the root, and a
        frozen root refuses the edit before any of it has been applied.
        """
        node = self
        while True:
            node._size_cache = None
            node._fp_cache = None
            node._sc_cache = None
            node._count_cache = None
            if node.parent is None:
                break
            node = node.parent
        if node._frozen:
            raise FrozenTreeError(
                f"<{self.tag}> belongs to a frozen tree (root <{node.tag}>) "
                "shared with another state; edit a private copy() — for a "
                "stored document, the one Peer.own_document() returns"
            )

    @staticmethod
    def _refuse_shared(child: Node) -> None:
        """Refuse to adopt a frozen root or a node still hanging in one.

        The tree's other holder navigates it by the very parent pointer
        the adoption would set or move.
        """
        holder = child if child.parent is None else child.parent
        if holder.frozen:
            raise FrozenTreeError(
                f"{child!r} is, or hangs in, a frozen tree; adopt a copy()"
            )

    def _root(self) -> "Element":
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    @property
    def frozen(self) -> bool:
        """Whether the tree this element hangs in is frozen."""
        return self._root()._frozen

    def freeze(self) -> None:
        """Freeze the whole tree this element hangs in (one-way).

        Called when a second holder is handed the tree by reference.
        From then on it cannot change, which is what makes sharing it —
        cached size, fingerprint and all — sound.
        """
        self._root()._frozen = True

    def append(self, child: Node) -> Node:
        """Append ``child`` as the last child and set its parent pointer."""
        self._invalidate_content()
        if child.parent is not None or child._frozen:
            self._refuse_shared(child)
        child.parent = self
        self.children.append(child)
        return child

    def extend(self, children: Iterable[Node]) -> None:
        for child in children:
            self.append(child)

    def insert(self, index: int, child: Node) -> Node:
        self._invalidate_content()
        if child.parent is not None or child._frozen:
            self._refuse_shared(child)
        child.parent = self
        self.children.insert(index, child)
        return child

    def remove(self, child: Node) -> None:
        self._invalidate_content()
        self.children.remove(child)
        child.parent = None

    def replace_child(self, old: Node, new: Node) -> None:
        index = self.index_of(old)
        self._invalidate_content()
        if new.parent is not None or new._frozen:
            self._refuse_shared(new)
        old.parent = None
        new.parent = self
        self.children[index] = new

    def set_attr(self, name: str, value: str) -> None:
        """Set an attribute, invalidating cached sizes/fingerprints.

        The cache-safe counterpart of ``self.attrs[name] = value`` for
        trees that may already have been measured.
        """
        self._invalidate_content()
        self.attrs[name] = value

    def index_of(self, child: Node) -> int:
        for index, candidate in enumerate(self.children):
            if candidate is child:
                return index
        raise ValueError(f"{child!r} is not a child of {self!r}")

    # -- queries -----------------------------------------------------------
    @property
    def element_children(self) -> List["Element"]:
        return [c for c in self.children if isinstance(c, Element)]

    def child_by_tag(self, tag: str) -> Optional["Element"]:
        """First element child with the given tag, or ``None``."""
        for child in self.element_children:
            if child.tag == tag:
                return child
        return None

    def children_by_tag(self, tag: str) -> List["Element"]:
        return [c for c in self.element_children if c.tag == tag]

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self.attrs.get(name, default)

    def string_value(self) -> str:
        return "".join(child.string_value() for child in self.children)

    def is_service_call(self) -> bool:
        """True when this element is an ``sc`` (service-call) node."""
        return self.tag == SC_LABEL

    def has_service_calls(self) -> bool:
        """True when an ``sc`` node lives anywhere in this subtree.

        Cached with the size and the fingerprint (same invalidation), so
        asking again of an unchanged document costs nothing: a document
        without calls is plain data, and activating it is the identity.
        """
        if self._sc_cache is None:
            self._sc_cache = any(
                node.tag == SC_LABEL for node in iter_elements(self)
            )
        return self._sc_cache

    # -- lifecycle ---------------------------------------------------------
    def copy(self) -> "Element":
        """Deep copy; node ids are preserved on the copy, parents cleared.

        Ids are kept so a copy of a stored tree still addresses the same
        nodes; the receiving peer re-assigns ids on installation (see
        :meth:`repro.peers.peer.Peer.install_document`).

        The copy is never frozen.  A copy of a *frozen* tree starts with
        the original's cached size, fingerprint, ``sc`` verdict and node
        count — sound because the original can no longer change.  A copy
        of an unfrozen tree starts cache-cold: its original may carry a
        stale measurement (a direct ``Text.value`` assignment bypasses the
        mutation helpers), and the copy must not inherit it.
        """
        return self._copy(self.frozen)

    def _copy(self, warm: bool) -> "Element":
        clone = Element(self.tag, self.attrs, node_id=self.node_id)
        children = clone.children
        for child in self.children:
            if isinstance(child, Element):
                child = child._copy(warm)
            else:
                child = child.copy()
            child.parent = clone
            children.append(child)
        if warm:
            clone._size_cache = self._size_cache
            clone._fp_cache = self._fp_cache
            clone._sc_cache = self._sc_cache
            clone._count_cache = self._count_cache
        return clone

    def copy_without_ids(self) -> "Element":
        """Deep copy with every node id cleared (fresh-document semantics)."""
        clone = self.copy()
        for node in iter_elements(clone):
            node.node_id = None
        return clone

    def serialized_size(self) -> int:
        """Exact UTF-8 byte size of ``<tag attrs>children</tag>`` (``<tag
        attrs/>`` when childless), escapes included, without building the
        string: what a message shipping this subtree weighs, and what the
        estimator prices.

        Computed once per finished subtree and cached; the mutating helpers
        invalidate the cache up the ancestor chain, so sizing a stable
        document again is O(1) instead of a tree walk.
        """
        if self._size_cache is not None:
            return self._size_cache
        tag_bytes = len(self.tag.encode("utf-8"))
        size = tag_bytes + 3  # <tag/>
        for name, value in self.attrs.items():
            # ` name="value"`, with &amp; &lt; &quot; escaped in the value
            size += len(name.encode("utf-8")) + len(value.encode("utf-8")) + 4
            size += 4 * value.count("&") + 3 * value.count("<") + 5 * value.count('"')
        if self.children:
            size += tag_bytes + 2  # <tag>...</tag> instead of <tag/>
            for child in self.children:
                size += child.serialized_size()
        self._size_cache = size
        return size

    def content_fingerprint(self) -> str:
        """Cached structural digest: tag, sorted attributes, child digests.

        Two elements with equal content (ids aside, attribute order aside)
        share a fingerprint, which is what lets structurally identical
        plans — and :class:`~repro.core.expressions.TreeExpr` literals on
        opposite sides of an :meth:`AXMLSystem.clone` — dedupe to one
        plan-cache key.  Invalidated together with the size cache.
        """
        if self._fp_cache is not None:
            return self._fp_cache
        digest = blake2b(digest_size=_FP_BYTES)
        digest.update(b"e\x00")
        digest.update(self.tag.encode("utf-8"))
        for name in sorted(self.attrs):
            digest.update(b"\x00a")
            digest.update(name.encode("utf-8"))
            digest.update(b"\x00")
            digest.update(self.attrs[name].encode("utf-8"))
        for child in self.children:
            digest.update(b"\x00c")
            digest.update(child.content_fingerprint().encode("ascii"))
        fingerprint = digest.hexdigest()
        self._fp_cache = fingerprint
        return fingerprint

    def __repr__(self) -> str:
        ident = f" id={self.node_id}" if self.node_id else ""
        return f"Element(<{self.tag}>{ident} children={len(self.children)})"


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------

def element(
    tag: str,
    *children: Union[Node, str],
    attrs: Optional[Dict[str, str]] = None,
) -> Element:
    """Build an :class:`Element`; bare strings become :class:`Text` children.

    >>> e = element("a", element("b", "hi"), attrs={"x": "1"})
    >>> e.tag, e.attrs["x"], e.element_children[0].string_value()
    ('a', '1', 'hi')
    """
    node = Element(tag, attrs=attrs)
    for child in children:
        node.append(Text(child) if isinstance(child, str) else child)
    return node


def text(value: str) -> Text:
    """Build a :class:`Text` node."""
    return Text(value)


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------

def iter_nodes(root: Node) -> Iterator[Node]:
    """Pre-order traversal over all nodes (elements and text)."""
    stack: List[Node] = [root]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Element):
            stack.extend(reversed(node.children))


def iter_elements(root: Node) -> Iterator[Element]:
    """Pre-order traversal over element nodes only."""
    for node in iter_nodes(root):
        if isinstance(node, Element):
            yield node


def tree_size(root: Node) -> int:
    """Total node count of the subtree (elements + text leaves).

    Cached on every element beside its serialized size, and dropped with
    it by the mutating helpers: counting a stable tree again is O(1).
    """
    if not isinstance(root, Element):
        return 1
    count = root._count_cache
    if count is None:
        count = 1
        for child in root.children:
            count += tree_size(child)
        root._count_cache = count
    return count


def find_by_id(root: Node, node_id: NodeId) -> Optional[Element]:
    """Locate the element with ``node_id`` in ``root``, or ``None``."""
    for node in iter_elements(root):
        if node.node_id == node_id:
            return node
    return None

