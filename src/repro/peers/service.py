"""Web services hosted by peers.

The paper models a service ``s@p`` as a WSDL request-response operation
with signature ``(τ_in, τ_out)`` (Section 2.1).  All services are treated
as *continuous*: once activated they may keep producing response trees.

Two implementations:

* :class:`DeclarativeService` — implemented by a declarative XQuery
  statement, *visible to other peers*.  This visibility is what enables
  the paper's optimizations (pushing queries over calls, rule (16), needs
  the implementing query ``q1``).
* :class:`NativeService` — an opaque Python callable; stands in for
  external WSDL services whose implementation cannot be inspected, and is
  deliberately *not* rewritable by the optimizer.
"""

from __future__ import annotations

from typing import (
    Callable, Container, Dict, List, Optional, Sequence, TYPE_CHECKING, Tuple, TypeVar,
)

from ..errors import ServiceCallError, UnknownDocumentError
from ..xmlcore.model import Element, Text, tree_size
from ..xmlcore.schema import Signature
from ..xquery import Query
from ..xquery.runtime import AttributeNode, string_value

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .peer import Peer

__all__ = ["Service", "DeclarativeService", "NativeService", "QueryMemo"]

T = TypeVar("T")


def run_query(
    query: Query, args: Sequence, peer: "Peer", memo: Optional["QueryMemo"] = None
) -> List:
    """``query`` over ``args`` with ``doc()`` resolving on ``peer``; looked
    up in ``memo`` first when the oracle supplies one."""
    if memo is not None:
        return memo.run(query, args, peer)
    return query.bind_resolver(peer.doc_resolver).run(*args)


def build_tree(
    kind: str, inputs: tuple, build: Callable[[], T], memo: Optional["QueryMemo"] = None
) -> T:
    """``build()``, a pure function of ``inputs``; looked up in ``memo``
    first when the oracle supplies one (see :meth:`QueryMemo.built`)."""
    if memo is not None:
        return memo.built(kind, inputs, build)
    return build()


class QueryMemo:
    """What queries evaluated to in the oracle's simulations, keyed by
    content, and the trees they built from frozen inputs, keyed by identity.

    Rules (10)-(16) move *where* a query runs far more often than *what*
    it computes, so the oracle's simulations — of one search's candidates,
    and of every later search over the same documents — keep applying
    the same query to the same inputs.  The memo is a store of the
    :class:`~repro.core.planspace.PlanCache` and lives as long as it: no
    entry can answer wrongly after Σ changes, because every key is
    content- or identity-exact.  The key is the parsed module, the
    parameter names and the *content* of every argument (one shipped
    between peers is the same frozen tree, or an equal one); the
    documents a run resolved through ``doc()`` are recorded with their
    fingerprints, and with which argument each read *is*, if any, and
    read again, through the *current* peer, before an entry answers: the
    same body over a different replica, or over a written document,
    misses, and so does ``$x is doc("d")`` once ``$x`` is an equal tree
    instead of ``d`` itself.  A run that raises stores nothing.  Results
    are kept frozen — a tree the run built in place, any other element
    as a copy cut loose from the tree it was selected from — and handed
    out *by reference* in a fresh list: a consumer that edits one takes
    a ``copy()`` first or gets ``FrozenTreeError``.

    The same simulations also rebuild the same *trees*, from stored
    documents and query results that are the same frozen objects in
    every candidate's clone of Σ.  :meth:`built` keeps each, keyed by the
    *identities* of its inputs (see there for why that is exact):

    * the activated value of an ``sc``-bearing tree — by the tree and,
      per ``sc`` node in walk order, its response items or a drop marker;
    * the stored document that value is installed as — by the value, the
      home peer and the serial its node ids start from;
    * a reassembled fragmented document — by its name and the fragment
      trees that arrived, in order.

    Only wall time is saved: callers charge compute, count invocations,
    fire calls and ship bytes as if nothing were kept.  Lookups are
    counted on ``stats`` (``query_memo_hits`` / ``query_memo_misses``,
    ``tree_memo_hits`` / ``tree_memo_misses``).  The simulations
    themselves — each holds its clone of Σ — are no part of the memo:
    a search keeps its cheapest ones (:class:`~repro.core.cost.Simulations`)
    and drops them when it returns.
    """

    def __init__(self, stats) -> None:
        self.stats = stats
        #: key -> [(parsed module, ((doc name, fingerprint, argument), ...),
        #: results)]; ``argument`` is the position of the argument tree
        #: the read returned, or None
        self._entries: Dict[tuple, list] = {}
        #: (kind, identity key) -> (inputs, what ``build`` returned)
        self._trees: Dict[tuple, tuple] = {}

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._entries.values()) + len(
            self._trees
        )

    def clear(self) -> None:
        """Forget every query result and built tree."""
        self._entries.clear()
        self._trees.clear()

    def built(self, kind: str, inputs: tuple, build: Callable[[], T]) -> T:
        """:func:`build_tree`, building only what no entry answers.

        ``inputs`` (nested in tuples) are trees, keyed by identity, and
        plain values, keyed by value; ``build`` must be a pure function
        of them, named by ``kind``.  Identity is exact where content is
        not: an entry holds its inputs, so no ``id()`` in its key can be
        handed out again while it lives, and a *frozen* tree cannot
        change, so the same inputs build the same tree.  An input that is
        not frozen could still change: it keys nothing, and the tree is
        built unmemoised.  What ``build`` returns is kept frozen and
        handed out by reference.
        """
        trees: List[Element] = []
        key = (kind, _identities(inputs, trees))
        if not all(tree.frozen for tree in trees):
            return build()
        entry = self._trees.get(key)
        if entry is not None:
            self.stats.tree_memo_hits += 1
            return entry[1]
        self.stats.tree_memo_misses += 1
        value = build()
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, Element):
                item.freeze()
        self._trees[key] = (inputs, value)
        return value

    def recall(self, query: Query, args: List[list], peer: "Peer") -> Optional[tuple]:
        """The results :meth:`run` would hand out for ``query`` over
        ``args`` (a list per argument) on ``peer``, or None when no entry
        answers.  Nothing is evaluated, stored or counted; the same entry
        answers as long as this returns the same tuple."""
        return self._lookup(query, args, peer)[2]

    def foresee(
        self,
        query: Query,
        args: List[list],
        peer: "Peer",
        changed: Optional[Container[str]] = None,
        evaluate: bool = False,
    ) -> Optional[tuple]:
        """:meth:`recall` for a caller who knows ``peer``'s documents
        except those named in ``changed``: None, too, when an entry
        that would be tried reads one of them, since whether it answers
        is then unknown.  With ``evaluate`` and nothing ``changed``, a
        miss is evaluated and stored, and counted, as :meth:`run` does.
        """
        key, roots, results = self._lookup(query, args, peer, changed)
        if results is None and evaluate and changed is None and key is not None:
            self.stats.query_memo_misses += 1
            results = self._evaluate(key, roots, query, args, peer)
        return results

    def peek(self, kind: str, inputs: tuple):
        """What :meth:`built` keeps for these inputs, or None; nothing
        is built or counted."""
        trees: List[Element] = []
        key = (kind, _identities(inputs, trees))
        for tree in trees:
            if not tree.frozen:
                return None
        entry = self._trees.get(key)
        return None if entry is None else entry[1]

    def _lookup(
        self,
        query: Query,
        args: List[list],
        peer: "Peer",
        changed: Optional[Container[str]] = None,
    ) -> tuple:
        """``(key, argument roots, results)``: ``results`` is what the
        entry answering on ``peer`` holds, or None (also when an entry
        tried first reads a document named in ``changed``); ``key`` is
        None when an argument cannot be keyed."""
        tokens: List = []
        roots: List[Element] = []
        for arg in args:
            for item in arg:
                if isinstance(item, Element) and item.parent is None:
                    tokens.append(item.content_fingerprint())
                    roots.append(item)
                elif isinstance(item, (str, int, float, bool)):
                    tokens.append((type(item), item))
                else:
                    # a node inside a larger tree: its axes reach content
                    # its own fingerprint does not cover
                    return None, roots, None
            tokens.append(None)  # argument boundary
        if len({id(root) for root in roots}) < len(roots):
            # one tree bound twice: ``is`` and ``|`` tell it from two copies
            tokens.append(tuple(_position(root, roots) for root in roots))
        # the entry holds the module, so its id cannot be handed out again
        key = (id(query.module), query.params, tuple(tokens))
        for _, reads, results in self._entries.get(key, ()):
            if changed is not None:
                for read in reads:
                    if read[0] in changed:
                        return key, roots, None
            if _reads_same(peer, reads, roots):
                return key, roots, results
        return key, roots, None

    def run(self, query: Query, args: Sequence, peer: "Peer") -> List:
        """:func:`run_query`, evaluating only what no entry answers."""
        args = [arg if isinstance(arg, list) else [arg] for arg in args]
        key, roots, results = self._lookup(query, args, peer)
        if key is None:
            return run_query(query, args, peer)
        if results is not None:
            self.stats.query_memo_hits += 1
            return list(results)
        self.stats.query_memo_misses += 1
        return list(self._evaluate(key, roots, query, args, peer))

    def _evaluate(
        self, key: tuple, roots: List[Element], query: Query, args: List[list],
        peer: "Peer",
    ) -> tuple:
        """Run ``query`` and store its results under ``key``."""
        reads: List[tuple] = []
        held = {id(root) for root in roots}

        def resolver(name: str) -> Element:
            tree = peer.doc_resolver(name)
            reads.append((name, tree.content_fingerprint(), _position(tree, roots)))
            held.add(id(tree))
            return tree

        items = query.bind_resolver(resolver).run(*args)
        built = {
            id(item) for item in items
            if type(item) is Element and item.parent is None and not item._frozen
        } - held
        results = tuple(_cut_loose(item, built) for item in items)
        self._entries.setdefault(key, []).append(
            (query.module, tuple(reads), results)
        )
        return results


def _identities(value, trees: List[Element]):
    """``value`` with every tree replaced by its ``id()`` (and collected
    into ``trees``); tuples are walked, anything else is kept as is."""
    if isinstance(value, Element):
        trees.append(value)
        return id(value)
    if isinstance(value, tuple):
        return tuple(_identities(item, trees) for item in value)
    return value


def _position(tree: Element, roots: Sequence[Element]) -> Optional[int]:
    """The first position ``tree`` *is* among the argument ``roots``, or None."""
    for index, root in enumerate(roots):
        if root is tree:
            return index
    return None


def _reads_same(peer: "Peer", reads, roots: Sequence[Element]) -> bool:
    """Whether ``peer`` resolves every recorded ``doc()`` to the same
    content, and to the same argument tree (or to none) as when recorded."""
    try:
        for name, fingerprint, position in reads:
            tree = peer.doc_resolver(name)
            if (
                tree.content_fingerprint() != fingerprint
                or _position(tree, roots) != position
            ):
                return False
    except UnknownDocumentError:
        return False
    return True


def _cut_loose(item, built: Container[int]):
    """A result item as the memo keeps it: frozen, holding no argument;
    an element is copied first unless its ``id`` is in ``built``."""
    if isinstance(item, Element):
        if id(item) not in built:
            item = item.copy()
        item.freeze()
    elif isinstance(item, Text):
        item = Text(item.value)
    elif isinstance(item, AttributeNode):
        item = AttributeNode(item.name, item.value, None)
    return item


class Service:
    """Base class: a named operation provided by one peer."""

    def __init__(
        self,
        name: str,
        signature: Optional[Signature] = None,
        continuous: bool = True,
    ) -> None:
        self.name = name
        self.signature = signature or Signature()
        #: Per the paper, "we consider all services are continuous"; a
        #: non-continuous service simply never re-fires.
        self.continuous = continuous
        self.provider: Optional["Peer"] = None
        self.invocations = 0

    @property
    def arity(self) -> int:
        return self.signature.arity

    def bind(self, provider: "Peer") -> "Service":
        self.provider = provider
        return self

    # -- interface -------------------------------------------------------------
    def invoke(
        self,
        params: Sequence[Element],
        peer: "Peer",
        memo: Optional["QueryMemo"] = None,
    ) -> List[Element]:
        """Produce the response forest for one activation.

        ``memo`` is the oracle's :class:`QueryMemo`; only a service
        whose body is a visible query has a use for it.
        """
        raise NotImplementedError

    def work_units(self, params: Sequence[Element]) -> int:
        """Abstract compute cost of one invocation (tree nodes touched)."""
        return sum(tree_size(p) for p in params) + 1

    def describe(self) -> str:
        peer = self.provider.peer_id if self.provider else "?"
        return f"{self.name}@{peer}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()})"


class DeclarativeService(Service):
    """A service implemented by a visible, parameterized XQuery.

    The query's positional parameters receive the call's ``param_i``
    subtrees in order.  ``doc()`` inside the query resolves against the
    *providing* peer's documents — services close over their host's data,
    which is what makes delegating them to other peers a genuine rewrite
    (the optimizer must ship the referenced documents too, or keep the
    service home; see :mod:`repro.core.rules`).
    """

    def __init__(
        self,
        name: str,
        query: Query,
        signature: Optional[Signature] = None,
        continuous: bool = True,
    ) -> None:
        super().__init__(name, signature, continuous)
        self.query = query

    @property
    def arity(self) -> int:
        """Untyped declarative services take their arity from the query."""
        if self.signature.schema is None and not self.signature.inputs:
            return len(self.query.params)
        return self.signature.arity

    def invoke(
        self,
        params: Sequence[Element],
        peer: "Peer",
        memo: Optional[QueryMemo] = None,
    ) -> List[Element]:
        if self.signature.schema is not None:
            self.signature.check_inputs(list(params))
        self.invocations += 1
        result = run_query(self.query, [[p] for p in params], peer, memo)
        # atomic results are wrapped so the response is a forest of
        # trees, as the model requires
        trees = [
            item if isinstance(item, Element) else _value_tree(item)
            for item in result
        ]
        if self.signature.schema is not None:
            for tree in trees:
                self.signature.check_output(tree)
        return trees

    def work_units(self, params: Sequence[Element]) -> int:
        base = sum(tree_size(p) for p in params)
        # navigation over host documents referenced via doc()
        host_docs = 0
        if self.provider is not None:
            for referenced in _doc_references(self.query):
                document = self.provider.documents.get(referenced)
                if document is not None:
                    host_docs += tree_size(document)
        return base + host_docs + 1


def _value_tree(item) -> Element:
    """A non-element query result (atomic, text, attribute) as ``<value>``."""
    text = item.value if isinstance(item, Text) else string_value(item)
    wrapper = Element("value")
    wrapper.append(Text(text))
    return wrapper


def _doc_references(query: Query) -> Tuple[str, ...]:
    """Names passed to doc() with literal arguments, best effort.

    Walked once per parsed module and kept on it
    (:attr:`~repro.xquery.ast.Module.doc_names`), so every query sharing
    the module asks again for free.
    """
    module = query.module
    names = module.doc_names
    if names is None:
        names = _walk_doc_names(module)
        object.__setattr__(module, "doc_names", names)
    return names


def _walk_doc_names(module) -> Tuple[str, ...]:
    from ..xquery.ast import FunctionCall, Literal, XQNode

    names: List[str] = []

    def walk(node: XQNode) -> None:
        if isinstance(node, FunctionCall) and node.name in ("doc", "fn:doc"):
            if node.args and isinstance(node.args[0], Literal):
                value = node.args[0].value
                if isinstance(value, str):
                    names.append(value)
        for field_name in getattr(node, "__dataclass_fields__", {}):
            value = getattr(node, field_name)
            if isinstance(value, XQNode):
                walk(value)
            elif isinstance(value, tuple):
                for entry in value:
                    if isinstance(entry, XQNode):
                        walk(entry)
                    elif isinstance(entry, tuple):
                        for sub in entry:
                            if isinstance(sub, XQNode):
                                walk(sub)

    walk(module.body)
    for declared in module.functions:
        walk(declared.body)
    return tuple(names)


class NativeService(Service):
    """An opaque service backed by a Python callable.

    ``impl(params, peer) -> list[Element]``.  Used for substrate-level
    operations (e.g. registry lookups) and to model third-party WSDL
    services the optimizer must treat as black boxes.
    """

    def __init__(
        self,
        name: str,
        impl: Callable[[Sequence[Element], "Peer"], List[Element]],
        signature: Optional[Signature] = None,
        continuous: bool = True,
        cost_units: int = 10,
    ) -> None:
        super().__init__(name, signature, continuous)
        self.impl = impl
        self.cost_units = cost_units

    def invoke(
        self,
        params: Sequence[Element],
        peer: "Peer",
        memo: Optional[QueryMemo] = None,
    ) -> List[Element]:
        if self.signature.schema is not None:
            self.signature.check_inputs(list(params))
        self.invocations += 1
        result = self.impl(params, peer)
        if not isinstance(result, list) or not all(
            isinstance(r, Element) for r in result
        ):
            raise ServiceCallError(
                f"native service {self.name!r} must return a list of elements"
            )
        return result

    def work_units(self, params: Sequence[Element]) -> int:
        return super().work_units(params) + self.cost_units
