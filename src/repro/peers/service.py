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

import math
from typing import Callable, Dict, List, Optional, Sequence, TYPE_CHECKING, TypeVar

from ..errors import ServiceCallError, UnknownDocumentError
from ..xmlcore.model import Element, Text
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
    up in ``memo`` first when a plan search supplies one."""
    if memo is not None:
        return memo.run(query, args, peer)
    return query.bind_resolver(peer.doc_resolver).run(*args)


def build_tree(
    kind: str, inputs: tuple, build: Callable[[], T], memo: Optional["QueryMemo"] = None
) -> T:
    """``build()``, a pure function of ``inputs``; looked up in ``memo``
    first when a plan search supplies one (see :meth:`QueryMemo.built`)."""
    if memo is not None:
        return memo.built(kind, inputs, build)
    return build()


class QueryMemo:
    """What queries evaluated to during one plan search, keyed by content,
    and the trees the evaluator built from frozen inputs, keyed by identity.

    Rules (10)-(16) move *where* a query runs far more often than *what*
    it computes, so the oracle's simulations of one search keep applying
    the same query to the same inputs.  The key is the parsed module, the
    parameter names and the *content* of every argument (one shipped
    between peers is the same frozen tree, or an equal one); the
    documents a run resolved through ``doc()`` are recorded with their
    fingerprints, and with which argument each read *is*, if any, and
    read again, through the *current* peer, before an entry answers: the
    same body over a different replica misses, and so does
    ``$x is doc("d")`` once ``$x`` is an equal tree instead of ``d``
    itself.  A run that raises stores nothing.  Results are kept as
    frozen copies, cut loose from the arguments they were selected from,
    and handed out *by reference* in a fresh list: a consumer that edits
    one takes a ``copy()`` first or gets ``FrozenTreeError``.

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
    ``tree_memo_hits`` / ``tree_memo_misses``).

    Last, the memo keeps the search's cheapest *simulations*: every
    oracle measurement is :meth:`offer`-ed, and :attr:`winners` holds the
    plans at the lowest cost seen so far, each with the run that priced
    it, so the search's pick can be executed by its simulation
    (:meth:`simulation`) instead of a second evaluation.  The rest are
    dropped as soon as something cheaper is offered, and the winners go
    with the memo when the search returns.
    """

    def __init__(self, stats) -> None:
        self.stats = stats
        #: key -> [(parsed module, ((doc name, fingerprint, argument), ...),
        #: results)]; ``argument`` is the position of the argument tree
        #: the read returned, or None
        self._entries: Dict[tuple, list] = {}
        #: (kind, identity key) -> (inputs, what ``build`` returned)
        self._trees: Dict[tuple, tuple] = {}
        #: (plan, simulation) for every plan offered at ``_winning``
        self.winners: List[tuple] = []
        #: the lowest cost scalar offered so far
        self._winning = math.inf

    def offer(self, plan, scalar: float, simulation) -> None:
        """Keep ``simulation`` of ``plan`` while no cheaper plan is offered.

        ``scalar`` is the plan's ``Cost.scalar()``.  Plans are matched by
        identity (:meth:`simulation`), so nothing is fingerprinted here.
        """
        if scalar < self._winning:
            self._winning = scalar
            self.winners = [(plan, simulation)]
        elif scalar == self._winning:
            self.winners.append((plan, simulation))

    def simulation(self, plan):
        """What :meth:`offer` kept for this very ``plan`` object, or None."""
        for offered, simulation in self.winners:
            if offered is plan:
                return simulation
        return None

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._entries.values()) + len(
            self._trees
        )

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

    def run(self, query: Query, args: Sequence, peer: "Peer") -> List:
        """:func:`run_query`, evaluating only what no entry answers."""
        args = [arg if isinstance(arg, list) else [arg] for arg in args]
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
                    return run_query(query, args, peer)
            tokens.append(None)  # argument boundary
        if len({id(root) for root in roots}) < len(roots):
            # one tree bound twice: ``is`` and ``|`` tell it from two copies
            tokens.append(tuple(_position(root, roots) for root in roots))
        # the entry holds the module, so its id cannot be handed out again
        key = (id(query.module), query.params, tuple(tokens))
        for _, reads, results in self._entries.get(key, ()):
            if _reads_same(peer, reads, roots):
                self.stats.query_memo_hits += 1
                return list(results)
        self.stats.query_memo_misses += 1
        reads: List[tuple] = []

        def resolver(name: str) -> Element:
            tree = peer.doc_resolver(name)
            reads.append((name, tree.content_fingerprint(), _position(tree, roots)))
            return tree

        results = tuple(
            _cut_loose(item) for item in query.bind_resolver(resolver).run(*args)
        )
        self._entries.setdefault(key, []).append(
            (query.module, tuple(reads), results)
        )
        return list(results)


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


def _cut_loose(item):
    """A result item as the memo keeps it: a frozen copy holding no argument."""
    if isinstance(item, Element):
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

        ``memo`` is a plan search's :class:`QueryMemo`; only a service
        whose body is a visible query has a use for it.
        """
        raise NotImplementedError

    def work_units(self, params: Sequence[Element]) -> int:
        """Abstract compute cost of one invocation (tree nodes touched)."""
        from ..xmlcore.model import tree_size

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
        from ..xmlcore.model import tree_size

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


def _doc_references(query: Query) -> List[str]:
    """Names passed to doc() with literal arguments, best effort."""
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

    walk(query.module.body)
    for declared in query.module.functions:
        walk(declared.body)
    return names


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
