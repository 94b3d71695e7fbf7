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

from typing import Callable, List, Optional, Sequence, TYPE_CHECKING

from ..errors import ServiceCallError
from ..xmlcore.model import Element
from ..xmlcore.schema import Signature
from ..xquery import Query

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .peer import Peer

__all__ = ["Service", "DeclarativeService", "NativeService"]


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
    def invoke(self, params: Sequence[Element], peer: "Peer") -> List[Element]:
        """Produce the response forest for one activation."""
        raise NotImplementedError

    def work_units(self, params: Sequence[Element]) -> int:
        """Abstract compute cost of one invocation (tree nodes touched)."""
        from ..xmlcore.model import tree_size

        return sum(tree_size(p) for p in params) + 1

    @property
    def is_declarative(self) -> bool:
        return False

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
    def is_declarative(self) -> bool:
        return True

    @property
    def arity(self) -> int:
        """Untyped declarative services take their arity from the query."""
        if self.signature.schema is None and not self.signature.inputs:
            return len(self.query.params)
        return self.signature.arity

    def invoke(self, params: Sequence[Element], peer: "Peer") -> List[Element]:
        if self.signature.schema is not None:
            self.signature.check_inputs(list(params))
        self.invocations += 1
        bound = self.query.bind_resolver(peer.doc_resolver)
        result = bound.run(*[[p] for p in params])
        trees: List[Element] = []
        for item in result:
            if isinstance(item, Element):
                trees.append(item)
            else:
                # atomic results are wrapped so the response is a forest
                # of trees, as the model requires
                from ..xquery.runtime import string_value

                wrapper = Element("value")
                from ..xmlcore.model import Text

                wrapper.append(Text(string_value(item)))
                trees.append(wrapper)
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

    def invoke(self, params: Sequence[Element], peer: "Peer") -> List[Element]:
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
