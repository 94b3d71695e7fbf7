"""AXML documents: XML documents embedding service-call (``sc``) nodes.

Section 2.2 of the paper: an ``sc`` node has children labelled ``peer``
(the provider ``p1``), ``service`` (the name ``s1``), ``param1..paramn``
(the inputs), and — our Section 2.3 extension — optional ``forw`` children
each carrying a node identifier ``n@p`` where responses should accumulate.
When no ``forw`` is given, the default target is the ``sc``'s parent, so
results arrive as siblings of the call, as in the original AXML model.

:class:`ServiceCall` is a *view* over such an element: parsing, validity
checks, and construction helpers.  The extended call syntax of the paper,

    sc((pprov|any), serv, [param1,...,paramk], [forw1,...,forwm])

maps 1:1 onto :func:`make_service_call`'s signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from ..errors import ServiceCallError
from ..xmlcore.model import (
    SC_LABEL,
    Element,
    NodeId,
    Text,
    element,
    find_by_id,
    iter_elements,
)

__all__ = [
    "ActivationMode",
    "ServiceCall",
    "make_service_call",
    "find_service_calls",
    "AXMLDocument",
    "ANY_PROVIDER",
]

ANY_PROVIDER = "any"


class ActivationMode:
    """When a call fires (Section 2.2 lists these control regimes)."""

    IMMEDIATE = "immediate"  # activate as soon as the engine sees the call
    LAZY = "lazy"            # activate when a query needs the result
    MANUAL = "manual"        # only when explicitly asked (interactive)

    ALL = (IMMEDIATE, LAZY, MANUAL)


@dataclass
class ServiceCall:
    """Structured view over an ``sc`` element.

    ``provider`` may be :data:`ANY_PROVIDER` for generic services
    (resolved through the registry at activation, definition (9)).
    ``after`` optionally names another call (by its ``name`` attribute)
    that must have produced an answer before this one activates.
    """

    node: Element
    provider: str
    service: str
    params: Tuple[Element, ...]
    forwards: Tuple[NodeId, ...]
    mode: str = ActivationMode.IMMEDIATE
    after: Optional[str] = None
    name: Optional[str] = None

    @property
    def is_generic(self) -> bool:
        return self.provider == ANY_PROVIDER

    @classmethod
    def parse(cls, node: Element) -> "ServiceCall":
        """Interpret an ``sc`` element; raises on malformed structure."""
        if node.tag != SC_LABEL:
            raise ServiceCallError(f"not an sc node: <{node.tag}>")
        peer_el = node.child_by_tag("peer")
        service_el = node.child_by_tag("service")
        if peer_el is None or service_el is None:
            raise ServiceCallError("sc node missing <peer> or <service> child")
        provider = peer_el.string_value().strip()
        service = service_el.string_value().strip()
        if not provider or not service:
            raise ServiceCallError("sc node has empty <peer> or <service>")

        params: List[Element] = []
        index = 1
        while True:
            param = node.child_by_tag(f"param{index}")
            if param is None:
                break
            params.append(param)
            index += 1

        forwards: List[NodeId] = []
        for forw in node.children_by_tag("forw"):
            raw = forw.string_value().strip()
            try:
                forwards.append(NodeId.parse(raw))
            except ValueError as exc:
                raise ServiceCallError(f"bad forward target {raw!r}") from exc

        mode = node.get("mode", ActivationMode.IMMEDIATE)
        if mode not in ActivationMode.ALL:
            raise ServiceCallError(f"unknown activation mode {mode!r}")
        return cls(
            node=node,
            provider=provider,
            service=service,
            params=tuple(params),
            forwards=tuple(forwards),
            mode=mode,
            after=node.get("after"),
            name=node.get("name"),
        )

    def param_payloads(self) -> List[Element]:
        """Copies of the actual parameter contents (children of param_i).

        The paper ships "a copy of the param_i-label children"; a
        ``param_i`` wrapper with a single element child ships that child,
        otherwise the wrapper itself is shipped (mixed/multi content).
        """
        payloads: List[Element] = []
        for param in self.params:
            inner = param.element_children
            if len(inner) == 1 and len(param.children) == 1:
                payloads.append(inner[0].copy())
            else:
                payloads.append(param.copy())
        return payloads

    def __str__(self) -> str:
        forwards = ", ".join(str(f) for f in self.forwards) or "default"
        return (
            f"sc({self.provider}, {self.service}, "
            f"{len(self.params)} params, forw=[{forwards}])"
        )


def make_service_call(
    provider: str,
    service: str,
    params: Sequence[Union[Element, str]] = (),
    forwards: Sequence[NodeId] = (),
    mode: str = ActivationMode.IMMEDIATE,
    after: Optional[str] = None,
    name: Optional[str] = None,
) -> Element:
    """Build an ``sc`` element — the constructor for the paper's syntax
    ``sc((pprov|any), serv, [param...], [forw...])``.

    >>> sc = make_service_call("p1", "news")
    >>> ServiceCall.parse(sc).service
    'news'
    """
    node = element(SC_LABEL, element("peer", provider), element("service", service))
    if mode != ActivationMode.IMMEDIATE:
        node.set_attr("mode", mode)
    if after is not None:
        node.set_attr("after", after)
    if name is not None:
        node.set_attr("name", name)
    for index, param in enumerate(params, start=1):
        wrapper = element(f"param{index}")
        if isinstance(param, str):
            wrapper.append(Text(param))
        else:
            wrapper.append(param)
        node.append(wrapper)
    for target in forwards:
        node.append(element("forw", str(target)))
    return node


def find_service_calls(root: Element) -> List[ServiceCall]:
    """All well-formed sc nodes under ``root``, in document order."""
    calls: List[ServiceCall] = []
    for candidate in iter_elements(root):
        if candidate.is_service_call():
            calls.append(ServiceCall.parse(candidate))
    return calls


class AXMLDocument:
    """A named AXML document living on a peer.

    Thin convenience over the peer's document map: service-call discovery,
    activation bookkeeping (which calls already fired, for chaining), and
    the data/intension split (:meth:`materialized_view` strips sc nodes —
    the purely extensional part of the document).
    """

    def __init__(self, name: str, peer_id: str, root: Element) -> None:
        self.name = name
        self.peer_id = peer_id
        self.root = root
        #: seq numbers of sc elements already activated at least once.
        self.activated: set = set()

    def service_calls(self) -> List[ServiceCall]:
        return find_service_calls(self.root)

    def pending_calls(self, mode: Optional[str] = None) -> List[ServiceCall]:
        """Calls not yet activated, optionally filtered by mode."""
        pending = []
        for call in self.service_calls():
            if self.was_activated(call):
                continue
            if mode is not None and call.mode != mode:
                continue
            pending.append(call)
        return pending

    def own(self, peer, call: ServiceCall) -> ServiceCall:
        """Re-anchor this view and ``call`` before an in-place edit.

        A tree shared with another Σ is frozen; activation edits the
        document (responses accumulate, the ``sc`` is marked), so the view
        follows ``peer`` to its private copy
        (:meth:`Peer.own_document <repro.peers.peer.Peer.own_document>`)
        and a ``call`` parsed from the shared tree is found again there
        by node id.
        """
        if not call.node.frozen:
            return call
        self.root = peer.own_document(self.name)
        node_id = call.node.node_id
        node = find_by_id(self.root, node_id) if node_id is not None else None
        if node is None:
            raise ServiceCallError(
                f"{call} is not a call of document {self.name!r}@{self.peer_id}"
            )
        return ServiceCall.parse(node)

    def mark_activated(self, call: ServiceCall) -> None:
        """Record activation both in-memory and *in the document itself*.

        The ``activated`` attribute makes the call's state part of the
        tree, so other consumers (notably the expression evaluator of
        :mod:`repro.core`, definition (1)) do not re-fire a call whose
        initial results already accumulated.  Re-firing for continuous
        services flows through streams, not through re-activation.
        """
        self.activated.add(id(call.node))
        call.node.set_attr("activated", "true")

    def was_activated(self, call: ServiceCall) -> bool:
        return (
            id(call.node) in self.activated
            or call.node.get("activated") == "true"
        )

    def materialized_view(self) -> Element:
        """A copy with every sc subtree removed (extensional content only)."""
        clone = self.root.copy()
        to_remove = [
            node for node in iter_elements(clone) if node.is_service_call()
        ]
        for node in to_remove:
            if node.parent is not None:
                node.parent.remove(node)
        return clone

    def __repr__(self) -> str:
        return f"AXMLDocument({self.name!r}@{self.peer_id}, calls={len(self.service_calls())})"
