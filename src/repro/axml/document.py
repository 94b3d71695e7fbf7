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
from ..xmlcore.model import SC_LABEL, Element, NodeId, Text, element

__all__ = [
    "ActivationMode",
    "ServiceCall",
    "make_service_call",
    "ANY_PROVIDER",
]

ANY_PROVIDER = "any"


class ActivationMode:
    """When a call fires (Section 2.2 lists these control regimes).

    The rule is decided once, by definition (1) in
    :meth:`ExpressionEvaluator._fire_calls
    <repro.core.evaluator.ExpressionEvaluator._fire_calls>`: evaluating a
    document fires every embedded call unless it is ``manual`` or its
    ``after=`` names a call that did not complete (did not fire, or was
    lost).  An unfired call stays in the value, and so in the stored
    document, as the ``sc`` it was; so does a call waited on that did
    not complete.  A fired ``after=N`` call is admitted once ``N``
    completes; a non-manual call's ``after=`` that no earlier call of
    its tree carries raises :class:`~repro.errors.ServiceCallError`.
    """

    IMMEDIATE = "immediate"  # fires whenever its document is evaluated
    LAZY = "lazy"            # fires too: eval(d@p) needs the whole value
    MANUAL = "manual"        # only by evaluating its ServiceCallExpr, (6)

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
