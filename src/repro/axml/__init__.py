"""AXML layer: service-call (``sc``) nodes and continuous streams.

A document embedding calls is activated by evaluating it (definition
(1), :class:`repro.core.ExpressionEvaluator`): each call fires unless its
``mode`` or ``after=`` says otherwise (:class:`ActivationMode`), and its
responses take its place in the value and in the stored document.

>>> from repro.axml import make_service_call
>>> from repro.core import DocExpr, ExpressionEvaluator
>>> from repro.peers import AXMLSystem
>>> from repro.xmlcore import element, serialize
>>> system = AXMLSystem.with_peers(["p0", "p1"])
>>> _ = system.peer("p1").install_query_service(
...     "hello", '<greeting>hi</greeting>')
>>> _ = system.peer("p0").install_document(
...     "d0", element("doc", make_service_call("p1", "hello")))
>>> outcome = ExpressionEvaluator(system).eval(DocExpr("d0", "p0"), "p0")
>>> serialize(outcome.items[0])
'<doc><greeting>hi</greeting></doc>'
>>> outcome.items[0] is system.peer("p0").document("d0")
True
"""

from .document import (
    ANY_PROVIDER,
    ActivationMode,
    ServiceCall,
    make_service_call,
)
from .streams import IncrementalQuery, StreamChannel, Subscription

__all__ = [
    "ActivationMode",
    "ServiceCall",
    "make_service_call",
    "ANY_PROVIDER",
    "StreamChannel",
    "Subscription",
    "IncrementalQuery",
]
