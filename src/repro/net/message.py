"""Messages exchanged between peers in the simulated network.

Every unit of communication in the framework — shipped data trees,
shipped queries (code shipping), service-call requests, streamed results —
is a :class:`Message`.  A message holds not what it ships but how many
bytes that is: senders pass the exact UTF-8 length of the serialized
payload (``Element.serialized_size()``, cached per subtree;
``Query.source_bytes`` for query text), and :func:`wire_size` — the one
definition of "bytes on the wire", shared with the analytic estimator —
adds headers and envelope.  "Data shipped" in every benchmark is a sum
of :attr:`Message.size`.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

__all__ = ["Message", "MessageKind", "wire_size"]

_SEQ = itertools.count(1)


class MessageKind:
    """Why a message was sent; used for accounting breakdowns."""

    DATA = "data"               # a tree shipped between peers (send(p, t))
    QUERY = "query"             # a query shipped for deployment (send(p, q))
    CALL = "call"               # service-call request carrying parameters
    RESULT = "result"           # service response / stream item
    INSTALL = "install"         # install a tree as a new document (send(d@p, t))
    FORWARD = "forward"         # result routed to a forward-list target
    CONTROL = "control"         # pick negotiation, registry lookups, etc.

    ALL = (DATA, QUERY, CALL, RESULT, INSTALL, FORWARD, CONTROL)


class Message:
    """One network message, built by one ``__init__``.

    ``headers`` carry small routing metadata (target node ids, document
    names); they are charged to the byte count at a fixed small overhead
    so that "many tiny messages" is visibly worse than "one big one".
    The fields are plain attributes (``vars(message)`` lists them).
    """

    #: Fixed per-message envelope overhead in bytes (transport framing).
    ENVELOPE_OVERHEAD = 64

    def __init__(
        self, src: str, dst: str, kind: str, payload_bytes: int,
        headers: Optional[Dict[str, str]] = None, seq: Optional[int] = None,
    ) -> None:
        self.src, self.dst, self.kind = src, dst, kind
        #: Exact UTF-8 length of the serialized payload.
        self.payload_bytes = payload_bytes
        self.headers = {} if headers is None else headers
        #: Total bytes on the wire (:func:`wire_size`), fixed here.
        self.size = (
            wire_size(payload_bytes, headers) if headers
            else payload_bytes + self.ENVELOPE_OVERHEAD
        )
        self.seq = next(_SEQ) if seq is None else seq

    def __repr__(self) -> str:
        return (
            f"Message(#{self.seq} {self.src}->{self.dst} {self.kind}, "
            f"{self.size}B)"
        )


def wire_size(payload_bytes: int, headers: Dict[str, str]) -> int:
    """Total bytes one message puts on the wire: payload, each header
    (key + value + 4 framing bytes) and the fixed envelope."""
    size = payload_bytes + Message.ENVELOPE_OVERHEAD
    for key, value in headers.items():
        size += len(key.encode("utf-8")) + len(value.encode("utf-8")) + 4
    return size
