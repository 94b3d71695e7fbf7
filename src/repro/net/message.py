"""Messages exchanged between peers in the simulated network.

Every unit of communication in the framework — shipped data trees,
shipped queries (code shipping), service-call requests, streamed results —
is a :class:`Message`.  Payloads are serialized XML text, so message sizes
are byte-accurate: the benchmark numbers for "data shipped" come straight
from ``len(payload.encode())``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict

__all__ = ["Message", "MessageKind"]

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


@dataclass
class Message:
    """One network message.

    ``headers`` carry small routing metadata (target node ids, document
    names); they are charged to the byte count at a fixed small overhead
    so that "many tiny messages" is visibly worse than "one big one".
    """

    src: str
    dst: str
    kind: str
    payload: str
    headers: Dict[str, str] = field(default_factory=dict)
    seq: int = field(default_factory=lambda: next(_SEQ))

    #: Fixed per-message envelope overhead in bytes (transport framing).
    ENVELOPE_OVERHEAD = 64

    @property
    def payload_bytes(self) -> int:
        return len(self.payload.encode("utf-8"))

    @property
    def size(self) -> int:
        """Total bytes on the wire: payload + headers + fixed envelope."""
        header_bytes = sum(
            len(k.encode("utf-8")) + len(v.encode("utf-8")) + 4
            for k, v in self.headers.items()
        )
        return self.payload_bytes + header_bytes + self.ENVELOPE_OVERHEAD

    def __repr__(self) -> str:
        return (
            f"Message(#{self.seq} {self.src}->{self.dst} {self.kind}, "
            f"{self.size}B)"
        )
