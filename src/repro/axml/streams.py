"""Continuous services and streams of trees.

The paper treats *all* services as continuous: after a call activates
once, response trees keep arriving and "accumulate as siblings of the sc
node" (Section 2.2).  Queries, correspondingly, are continuous: eval over
a stream of input trees yields a stream of output trees — "eval@p(q)
produces a result whenever the arrival of some new tree in the input
streams leads to creating some output" (discussion after definition (2)).

Two pieces implement this:

* :class:`StreamChannel` — a producer on one peer feeding subscriber
  target nodes on other peers; each emission is shipped (charged) and
  appended under every subscriber's target node;
* :class:`IncrementalQuery` — a continuous query over a stream.  In
  ``incremental`` mode, each new tree is evaluated in isolation and
  outputs are appended (correct when the query is distributive over the
  input forest — true for the for-each-tree services the paper uses);
  in ``reevaluate`` mode the full accumulated input is re-queried each
  time (always correct, quadratic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..errors import AXMLError
from ..net.message import Message, MessageKind
from ..peers.system import AXMLSystem
from ..xmlcore.model import Element, NodeId
from ..xquery import Query

__all__ = ["StreamChannel", "Subscription", "IncrementalQuery"]


@dataclass
class Subscription:
    """One consumer of a stream: append arrivals under ``target``."""

    target: NodeId
    delivered: int = 0


class StreamChannel:
    """A named stream of XML trees produced at one peer.

    This is the transport half of a continuous service: the service's
    successive response trees are pushed through a channel to every
    subscriber.  Emissions are charged to the network individually —
    streams are many small messages, which the accounting makes visible.
    """

    def __init__(self, name: str, producer: str, system: AXMLSystem) -> None:
        self.name = name
        self.producer = producer
        self.system = system
        self.subscriptions: List[Subscription] = []
        self.emitted: List[Element] = []
        self.clock = 0.0

    def subscribe(self, target: NodeId) -> Subscription:
        subscription = Subscription(target)
        self.subscriptions.append(subscription)
        # catch-up: new subscribers receive everything emitted so far
        for tree in self.emitted:
            self._deliver(subscription, tree, self.clock)
        return subscription

    def emit(self, tree: Element, ready_at: Optional[float] = None) -> float:
        """Produce one tree; ship it to every subscriber.

        Returns the time the slowest subscriber received it.
        """
        at = self.clock if ready_at is None else ready_at
        self.emitted.append(tree)
        latest = at
        for subscription in self.subscriptions:
            latest = max(latest, self._deliver(subscription, tree, at))
        self.clock = latest
        self.system.clock = max(self.system.clock, latest)
        return latest

    def _deliver(
        self, subscription: Subscription, tree: Element, ready_at: float
    ) -> float:
        target = subscription.target
        message = Message(
            src=self.producer,
            dst=target.peer,
            kind=MessageKind.RESULT,
            payload_bytes=tree.serialized_size(),
            headers={"stream": self.name, "target": str(target)},
        )
        arrival = self.system.network.deliver(message, ready_at)
        if self.system.peer(target.peer).deliver(target, tree) is None:
            raise AXMLError(
                f"stream {self.name!r}: target {target} not found"
            )
        subscription.delivered += 1
        return arrival


class IncrementalQuery:
    """A continuous query over an accumulating input forest.

    ``mode='incremental'`` assumes the query is *distributive*: the
    result over trees ``t1..tn`` equals the concatenation of results per
    tree.  Every FLWOR of the shape ``for $x in $in... return ...`` whose
    clauses do not aggregate across trees satisfies this; use
    ``mode='reevaluate'`` otherwise (e.g. queries with count/sum over the
    whole stream).
    """

    MODES = ("incremental", "reevaluate")

    def __init__(
        self,
        query: Query,
        mode: str = "incremental",
        on_output: Optional[Callable[[List], None]] = None,
    ) -> None:
        if mode not in self.MODES:
            raise AXMLError(f"unknown continuous mode {mode!r}")
        self.query = query
        self.mode = mode
        self.on_output = on_output
        self.seen: List[Element] = []
        self.outputs: List = []
        #: work-unit counter: how many input trees were (re)processed —
        #: linear in the stream for ``incremental``, quadratic otherwise.
        self.trees_processed = 0

    def push(self, tree: Element) -> List:
        """Feed one new input tree; returns the *new* outputs it caused."""
        self.seen.append(tree)
        if self.mode == "incremental":
            fresh = self.query.run([tree])
            self.trees_processed += 1
        else:
            everything = self.query.run(list(self.seen))
            self.trees_processed += len(self.seen)
            fresh = everything[len(self.outputs):]
        self.outputs.extend(fresh)
        if self.on_output and fresh:
            self.on_output(fresh)
        return fresh
