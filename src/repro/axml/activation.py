"""Service-call activation: the 3-step semantics of Section 2.2.

When a call embedded in ``d0@p0`` to service ``s1@p1`` activates:

1. ``p0`` ships copies of the ``param_i`` children to ``p1`` (one CALL
   message, byte-accurate);
2. ``p1`` evaluates ``s1`` on that input (compute time charged to p1);
3. each response tree is shipped to every forward target (RESULT /
   FORWARD messages) and inserted as a child of the target node — by
   default, as a sibling of the ``sc`` node on ``p0``.

Generic calls (``provider == any``) first resolve a concrete provider via
the registry (definition (9)).  Chained calls (``after=...``) activate
after every batch of answers of the call they reference, implementing the
paper's "activated just after a response to another activated call".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..errors import ServiceCallError, UnknownServiceError
from ..net.message import Message, MessageKind
from ..peers.registry import PickPolicy
from ..peers.system import AXMLSystem
from ..xmlcore.model import Element, NodeId
from .document import ActivationMode, AXMLDocument, ServiceCall

__all__ = ["ActivationResult", "ActivationEngine"]


@dataclass
class ActivationResult:
    """What one activation did: responses, where they went, and when."""

    call: ServiceCall
    provider: str
    responses: List[Element]
    delivered_to: List[NodeId]
    completed_at: float
    messages: int


class ActivationEngine:
    """Executes service-call activations against an :class:`AXMLSystem`."""

    def __init__(
        self,
        system: AXMLSystem,
        pick_policy: Optional[PickPolicy] = None,
    ) -> None:
        self.system = system
        self.pick_policy = pick_policy
        self.history: List[ActivationResult] = []

    # -- single call ------------------------------------------------------------
    def activate(
        self,
        document: AXMLDocument,
        call: ServiceCall,
        ready_at: float = 0.0,
    ) -> ActivationResult:
        """Run one activation; returns responses and completion time."""
        caller = self.system.peer(document.peer_id)
        call = document.own(caller, call)
        provider_id = self._resolve_provider(call, document.peer_id)
        provider = self.system.peer(provider_id)
        try:
            service = provider.service(call.service)
        except UnknownServiceError:
            raise ServiceCallError(
                f"service {call.service!r} not found on peer {provider_id!r}"
            ) from None

        # Step 1: ship parameters to the provider.
        payloads = call.param_payloads()
        message = Message(
            src=document.peer_id,
            dst=provider_id,
            kind=MessageKind.CALL,
            payload_bytes=sum(p.serialized_size() for p in payloads),
            headers={"service": call.service},
        )
        arrival = self.system.network.deliver(message, ready_at)
        messages = 1

        # Step 2: the provider evaluates its service.
        responses = service.invoke(payloads, provider)
        done = provider.charge(service.work_units(payloads), arrival)

        # Step 3: ship each response to every forward target.
        targets = self._forward_targets(document, call)
        delivered: List[NodeId] = []
        last_arrival = done
        for response in responses:
            for target in targets:
                result_message = Message(
                    src=provider_id,
                    dst=target.peer,
                    kind=(
                        MessageKind.FORWARD
                        if call.forwards
                        else MessageKind.RESULT
                    ),
                    payload_bytes=response.serialized_size(),
                    headers={"target": str(target)},
                )
                arrival = self.system.network.deliver(result_message, done)
                messages += 1
                last_arrival = max(last_arrival, arrival)
                self._insert_response(target, response)
                delivered.append(target)

        document.mark_activated(call)
        result = ActivationResult(
            call=call,
            provider=provider_id,
            responses=responses,
            delivered_to=delivered,
            completed_at=last_arrival,
            messages=messages,
        )
        self.history.append(result)
        self.system.clock = max(self.system.clock, last_arrival)
        self._fire_chained(document, call, last_arrival)
        return result

    # -- helpers ------------------------------------------------------------------
    def _resolve_provider(self, call: ServiceCall, requester: str) -> str:
        if not call.is_generic:
            return call.provider
        member = self.system.registry.pick_service(
            call.service, requester, self.system, self.pick_policy
        )
        return member.peer

    def _forward_targets(
        self, document: AXMLDocument, call: ServiceCall
    ) -> List[NodeId]:
        """Resolve forward list; default is the sc's parent node (so the
        response lands as a sibling of the call, original AXML model)."""
        if call.forwards:
            return list(call.forwards)
        parent = call.node.parent
        if parent is None:
            raise ServiceCallError(
                "sc node has no parent and no explicit forward list"
            )
        if parent.node_id is None:
            self.system.peer(document.peer_id).allocator.assign(document.root)
        if parent.node_id is None:  # parent outside the doc tree
            raise ServiceCallError("cannot address the sc parent node")
        return [parent.node_id]

    def _insert_response(self, target: NodeId, response: Element) -> None:
        if self.system.peer(target.peer).deliver(target, response) is None:
            raise ServiceCallError(
                f"forward target {target} does not exist on {target.peer!r}"
            )

    def _fire_chained(
        self, document: AXMLDocument, completed: ServiceCall, ready_at: float
    ) -> None:
        """Activate calls declared ``after=<name>`` of the completed call.

        Per the paper, if sc2 is continuous, sc1 re-fires after *every*
        answer batch; our activation is batch-at-a-time, so chaining after
        each activation implements exactly that.
        """
        if completed.name is None:
            return
        for call in document.service_calls():
            if call.after == completed.name:
                self.activate(document, call, ready_at)

    # -- whole-document driving ------------------------------------------------------
    def run_immediate(
        self, document: AXMLDocument, ready_at: float = 0.0
    ) -> List[ActivationResult]:
        """Activate every pending immediate-mode call (fixpoint pass).

        Responses may themselves contain sc nodes (AXML is recursive);
        the loop re-scans until no immediate call remains un-activated,
        with a generous iteration bound as a divergence guard.
        """
        results: List[ActivationResult] = []
        for _ in range(10_000):
            pending = [
                call
                for call in document.pending_calls(ActivationMode.IMMEDIATE)
                if call.after is None
            ]
            if not pending:
                return results
            for call in pending:
                results.append(self.activate(document, call, ready_at))
        raise ServiceCallError(
            f"activation did not reach a fixpoint on {document.name!r}"
        )

    def activate_for_query(
        self, document: AXMLDocument, ready_at: float = 0.0
    ) -> List[ActivationResult]:
        """Lazy activation: fire the calls a query over the document needs.

        The precise need-based analysis is the subject of the lazy-AXML
        paper ([2] in the references); we implement the sound,
        conservative approximation — activate every pending lazy call —
        which preserves query answers (the paper's semantics only requires
        activations *may* be deferred, never skipped when relevant).
        """
        results: List[ActivationResult] = []
        for call in document.pending_calls(ActivationMode.LAZY):
            if call.after is None:
                results.append(self.activate(document, call, ready_at))
        return results
