"""Evaluation of AXML expressions: definitions (1)–(9) of the paper.

``eval@p(e)`` may (Section 3.2): (i) return a tree / stream of trees,
(ii) return a new service, (iii) side-effect Σ by creating streams under
well-specified nodes on one or more peers.  :class:`EvalOutcome` carries
all three, plus the virtual completion time, which the benchmarks report.

Mapping from the paper's definitions to code paths:

=========  ==================================================================
(1)        ``TreeExpr`` at its home peer: a plain-data tree is its own
           value, frozen, by reference; in one embedding ``sc`` nodes
           (frozen too) the calls fire via (6) in document order, then
           the value is built from the tree and their responses.  A call
           fires unless it is ``mode="manual"`` or its ``after=`` names
           a call that did not complete; an unfired call stays in the
           value as the ``sc`` it was, and ``after=N`` is admitted when
           ``N`` completes (see :meth:`~ExpressionEvaluator._fire_calls`)
(2)        ``QueryApply`` with local head and args: evaluate args, then
           the query, at the same peer (compute time charged)
(3),(4)    ``Send``: empty result at the sender; the copy's arrival at
           peer / node-list / document destinations is a side effect
(5)        ``TreeExpr``/``DocExpr`` evaluated away from home: the home
           peer evaluates and ships the result to the evaluation site —
           frozen, by reference: the message carries its size, and the
           site gets the same tree
(6)        ``ServiceCallExpr``: params evaluated at the caller, shipped
           to the provider, the implementing query runs there, results
           ship to the forward list (or back to the caller by default)
(7)        ``QueryApply`` whose head lives elsewhere: the query (and any
           remote args) are shipped to the evaluation site first
(8)        ``Send`` of a ``QueryRef``: deploys the query as a new service
           at the destination; the expression itself evaluates to ∅
(9)        ``GenericDoc`` / ``GenericService``: resolved through the
           registry's pick functions, then re-evaluated concretely
=========  ==================================================================

That is all this module knows.  Whatever a run adds on top — injected
failures and the retries, timeouts, failover and degraded answers that
survive them, span recording, wall-clock timing — attaches from outside
``core`` by overriding the *effect seam*, six primitives whose bodies
here are the fault-free semantics: ``_deliver`` is ``network.deliver``;
``_call_provider`` is one delivery; ``_on_cpu`` starts work the instant
it is ready and nobody watches; ``_lost`` re-raises what took a part of
the answer away; ``_read_fragment`` follows a fragment's one reference;
``_activate_document`` stores what activation produced.  What a message
weighs is not among them: it is a fact about the value shipped — the
exact, cached ``serialized_size()`` of its trees, or
``Query.source_bytes`` — and nothing is serialized to learn it.  Nor is
anything copied to ship it: a value crossing the network is the frozen
tree itself (:func:`_handed_on` names the two cases that still copy), so
its cached size, fingerprint and node count travel with it.  What is
still built is a *new* tree — an activated value (:func:`_activated`),
the stored document it is installed as (:meth:`_install`), a
reassembled fragmented document (:func:`_reassembled`) — and under a
plan search's memo (:attr:`memo`, set by
:func:`repro.core.cost.measure`) each of those is built once per search
from the same frozen inputs and then handed out, caches warm, by
reference.
A :class:`~repro.session.Session` runs a subclass that is that layer;
:func:`repro.core.cost.measure` and
:func:`repro.core.verify.check_equivalence` run this class as is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..axml.document import ActivationMode, ServiceCall
from ..errors import (
    ActivationCycleError,
    EvaluationUndefinedError,
    ExpressionError,
    FaultError,
    FragmentUnavailableError,
    GenericResolutionError,
    PeerDownError,
    ReproError,
    ServiceCallError,
    UnknownServiceError,
)
from ..net.message import Message, MessageKind
from ..peers.peer import Peer
from ..peers.registry import PickPolicy
from ..peers.service import DeclarativeService, QueryMemo, _value_tree, build_tree
from ..peers.system import AXMLSystem
from ..xmlcore.model import Element, NodeId
from ..xquery import Query
from .expressions import (
    ANY,
    DocDest,
    DocExpr,
    EvalAt,
    Expression,
    FragmentedDoc,
    Gather,
    GenericDoc,
    GenericService,
    NodesDest,
    PeerDest,
    QueryApply,
    QueryRef,
    Send,
    Seq,
    ServiceCallExpr,
    TreeExpr,
)
from .serialize import expression_size

__all__ = ["EvalOutcome", "ExpressionEvaluator"]

_MAX_ACTIVATION_DEPTH = 64

#: Expression type -> the evaluator method applying its definition.
_DEFINITIONS = {
    TreeExpr: "_eval_tree",
    DocExpr: "_eval_doc",
    GenericDoc: "_eval_generic_doc",
    FragmentedDoc: "_eval_fragmented_doc",
    Gather: "_eval_gather",
    QueryRef: "_eval_query_ref",
    QueryApply: "_eval_apply",
    ServiceCallExpr: "_eval_service_call",
    Send: "_eval_send",
    EvalAt: "_eval_eval_at",
    Seq: "_eval_seq",
}


@dataclass
class EvalOutcome:
    """Result of ``eval@p(e)``: value, timing and side-effect records."""

    #: The value at the evaluation site (a forest; ∅ for pure sends).
    items: List[Element] = field(default_factory=list)
    #: A query value (when the expression was a bare QueryRef).
    query: Optional[Query] = None
    #: Virtual time at which the value (and all side effects) settled.
    completed_at: float = 0.0
    #: Documents installed as side effects: (doc_name, peer).
    installed: List[Tuple[str, str]] = field(default_factory=list)
    #: Services deployed as side effects: (service_name, peer).
    deployed: List[Tuple[str, str]] = field(default_factory=list)
    #: Node targets that received stream items: NodeId list.
    delivered: List[NodeId] = field(default_factory=list)

    def merge_effects(self, other: "EvalOutcome") -> None:
        self.installed.extend(other.installed)
        self.deployed.extend(other.deployed)
        self.delivered.extend(other.delivered)


class ExpressionEvaluator:
    """Evaluates expressions of E against an :class:`AXMLSystem`.

    The evaluator is the *definitional* strategy of Section 3.2 — it
    applies definitions (1)–(9) top-down.  Optimized strategies come from
    rewriting the expression first (:mod:`repro.core.rules`), never from
    changing this evaluator, mirroring the paper's logical/algebraic
    split.
    """

    #: Handed on to whatever runs a query (definitions (2), (6), (7)), and
    #: put in front of the three tree builds; only
    #: :func:`repro.core.cost.measure` sets one.
    memo: Optional[QueryMemo] = None

    def __init__(
        self, system: AXMLSystem, pick_policy: Optional[PickPolicy] = None
    ) -> None:
        self.system = system
        self.pick_policy = pick_policy
        self._deploy_counter = 0
        self._install_counter = 0

    # -- the effect seam (see the module docstring) --------------------------------
    def _deliver(self, message: Message, ready_at: float) -> float:
        """Ship ``message``; returns its arrival instant."""
        return self.system.network.deliver(message, ready_at)

    def _call_provider(self, message: Message, ready_at: float) -> float:
        """Hand a CALL message to the service ``headers["service"]`` names
        on ``message.dst``: one delivery."""
        return self._deliver(message, ready_at)

    def _on_cpu(self, peer_id: str, label: str, ready_at: float, work: Callable):
        """Run ``work(start) -> (value, done)`` on ``peer_id``'s CPU: it
        starts the instant it is ready, and nobody watches."""
        return work(ready_at)

    def _lost(self, kind: str, name: str, peers: Sequence[str], exc: ReproError):
        """A part of the answer (fragment, service call, gather branch)
        failed with ``exc``: an answer missing a part is no answer."""
        raise exc

    def _read_fragment(
        self, fragment, ref: Expression, live, at: str, ready_at: float, depth: int
    ) -> EvalOutcome:
        """Read ``fragment`` through ``ref``, its one reference (``live``
        names every peer still holding a copy)."""
        return self.eval(ref, at, ready_at, depth + 1)

    def _activate_document(
        self, home, name: str, tree: Element, ready_at: float, depth: int
    ) -> EvalOutcome:
        """Fire the calls embedded in ``name@home`` there; store the result.

        "p2 has replaced this local tree with the result of eval" — the
        activated version (a new tree, definition (1)) becomes the stored
        document, and the value is that document.
        """
        outcome = self.eval(
            TreeExpr(tree, home.peer_id), home.peer_id, ready_at, depth + 1
        )
        if len(outcome.items) == 1:
            outcome.items = [self._install(home, name, outcome.items[0])]
        return outcome

    def _install(self, home: Peer, name: str, value: Element) -> Element:
        """``home.install_document(name, value, replace=True)``.

        Not a seam primitive: every body of :meth:`_activate_document`
        installs through it.  A plan search's memo keeps the installed
        form under the value, the peer and the serial its ids start from
        — all it depends on: a copy of the frozen value whose id-less
        nodes are numbered from that serial.  A hit stores that document
        and advances the allocator exactly as installing would.
        """
        if value is home.documents.get(name):
            return value  # no call fired: the stored tree is its value
        allocator = home.allocator

        def install() -> Tuple[Element, int]:
            installed = home.install_document(name, value, replace=True)
            return installed, allocator.next_serial

        inputs = (value, home.peer_id, allocator.next_serial)
        installed, allocator.next_serial = build_tree(
            "installed", inputs, install, self.memo
        )
        home.documents[name] = installed
        return installed

    # -- entry point -------------------------------------------------------------
    def eval(
        self, expr: Expression, at: str, ready_at: float = 0.0, _depth: int = 0
    ) -> EvalOutcome:
        """``eval@at(expr)`` starting no earlier than ``ready_at``.

        ``ready_at`` is the virtual instant the evaluation is *admitted*
        — a serving job arriving mid-stream hands its arrival time here,
        so its transfers and compute queue behind whatever the shared
        links and peers are already committed to.  Top-level evaluations
        advance :attr:`AXMLSystem.clock
        <repro.peers.system.AXMLSystem.clock>` to their settle time, the
        quiescence point the scheduler reads between jobs.
        """
        if _depth > _MAX_ACTIVATION_DEPTH:
            raise ActivationCycleError(
                f"evaluation nested past {_MAX_ACTIVATION_DEPTH} levels "
                "(a service whose response calls it again?)"
            )
        outcome = self._dispatch(expr, at, ready_at, _depth)
        if _depth == 0:
            self.system.clock = max(self.system.clock, outcome.completed_at)
        return outcome

    def _dispatch(
        self, expr: Expression, at: str, ready_at: float, _depth: int
    ) -> EvalOutcome:
        site = self.system.peer(at)  # validate the site exists
        if not site.alive:
            raise PeerDownError(f"evaluation site {at!r} has left the system")
        definition = _DEFINITIONS.get(type(expr))
        if definition is not None:
            return getattr(self, definition)(expr, at, ready_at, _depth)
        if isinstance(expr, GenericService):
            raise ExpressionError(
                "a generic service can only appear as a call/apply head"
            )
        raise ExpressionError(f"cannot evaluate {type(expr).__name__}")

    # -- definitions (1) and (5): trees ----------------------------------------------
    def _eval_tree(
        self, expr: TreeExpr, at: str, ready_at: float, depth: int
    ) -> EvalOutcome:
        if at != expr.home:
            # definition (5): the home evaluates, then ships the result here.
            home_outcome = self.eval(expr, expr.home, ready_at, depth + 1)
            return self._ship_items(home_outcome, expr.home, at)
        # definition (1) at home.  Plain data: activation is the identity,
        # so the value is the tree itself, frozen, by reference.
        tree = expr.tree
        if not tree.has_service_calls():
            return EvalOutcome(
                items=[_handed_on(tree, self.system.peer(at))],
                completed_at=ready_at,
            )
        # embedded calls: fire them via (6), then build the value from the
        # tree and their responses (once per search, under a memo).  The
        # tree is frozen first, as shipping it would: an effect of a call
        # (a forward into this very document) edits a private copy of it,
        # never the tree being walked.
        if tree.parent is not None and not tree.frozen:
            tree = tree.copy()  # a node of a tree that may still change
        tree.freeze()
        outcome = EvalOutcome(completed_at=ready_at)
        responses: List[Optional[Tuple[Element, ...]]] = []
        if self._fire_calls(tree, at, ready_at, depth, outcome, responses, {}):
            # no call fired: the value is the tree itself, as for plain data
            outcome.items = [tree]
            return outcome
        evaluated = build_tree(
            "activated",
            (tree, tuple(responses)),
            lambda: _activated(tree, iter(responses)),
            self.memo,
        )
        outcome.items = [evaluated] if evaluated is not None else []
        return outcome

    def _fire_calls(
        self,
        tree: Element,
        at: str,
        ready_at: float,
        depth: int,
        outcome: EvalOutcome,
        responses: List[Optional[Tuple[Element, ...]]],
        completed: Dict[str, Tuple[Optional[float], int, Element]],
    ) -> bool:
        """Definition (1)'s effects: push evaluation into children.

        Every embedded ``sc`` element, in document order, appends to
        ``responses`` what replaces it in the value: its responses under a
        default forward list; ``None`` (the node is dropped) under an
        explicit one, or when the call was lost; ``(node,)``, the ``sc``
        as it was, when the call does not fire.  Activation control
        (Section 2.2) is decided here, once:

        * a call fires unless it is ``mode="manual"`` or its ``after=``
          names a call that did not complete (did not fire, or was lost);
        * a fired ``after=N`` call is admitted at the later of
          ``ready_at`` and ``N``'s completion;
        * ``after=`` names resolve within ``tree``, in document order: one
          that no earlier call carries raises :class:`ServiceCallError`.
          A manual call's is not resolved: it never fires here;
        * a call waited on that did not complete (a lost one too) stays
          as the ``sc`` it was, so a later read still resolves its name;
        * a ``lazy`` call fires: the value of ``eval(d@p)`` is the whole
          value.  A manual call is activated explicitly by evaluating its
          :class:`ServiceCallExpr` (definition (6)).

        ``completed`` maps each call's name to its completion instant
        (None if it did not complete), index in ``responses`` and node.
        ``tree`` is only read.  Returns whether no call met fired: the
        tree is then its own value, though each read still walks it.
        """
        if not tree.is_service_call():
            unfired = True
            for child in tree.children:
                if isinstance(child, Element) and child.has_service_calls():
                    unfired &= self._fire_calls(
                        child, at, ready_at, depth, outcome, responses, completed
                    )
            return unfired
        call = ServiceCall.parse(tree)
        start = None if call.mode == ActivationMode.MANUAL else ready_at
        if start is not None and call.after is not None:
            if call.after not in completed:
                raise ServiceCallError(
                    f"{call} runs after {call.after!r}, "
                    "which names no earlier call of its tree"
                )
            after, index, node = completed[call.after]
            if after is None:
                start = None
                responses[index] = (node,)  # kept: a later read resolves it
            else:
                start = max(start, after)
        index, done = len(responses), None
        if start is None:
            responses.append((tree,))  # not fired: it stays the sc it was
        else:
            done = self._fire_call(call, at, start, depth, outcome, responses)
        if call.name is not None:
            completed[call.name] = (done, index, tree)
        return start is None

    def _fire_call(
        self,
        call: ServiceCall,
        at: str,
        ready_at: float,
        depth: int,
        outcome: EvalOutcome,
        responses: List[Optional[Tuple[Element, ...]]],
    ) -> Optional[float]:
        """Evaluate ``call`` per definition (6); returns its completion
        instant, or None when it was lost (see :meth:`_fire_calls`)."""
        call_expr = ServiceCallExpr(
            provider=call.provider,
            service=call.service,
            params=tuple(TreeExpr(payload, at) for payload in call.param_payloads()),
            forwards=call.forwards,
        )
        try:
            sub = self.eval(call_expr, at, ready_at, depth + 1)
        except (FaultError, PeerDownError) as exc:
            self._lost(
                "service", f"{call.service}@{call.provider}", (call.provider,), exc
            )
            # tolerated: the call's results never arrive, so the sc node
            # disappears from the value
            responses.append(None)
            return None
        outcome.merge_effects(sub)
        outcome.completed_at = max(outcome.completed_at, sub.completed_at)
        responses.append(None if call.forwards else tuple(sub.items))
        return sub.completed_at

    # -- documents ----------------------------------------------------------------
    def _eval_doc(
        self, expr: DocExpr, at: str, ready_at: float, depth: int
    ) -> EvalOutcome:
        home = self.system.peer(expr.home)
        if not home.alive:
            raise PeerDownError(
                f"document {expr.name!r} is homed on dead peer {expr.home!r}"
            )
        tree = home.document(expr.name)
        if tree.has_service_calls():
            home_outcome = self._activate_document(
                home, expr.name, tree, ready_at, depth
            )
        else:
            # plain data: activation is the identity, so the stored tree
            # is the value — no copy, no re-install, Σ is only read
            home_outcome = EvalOutcome(items=[tree], completed_at=ready_at)
        if at == expr.home:
            return home_outcome
        return self._ship_items(home_outcome, expr.home, at)

    def _eval_generic_doc(
        self, expr: GenericDoc, at: str, ready_at: float, depth: int
    ) -> EvalOutcome:
        # definition (9): pickDoc, then evaluate the concrete reference.
        member = self._pick("pick_document", expr.name, at)
        return self.eval(DocExpr(member.name, member.peer), at, ready_at, depth + 1)

    def _pick(self, pick: str, name: str, at: str):
        """The registry's ``pick`` function under this evaluator's policy."""
        try:
            return getattr(self.system.registry, pick)(
                name, at, self.system, self.pick_policy
            )
        except ReproError:
            raise
        except Exception as exc:
            # a buggy pick policy must surface typed, never a bare KeyError
            raise GenericResolutionError(
                f"{pick}({name!r}) raised {type(exc).__name__}: {exc}"
            ) from exc

    # -- fragmented documents (repro.dist): scatter-gather ----------------------------
    def _eval_fragmented_doc(
        self, expr: FragmentedDoc, at: str, ready_at: float, depth: int
    ) -> EvalOutcome:
        """Scatter to every fragment-holding peer, reassemble in order.

        Each fragment is fetched independently from the same ready
        instant (fan-out: distinct links carry their transfers
        concurrently, shared links serialize FIFO — real per-link
        traffic either way), and the fragments' children are spliced
        under the original root in ordinal order, so the value is
        byte-identical to the whole document.  Replicated fragments
        resolve through the generic registry, i.e. the session/serving
        pick policy chooses which copy serves the read.

        Under a plan search's memo the reassembled document is built
        once per search: it is keyed by the name and the identities of
        the fragment trees that arrived, in order — stored fragments and
        the frozen trees shipped from them, the same objects in every
        candidate's clone of Σ.  That is sound because the value is a
        pure function of them: the catalog's root under the name (Σ does
        not change under a search) and copies of their children.
        """
        info = self.system.fragments.info(expr.name)
        outcome = EvalOutcome(completed_at=ready_at)
        parts: List[Element] = []
        for fragment in info.fragments:
            try:
                sub = self._eval_fragment(fragment, at, ready_at, depth)
            except (FaultError, FragmentUnavailableError, PeerDownError) as exc:
                self._lost("fragment", fragment.name, fragment.peers, exc)
                continue  # tolerated: reassemble what did arrive
            outcome.merge_effects(sub)
            outcome.completed_at = max(outcome.completed_at, sub.completed_at)
            parts.extend(sub.items)
        outcome.items = [
            build_tree(
                "reassembled",
                (expr.name, tuple(parts)),
                lambda: _reassembled(info, parts),
                self.memo,
            )
        ]
        return outcome

    def _eval_fragment(
        self, fragment, at: str, ready_at: float, depth: int
    ) -> EvalOutcome:
        """Fetch one fragment from a surviving copy: the generic class
        when it is replicated (the pick policy chooses), else the first
        live holder.  With every copy dead it refuses loudly rather than
        reassemble an incomplete document (a wrong answer)."""
        live = fragment.live_copies(self.system)
        ref: Expression = (
            GenericDoc(fragment.generic)
            if fragment.generic is not None
            else DocExpr(fragment.name, live[0])
        )
        try:
            return self._read_fragment(fragment, ref, live, at, ready_at, depth)
        except GenericResolutionError:
            # the registry lost the last live member (e.g. churn
            # cleanup raced a concurrent retire): same typed failure.
            raise FragmentUnavailableError(fragment.name, fragment.peers) from None

    def _eval_gather(
        self, expr: Gather, at: str, ready_at: float, depth: int
    ) -> EvalOutcome:
        """Order-preserving union: parts evaluate independently, in parallel."""
        outcome = EvalOutcome(completed_at=ready_at)
        for part in expr.parts:
            try:
                sub = self.eval(part, at, ready_at, depth + 1)
            except (FaultError, FragmentUnavailableError, PeerDownError) as exc:
                self._lost("branch", type(part).__name__, (), exc)
                continue
            outcome.merge_effects(sub)
            outcome.items.extend(sub.items)
            outcome.completed_at = max(outcome.completed_at, sub.completed_at)
        return outcome

    # -- queries as values (and definition (8) deployment) ------------------------------
    def _eval_query_ref(
        self, expr: QueryRef, at: str, ready_at: float, depth: int
    ) -> EvalOutcome:
        if at == expr.home:
            return EvalOutcome(query=expr.query, completed_at=ready_at)
        message = Message(
            expr.home, at, MessageKind.QUERY, expr.query.source_bytes
        )
        arrival = self._deliver(message, ready_at)
        return EvalOutcome(query=expr.query, completed_at=arrival)

    # -- definitions (2) and (7): query application ---------------------------------------
    def _eval_apply(
        self, expr: QueryApply, at: str, ready_at: float, depth: int
    ) -> EvalOutcome:
        query, query_ready = self._resolve_apply_head(expr.query, at, ready_at)

        outcome = EvalOutcome()
        peer = self.system.peer(at)
        arg_values: List[List[Element]] = []
        bound: set = set()
        latest = query_ready
        for arg in expr.args:
            sub = self.eval(arg, at, ready_at, depth + 1)
            outcome.merge_effects(sub)
            arg_values.append(_unaliased(sub.items, bound, peer))
            latest = max(latest, sub.completed_at)

        result, done = self._on_cpu(
            at,
            f"apply {query.name or 'query'}",
            latest,
            lambda start: peer.evaluate(query, arg_values, start, self.memo),
        )
        outcome.items = _as_forest(result, peer)
        outcome.completed_at = done
        return outcome

    def _resolve_apply_head(
        self, head, at: str, ready_at: float
    ) -> Tuple[Query, float]:
        if isinstance(head, GenericService):
            member = self._pick("pick_service", head.name, at)
            service = self.system.peer(member.peer).service(member.name)
            if not isinstance(service, DeclarativeService):
                raise ExpressionError(
                    f"generic service {head.name!r} resolved to a "
                    "non-declarative implementation; cannot apply as a query"
                )
            head = QueryRef(service.query, member.peer)
        assert isinstance(head, QueryRef)
        # definition (7): the defining peer ships the query text here.
        return head.query, self._eval_query_ref(head, at, ready_at, 0).completed_at

    # -- definition (6): service calls ------------------------------------------------
    def _eval_service_call(
        self, expr: ServiceCallExpr, at: str, ready_at: float, depth: int
    ) -> EvalOutcome:
        provider_id = expr.provider
        if provider_id == ANY:
            member = self._pick("pick_service", expr.service, at)
            provider_id = member.peer
            service_name = member.name
        else:
            service_name = expr.service
        provider = self.system.peer(provider_id)
        if not provider.alive:
            raise PeerDownError(
                f"service provider {provider_id!r} has left the system"
            )
        try:
            service = provider.service(service_name)
        except UnknownServiceError:
            raise ServiceCallError(
                f"service {service_name!r} not found on peer {provider_id!r}"
            ) from None

        outcome = EvalOutcome()
        caller = self.system.peer(at)
        param_values: List[Element] = []
        bound: set = set()
        latest = ready_at
        for param in expr.params:
            sub = self.eval(param, at, ready_at, depth + 1)
            outcome.merge_effects(sub)
            latest = max(latest, sub.completed_at)
            param_values.extend(_unaliased(sub.items, bound, caller))
        if provider_id != at:
            # the CALL hands each parameter on to the provider, where a
            # parameter that is one of its stored documents arrives a copy
            param_values = [_handed_on(p, provider) for p in param_values]

        # ship parameters to the provider (one CALL message)
        call_message = Message(
            src=at,
            dst=provider_id,
            kind=MessageKind.CALL,
            payload_bytes=sum(p.serialized_size() for p in param_values),
            headers={"service": service_name},
        )
        arrival = self._call_provider(call_message, latest)

        def serve(start: float) -> Tuple[List[Element], float]:
            try:
                responses = service.invoke(param_values, provider, self.memo)
            except ReproError:
                raise
            except Exception as exc:
                # audit fix: a buggy native implementation surfaces typed,
                # never a bare KeyError/TypeError from inside the callable
                raise ServiceCallError(
                    f"service {service_name!r} on {provider_id!r} raised "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            return responses, provider.charge(service.work_units(param_values), start)

        responses, done = self._on_cpu(
            provider_id, f"service {service_name}", arrival, serve
        )

        # responses may embed further service calls — activate them at the
        # provider before shipping (the response must be a data tree).
        settled: List[Element] = []
        for response in responses:
            sub = self.eval(
                TreeExpr(response, provider_id), provider_id, done, depth + 1
            )
            outcome.merge_effects(sub)
            done = max(done, sub.completed_at)
            settled.extend(sub.items)

        if expr.forwards:
            outcome.completed_at = self._deliver_to_nodes(
                provider_id, expr.forwards, settled, done, outcome
            )
            return outcome

        # default: results return to the caller (siblings of the sc node).
        last = done
        if provider_id != at:
            for response in settled:
                message = Message(
                    src=provider_id,
                    dst=at,
                    kind=MessageKind.RESULT,
                    payload_bytes=response.serialized_size(),
                )
                last = max(last, self._deliver(message, done))
        outcome.items = [_handed_on(response, caller) for response in settled]
        outcome.completed_at = last
        return outcome

    # -- definitions (3), (4), (8): send -------------------------------------------------
    def _eval_send(
        self, expr: Send, at: str, ready_at: float, depth: int
    ) -> EvalOutcome:
        payload = expr.payload
        # "p2 cannot send something it doesn't have": a direct reference to
        # data or a query homed elsewhere makes the send undefined.
        if isinstance(payload, (TreeExpr, DocExpr)) and payload.home != at:
            raise EvaluationUndefinedError(
                f"send at {at!r} of data homed at {payload.home!r} is undefined"
            )
        if isinstance(payload, QueryRef) and payload.home != at:
            raise EvaluationUndefinedError(
                f"send at {at!r} of a query defined at {payload.home!r} is undefined"
            )

        inner = self.eval(payload, at, ready_at, depth + 1)
        outcome = EvalOutcome(completed_at=inner.completed_at)
        outcome.merge_effects(inner)

        if inner.query is not None and not inner.items:
            return self._deploy_query(expr, inner, at, outcome)

        clock = inner.completed_at
        relay_from = at
        # rule (12) relays: explicit intermediary stops, store-and-forward.
        size = sum(item.serialized_size() for item in inner.items)
        for hop in expr.via:
            message = Message(relay_from, hop, MessageKind.DATA, size)
            clock = self._deliver(message, clock)
            relay_from = hop

        dest = expr.dest
        if isinstance(dest, PeerDest):
            message = Message(relay_from, dest.peer, MessageKind.DATA, size)
            clock = self._deliver(message, clock)
            peer = self.system.peer(dest.peer)
            self._install_counter += 1
            name = peer.fresh_document_name(f"recv-{self._install_counter}")
            peer.install_document(name, _forest_to_document(inner.items, name))
            outcome.installed.append((name, dest.peer))
        elif isinstance(dest, DocDest):
            message = Message(
                src=relay_from,
                dst=dest.peer,
                kind=MessageKind.INSTALL,
                payload_bytes=size,
                headers={"doc": dest.name},
            )
            clock = self._deliver(message, clock)
            root = _forest_to_document(inner.items, dest.name)
            self.system.peer(dest.peer).install_document(dest.name, root)
            outcome.installed.append((dest.name, dest.peer))
        elif isinstance(dest, NodesDest):
            clock = self._deliver_to_nodes(
                relay_from, dest.nodes, inner.items, clock, outcome
            )
        else:
            raise ExpressionError(
                f"unknown destination {type(dest).__name__}"
            )
        outcome.completed_at = clock
        outcome.items = []  # definition (3): ∅ at the sender
        return outcome

    def _deploy_query(
        self, expr: Send, inner: EvalOutcome, at: str, outcome: EvalOutcome
    ) -> EvalOutcome:
        # definition (8): deploy the query as a new service at the target.
        dest = expr.dest
        if not isinstance(dest, PeerDest):
            raise ExpressionError(
                "a query can only be sent to a peer destination"
            )
        query = inner.query
        clock = self._ship_items(inner, at, dest.peer).completed_at
        target = self.system.peer(dest.peer)
        # The paper names the deployed service send_{p→p'}(q); we use a
        # fresh concrete name with the same flavour.
        self._deploy_counter += 1
        name = query.name or "q"
        service_name = f"sent-{name}-{self._deploy_counter}"
        target.install_service(
            DeclarativeService(service_name, query.copy(service_name))
        )
        outcome.deployed.append((service_name, dest.peer))
        outcome.completed_at = clock
        return outcome  # its value is ∅, like any send's

    # -- EvalAt and Seq -------------------------------------------------------------------
    def _eval_eval_at(
        self, expr: EvalAt, at: str, ready_at: float, depth: int
    ) -> EvalOutcome:
        if expr.peer == at:
            return self.eval(expr.expr, at, ready_at, depth + 1)
        # ship the expression tree itself (code shipping)
        message = Message(
            at, expr.peer, MessageKind.QUERY, expression_size(expr.expr)
        )
        arrival = self._deliver(message, ready_at)
        remote = self.eval(expr.expr, expr.peer, arrival, depth + 1)
        if not remote.items and remote.query is None:
            # pure side effects (e.g. sc with forward lists): nothing to
            # ship back — exactly why rule (15) is free to relocate calls.
            return remote
        return self._ship_items(remote, expr.peer, at)

    def _eval_seq(
        self, expr: Seq, at: str, ready_at: float, depth: int
    ) -> EvalOutcome:
        outcome = EvalOutcome(completed_at=ready_at)
        last: Optional[EvalOutcome] = None
        clock = ready_at
        for step in expr.steps:
            last = self.eval(step, at, clock, depth + 1)
            outcome.merge_effects(last)
            clock = last.completed_at
        outcome.items = last.items if last else []
        outcome.query = last.query if last else None
        outcome.completed_at = clock
        return outcome

    # -- shared helpers -----------------------------------------------------------------
    def _ship_items(self, outcome: EvalOutcome, src: str, dst: str) -> EvalOutcome:
        """Ship a settled value from src to dst; returns the dst-side outcome."""
        ready_at = outcome.completed_at
        query = outcome.query
        if src == dst or (not outcome.items and query is None):
            arrival = ready_at  # nothing crosses the network
        elif not outcome.items:
            message = Message(src, dst, MessageKind.QUERY, query.source_bytes)
            arrival = self._deliver(message, ready_at)
        else:
            size = sum(item.serialized_size() for item in outcome.items)
            message = Message(src, dst, MessageKind.DATA, size)
            arrival = self._deliver(message, ready_at)
            query = None  # a forest ships as data alone
        site = self.system.peer(dst)
        shipped = EvalOutcome(
            items=[_handed_on(item, site) for item in outcome.items],
            query=query,
            completed_at=arrival,
        )
        shipped.merge_effects(outcome)
        return shipped

    def _deliver_to_nodes(
        self,
        src: str,
        targets: Sequence[NodeId],
        items: Sequence[Element],
        ready_at: float,
        outcome: EvalOutcome,
    ) -> float:
        """Forward every item to every target node, all from ``ready_at``;
        returns the last arrival."""
        last = ready_at
        for item in items:
            for target in targets:
                message = Message(
                    src=src,
                    dst=target.peer,
                    kind=MessageKind.FORWARD,
                    payload_bytes=item.serialized_size(),
                    headers={"target": str(target)},
                )
                last = max(last, self._deliver(message, ready_at))
                if self.system.peer(target.peer).deliver(target, item) is None:
                    raise ExpressionError(
                        f"forward target {target} does not exist on {target.peer!r}"
                    )
                outcome.delivered.append(target)
        return last


def _handed_on(item: Element, site: Peer) -> Element:
    """``item`` as a value arriving at ``site``: the tree itself, frozen.

    A definition hands a value on by reference wherever it used to make
    a copy.  It still copies where sharing would be observable: a node
    inside a larger tree (its ``..`` axes must not reach the source), and
    one of ``site``'s stored documents (``doc()`` there must not be
    ``is``-identical to a value that arrived, e.g. after a round trip).
    """
    if item.parent is not None or item in site.documents.values():
        return item.copy()
    item.freeze()
    return item


def _unaliased(items: List[Element], bound: set, site: Peer) -> List[Element]:
    """``items`` bound as one more argument of one apply or call at ``site``.

    A tree already in ``bound`` (ids of what earlier arguments bound) is
    bound again as a copy: two bindings of one shipped tree used to be two
    copies, and ``is`` and ``|`` tell them apart.  A stored document of
    ``site`` read twice was always one tree and stays one.
    """
    forest: List[Element] = []
    for item in items:
        if id(item) in bound and item not in site.documents.values():
            item = item.copy()
        bound.add(id(item))
        forest.append(item)
    return forest


def _adoptable(item: Element) -> Element:
    """``item`` ready to hang under another node: a frozen root is copied."""
    return item.copy() if item.frozen else item


def _activated(tree: Element, responses: Iterator) -> Optional[Element]:
    """Definition (1)'s value: ``tree`` with every ``sc`` node replaced.

    ``responses`` yields, per ``sc`` node in the order
    :meth:`ExpressionEvaluator._fire_calls` met them, its response items
    — spliced in where it stood, wrapped in ``<results>`` unless there is
    exactly one, a frozen one as a copy — or ``None``: the node is
    dropped.  Returns None when ``tree`` itself was dropped.  ``tree`` is
    only read; the rest of it is copied.
    """
    if tree.is_service_call():
        items = next(responses)
        if items is None:
            return None
        if len(items) == 1:
            return _adoptable(items[0])
        wrapper = Element("results")
        for item in items:
            wrapper.append(_adoptable(item))
        return wrapper
    value = Element(tree.tag, tree.attrs, node_id=tree.node_id)
    for child in tree.children:
        if isinstance(child, Element) and child.has_service_calls():
            child = _activated(child, responses)
            if child is None:
                continue
        else:
            child = child.copy()
        value.append(child)
    return value


def _reassembled(info, parts: List[Element]) -> Element:
    """A fragmented document's value: the catalog's root over the
    children of every fragment tree in ``parts``, in order — copied,
    never reparented (a fragment local to the evaluation site is the
    *stored* tree, and moving its children out would empty it)."""
    root = Element(info.root_tag, attrs=dict(info.root_attrs))
    for part in parts:
        for child in part.children:
            root.append(child.copy())
    return root


def _as_forest(result: List, site: Optional[Peer] = None) -> List[Element]:
    """Normalize query results to a forest of elements: atomics wrapped,
    trees handed on to ``site`` (kept as they are without one)."""
    forest: List[Element] = []
    for item in result:
        if not isinstance(item, Element):
            item = _value_tree(item)
        elif site is not None:
            item = _handed_on(item, site)
        forest.append(item)
    return forest


def _forest_to_document(items: List[Element], name: str) -> Element:
    """A forest arriving as a document: single root kept, else wrapped."""
    if len(items) == 1:
        return items[0].copy()
    root = Element("received")
    for item in items:
        root.append(item.copy())
    return root
