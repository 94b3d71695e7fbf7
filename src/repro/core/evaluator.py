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
tree itself (:func:`_as_forest`, one loop that sizes a forest and hands
it on, names the two cases that still copy), so its cached size,
fingerprint and node count travel with it.  What is still built is a *new* tree — an activated value (:func:`_activated`),
the stored document it is installed as (:meth:`_install`), a
reassembled fragmented document (:func:`_reassembled`) — and under the
oracle's memo (:attr:`memo`, set by :func:`repro.core.cost.measure`)
each of those is built once per plan cache from the same frozen inputs
and then handed out, caches warm, by reference.  Within one search
(:attr:`~ExpressionEvaluator.transcripts`) a stored document's calls
are not even fired again: the first candidate to activate it records
its messages and CPU charges, and every later candidate replays them
through the seam (:meth:`~ExpressionEvaluator._activate_document`).
A :class:`~repro.session.Session` runs a subclass that is that layer;
:func:`repro.core.cost.measure` and
:func:`repro.core.verify.check_equivalence` run this class as is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterator, List, NamedTuple, NoReturn, Optional, Sequence, Tuple,
)

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
#: How deep a recorded activation nests below its document: the tree,
#: each call, each call's parameters.  A replay starting deeper would
#: skip the depth check that firing the calls there fails.
_RECORDED_NESTING = 3

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


class _FiredCall(NamedTuple):
    """One call a recorded activation fired, with what it cost."""

    provider: str
    service: str
    #: the parsed module of the service's query
    module: object
    #: the parameters the provider received
    params: Tuple[Element, ...]
    #: the CALL message, and one RESULT message per response
    call: Message
    sent: Tuple[Message, ...]
    #: the query memo's results tuple the call was answered from
    results: tuple
    #: what replaced the ``sc`` node in the value
    responses: Tuple[Element, ...]


class _Transcript(NamedTuple):
    """A stored document's activation: its calls in document order and
    the value built from their responses (see
    :meth:`ExpressionEvaluator._activate_document`)."""

    tree: Element
    calls: Tuple[_FiredCall, ...]
    value: Element


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


# -- E's refusals: one check per precondition of the definitions.  The
# evaluator applies each where it reaches it, and repro.core.cost's lower
# bound refuses through the same checks, so the two walks raise alike.


def live_peer(system: AXMLSystem, peer_id: str, role: str, homed=None) -> Peer:
    """``system.peer(peer_id)``, refused with :class:`PeerDownError` once the
    peer has left.  ``role`` is what it is to the definition or, with
    ``homed`` (a document's name, or a :class:`QueryRef`, described only
    in the refusal), what is homed there."""
    peer = system.peer(peer_id)
    if not peer.alive:
        if homed is None:
            raise PeerDownError(f"{role} {peer_id!r} has left the system")
        what = homed if type(homed) is str else homed.describe()
        raise PeerDownError(f"{role} {what!r} is homed on dead peer {peer_id!r}")
    return peer


def called_service(lookup: Callable, name: str, provider_id: str):
    """``lookup(name)`` on a call's provider (its ``service``, or the
    read-only ``declared_service``), refused when it declares no ``name``."""
    try:
        return lookup(name)
    except UnknownServiceError:
        raise ServiceCallError(
            f"service {name!r} not found on peer {provider_id!r}"
        ) from None


def applied_query(service, generic: str) -> Query:
    """The query of ``service``, which the apply head ``generic@any`` named."""
    if not isinstance(service, DeclarativeService):
        raise ExpressionError(
            f"generic service {generic!r} resolved to a "
            "non-declarative implementation; cannot apply as a query"
        )
    return service.query


def sendable(payload: Expression, at: str) -> None:
    """"p2 cannot send something it doesn't have": a direct reference to
    data or a query homed elsewhere makes a send at ``at`` undefined."""
    kind = type(payload)
    if (kind is TreeExpr or kind is DocExpr) and payload.home != at:
        raise EvaluationUndefinedError(
            f"send at {at!r} of data homed at {payload.home!r} is undefined"
        )
    if kind is QueryRef and payload.home != at:
        raise EvaluationUndefinedError(
            f"send at {at!r} of a query defined at {payload.home!r} is undefined"
        )


def send_destination(system: AXMLSystem, dest, deploys: bool) -> Optional[Peer]:
    """The live peer a send delivers to, checked before anything ships; None
    for nodes (:meth:`ExpressionEvaluator._deliver_to_nodes` checks theirs)."""
    kind = type(dest)
    if kind is PeerDest or (kind is DocDest and not deploys):
        return live_peer(system, dest.peer, "destination")
    if deploys:  # definition (8) deploys a query at a peer
        raise ExpressionError("a query can only be sent to a peer destination")
    if kind is not NodesDest:
        raise ExpressionError(f"unknown destination {kind.__name__}")
    return None


def refuse_node(expr: Expression) -> NoReturn:
    """No definition evaluates ``expr``: it is not a node of E."""
    message = f"cannot evaluate {type(expr).__name__}"
    if isinstance(expr, GenericService):
        message = "a generic service can only appear as a call/apply head"
    raise ExpressionError(message) from None


def read_fragment(fragment, system: AXMLSystem, read: Callable):
    """``read(ref, live)`` of a fragment: ``ref`` is its generic class when
    replicated (the pick policy chooses), else its first live holder, and
    ``live`` every live holder.  With no copy left, in the catalog or in
    the registry (churn cleanup raced a retire), it refuses loudly rather
    than reassemble an incomplete document (a wrong answer)."""
    live = fragment.live_copies(system)
    if fragment.generic is None:
        ref: Expression = DocExpr(fragment.name, live[0])
    else:
        ref = GenericDoc(fragment.generic)
    try:
        return read(ref, live)
    except GenericResolutionError:
        raise FragmentUnavailableError(fragment.name, fragment.peers) from None


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
    #: One search's recorded activations, keyed by (home peer, document
    #: name, stored tree identity); set, with :attr:`memo`, only by
    #: :func:`repro.core.cost.measure`, from the search's
    #: :class:`~repro.core.cost.Simulations`.
    transcripts: Optional[Dict[tuple, _Transcript]] = None
    #: The fired calls of the activation being recorded (None in a slot
    #: spoils it), or None when nothing is recorded.
    _notes: Optional[List[Optional[_FiredCall]]] = None

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

        Under a search's :attr:`transcripts` (and the memo) the first
        activation of a frozen stored tree is recorded: per fired call,
        in document order, its messages, parameters and the memo entry
        that answered it, and the value.  A later candidate's twin
        replays it (:meth:`_replay`) instead of walking the tree, and
        the value is installed as here.  Only a plain shape is recorded:
        every call ``immediate`` or ``lazy``, without ``after=``, on a
        named provider, by a declarative service without a schema,
        under the default forward list, over plain parameters and
        returning plain responses, with no installed, deployed or
        delivered effect.  Anything else is simulated every time.
        """
        outcome = self._activation(home, name, tree, ready_at, depth)
        if len(outcome.items) == 1:
            outcome.items = [self._install(home, name, outcome.items[0])]
        return outcome

    def _activation(
        self, home: Peer, name: str, tree: Element, ready_at: float, depth: int
    ) -> EvalOutcome:
        """The value of ``name@home`` before it is installed: replayed,
        recorded or simulated (see :meth:`_activate_document`)."""
        here = home.peer_id
        transcripts = self.transcripts if self.memo is not None else None
        if transcripts is None:
            return self.eval(TreeExpr(tree, here), here, ready_at, depth + 1)
        key = (here, name, id(tree))
        transcript = transcripts.get(key)
        if transcript is not None:
            if depth + _RECORDED_NESTING <= _MAX_ACTIVATION_DEPTH:
                replayed = self._replay(transcript, ready_at)
                if replayed is not None:
                    return replayed
            return self.eval(TreeExpr(tree, here), here, ready_at, depth + 1)
        self._notes = notes = []
        try:
            outcome = self.eval(TreeExpr(tree, here), here, ready_at, depth + 1)
        finally:
            self._notes = None
        if (
            None not in notes
            and len(outcome.items) == 1
            and outcome.items[0].frozen  # it is handed to other twins
            and not (outcome.installed or outcome.deployed or outcome.delivered)
        ):
            # the entry holds the tree (frozen by the evaluation), so its
            # id cannot be handed out again
            transcripts[key] = _Transcript(tree, tuple(notes), outcome.items[0])
            self.memo.stats.activation_records += 1
        return outcome

    def _replay(
        self, transcript: _Transcript, ready_at: float
    ) -> Optional[EvalOutcome]:
        """``transcript`` played into this Σ from ``ready_at``, or None
        when it would not be what firing the calls gives here.

        First, without an effect: every call's service is still the
        recorded query, and the memo still answers it with the recorded
        entry (re-reading every ``doc()`` it read).  Then each call, in
        document order, sends the same messages and charges the same
        work through the seam as firing it does, so links, peers and
        statistics end up exactly as they would.  A part the seam loses
        is handed to :meth:`_lost`, as :meth:`_fire_call` does.
        """
        peers = self.system.peers
        recall = self.memo.recall
        for call in transcript.calls:
            provider = peers[call.provider]
            service = provider.services.get(call.service)
            if (
                not provider.alive
                or type(service) is not DeclarativeService
                or service.signature.schema is not None
                or service.query.module is not call.module
                or recall(service.query, [[p] for p in call.params], provider)
                is not call.results
            ):
                return None
        self.memo.stats.activation_replays += 1
        outcome = EvalOutcome(completed_at=ready_at)
        responses: List[Optional[Tuple[Element, ...]]] = []
        for call in transcript.calls:
            provider = peers[call.provider]
            service = provider.service(call.service)

            def serve(start: float) -> Tuple[None, float]:
                service.invocations += 1
                return None, provider.charge(service.work_units(call.params), start)

            try:
                arrival = self._call_provider(call.call, ready_at)
                _, done = self._on_cpu(
                    call.provider, f"service {call.service}", arrival, serve
                )
                last = done
                for message in call.sent:
                    last = max(last, self._deliver(message, done))
            except (FaultError, PeerDownError) as exc:
                self._lost(
                    "service", f"{call.service}@{call.provider}", (call.provider,), exc
                )
                responses.append(None)
                continue
            outcome.completed_at = max(outcome.completed_at, last)
            responses.append(call.responses)
        value: Optional[Element] = transcript.value
        if None in responses:  # a call was lost: its node drops out
            tree = transcript.tree
            value = build_tree(
                "activated",
                (tree, tuple(responses)),
                lambda: _activated(tree, iter(responses)),
                self.memo,
            )
        outcome.items = [value] if value is not None else []
        return outcome

    def _install(self, home: Peer, name: str, value: Element) -> Element:
        """``home.install_document(name, value, replace=True)``.

        Not a seam primitive: every body of :meth:`_activate_document`
        installs through it.  The oracle's memo keeps the installed
        form under the value, the peer and the serial its ids start from
        — all it depends on: a copy of the frozen value whose id-less
        nodes are numbered from that serial.  A hit stores that document
        and advances the allocator exactly as installing would.

        Either way the stored document changed, as a write changes it:
        its epoch, and that of every generic class it belongs to, is
        bumped, so plans and estimates priced over its calls stop
        matching (:func:`~repro.core.planspace.doc_epoch_signature`).
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
        system = self.system
        system.bump_doc_epoch(name)
        for generic in system.registry.document_classes(name, home.peer_id):
            system.bump_doc_epoch(generic)
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
        live_peer(self.system, at, "evaluation site")
        definition = _DEFINITIONS.get(type(expr))
        if definition is None:
            refuse_node(expr)
        return getattr(self, definition)(expr, at, ready_at, _depth)

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
                items=_as_forest((tree,), self.system.peer(at))[0],
                completed_at=ready_at,
            )
        # embedded calls: fire them via (6), then build the value from the
        # tree and their responses (once, under the oracle's memo).  The
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
        if self._notes is not None and (
            call.mode == ActivationMode.MANUAL or call.after is not None
        ):
            self._notes.append(None)  # activation control: not recorded
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
            if self._notes is not None:
                self._notes.append(None)  # a lost call is not recorded
            return None
        outcome.merge_effects(sub)
        outcome.completed_at = max(outcome.completed_at, sub.completed_at)
        responses.append(None if call.forwards else tuple(sub.items))
        return sub.completed_at

    # -- documents ----------------------------------------------------------------
    def _eval_doc(
        self, expr: DocExpr, at: str, ready_at: float, depth: int
    ) -> EvalOutcome:
        home = live_peer(self.system, expr.home, "document", expr.name)
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

        Under the oracle's memo the reassembled document is built once:
        it is keyed by the name, the catalog's root and the identities of
        the fragment trees that arrived, in order — stored fragments and
        the frozen trees shipped from them, the same objects in every
        candidate's clone of Σ, and in every later search until a write
        replaces one.  That is sound because the value is a pure function
        of them: that root over copies of their children.
        """
        info = self.system.fragments.info(expr.name)
        outcome = EvalOutcome(completed_at=ready_at)
        parts: List[Element] = []
        for fragment in info.fragments:
            try:
                sub = read_fragment(fragment, self.system, lambda ref, live: (
                    self._read_fragment(fragment, ref, live, at, ready_at, depth)
                ))
            except (FaultError, FragmentUnavailableError, PeerDownError) as exc:
                self._lost("fragment", fragment.name, fragment.peers, exc)
                continue  # tolerated: reassemble what did arrive
            outcome.merge_effects(sub)
            outcome.completed_at = max(outcome.completed_at, sub.completed_at)
            parts.extend(sub.items)
        outcome.items = [
            build_tree(
                "reassembled",
                (expr.name, info.root_tag, info.root_attrs, tuple(parts)),
                lambda: _reassembled(info, parts),
                self.memo,
            )
        ]
        return outcome

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
        live_peer(self.system, expr.home, "query", expr)
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
        bound: dict = {}
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
        outcome.items = _as_forest(result, peer)[0]
        outcome.completed_at = done
        return outcome

    def _resolve_apply_head(
        self, head, at: str, ready_at: float
    ) -> Tuple[Query, float]:
        if isinstance(head, GenericService):
            member = self._pick("pick_service", head.name, at)
            service = self.system.peer(member.peer).service(member.name)
            head = QueryRef(applied_query(service, head.name), member.peer)
        assert isinstance(head, QueryRef)
        # definition (7): the defining peer ships the query text here.
        return head.query, self._eval_query_ref(head, at, ready_at, 0).completed_at

    # -- definition (6): service calls ------------------------------------------------
    def _eval_service_call(
        self, expr: ServiceCallExpr, at: str, ready_at: float, depth: int
    ) -> EvalOutcome:
        notes = self._notes
        if notes is not None:
            noted = len(notes)
        provider_id = expr.provider
        if provider_id == ANY:
            member = self._pick("pick_service", expr.service, at)
            provider_id = member.peer
            service_name = member.name
        else:
            service_name = expr.service
        provider = live_peer(self.system, provider_id, "service provider")
        service = called_service(provider.service, service_name, provider_id)

        outcome = EvalOutcome()
        caller = self.system.peer(at)
        param_values: List[Element] = []
        bound: dict = {}
        latest = ready_at
        for param in expr.params:
            sub = self.eval(param, at, ready_at, depth + 1)
            outcome.merge_effects(sub)
            latest = max(latest, sub.completed_at)
            param_values.extend(_unaliased(sub.items, bound, caller))
        # the CALL hands each parameter on to a remote provider, where a
        # parameter that is one of its stored documents arrives a copy
        param_values, payload = _as_forest(
            param_values, provider if provider_id != at else None
        )

        # ship parameters to the provider (one CALL message)
        call_message = Message(
            src=at,
            dst=provider_id,
            kind=MessageKind.CALL,
            payload_bytes=payload,
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
            if not response.has_service_calls():
                # plain data: its own value, as evaluating it would give
                settled += _as_forest((response,), provider)[0]
                continue
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
            if notes is not None:
                notes.append(None)  # forwarded: not recorded
            return outcome

        # default: results return to the caller (siblings of the sc node).
        last = done
        sent: List[Message] = []
        if provider_id != at:
            sent = [
                Message(
                    src=provider_id,
                    dst=at,
                    kind=MessageKind.RESULT,
                    payload_bytes=response.serialized_size(),
                )
                for response in settled
            ]
            for message in sent:
                last = max(last, self._deliver(message, done))
        outcome.items = _as_forest(settled, caller)[0]
        outcome.completed_at = last
        if notes is not None:
            # a call is recorded only if nothing nested in it fired (its
            # parameters and responses are plain data)
            results = None
            if (
                len(notes) == noted
                and expr.provider != ANY
                and type(service) is DeclarativeService
                and service.signature.schema is None
            ):
                results = self.memo.recall(
                    service.query, [[p] for p in param_values], provider
                )
            notes.append(
                None
                if results is None
                else _FiredCall(
                    provider_id,
                    service_name,
                    service.query.module,
                    tuple(param_values),
                    call_message,
                    tuple(sent),
                    results,
                    tuple(outcome.items),
                )
            )
        return outcome

    # -- definitions (3), (4), (8): send -------------------------------------------------
    def _eval_send(
        self, expr: Send, at: str, ready_at: float, depth: int
    ) -> EvalOutcome:
        payload = expr.payload
        sendable(payload, at)
        inner = self.eval(payload, at, ready_at, depth + 1)
        outcome = EvalOutcome(completed_at=inner.completed_at)
        outcome.merge_effects(inner)

        dest = expr.dest
        deploys = inner.query is not None and not inner.items
        peer = send_destination(self.system, dest, deploys)
        if deploys:
            return self._deploy_query(inner, at, peer, outcome)

        clock = inner.completed_at
        relay_from = at
        # rule (12) relays: explicit intermediary stops, store-and-forward.
        size = _as_forest(inner.items)[1]
        for hop in expr.via:
            live_peer(self.system, hop, "relay")
            message = Message(relay_from, hop, MessageKind.DATA, size)
            clock = self._deliver(message, clock)
            relay_from = hop

        if isinstance(dest, PeerDest):
            message = Message(relay_from, dest.peer, MessageKind.DATA, size)
            clock = self._deliver(message, clock)
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
            peer.install_document(dest.name, root)
            outcome.installed.append((dest.name, dest.peer))
        else:
            clock = self._deliver_to_nodes(
                relay_from, dest.nodes, inner.items, clock, outcome
            )
        outcome.completed_at = clock
        outcome.items = []  # definition (3): ∅ at the sender
        return outcome

    def _deploy_query(
        self, inner: EvalOutcome, at: str, target: Peer, outcome: EvalOutcome
    ) -> EvalOutcome:
        # definition (8): deploy the query as a new service at the target.
        query = inner.query
        clock = self._ship_items(inner, at, target.peer_id).completed_at
        # The paper names the deployed service send_{p→p'}(q); we use a
        # fresh concrete name with the same flavour.
        self._deploy_counter += 1
        name = query.name or "q"
        service_name = f"sent-{name}-{self._deploy_counter}"
        target.install_service(
            DeclarativeService(service_name, query.copy(service_name))
        )
        outcome.deployed.append((service_name, target.peer_id))
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
        items, size = _as_forest(outcome.items, self.system.peer(dst))
        if src == dst or (not items and query is None):
            arrival = ready_at  # nothing crosses the network
        elif not items:
            message = Message(src, dst, MessageKind.QUERY, query.source_bytes)
            arrival = self._deliver(message, ready_at)
        else:
            message = Message(src, dst, MessageKind.DATA, size)
            arrival = self._deliver(message, ready_at)
            query = None  # a forest ships as data alone
        shipped = EvalOutcome(items=items, query=query, completed_at=arrival)
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
        returns the last arrival.  Every target's peer is live first."""
        for target in targets:
            live_peer(self.system, target.peer, "target peer")
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


def _unaliased(items: List[Element], bound: dict, site: Peer) -> List[Element]:
    """``items`` bound as one more argument of one apply or call at ``site``.

    A tree already in ``bound`` (what earlier arguments bound) is bound
    again as a copy: two bindings of one shipped tree used to be two
    copies, and ``is`` and ``|`` tell them apart.  A stored document of
    ``site`` read twice was always one tree and stays one.
    """
    forest = [*items]
    stored = site.documents.values()
    index = 0
    for item in forest:
        if item in bound and item not in stored:
            item = forest[index] = item.copy()
        bound[item] = None
        index += 1
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


def _as_forest(
    items: Sequence, site: Optional[Peer] = None
) -> Tuple[List[Element], int]:
    """``items`` as a forest arriving at ``site``, and the bytes it weighs.

    One loop: an atomic query result becomes a ``<value>`` tree, and an
    element is handed on by reference, its root frozen, except where
    sharing would be observable: a node inside a larger tree (its ``..``
    axes must not reach the source) and a stored document of ``site``
    (``doc()`` there must not be ``is``-identical to a value that
    arrived, e.g. after a round trip) are copied.  Without a ``site``
    elements stay as they are.  The size sums each item's cached
    ``serialized_size()`` as given.
    """
    forest = [*items]
    stored = site.documents.values() if site is not None else None
    size = 0
    index = 0
    for item in forest:
        if type(item) is not Element and not isinstance(item, Element):
            item = forest[index] = _value_tree(item)
        elif stored is not None:
            if item.parent is not None or item in stored:
                forest[index] = item.copy()
            else:
                item._frozen = True  # a root: nothing above it to walk to
        cached = item._size_cache
        size += cached if cached is not None else item.serialized_size()
        index += 1
    return forest, size


def _forest_to_document(items: List[Element], name: str) -> Element:
    """A forest arriving as a document: single root kept, else wrapped."""
    if len(items) == 1:
        return items[0].copy()
    root = Element("received")
    for item in items:
        root.append(item.copy())
    return root
