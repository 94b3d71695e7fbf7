"""Cost model for plans: measured (oracle) and estimated (static).

Two interchangeable cost functions drive the optimizer:

* :func:`measure` — clone Σ, actually evaluate the plan with the
  definitional evaluator, read the network statistics and the virtual
  completion time.  Exact by construction, and the clone is cheap:
  document trees are shared with Σ, not copied
  (:meth:`AXMLSystem.clone <repro.peers.system.AXMLSystem.clone>`).
  This is the reference the estimator is validated against, and, for
  the plan a search picks, the execution a session reports
  (:class:`Simulation`).
* :func:`lower_bound` — one walk of the expression that charges only
  what :func:`measure` certainly charges: a provable lower bound on
  its bytes, messages and time, which the oracle search prices before
  it simulates (:class:`~repro.core.costmodel.OracleCostModel`).
* :class:`CostEstimator` — a static model walking the expression:
  document sizes come from Σ, link costs from the topology.  No plan is
  evaluated.  A service call is priced by running *the call* once with
  the same evaluator (a call sample), and a query application by running
  *the query* once on its materialized arguments (an apply sample), so
  neither has a second spelling; what cannot be sampled keeps
  :data:`DEFAULT_SELECTIVITY` of its input.  The ``cost-model`` sweep
  bounds what is left of the error.

The scalar ordering combines completion time with a per-byte tax so that
plans tying on time are separated by traffic (the paper's experiments
talk about both shipped volume and response time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

from ..errors import DuplicateNameError, NoRouteError, ReproError, UnknownPeerError
from ..net.message import Message, wire_size
from ..peers.registry import FirstPolicy, NearestPolicy
from ..peers.service import DeclarativeService, QueryMemo, _doc_references
from ..peers.system import AXMLSystem
from ..xmlcore.model import Element, tree_size
from .evaluator import (
    EvalOutcome,
    ExpressionEvaluator,
    _as_forest,
    applied_query,
    called_service,
    live_peer,
    read_fragment,
    refuse_node,
    send_destination,
    sendable,
)
from .planspace import PlanCache, doc_epoch_signature
from .expressions import (
    ANY,
    DocDest,
    DocExpr,
    EvalAt,
    Expression,
    FragmentedDoc,
    Gather,
    GenericDoc,
    NodesDest,
    PeerDest,
    QueryApply,
    QueryRef,
    Send,
    Seq,
    ServiceCallExpr,
    TreeExpr,
)
from .rules import Plan
from .serialize import expression_fingerprint, expression_size

__all__ = [
    "Cost", "measure", "lower_bound", "Simulation", "Simulations", "CostEstimator",
]

#: Fraction of its input an application that cannot be sampled is
#: assumed to return (also the size of a call over computed parameters).
DEFAULT_SELECTIVITY = 0.25


def _default_output_bytes(input_bytes: int) -> int:
    return max(1, int(input_bytes * DEFAULT_SELECTIVITY))


@dataclass(frozen=True)
class Cost:
    """What a plan costs: bytes moved, messages sent, completion time."""

    bytes: int
    messages: int
    time: float

    #: weight of one shipped byte, in seconds, for scalarization; chosen
    #: so a megabyte of avoidable traffic outweighs a few milliseconds.
    BYTE_WEIGHT = 2e-7

    def scalar(self) -> float:
        """Total order used by the optimizer (lower is better)."""
        return self.time + self.bytes * self.BYTE_WEIGHT

    def __lt__(self, other: "Cost") -> bool:
        return self.scalar() < other.scalar()

    def describe(self) -> str:
        return f"{self.bytes}B / {self.messages} msgs / {self.time * 1000:.2f}ms"


def measure(
    plan: Plan,
    system: AXMLSystem,
    pick_policy=None,
    memo: Optional[QueryMemo] = None,
    simulations: Optional[Simulations] = None,
) -> Cost:
    """Oracle cost: evaluate on a clone of Σ, return the real accounting.

    ``system`` is left as it was — documents, read counters, clocks and
    network statistics: the clone shares its trees (frozen) and the
    evaluation copies what it changes.  ``memo`` is the plan cache's
    :class:`~repro.peers.service.QueryMemo`: the simulation is complete
    either way — every message, byte and work unit — but a query already
    evaluated over the same content is not run again.  The run itself is
    offered to the running search's ``simulations``: if ``plan`` is the
    search's pick, a session executes it by this run instead
    of evaluating it a second time.  With both, the evaluator also gets
    the search's transcripts: a stored AXML document an earlier
    candidate activated is replayed into this twin, message by message
    and charge by charge, instead of firing its calls again
    (:meth:`ExpressionEvaluator._activate_document
    <repro.core.evaluator.ExpressionEvaluator._activate_document>`).
    """
    twin = system.clone()
    evaluator = ExpressionEvaluator(twin, pick_policy)
    evaluator.memo = memo
    if simulations is not None:
        evaluator.transcripts = simulations.transcripts
    outcome = evaluator.eval(plan.expr, plan.site)
    stats = twin.network.stats
    cost = Cost(stats.bytes, stats.messages, outcome.completed_at)
    if simulations is not None:
        simulations.offer(plan, cost.scalar(), Simulation(outcome, twin))
    return cost


class Simulation(NamedTuple):
    """One oracle run of a plan: what :func:`measure` priced it from.

    The same as executing the plan with the bare evaluator on a clone of
    Σ — same value, completion time, network and per-peer statistics —
    except that answer items the oracle's memo produced are frozen.
    """

    outcome: EvalOutcome
    #: the clone of Σ the run mutated
    system: AXMLSystem


class Simulations:
    """One search's cheapest oracle runs; they go with the search.

    Every :func:`measure` of the search is :meth:`offer`-ed, and
    :attr:`winners` holds the plans at the lowest cost seen so far, each
    with the run that priced it, so the search's pick can be executed by
    its simulation (:meth:`simulation`) instead of a second evaluation.
    The rest are dropped as soon as something cheaper is offered.  Each
    run holds its clone of Σ, so ``Optimizer.optimize_with`` creates one
    of these per search and drops it on the way out: no twin outlives
    its search.

    :attr:`transcripts` goes with the search too: the first activation
    of each stored AXML document, recorded by one candidate's run and
    replayed into every later candidate's twin.  Its keys name stored
    trees by identity, which is exact only while Σ is the one the
    search started from, so it must never outlive the search.
    """

    def __init__(self) -> None:
        #: (plan, simulation) for every plan offered at ``_winning``
        self.winners: List[tuple] = []
        #: the lowest cost scalar offered so far
        self._winning = math.inf
        #: (home peer, document name, tree identity) -> recorded
        #: activation (see :func:`measure`)
        self.transcripts: dict = {}

    def offer(self, plan: Plan, scalar: float, simulation: Simulation) -> None:
        """Keep ``simulation`` of ``plan`` while no cheaper plan is offered.

        ``scalar`` is the plan's ``Cost.scalar()``.  Plans are matched by
        identity (:meth:`simulation`), so nothing is fingerprinted here.
        """
        if scalar < self._winning:
            self._winning = scalar
            self.winners = [(plan, simulation)]
        elif scalar == self._winning:
            self.winners.append((plan, simulation))

    def simulation(self, plan: Plan) -> Optional[Simulation]:
        """What :meth:`offer` kept for this very ``plan`` object, or None."""
        for offered, simulation in self.winners:
            if offered is plan:
                return simulation
        return None


def lower_bound(
    plan: Plan,
    system: AXMLSystem,
    memo: Optional[QueryMemo] = None,
    transcripts: Optional[dict] = None,
    pick_policy=None,
) -> Cost:
    """A cost no greater, field by field, than what :func:`measure` charges.

    One walk of ``plan.expr`` in the evaluator's order; nothing is
    cloned or simulated, and ``system`` is only read (a query the walk
    evaluates is stored in ``memo``, as a simulation would store it).
    Bytes and messages count only messages the run certainly sends at an
    exactly known ``wire_size``: stored documents and tree literals at
    their cached ``serialized_size``, query text (``source_bytes``),
    shipped code (``expression_size``), a query result ``memo`` holds or
    computes — ``memo`` and ``transcripts`` are the ones the search's
    simulations use — and a stored AXML document's activation where
    ``transcripts`` holds it and its replay's preconditions hold.  Time
    is the critical path over idle links: per hop latency plus size over
    bandwidth, the slowest of parallel parts, no compute.  Each hop is
    computed as :meth:`~repro.net.network.Network.deliver` computes it,
    from an instant no later than the run's, so the rounding of every
    sum is no greater either.

    What the walk cannot know — a value some service call returns, a
    replica a stateful pick policy chooses — counts 0, and so does
    every message whose size depends on it (its latency still counts
    where the message itself is certain).  After an effect it cannot
    follow, such as calls fired with no transcript, it reads no stored
    document again.  Where the run is certain to reach a refusal, the
    walk refuses through the evaluator's own checks (its module's *E's
    refusals*, ``Peer.document``), with the run's type and message; a
    missing route raises as the network does.  Its one refusal of its
    own is a document destination whose name is taken, maybe by the
    walk itself (in the run, ``Peer.install_document`` refuses it).
    """
    walk = _Bound(system, memo, transcripts, pick_policy)
    live_peer(system, plan.site, "evaluation site")
    clock = walk.visit(plan.expr, plan.site, 0.0)[3]
    return Cost(walk.bytes, walk.messages, clock)


#: A value of unknown size holding at least one tree (a size of ``None``
#: is unknown, and may be empty).
_SOME = -1

#: Bytes a message carries beside its payload when it has no headers.
_ENVELOPE = Message.ENVELOPE_OVERHEAD

#: Pick policies whose choice depends on the topology and registry
#: alone, so the walk may pick as the run will.
_STATIC_POLICIES = (type(None), FirstPolicy, NearestPolicy)


class _Everything:
    """Every document name: what a peer's changes are once unknown."""

    def __contains__(self, name: object) -> bool:
        return True


_EVERYTHING = _Everything()


def _joined(a: Optional[int], b: Optional[int]) -> Optional[int]:
    """The size of two values side by side (see :data:`_SOME`)."""
    if a is None or b is None:
        return _SOME if (a or b) else None
    if a == _SOME or b == _SOME:
        return _SOME
    return a + b


class _Bound:
    """The state of one :func:`lower_bound` walk.

    Each ``_visit_*`` method mirrors the evaluator's definition for its
    node and returns ``(size, items, query, clock)``: the value's
    serialized size (``None`` or :data:`_SOME` when unknown), the very
    trees the run hands on or ``None`` when their identity is unknown,
    the query of a query value, and an instant no later than the one the
    run completes at.  A query value has size 0 and no trees.
    """

    def __init__(self, system: AXMLSystem, memo, transcripts, pick_policy) -> None:
        self.system = system
        self.peers = system.peers
        self.hop_qualities = system.network.hop_qualities
        self.memo = memo
        self.transcripts = transcripts if memo is not None else None
        self.pick_policy = pick_policy
        self.static_picks = type(pick_policy) in _STATIC_POLICIES
        self.bytes = 0
        self.messages = 0
        #: peer -> names of its documents the run has changed so far
        #: (:data:`_EVERYTHING` when unknown)
        self.changed: dict = {}
        #: (peer, name) -> (size, trees) of a changed document whose new
        #: form is known, plain data
        self.stored: dict = {}
        #: an effect the walk could not follow happened: any stored
        #: document may have changed
        self.blind = False
        #: a service was deployed, so a service name may now resolve
        self.deployed = False

    # -- helpers ---------------------------------------------------------------
    def visit(self, expr: Expression, at: str, clock: float) -> tuple:
        try:
            method = _VISITS[type(expr)]
        except KeyError:
            refuse_node(expr)
        return method(self, expr, at, clock)

    def changes(self, peer_id: str):
        """Names of ``peer_id``'s documents the run may have changed, or None."""
        if self.blind:
            return _EVERYTHING
        return self.changed.get(peer_id)

    def change(self, peer_id: str, name: Optional[str] = None) -> None:
        """The run changed document ``name`` of ``peer_id`` (None: any)."""
        names = self.changed.get(peer_id)
        if name is None:
            self.changed[peer_id] = _EVERYTHING
        elif names is None:
            self.changed[peer_id] = {name}
        elif names is not _EVERYTHING:
            names.add(name)

    def send(self, src: str, dst: str, size: Optional[int], clock: float) -> float:
        """One certain message of ``size`` wire bytes (None: unknown,
        charged as empty and not counted) ready at ``clock``; its arrival."""
        if src == dst:
            return clock
        hops = self.hop_qualities[src, dst]
        if size is None:
            for latency, _ in hops:
                clock = clock + latency
            return clock
        self.bytes += size
        self.messages += 1
        for latency, bandwidth in hops:
            clock = clock + size / bandwidth + latency
        return clock

    def arrived(self, items: Optional[list], at: str) -> Optional[list]:
        """``items`` as :func:`~repro.core.evaluator._as_forest` hands them
        to ``at``, or None where it would copy one (a new identity)."""
        if not items:
            return items
        if at in self.changed:
            return None
        stored = self.peers[at].documents.values()
        for item in items:
            if item.parent is not None or item in stored:
                return None
        return items

    def ship(self, value: tuple, src: str, dst: str) -> tuple:
        """``_ship_items``: a settled value from ``src`` to ``dst``."""
        size, items, query, clock = value
        if query is not None:
            if src != dst:
                clock = self.send(src, dst, query.source_bytes + _ENVELOPE, clock)
            return value[:3] + (clock,)
        items = self.arrived(items, dst)
        if src == dst or not size:  # the same site, or possibly nothing
            return (size, items, None, clock)
        wire = None if size == _SOME else size + _ENVELOPE
        return (size, items, None, self.send(src, dst, wire, clock))

    def bind(self, items: list, bound: dict, site) -> Optional[list]:
        """``_unaliased``: None where the run would bind a copy."""
        if items and site.peer_id in self.changed:
            return None
        stored = site.documents.values()
        for item in items:
            if item in bound and item not in stored:
                return None
            bound[item] = None
        return items

    # -- documents ---------------------------------------------------------------
    def read(self, name: str, home: str, at: str, clock: float) -> tuple:
        """``name@home`` evaluated at ``at`` (``_eval_doc``)."""
        peer = live_peer(self.system, home, "document", name)
        changes = self.changes(home)
        if changes is not None and name in changes:
            known = None if self.blind else self.stored.get((home, name))
            if known is None:
                self.blind = True  # it may embed calls by now
                value = (None, None, None, clock)
            else:
                value = (known[0], known[1], None, clock)
        else:
            tree = peer.document(name)
            if tree.has_service_calls():
                value = self.activate(peer, name, tree, clock)
            else:
                value = (tree.serialized_size(), [tree], None, clock)
        if at == home:
            return value
        return self.ship(value, home, at)

    def activate(self, peer, name: str, tree: Element, clock: float) -> tuple:
        """``_activate_document``: the replay of this search's transcript
        of the document, when the run will replay it."""
        home = peer.peer_id
        transcripts = self.transcripts
        transcript = (
            transcripts.get((home, name, id(tree))) if transcripts is not None else None
        )
        if transcript is None or not self.replays(transcript):
            self.blind = True
            return (None if tree.is_service_call() else _SOME, None, None, clock)
        finished = clock
        for call in transcript.calls:
            message = call.call
            arrival = self.send(message.src, message.dst, message.size, clock)
            if arrival > finished:
                finished = arrival
            for message in call.sent:
                done = self.send(message.src, message.dst, message.size, arrival)
                if done > finished:
                    finished = done
        value = transcript.value
        installed = None
        if home not in self.changed:
            # what ``_install`` built: the stored form and the next serial
            installed = self.memo.peek(
                "installed", (value, home, peer.allocator.next_serial)
            )
        known = self.stored[home, name] = (
            value.serialized_size(),
            [installed[0]] if installed is not None else None,
        )
        self.change(home, name)
        return (known[0], known[1], None, finished)

    def replays(self, transcript) -> bool:
        """``_replay``'s preconditions, on this run's Σ as far as known."""
        peers = self.peers
        foresee = self.memo.foresee
        for call in transcript.calls:
            provider = peers[call.provider]
            service = provider.services.get(call.service)
            if (
                not provider.alive
                or type(service) is not DeclarativeService
                or service.signature.schema is not None
                or service.query.module is not call.module
            ):
                return False
            args = []
            for param in call.params:
                args.append([param])
            if (
                foresee(service.query, args, provider, self.changes(call.provider))
                is not call.results
            ):
                return False
        return True

    def pick(self, kind: str, name: str, at: str):
        """The registry's pick, or None when the policy may choose
        otherwise in the run; raises when no member is live."""
        registry = self.system.registry
        pick = getattr(registry, kind)
        if self.static_picks:
            return pick(name, at, self.system, self.pick_policy)
        pick(name, at, self.system, None)  # raises as the run would
        return None

    # -- definitions ---------------------------------------------------------------
    def _visit_tree(self, expr: TreeExpr, at: str, clock: float) -> tuple:
        home = expr.home
        if at != home:
            live_peer(self.system, home, "evaluation site")
            return self.ship(self._visit_tree(expr, home, clock), home, at)
        tree = expr.tree
        if tree.has_service_calls():
            self.blind = True
            return (None if tree.is_service_call() else _SOME, None, None, clock)
        return (tree.serialized_size(), self.arrived([tree], at), None, clock)

    def _visit_doc(self, expr: DocExpr, at: str, clock: float) -> tuple:
        return self.read(expr.name, expr.home, at, clock)

    def _visit_generic_doc(self, expr: GenericDoc, at: str, clock: float) -> tuple:
        member = self.pick("pick_document", expr.name, at)  # definition (9)
        if member is None:
            self.blind = True  # whichever copy is read may embed calls
            return (None, None, None, clock)
        return self.read(member.name, member.peer, at, clock)

    def _visit_fragmented_doc(
        self, expr: FragmentedDoc, at: str, clock: float
    ) -> tuple:
        info = self.system.fragments.info(expr.name)
        finished = clock
        parts: Optional[list] = []
        for fragment in info.fragments:
            part = read_fragment(
                fragment, self.system, lambda ref, live: self.visit(ref, at, clock)
            )
            if part[3] > finished:
                finished = part[3]
            if parts is not None:
                parts = None if part[1] is None else parts + part[1]
        whole = None
        if parts is not None and self.memo is not None:
            whole = self.memo.peek(
                "reassembled",
                (expr.name, info.root_tag, info.root_attrs, tuple(parts)),
            )
        if whole is None:
            return (_SOME, None, None, finished)
        return (whole.serialized_size(), [whole], None, finished)

    def _visit_gather(self, expr: Gather, at: str, clock: float) -> tuple:
        finished = clock
        size: Optional[int] = 0
        items: Optional[list] = []
        for part in expr.parts:
            part_size, part_items, _, done = self.visit(part, at, clock)
            if done > finished:
                finished = done
            size = _joined(size, part_size)
            items = None if items is None or part_items is None else items + part_items
        return (size, items, None, finished)

    def _visit_query_ref(self, expr: QueryRef, at: str, clock: float) -> tuple:
        if at != expr.home:
            live_peer(self.system, expr.home, "query", expr)
            clock = self.send(
                expr.home, at, expr.query.source_bytes + _ENVELOPE, clock
            )
        return (0, [], expr.query, clock)

    def _visit_apply(self, expr: QueryApply, at: str, clock: float) -> tuple:
        head = expr.query
        query = None
        if type(head) is QueryRef:
            query = head.query
            ready = self._visit_query_ref(head, at, clock)[3]
        else:  # definition (9): the picked member's query ships here
            member = self.pick("pick_service", head.name, at)
            provider = None if member is None else self.system.peer(member.peer)
            ready = clock
            # once the walk deployed a service, a missing name may resolve
            if provider is not None and (
                not self.deployed or member.name in provider.services
            ):
                query = applied_query(provider.declared_service(member.name), head.name)
                ready = self.send(
                    member.peer, at, query.source_bytes + _ENVELOPE, clock
                )
        site = self.peers[at]
        args: Optional[list] = []
        bound: dict = {}
        latest = ready
        for arg in expr.args:
            _, items, _, done = self.visit(arg, at, clock)
            if done > latest:
                latest = done
            if args is not None:
                items = None if items is None else self.bind(items, bound, site)
                if items is None:
                    args = None
                else:
                    args.append(items)
        if query is None or args is None or self.memo is None:
            return (None, None, None, latest)
        changes = self.changes(at)
        results = self.memo.foresee(query, args, site, changes, evaluate=True)
        if results is None:
            return (None, None, None, latest)
        items, size = _as_forest(results, site)
        return (size, items, None, latest)

    def _visit_service_call(
        self, expr: ServiceCallExpr, at: str, clock: float
    ) -> tuple:
        provider_id, name = expr.provider, expr.service
        if provider_id == ANY:
            member = self.pick("pick_service", name, at)
            provider_id = None if member is None else member.peer
            name = None if member is None else member.name
        if provider_id is not None:
            provider = live_peer(self.system, provider_id, "service provider")
            if not self.deployed:  # else a deployed service may answer
                called_service(provider.declared_service, name, provider_id)
        latest = clock
        payload: Optional[int] = 0
        for param in expr.params:
            size, _, _, done = self.visit(param, at, clock)
            if done > latest:
                latest = done
            payload = _joined(payload, size)
        # the responses are unknown: they may embed calls, and forward
        # lists deliver anywhere
        self.blind = True
        if provider_id is None:
            return (None, None, None, latest)
        wire = None
        if payload is not None and payload != _SOME:
            wire = wire_size(payload, {"service": name})
        return (None, None, None, self.send(at, provider_id, wire, latest))

    def _visit_send(self, expr: Send, at: str, clock: float) -> tuple:
        payload = expr.payload
        sendable(payload, at)
        size, items, query, clock = self.visit(payload, at, clock)
        dest = expr.dest
        peer = send_destination(self.system, dest, query is not None)
        if query is not None:
            # definition (8): the query is deployed as a service there
            clock = self.ship((size, items, query, clock), at, dest.peer)[3]
            self.deployed = True
            return (0, [], None, clock)
        wire = None if size is None or size == _SOME else size + _ENVELOPE
        relay = at
        for hop in expr.via:
            live_peer(self.system, hop, "relay")
            clock = self.send(relay, hop, wire, clock)
            relay = hop
        dest_kind = type(dest)
        if dest_kind is PeerDest:
            clock = self.send(relay, dest.peer, wire, clock)
            self.change(dest.peer)
        elif dest_kind is DocDest:
            installed = self.changed.get(dest.peer)  # names that exist by now
            if dest.name in peer.documents or (
                installed is not None
                and installed is not _EVERYTHING
                and dest.name in installed
            ):
                raise DuplicateNameError(
                    f"document {dest.name!r} already exists on peer {dest.peer!r}"
                )
            if wire is not None:
                wire = wire_size(size, {"doc": dest.name})
            clock = self.send(relay, dest.peer, wire, clock)
            if (
                items is not None
                and len(items) == 1
                and not items[0].has_service_calls()
            ):
                self.stored[dest.peer, dest.name] = (size, None)
            self.change(dest.peer, dest.name)
        else:
            for target in dest.nodes:
                live_peer(self.system, target.peer, "target peer")
            finished = clock
            for target in dest.nodes:
                headers = {"target": str(target)}
                if items is not None:
                    sizes = [wire_size(item.serialized_size(), headers) for item in items]
                else:
                    sizes = [None] if size else []
                for item_wire in sizes:
                    done = self.send(relay, target.peer, item_wire, clock)
                    if done > finished:
                        finished = done
                self.change(target.peer)
            clock = finished
        return (0, [], None, clock)

    def _visit_eval_at(self, expr: EvalAt, at: str, clock: float) -> tuple:
        peer = expr.peer
        if peer == at:
            return self.visit(expr.expr, at, clock)
        live_peer(self.system, peer, "evaluation site")
        clock = self.send(at, peer, expression_size(expr.expr) + _ENVELOPE, clock)
        remote = self.visit(expr.expr, peer, clock)
        if remote[0] == 0 and remote[2] is None:
            return remote  # pure side effects: nothing ships back
        return self.ship(remote, peer, at)

    def _visit_seq(self, expr: Seq, at: str, clock: float) -> tuple:
        for step in expr.steps:
            value = self.visit(step, at, clock)
            clock = value[3]
        return value


#: Expression type -> the :class:`_Bound` method mirroring its definition.
_VISITS = {
    TreeExpr: _Bound._visit_tree,
    DocExpr: _Bound._visit_doc,
    GenericDoc: _Bound._visit_generic_doc,
    FragmentedDoc: _Bound._visit_fragmented_doc,
    Gather: _Bound._visit_gather,
    QueryRef: _Bound._visit_query_ref,
    QueryApply: _Bound._visit_apply,
    ServiceCallExpr: _Bound._visit_service_call,
    Send: _Bound._visit_send,
    EvalAt: _Bound._visit_eval_at,
    Seq: _Bound._visit_seq,
}


class _CallSample(NamedTuple):
    """One call site, run once: its value and everything it charged."""

    #: The memo key the sample is kept under; it names the value, too.
    key: Tuple
    #: The value: the activated tree, or the response forest.
    items: Tuple[Element, ...]
    bytes: int
    messages: int
    time: float


class CostEstimator:
    """Static, no-execution cost estimation.

    The walk returns, per sub-expression, the estimated value size (bytes
    at the evaluation site) and accumulates transfer bytes / messages /
    time into the running totals.  Compute time is estimated from input
    sizes and the hosting peer's speed — coarser than the evaluator's
    charging but monotone in the same quantities.

    Service calls are not modelled here.  Wherever the walk meets one
    whose inputs are known — the calls embedded in a stored document
    (run at its home), in a tree literal (run at the literal's home), or
    an explicit ``sc(...)`` over literal parameters (run at its site) —
    the bare evaluator runs that call site once on a clone of Σ, and the
    *call sample* it leaves (value, bytes, messages, completion time)
    prices every candidate plan that contains the site.  What the sample
    raises, the estimate raises, as :func:`measure` would.

    A query application is priced the same way: the query runs once on
    its materialized arguments (an *apply sample*: exact output bytes
    and work).  What cannot be sampled — a query reading ``doc()``, an
    argument with no static value, a call over computed parameters —
    returns :data:`DEFAULT_SELECTIVITY` of its input.  No query is ever
    priced by its name.

    The walk is *incremental*: each (subexpression, site) pair's
    contribution — value size plus the bytes/messages/time it adds — is
    memoized by structural fingerprint, so re-costing a
    :class:`~repro.core.rules.Rewrite` only walks the rewritten spine
    and replays every untouched subtree.  Everything else the estimator
    learns about Σ lives in the same memo, one dict keyed by
    ``(kind, ...)``:

    ===============================================  ====================
    key                                              value
    ===============================================  ====================
    ``("subtree", salt, fingerprint, site)``         (size, bytes, msgs,
                                                     time)
    ``("doc_bytes", name, home[, epoch])``           serialized bytes
    ``("call", fingerprint, site, policy, epochs)``  one call sample
    ``("apply", query source, arg tokens)``          (result bytes, work)
    ===============================================  ====================

    A call sample's key carries the pick policy's name and the whole
    ``doc_epochs`` map: a call may read any document, so any write
    orphans it.  The memo is the
    :attr:`~repro.core.planspace.PlanCache.estimates` of the ``cache``
    the estimator was given — shared with whoever else holds that cache,
    emptied by its ``clear()`` — or of a private one.  Entries assume
    Σ's documents are stable: written documents key by
    epoch, so a write orphans their stale entries.  Every read runs on a
    clone, so only an edit of Σ by hand calls for ``cache.clear()``.
    """

    def __init__(self, system: AXMLSystem, cache: Optional[PlanCache] = None,
                 pick_policy=None) -> None:
        self.system = system
        #: where the estimator remembers (``cache.estimates``) and counts
        #: (``cache.stats``): the caller's, or a private one
        self.cache = cache or PlanCache()
        self.memo = self.cache.estimates
        #: generic references resolve through the *same* registry pick the
        #: evaluator uses, so the estimated plan prices the copy that would
        #: actually serve the read (ranking parity with the oracle).
        self.pick_policy = pick_policy

    # -- public -------------------------------------------------------------
    def estimate(self, plan: Plan) -> Cost:
        self._bytes = 0
        self._messages = 0
        self._time = 0.0
        # picks shape the estimate: estimators with different policies
        # sharing one cache must not replay each other's deltas
        policy = self.pick_policy
        self._memo_salt = (
            type(policy).__name__ if policy is not None else "",
            doc_epoch_signature(self.system, plan.expr),
        )
        self._visit(plan.expr, plan.site)
        return Cost(self._bytes, self._messages, self._time)

    # -- transfer helpers --------------------------------------------------------
    def _route(self, src: str, dst: str):
        """Links ``src`` -> ``dst``; none when Σ has no such path (the
        bytes are still charged, the unknowable time is not)."""
        try:
            return self.system.network.route(src, dst)
        except (NoRouteError, UnknownPeerError):
            return ()

    def _charge_transfer(
        self, src: str, dst: str, payload_bytes: int, headers=None
    ) -> None:
        """One message, priced as the simulator sizes it (``wire_size``)."""
        if src == dst:
            return
        size = wire_size(payload_bytes, headers or {})
        self._bytes += size
        self._messages += 1
        self._time += sum(
            l.latency + size / l.bandwidth for l in self._route(src, dst)
        )

    def _charge_forwards(self, src: str, targets, payload_bytes: int) -> None:
        """One ``FORWARD`` per target node, each with its ``target``
        header, all sent from the same instant."""
        base = self._time
        finished = base
        for target in targets:
            self._time = base
            self._charge_transfer(
                src, target.peer, payload_bytes, {"target": str(target)}
            )
            finished = max(finished, self._time)
        self._time = finished

    def _charge_compute(self, peer_id: str, work_bytes: int) -> None:
        peer = self.system.peer(peer_id)
        # ~1 work unit (tree node) per 32 serialized bytes, a rough census
        self._time += (work_bytes / 32.0) / peer.compute_speed

    # -- sizes ------------------------------------------------------------------
    def _doc_key(self, kind: str, name: str, home: str) -> Tuple:
        """Memo key of a per-document fact.

        Written documents key by epoch too, so a mutation orphans the
        stale entry instead of serving it.
        """
        epoch = self.system.doc_epoch(name)
        return (kind, name, home, epoch) if epoch else (kind, name, home)

    def _doc_bytes(self, name: str, home: str) -> int:
        key = self._doc_key("doc_bytes", name, home)
        size = self.memo.get(key)
        if size is None:
            # ``documents``, not ``document()``: estimating reads nothing
            tree = self.system.peer(home).documents.get(name)
            # unknown (e.g. temp doc created mid-plan): nominal
            size = tree.serialized_size() if tree is not None else 1024
            self.memo[key] = size
        return size

    # -- service calls (definition (6)) -------------------------------------------
    def _call_sample(self, expr: Expression, at: str) -> _CallSample:
        """``eval@at(expr)`` run once on a clone of Σ, then kept.

        ``expr`` is a call site whose inputs are all known: a document or
        tree literal embedding calls, or a call over literals.
        """
        policy = self.pick_policy
        key = (
            "call", expression_fingerprint(expr), at,
            type(policy).__name__ if policy is not None else "",
            tuple(sorted(self.system.doc_epochs.items())),
        )
        sample = self.memo.get(key)
        if sample is None:
            # what measure() does, for this one call site
            twin = self.system.clone()
            outcome = ExpressionEvaluator(twin, self.pick_policy).eval(expr, at)
            stats = twin.network.stats
            for item in outcome.items:
                item.freeze()  # kept, and bound into query samples
            sample = self.memo[key] = _CallSample(
                key, tuple(outcome.items), stats.bytes, stats.messages,
                outcome.completed_at,
            )
        return sample

    def _charge_sample(self, sample: _CallSample) -> int:
        """Add what a call sample charged; returns its value's size."""
        self._bytes += sample.bytes
        self._messages += sample.messages
        self._time += sample.time
        return sum(item.serialized_size() for item in sample.items)

    def _charge_call(
        self, expr: ServiceCallExpr, caller: str, param_bytes: int
    ) -> int:
        """Default price of a call over computed parameters, ready at
        ``caller`` now: one CALL, the provider's compute, one response of
        :data:`DEFAULT_SELECTIVITY` of the parameters (at least 1 kB of
        them) back — or to every forward target.  Returns the size at
        ``caller``.
        """
        provider, service_name = expr.provider, expr.service
        if provider == ANY:
            # the evaluator's registry pick (live members only, caller's
            # policy), so an @any call prices the provider that will serve
            member = self.system.registry.pick_service(
                service_name, caller, self.system, self.pick_policy
            )
            provider, service_name = member.peer, member.name
        self._charge_transfer(
            caller, provider, param_bytes, {"service": service_name}
        )
        self._charge_compute(provider, param_bytes)
        result_bytes = _default_output_bytes(max(param_bytes, 1024))
        if expr.forwards:
            self._charge_forwards(provider, expr.forwards, result_bytes)
            return 0
        self._charge_transfer(provider, caller, result_bytes)
        return result_bytes

    # -- query samples --------------------------------------------------------------
    def _materialize(self, expr: Expression, site: str):
        """Static ``(value forest, memo token)`` of an argument, or ``None``.

        The value a plan feeds to a query is the *activated* one: a
        document or literal embedding calls is its call sample's value.
        """
        if isinstance(expr, GenericDoc):
            member = self.system.registry.pick_document(
                expr.name, site, self.system, self.pick_policy
            )
            expr = DocExpr(member.name, member.peer)
        if isinstance(expr, TreeExpr):
            tree = expr.tree
            token = expression_fingerprint(expr)
        elif isinstance(expr, DocExpr):
            tree = self.system.peer(expr.home).documents.get(expr.name)
            if tree is None:
                return None
            token = self._doc_key("doc", expr.name, expr.home)
        else:
            return None
        if tree.has_service_calls():
            sample = self._call_sample(expr, expr.home)
            return list(sample.items), sample.key
        return [tree], token

    def _apply_sample(self, query, args, site: str) -> Optional[Tuple[int, int]]:
        """``(result bytes, work units)`` of one query application, or None.

        Queries are pure functions of their arguments (``doc()``-free
        ones — the rest are site-dependent and skipped), so running one
        *once* on the materialized argument values prices its exact
        output and compute work; every candidate plan that moves the same
        application between sites reuses the sample.
        """
        if _doc_references(query):
            return None  # doc() resolves at the evaluation site
        forests = []
        tokens = []
        for arg in args:
            materialized = self._materialize(arg, site)
            if materialized is None:
                return None
            forest, token = materialized
            forests.append(forest)
            tokens.append(token)
        key = ("apply", query.source, tuple(tokens))
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        try:
            result = query.run(*forests)
        except ReproError:
            return None
        out_bytes = _as_forest(result)[1]
        work = 1 + sum(tree_size(value) for forest in forests for value in forest)
        sample = (out_bytes, work)
        self.memo[key] = sample
        return sample

    # -- walk -----------------------------------------------------------------
    def _visit(self, expr: Expression, site: str) -> int:
        """Estimated value size at ``site``; totals accumulate as a side effect.

        Records, per (subexpression fingerprint, site), the returned
        size plus the bytes/messages/time delta this subtree contributed,
        and replays that delta on a hit without recursing — re-costing a
        rewritten plan therefore only walks the nodes the rewrite
        actually changed (plus their ancestors).
        """
        key = ("subtree", self._memo_salt, expression_fingerprint(expr), site)
        hit = self.memo.get(key)
        if hit is not None:
            size, d_bytes, d_messages, d_time = hit
            self._bytes += d_bytes
            self._messages += d_messages
            self._time += d_time
            self.cache.stats.estimator_hits += 1
            return size
        bytes0, messages0, time0 = self._bytes, self._messages, self._time
        size = self._visit_node(expr, site)
        self.memo[key] = (
            size,
            self._bytes - bytes0,
            self._messages - messages0,
            self._time - time0,
        )
        self.cache.stats.estimator_misses += 1
        return size

    def _visit_all(self, exprs: Sequence[Expression], site: str) -> int:
        """Parts evaluated in parallel from the same instant: traffic and
        sizes add up, completion is the slowest part's."""
        total = 0
        base = self._time
        finished = base
        for expr in exprs:
            self._time = base
            total += self._visit(expr, site)
            finished = max(finished, self._time)
        self._time = finished
        return total

    def _visit_data(self, expr, site: str) -> int:
        """Definitions (1) and (5): a tree literal or a stored document
        evaluates at its home, and its value ships to ``site``."""
        if isinstance(expr, TreeExpr):
            tree = expr.tree
        else:
            tree = self.system.peer(expr.home).documents.get(expr.name)
        if tree is not None and tree.has_service_calls():
            # evaluation activates the embedded calls at home first: a
            # call sample prices them, and the activated value ships on
            sample = self._call_sample(expr, expr.home)
            size = self._charge_sample(sample)
            if not sample.items:
                return 0
        elif isinstance(expr, TreeExpr):
            size = tree.serialized_size()
        else:
            size = self._doc_bytes(expr.name, expr.home)
        self._charge_transfer(expr.home, site, size)
        return size

    def _visit_node(self, expr: Expression, site: str) -> int:
        """Returns estimated size (bytes) of the value at ``site``."""
        if isinstance(expr, (TreeExpr, DocExpr)):
            return self._visit_data(expr, site)
        if isinstance(expr, GenericDoc):
            # definition (9) exactly as the evaluator resolves it: the
            # registry pick (FirstPolicy when none given) names the copy
            # that will actually serve the read — estimating any other
            # member would rank replica-reading plans differently than
            # the oracle measures them
            member = self.system.registry.pick_document(
                expr.name, site, self.system, self.pick_policy
            )
            return self._visit(DocExpr(member.name, member.peer), site)
        if isinstance(expr, FragmentedDoc):
            catalog = self.system.fragments
            if not catalog.is_fragmented(expr.name):
                return 1024
            # scatter-gather: every fragment is fetched from the same
            # ready instant; replicated fragments resolve through the
            # generic registry like _eval_fragment
            refs = []
            for fragment in catalog.fragments(expr.name):
                live = fragment.live_copies(self.system)
                refs.append(
                    GenericDoc(fragment.generic)
                    if fragment.generic is not None
                    else DocExpr(fragment.name, live[0])
                )
            return self._visit_all(refs, site)
        if isinstance(expr, Gather):
            # order-preserving union: parts evaluate in parallel
            return self._visit_all(expr.parts, site)
        if isinstance(expr, QueryRef):
            size = expr.query.source_bytes
            self._charge_transfer(expr.home, site, size)
            return size
        if isinstance(expr, QueryApply):
            # the query head resolves concurrently with the args: the
            # evaluator ships the query text first, evaluates every arg
            # from the same instant, and applies at max(query, args)
            base = self._time
            head = expr.query
            if isinstance(head, QueryRef):
                self._charge_transfer(head.home, site, head.query.source_bytes)
            head_ready = self._time
            self._time = base
            input_bytes = self._visit_all(expr.args, site)
            self._time = max(self._time, head_ready)
            if isinstance(head, QueryRef):
                # one application sample: exact output bytes and exact
                # work units, reused by every candidate plan that moves
                # this apply between sites
                sampled = self._apply_sample(head.query, expr.args, site)
                if sampled is not None:
                    out_bytes, work = sampled
                    self._time += work / self.system.peer(site).compute_speed
                    return out_bytes
            self._charge_compute(site, input_bytes)
            return _default_output_bytes(input_bytes)
        if isinstance(expr, ServiceCallExpr):
            if all(isinstance(param, TreeExpr) for param in expr.params):
                # every input is known: run the call here, once
                return self._charge_sample(self._call_sample(expr, site))
            # params evaluate in parallel, then ship together as one call
            param_bytes = self._visit_all(expr.params, site)
            return self._charge_call(expr, site, param_bytes)
        if isinstance(expr, Send):
            payload_bytes = self._visit(expr.payload, site)
            # rule (12) relays, store-and-forward, then the destination
            relay = site
            for hop in expr.via:
                self._charge_transfer(relay, hop, payload_bytes)
                relay = hop
            dest = expr.dest
            if isinstance(dest, NodesDest):
                self._charge_forwards(relay, dest.nodes, payload_bytes)
            else:
                headers = {"doc": dest.name} if isinstance(dest, DocDest) else None
                self._charge_transfer(relay, dest.peer, payload_bytes, headers)
            return 0
        if isinstance(expr, EvalAt):
            if expr.peer != site:
                self._charge_transfer(site, expr.peer, expression_size(expr.expr))
            inner = self._visit(expr.expr, expr.peer)
            if inner > 0:
                self._charge_transfer(expr.peer, site, inner)
            return inner
        if isinstance(expr, Seq):
            last = 0
            for step in expr.steps:
                last = self._visit(step, site)
            return last
        return 0
