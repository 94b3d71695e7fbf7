"""Evaluation of AXML expressions: definitions (1)–(9) of the paper.

``eval@p(e)`` may (Section 3.2): (i) return a tree / stream of trees,
(ii) return a new service, (iii) side-effect Σ by creating streams under
well-specified nodes on one or more peers.  :class:`EvalOutcome` carries
all three, plus the virtual completion time, which the benchmarks report.

Mapping from the paper's definitions to code paths:

=========  ==================================================================
(1)        ``TreeExpr`` at its home peer: copy the tree, recursively
           evaluate children; embedded ``sc`` nodes evaluate via (6)
(2)        ``QueryApply`` with local head and args: evaluate args, then
           the query, at the same peer (compute time charged)
(3),(4)    ``Send``: empty result at the sender; the copy's arrival at
           peer / node-list / document destinations is a side effect
(5)        ``TreeExpr``/``DocExpr`` evaluated away from home: the home
           peer evaluates and ships the result to the evaluation site
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..axml.document import ServiceCall
from ..errors import (
    DeadlineExceededError,
    EvaluationUndefinedError,
    ExpressionError,
    FaultError,
    FragmentUnavailableError,
    GenericResolutionError,
    PeerDownError,
    ReproError,
    ServiceCallError,
    ServiceCallFaultError,
    TransferFaultError,
    TransferTimeoutError,
    UnknownServiceError,
)
from ..faults.plan import SERVICE_HANG
from ..faults.recovery import LostPart, RetryPolicy
from ..net.message import Message, MessageKind
from ..peers.registry import PickPolicy
from ..peers.service import DeclarativeService, Service
from ..peers.system import AXMLSystem
from ..xmlcore.model import Element, NodeId, Text, iter_elements, tree_size
from ..xmlcore.serializer import serialize
from ..xquery import Query
from ..xquery.runtime import string_value
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
from .serialize import expression_size, expression_to_text

__all__ = ["EvalOutcome", "ExpressionEvaluator"]

_MAX_ACTIVATION_DEPTH = 64


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

    def __init__(
        self,
        system: AXMLSystem,
        pick_policy: Optional[PickPolicy] = None,
        recovery: Optional[RetryPolicy] = None,
        tracer=None,
        profiler=None,
    ) -> None:
        self.system = system
        self.pick_policy = pick_policy
        #: Retry/timeout behavior under injected faults (:mod:`repro.faults`).
        #: ``None`` (the default) means faults propagate as typed errors on
        #: first occurrence — the exact historical code path when no fault
        #: state is installed on the network either.
        self.recovery = recovery
        #: Optional :class:`repro.obs.Tracer` — purely observational; every
        #: instrumentation point below is a single ``is None`` check when
        #: unset, and recording never consults the RNG or the clock.
        self.tracer = tracer
        #: Optional :class:`repro.obs.WallProfiler` timing the wall-clock
        #: cost of serialization on the hot path.
        self.profiler = profiler
        self._deploy_counter = 0
        self._install_counter = 0
        # per-job recovery context (reset by begin_job)
        self.deadline_at = math.inf
        self.partial = False
        self.losses: List[LostPart] = []
        self.job_retries = 0
        #: Run-wide recovery counters, folded into ``ServingReport.registry``.
        self.counters: Dict[str, int] = {}

    # -- recovery context --------------------------------------------------------
    def begin_job(
        self, deadline_at: float = math.inf, partial: bool = False
    ) -> None:
        """Reset per-job recovery context (deadline, losses, retry count)."""
        self.deadline_at = deadline_at
        self.partial = partial
        self.losses = []
        self.job_retries = 0

    def _count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _record_loss(self, kind: str, name: str, peers, exc: Exception) -> None:
        self.losses.append(
            LostPart(
                kind=kind,
                name=name,
                peers=tuple(peers),
                error=type(exc).__name__,
                at=getattr(exc, "at", 0.0),
            )
        )
        self._count("parts_lost")

    def _stalled(self, peer_id: str, at: float) -> float:
        """Push ``at`` past any injected stall window on ``peer_id``."""
        faults = self.system.network.faults
        if faults is None:
            return at
        ready = faults.stall_until(peer_id, at)
        if ready > at:
            self._count("stall_waits")
            if self.tracer is not None:
                self.tracer.record(
                    f"stall {peer_id}", "stall", at, ready, peer=peer_id
                )
        return ready

    def _deliver(self, message: Message, ready_at: float) -> float:
        """Network delivery with bounded, clock-charged retries.

        Without a recovery policy (or without installed fault state) this
        is exactly ``network.deliver`` — transfer faults, if any, propagate
        typed on first occurrence.  With one, each lost/corrupted transfer
        is retried after a seeded exponential backoff until it succeeds,
        the attempt budget runs out (:class:`TransferTimeoutError`), or the
        next attempt would start past the job deadline
        (:class:`DeadlineExceededError`).
        """
        network = self.system.network
        policy = self.recovery
        if policy is None or network.faults is None:
            return network.deliver(message, ready_at)
        key = f"{message.src}->{message.dst}:{message.kind}"
        clock = ready_at
        last: Optional[TransferFaultError] = None
        for attempt in range(policy.max_attempts):
            try:
                return network.deliver(message, clock)
            except TransferFaultError as exc:
                last = exc
                self._count("transfer_faults")
                if attempt + 1 >= policy.max_attempts:
                    break
                retry_at = exc.at + policy.delay(attempt, key)
                if retry_at > self.deadline_at:
                    raise DeadlineExceededError(
                        f"transfer {key} would retry at {retry_at:.6f}, "
                        f"past the deadline {self.deadline_at:.6f}",
                        at=exc.at,
                    ) from exc
                self.job_retries += 1
                self._count("retries")
                if self.tracer is not None:
                    self.tracer.record(
                        f"backoff {key}",
                        "backoff",
                        exc.at,
                        retry_at,
                        attempt=attempt + 1,
                    )
                clock = retry_at
        raise TransferTimeoutError(
            f"transfer {key} failed {policy.max_attempts} attempts "
            f"(retry budget exhausted)",
            at=last.at if last is not None else ready_at,
        ) from last

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
            raise ExpressionError("expression evaluation exceeded depth bound")
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
        if isinstance(expr, TreeExpr):
            return self._eval_tree(expr, at, ready_at, _depth)
        if isinstance(expr, DocExpr):
            return self._eval_doc(expr, at, ready_at, _depth)
        if isinstance(expr, GenericDoc):
            return self._eval_generic_doc(expr, at, ready_at, _depth)
        if isinstance(expr, FragmentedDoc):
            return self._eval_fragmented_doc(expr, at, ready_at, _depth)
        if isinstance(expr, Gather):
            return self._eval_gather(expr, at, ready_at, _depth)
        if isinstance(expr, QueryRef):
            return self._eval_query_ref(expr, at, ready_at)
        if isinstance(expr, GenericService):
            raise ExpressionError(
                "a generic service can only appear as a call/apply head"
            )
        if isinstance(expr, QueryApply):
            return self._eval_apply(expr, at, ready_at, _depth)
        if isinstance(expr, ServiceCallExpr):
            return self._eval_service_call(expr, at, ready_at, _depth)
        if isinstance(expr, Send):
            return self._eval_send(expr, at, ready_at, _depth)
        if isinstance(expr, EvalAt):
            return self._eval_eval_at(expr, at, ready_at, _depth)
        if isinstance(expr, Seq):
            return self._eval_seq(expr, at, ready_at, _depth)
        raise ExpressionError(f"cannot evaluate {type(expr).__name__}")

    # -- definitions (1) and (5): trees ----------------------------------------------
    def _eval_tree(
        self, expr: TreeExpr, at: str, ready_at: float, depth: int
    ) -> EvalOutcome:
        if at != expr.home:
            # definition (5): the home evaluates, then ships the result here.
            home_outcome = self.eval(expr, expr.home, ready_at, depth + 1)
            return self._ship_items(
                home_outcome, expr.home, at, home_outcome.completed_at
            )
        # definition (1) at home: copy, activate embedded calls via (6).
        outcome = EvalOutcome(completed_at=ready_at)
        evaluated = self._activate_tree(
            expr.tree.copy(), at, ready_at, depth, outcome
        )
        outcome.items = [evaluated] if evaluated is not None else []
        return outcome

    def _activate_tree(
        self,
        tree: Element,
        at: str,
        ready_at: float,
        depth: int,
        outcome: EvalOutcome,
    ) -> Optional[Element]:
        """Definition (1): copy the root, push evaluation into children.

        Embedded ``sc`` elements evaluate per definition (6); with a
        default forward list their responses replace them in place, with
        an explicit one the responses leave the tree and ∅ remains.
        Returns None when the tree itself was an sc with explicit targets.
        """
        if tree.is_service_call():
            if tree.get("activated") == "true":
                # already fired by the AXML activation engine; its results
                # accumulated as siblings — the data fixpoint drops the sc.
                return None
            call = ServiceCall.parse(tree)
            call_expr = ServiceCallExpr(
                provider=call.provider,
                service=call.service,
                params=tuple(
                    TreeExpr(payload, at) for payload in call.param_payloads()
                ),
                forwards=call.forwards,
            )
            try:
                sub = self.eval(call_expr, at, ready_at, depth + 1)
            except (FaultError, PeerDownError) as exc:
                if not self.partial:
                    raise
                # graceful degradation: the call's results never arrive,
                # so the sc node simply disappears from the copy (exactly
                # what an unactivated call looks like) and the loss is
                # recorded in the PartialAnswer provenance
                self._record_loss(
                    "service",
                    f"{call.service}@{call.provider}",
                    (call.provider,),
                    exc,
                )
                return None
            outcome.merge_effects(sub)
            outcome.completed_at = max(outcome.completed_at, sub.completed_at)
            if call.forwards:
                return None
            if len(sub.items) == 1:
                return sub.items[0]
            wrapper = Element("results")
            for item in sub.items:
                wrapper.append(item)
            return wrapper

        replacements: List[Tuple[Element, Optional[Element]]] = []
        for child in list(tree.children):
            if isinstance(child, Element):
                evaluated = self._activate_tree(
                    child, at, ready_at, depth, outcome
                )
                if evaluated is not child:
                    replacements.append((child, evaluated))
        for old, new in replacements:
            if new is None:
                tree.remove(old)
            else:
                tree.replace_child(old, new)
        return tree

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
        return self._ship_items(
            home_outcome, expr.home, at, home_outcome.completed_at
        )

    def _activate_document(
        self, home, name: str, tree: Element, ready_at: float, depth: int
    ) -> EvalOutcome:
        """Fire the calls embedded in ``name@home`` there; store the result.

        "p2 has replaced this local tree with the result of eval" — the
        activated version (a copy, definition (1)) becomes the stored
        document.
        """
        # A partial-mode activation that lost a service call must NOT
        # become the stored document: the lost sc node is dropped from
        # the *answer* copy, and committing that copy would silently
        # erase the call from Σ — every later job would then miss its
        # data with no partial marker (the exact silent-wrong-answer the
        # three-way fault invariant forbids).  The loss watermark tells
        # degraded activations apart from complete ones.
        losses_before = len(self.losses)
        outcome = self.eval(
            TreeExpr(tree, home.peer_id), home.peer_id, ready_at, depth + 1
        )
        if len(outcome.items) == 1 and len(self.losses) == losses_before:
            home.install_document(name, outcome.items[0], replace=True)
        return outcome

    def _eval_generic_doc(
        self, expr: GenericDoc, at: str, ready_at: float, depth: int
    ) -> EvalOutcome:
        # definition (9): pickDoc, then evaluate the concrete reference.
        try:
            member = self.system.registry.pick_document(
                expr.name, at, self.system, self.pick_policy
            )
        except ReproError:
            raise
        except Exception as exc:
            # a buggy pick policy must surface typed, never a bare KeyError
            raise GenericResolutionError(
                f"pick_document({expr.name!r}) raised "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        return self.eval(DocExpr(member.name, member.peer), at, ready_at, depth + 1)

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
        """
        info = self.system.fragments.info(expr.name)
        outcome = EvalOutcome(completed_at=ready_at)
        root = Element(info.root_tag, attrs=dict(info.root_attrs))
        for fragment in info.fragments:
            try:
                sub = self._eval_fragment(fragment, at, ready_at, depth)
            except (FaultError, FragmentUnavailableError, PeerDownError) as exc:
                if not self.partial:
                    raise
                # graceful degradation: record the lost slice and keep
                # reassembling what did arrive — the PartialAnswer
                # provenance names exactly this fragment as missing
                self._record_loss(
                    "fragment", fragment.name, fragment.peers, exc
                )
                continue
            outcome.merge_effects(sub)
            outcome.completed_at = max(outcome.completed_at, sub.completed_at)
            for item in sub.items:
                # copy, never reparent: a fragment local to the
                # evaluation site hands back the *stored* tree (the
                # activated document _eval_doc re-installs), and moving
                # its children out would empty the fragment on the live Σ
                for child in item.children:
                    root.append(child.copy())
        outcome.items = [root]
        return outcome

    def _eval_fragment(
        self, fragment, at: str, ready_at: float, depth: int
    ) -> EvalOutcome:
        """Fetch one fragment, failing over across its surviving copies.

        Without a recovery policy this is the exact historical path: one
        reference (generic when replicated, else the first live copy),
        faults propagate.  With one, a copy whose transfers kept failing
        (or whose peer died mid-read) is abandoned and the next live copy
        serves the read instead.
        """
        live = [
            pid
            for pid in fragment.peers
            if pid in self.system.peers
            and self.system.peers[pid].alive
            and self.system.peers[pid].has_document(fragment.name)
        ]
        if not live:
            # every copy died with its peer: refuse loudly rather
            # than reassemble a partial document (a wrong answer).
            raise FragmentUnavailableError(fragment.name, fragment.peers)
        candidates: List[Expression] = []
        if fragment.generic is not None:
            candidates.append(GenericDoc(fragment.generic))
            if self.recovery is not None:
                candidates.extend(DocExpr(fragment.name, pid) for pid in live)
        else:
            candidates.append(DocExpr(fragment.name, live[0]))
            if self.recovery is not None:
                candidates.extend(
                    DocExpr(fragment.name, pid) for pid in live[1:]
                )
        last_exc: Optional[ReproError] = None
        for ref in candidates:
            try:
                return self.eval(ref, at, ready_at, depth + 1)
            except GenericResolutionError:
                # the registry lost the last live member (e.g. churn
                # cleanup raced a concurrent retire): same typed failure.
                raise FragmentUnavailableError(
                    fragment.name, fragment.peers
                ) from None
            except (TransferTimeoutError, PeerDownError) as exc:
                # this copy is unreachable; re-pick among the survivors,
                # starting no earlier than the failure was detected
                last_exc = exc
                self._count("fragment_failovers")
                ready_at = max(ready_at, getattr(exc, "at", ready_at))
                continue
        assert last_exc is not None
        raise last_exc

    def _eval_gather(
        self, expr: Gather, at: str, ready_at: float, depth: int
    ) -> EvalOutcome:
        """Order-preserving union: parts evaluate independently, in parallel."""
        outcome = EvalOutcome(completed_at=ready_at)
        for part in expr.parts:
            try:
                sub = self.eval(part, at, ready_at, depth + 1)
            except (FaultError, FragmentUnavailableError, PeerDownError) as exc:
                if not self.partial:
                    raise
                self._record_loss("branch", type(part).__name__, (), exc)
                continue
            outcome.merge_effects(sub)
            outcome.items.extend(sub.items)
            outcome.completed_at = max(outcome.completed_at, sub.completed_at)
        return outcome

    # -- queries as values (and definition (8) deployment) ------------------------------
    def _eval_query_ref(
        self, expr: QueryRef, at: str, ready_at: float
    ) -> EvalOutcome:
        if at == expr.home:
            return EvalOutcome(query=expr.query, completed_at=ready_at)
        message = Message(
            src=expr.home,
            dst=at,
            kind=MessageKind.QUERY,
            payload=expr.query.source,
        )
        arrival = self._deliver(message, ready_at)
        return EvalOutcome(query=expr.query, completed_at=arrival)

    # -- definitions (2) and (7): query application ---------------------------------------
    def _eval_apply(
        self, expr: QueryApply, at: str, ready_at: float, depth: int
    ) -> EvalOutcome:
        query, query_ready = self._resolve_apply_head(expr.query, at, ready_at)

        outcome = EvalOutcome()
        arg_values: List[List[Element]] = []
        latest = query_ready
        for arg in expr.args:
            sub = self.eval(arg, at, ready_at, depth + 1)
            outcome.merge_effects(sub)
            arg_values.append(sub.items)
            latest = max(latest, sub.completed_at)

        peer = self.system.peer(at)
        latest = self._stalled(at, latest)
        busy_before = peer.busy_until
        result, done = peer.evaluate(query, arg_values, latest)
        if self.tracer is not None:
            self.tracer.cpu(
                at, f"apply {query.name or 'query'}", latest, busy_before, done
            )
        outcome.items = _as_forest(result)
        outcome.completed_at = done
        return outcome

    def _pick_service(self, name: str, at: str):
        """Registry pick with the untyped-exception guard (audit fix)."""
        try:
            return self.system.registry.pick_service(
                name, at, self.system, self.pick_policy
            )
        except ReproError:
            raise
        except Exception as exc:
            raise GenericResolutionError(
                f"pick_service({name!r}) raised {type(exc).__name__}: {exc}"
            ) from exc

    def _resolve_apply_head(
        self, head, at: str, ready_at: float
    ) -> Tuple[Query, float]:
        if isinstance(head, GenericService):
            member = self._pick_service(head.name, at)
            service = self.system.peer(member.peer).service(member.name)
            if not isinstance(service, DeclarativeService):
                raise ExpressionError(
                    f"generic service {head.name!r} resolved to a "
                    "non-declarative implementation; cannot apply as a query"
                )
            head = QueryRef(service.query, member.peer)
        assert isinstance(head, QueryRef)
        if head.home == at:
            return head.query, ready_at
        # definition (7): the defining peer ships the query text here.
        message = Message(
            src=head.home, dst=at, kind=MessageKind.QUERY, payload=head.query.source
        )
        arrival = self._deliver(message, ready_at)
        return head.query, arrival

    # -- definition (6): service calls ------------------------------------------------
    def _eval_service_call(
        self, expr: ServiceCallExpr, at: str, ready_at: float, depth: int
    ) -> EvalOutcome:
        provider_id = expr.provider
        if provider_id == ANY:
            member = self._pick_service(expr.service, at)
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
        param_values: List[Element] = []
        latest = ready_at
        for param in expr.params:
            sub = self.eval(param, at, ready_at, depth + 1)
            outcome.merge_effects(sub)
            latest = max(latest, sub.completed_at)
            param_values.extend(sub.items)

        # ship parameters to the provider (one CALL message)
        payload = self._serialize_forest(param_values)
        call_message = Message(
            src=at,
            dst=provider_id,
            kind=MessageKind.CALL,
            payload=payload,
            headers={"service": service_name},
        )
        arrival = self._call_provider(
            call_message, provider_id, service_name, latest
        )
        arrival = self._stalled(provider_id, arrival)

        try:
            responses = service.invoke(param_values, provider)
        except ReproError:
            raise
        except Exception as exc:
            # audit fix: a buggy native implementation surfaces typed,
            # never a bare KeyError/TypeError from inside the callable
            raise ServiceCallError(
                f"service {service_name!r} on {provider_id!r} raised "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        busy_before = provider.busy_until
        done = provider.charge(service.work_units(param_values), arrival)
        if self.tracer is not None:
            self.tracer.cpu(
                provider_id,
                f"service {service_name}",
                arrival,
                busy_before,
                done,
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
            last = done
            for response in settled:
                for target in expr.forwards:
                    last = max(
                        last,
                        self._deliver_to_node(
                            provider_id, target, response, done, outcome
                        ),
                    )
            outcome.completed_at = last
            return outcome

        # default: results return to the caller (siblings of the sc node).
        if provider_id == at:
            outcome.items = settled
            outcome.completed_at = done
            return outcome
        last = done
        for response in settled:
            message = Message(
                src=provider_id,
                dst=at,
                kind=MessageKind.RESULT,
                payload=self._serialize_forest((response,)),
            )
            last = max(last, self._deliver(message, done))
        outcome.items = settled
        outcome.completed_at = last
        return outcome

    def _call_provider(
        self,
        message: Message,
        provider_id: str,
        service_name: str,
        ready_at: float,
    ) -> float:
        """Ship the CALL message, surviving injected service faults.

        A ``service-fail`` window covering the arrival fails the call
        immediately; a ``service-hang`` window delays the answer to the
        window's end (bounded virtual time — never a real hang).  With a
        recovery policy, a hung call is *cancelled* at the per-call
        timeout budget and retried like a failure; without one, failures
        raise :class:`ServiceCallFaultError` on first occurrence and
        hangs simply wait the window out.
        """
        faults = self.system.network.faults
        policy = self.recovery
        clock = ready_at
        attempt = 0
        while True:
            arrival = self._deliver(message, clock)
            verdict = (
                faults.service_verdict(provider_id, service_name, arrival)
                if faults is not None
                else None
            )
            if verdict is None:
                return arrival
            faults.count("service_faults")
            if verdict.kind == SERVICE_HANG:
                if policy is None or arrival + policy.timeout("call") >= verdict.end:
                    # wait out the window: slow, bounded, still correct
                    faults.count("calls_hung")
                    if self.tracer is not None:
                        self.tracer.record(
                            f"hang {service_name}@{provider_id}",
                            "stall",
                            arrival,
                            verdict.end,
                            peer=provider_id,
                            service=service_name,
                        )
                    return verdict.end
                # cancel the hung call at its timeout budget, then retry
                failure_at = arrival + policy.timeout("call")
                detail = "hung (cancelled at timeout)"
                faults.count("calls_cancelled")
                if self.tracer is not None:
                    self.tracer.record(
                        f"hang-cancel {service_name}@{provider_id}",
                        "stall",
                        arrival,
                        failure_at,
                        peer=provider_id,
                        service=service_name,
                    )
            else:
                failure_at = arrival
                detail = "failed"
            if policy is None:
                raise ServiceCallFaultError(
                    f"service {service_name!r} on {provider_id!r} {detail}",
                    at=failure_at,
                )
            attempt += 1
            if attempt >= policy.max_attempts:
                raise ServiceCallFaultError(
                    f"service {service_name!r} on {provider_id!r} {detail} "
                    f"after {attempt} attempts",
                    at=failure_at,
                )
            retry_at = failure_at + policy.delay(
                attempt - 1, f"call:{provider_id}:{service_name}"
            )
            if retry_at > self.deadline_at:
                raise DeadlineExceededError(
                    f"call to {service_name!r} on {provider_id!r} would "
                    f"retry at {retry_at:.6f}, past the deadline "
                    f"{self.deadline_at:.6f}",
                    at=failure_at,
                )
            self.job_retries += 1
            self._count("retries")
            if self.tracer is not None:
                self.tracer.record(
                    f"backoff call:{service_name}@{provider_id}",
                    "backoff",
                    failure_at,
                    retry_at,
                    attempt=attempt,
                )
            clock = retry_at

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
        data = self._serialize_forest(inner.items)
        for hop in expr.via:
            message = Message(
                src=relay_from, dst=hop, kind=MessageKind.DATA, payload=data
            )
            clock = self._deliver(message, clock)
            relay_from = hop

        dest = expr.dest
        if isinstance(dest, PeerDest):
            message = Message(
                src=relay_from, dst=dest.peer, kind=MessageKind.DATA, payload=data
            )
            clock = self._deliver(message, clock)
            name = self._install_anonymous(dest.peer, inner.items)
            outcome.installed.append((name, dest.peer))
        elif isinstance(dest, DocDest):
            message = Message(
                src=relay_from,
                dst=dest.peer,
                kind=MessageKind.INSTALL,
                payload=data,
                headers={"doc": dest.name},
            )
            clock = self._deliver(message, clock)
            root = _forest_to_document(inner.items, dest.name)
            self.system.peer(dest.peer).install_document(dest.name, root)
            outcome.installed.append((dest.name, dest.peer))
        elif isinstance(dest, NodesDest):
            last = clock
            for item in inner.items:
                for target in dest.nodes:
                    last = max(
                        last,
                        self._deliver_to_node(
                            relay_from, target, item, clock, outcome
                        ),
                    )
            clock = last
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
        message = Message(
            src=at, dst=dest.peer, kind=MessageKind.QUERY, payload=query.source
        )
        clock = self._deliver(message, inner.completed_at)
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
        outcome.items = []
        return outcome

    # -- EvalAt and Seq -------------------------------------------------------------------
    def _eval_eval_at(
        self, expr: EvalAt, at: str, ready_at: float, depth: int
    ) -> EvalOutcome:
        if expr.peer == at:
            return self.eval(expr.expr, at, ready_at, depth + 1)
        # ship the expression tree itself (code shipping)
        message = Message(
            src=at,
            dst=expr.peer,
            kind=MessageKind.QUERY,
            payload=expression_to_text(expr.expr),
        )
        arrival = self._deliver(message, ready_at)
        remote = self.eval(expr.expr, expr.peer, arrival, depth + 1)
        if not remote.items and remote.query is None:
            # pure side effects (e.g. sc with forward lists): nothing to
            # ship back — exactly why rule (15) is free to relocate calls.
            return remote
        return self._ship_items(remote, expr.peer, at, remote.completed_at)

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
    def _serialize_forest(self, items: Sequence[Element]) -> str:
        """Serialize a forest, wall-timed when a profiler is installed.

        Serialization dominates the wall cost of simulating large
        transfers (the payload string exists only to be measured), which
        is exactly what the raw-speed profiling needs attributed.
        """
        profiler = self.profiler
        if profiler is None:
            return "".join(serialize(item) for item in items)
        with profiler.phase("serialize"):
            return "".join(serialize(item) for item in items)

    def _ship_items(
        self, outcome: EvalOutcome, src: str, dst: str, ready_at: float
    ) -> EvalOutcome:
        """Ship a value forest from src to dst; returns the dst-side outcome."""
        if src == dst or (not outcome.items and outcome.query is None):
            shipped = EvalOutcome(
                items=[item.copy() for item in outcome.items],
                query=outcome.query,
                completed_at=ready_at,
            )
            shipped.merge_effects(outcome)
            return shipped
        if outcome.query is not None and not outcome.items:
            message = Message(
                src=src, dst=dst, kind=MessageKind.QUERY, payload=outcome.query.source
            )
            arrival = self._deliver(message, ready_at)
            shipped = EvalOutcome(query=outcome.query, completed_at=arrival)
            shipped.merge_effects(outcome)
            return shipped
        payload = self._serialize_forest(outcome.items)
        message = Message(src=src, dst=dst, kind=MessageKind.DATA, payload=payload)
        arrival = self._deliver(message, ready_at)
        shipped = EvalOutcome(
            items=[item.copy() for item in outcome.items],
            completed_at=arrival,
        )
        shipped.merge_effects(outcome)
        return shipped

    def _deliver_to_node(
        self,
        src: str,
        target: NodeId,
        item: Element,
        ready_at: float,
        outcome: EvalOutcome,
    ) -> float:
        message = Message(
            src=src,
            dst=target.peer,
            kind=MessageKind.FORWARD,
            payload=self._serialize_forest((item,)),
            headers={"target": str(target)},
        )
        arrival = self._deliver(message, ready_at)
        if self.system.peer(target.peer).deliver(target, item) is None:
            raise ExpressionError(
                f"forward target {target} does not exist on {target.peer!r}"
            )
        outcome.delivered.append(target)
        return arrival

    def _install_anonymous(self, peer_id: str, items: List[Element]) -> str:
        peer = self.system.peer(peer_id)
        self._install_counter += 1
        name = peer.fresh_document_name(f"recv-{self._install_counter}")
        peer.install_document(name, _forest_to_document(items, name))
        return name


def _as_forest(result: List) -> List[Element]:
    """Normalize query results to a forest of elements (atomics wrapped)."""
    forest: List[Element] = []
    for item in result:
        if isinstance(item, Element):
            forest.append(item.copy())
        elif isinstance(item, Text):
            wrapper = Element("value")
            wrapper.append(Text(item.value))
            forest.append(wrapper)
        else:
            wrapper = Element("value")
            wrapper.append(Text(string_value(item)))
            forest.append(wrapper)
    return forest


def _forest_to_document(items: List[Element], name: str) -> Element:
    """A forest arriving as a document: single root kept, else wrapped."""
    if len(items) == 1:
        return items[0].copy()
    root = Element("received")
    for item in items:
        root.append(item.copy())
    return root
