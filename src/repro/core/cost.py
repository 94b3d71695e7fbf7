"""Cost model for plans: measured (oracle) and estimated (static).

Two interchangeable cost functions drive the optimizer:

* :func:`measure` — clone Σ, actually evaluate the plan with the
  definitional evaluator, read the network statistics and the virtual
  completion time.  Exact by construction, and the clone is cheap:
  document trees are shared with Σ, not copied
  (:meth:`AXMLSystem.clone <repro.peers.system.AXMLSystem.clone>`).
  This is the reference the estimator is validated against.
* :class:`CostEstimator` — a static model walking the expression:
  document sizes come from Σ, query selectivities from a statistics
  table (default applied when unknown), link costs from the topology.
  No evaluation happens; the ``cost-model`` sweep bounds its error.

The scalar ordering combines completion time with a per-byte tax so that
plans tying on time are separated by traffic (the paper's experiments
talk about both shipped volume and response time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..axml.document import ANY_PROVIDER, ServiceCall
from ..errors import (
    FragmentUnavailableError,
    NoRouteError,
    ReproError,
    ServiceCallError,
    UnknownPeerError,
)
from ..net.message import wire_size
from ..peers.service import DeclarativeService, QueryMemo, _doc_references
from ..peers.system import AXMLSystem
from ..xmlcore.model import Element, iter_elements, tree_size
from .evaluator import ExpressionEvaluator, _as_forest
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

__all__ = ["Cost", "Statistics", "measure", "CostEstimator"]

#: Default fraction of a document a selection query retains when no
#: statistic is registered for it.
DEFAULT_SELECTIVITY = 0.25


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


@dataclass
class Statistics:
    """Optimizer statistics: per-query selectivity and result-size hints.

    ``selectivity[name]`` — fraction of input bytes surviving query
    ``name``; ``result_bytes[name]`` — absolute output estimate that, when
    present, wins over the fraction.
    """

    selectivity: Dict[str, float] = field(default_factory=dict)
    result_bytes: Dict[str, int] = field(default_factory=dict)
    default_selectivity: float = DEFAULT_SELECTIVITY

    def query_output_bytes(self, name: Optional[str], input_bytes: int) -> int:
        if name and name in self.result_bytes:
            return self.result_bytes[name]
        fraction = self.selectivity.get(name, self.default_selectivity)
        return max(1, int(input_bytes * fraction))

    def memo_token(self) -> Tuple:
        """Hashable digest of everything that changes an estimate.

        Salts the estimator memo's subtree entries, so two estimators
        sharing one :class:`~repro.core.planspace.PlanCache` with
        *different* statistics never replay each other's deltas.
        """
        return (
            tuple(sorted(self.selectivity.items())),
            tuple(sorted(self.result_bytes.items())),
            self.default_selectivity,
        )


class _UnsampledCall(Exception):
    """Internal: an embedded call had no invocation sample to graft."""


def _static_payloads(params) -> Optional[Tuple]:
    """Parameter trees when every param is a literal (else ``None``).

    Only statically-known parameter values can be sampled; anything
    computed (doc reads, nested calls) falls back to the statistics
    table.  Literals holding unactivated ``sc`` nodes are excluded too —
    their evaluation would fire the calls first.
    """
    trees = []
    for param in params:
        if not isinstance(param, TreeExpr):
            return None
        for node in iter_elements(param.tree):
            if node.is_service_call() and node.get("activated") != "true":
                return None
        trees.append(param.tree)
    return tuple(trees)


def measure(
    plan: Plan,
    system: AXMLSystem,
    pick_policy=None,
    memo: Optional[QueryMemo] = None,
) -> Cost:
    """Oracle cost: evaluate on a clone of Σ, return the real accounting.

    ``system`` is left as it was — documents, read counters, clocks and
    network statistics: the clone shares its trees (frozen) and the
    evaluation copies what it changes.  ``memo`` is the running search's
    :class:`~repro.peers.service.QueryMemo`: the simulation is complete
    either way — every message, byte and work unit — but a query the
    search already evaluated over the same content is not run again.
    """
    twin = system.clone()
    evaluator = ExpressionEvaluator(twin, pick_policy)
    evaluator.memo = memo
    outcome = evaluator.eval(plan.expr, plan.site)
    stats = twin.network.stats
    return Cost(stats.bytes, stats.messages, outcome.completed_at)


class CostEstimator:
    """Static, no-execution cost estimation.

    The walk returns, per sub-expression, the estimated value size (bytes
    at the evaluation site) and accumulates transfer bytes / messages /
    time into the running totals.  Compute time is estimated from input
    sizes and the hosting peer's speed — coarser than the evaluator's
    charging but monotone in the same quantities.

    The walk is *incremental*: each (subexpression, site) pair's
    contribution — value size plus the bytes/messages/time it adds — is
    memoized by structural fingerprint, so re-costing a
    :class:`~repro.core.rules.Rewrite` only walks the rewritten spine
    and replays every untouched subtree.  Everything else the estimator
    learns about Σ lives in the same memo, one dict keyed by
    ``(kind, ...)``:

    ========================================  ==========================
    key                                       value
    ========================================  ==========================
    ``("subtree", salt, fingerprint, site)``  (size, bytes, msgs, time)
    ``("doc_bytes", name, home[, epoch])``    serialized bytes
    ``("doc_calls", name, home[, epoch])``    embedded sc profiles
    ``("doc_value", name, home[, epoch]...)`` activated tree, or False
    ``("service", provider, name, digest..)`` one invocation sample
    ``("apply", query source, arg tokens)``   (result bytes, work)
    ``("compiled", query source)``            logical plan, or None
    ========================================  ==========================

    The memo is the :attr:`~repro.core.planspace.PlanCache.estimates` of
    the ``cache`` the estimator was given — shared with whoever else
    holds that cache, emptied by its ``clear()`` — or of a private one.
    Entries assume Σ's documents and statistics are stable: written
    documents key by epoch, so a write orphans their stale entries; any
    other mutation of the system calls for ``cache.clear()``.
    """

    def __init__(self, system: AXMLSystem, statistics: Optional[Statistics] = None,
                 cache: Optional[PlanCache] = None, pick_policy=None) -> None:
        self.system = system
        self.statistics = statistics or Statistics()
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
        # re-read each run: Statistics are mutable, and the salt follows them
        self._memo_salt = self.statistics.memo_token()
        if self.pick_policy is not None:
            # picks shape the estimate: estimators with different policies
            # sharing one cache must not replay each other's deltas
            self._memo_salt = self._memo_salt + (
                type(self.pick_policy).__name__,
            )
        epoch_sig = doc_epoch_signature(self.system, plan.expr)
        if epoch_sig:
            self._memo_salt = self._memo_salt + (epoch_sig,)
        self._visit(plan.expr, plan.site)
        return Cost(self._bytes, self._messages, self._time)

    __call__ = estimate

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

    def _charge_compute(self, peer_id: str, work_bytes: int) -> None:
        peer = self.system.peer(peer_id)
        # ~1 work unit (tree node) per 32 serialized bytes, a rough census
        self._time += (work_bytes / 32.0) / peer.compute_speed

    def _charge_batch(self, src: str, dst: str, sizes) -> None:
        """``k`` back-to-back messages on one route (a response forest).

        The link is a serial resource: transmission times add up while
        propagation latency overlaps across the pipeline, so the batch
        completes after one route latency plus the summed transmissions —
        not after ``max`` of independent transfers.
        """
        if src == dst or not sizes:
            return
        links = self._route(src, dst)
        for payload_bytes in sizes:
            size = wire_size(payload_bytes, {})
            self._bytes += size
            self._messages += 1
            self._time += sum(size / l.bandwidth for l in links)
        self._time += sum(l.latency for l in links)

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
            peer = self.system.peer(home)
            if peer.has_document(name):
                size = peer.document(name).serialized_size()
            else:
                size = 1024  # unknown (e.g. temp doc created mid-plan): nominal
            self.memo[key] = size
        return size

    def _doc_calls(self, name: str, home: str) -> Tuple:
        """Embedded service-call profiles of a stored document (memoized).

        The evaluator *activates* a document on first read (definition
        (6)): every embedded ``sc`` fires — params ship to the provider,
        the provider computes, results ship back and replace the call
        node.  An estimator blind to activation prices AXML documents as
        inert trees and mis-ranks every plan that decides *where* the
        activation traffic lands.  The profile is static per (document,
        home, epoch): ``(provider, service, param payloads, param bytes,
        sc-node bytes, forward peers)`` per call, resolved and charged at
        estimate time.
        """
        key = self._doc_key("doc_calls", name, home)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        calls = []
        peer = self.system.peer(home)
        if peer.has_document(name):
            stack = [peer.document(name)]
            while stack:
                node = stack.pop()
                if not isinstance(node, Element):
                    continue
                if node.is_service_call():
                    if node.get("activated") == "true":
                        continue
                    try:
                        call = ServiceCall.parse(node)
                    except ServiceCallError:
                        continue  # malformed sc: nothing to price
                    payloads = tuple(call.param_payloads())
                    calls.append((
                        call.provider,
                        call.service,
                        payloads,
                        sum(p.serialized_size() for p in payloads),
                        node.serialized_size(),
                        tuple(t.peer for t in call.forwards),
                    ))
                    continue
                stack.extend(node.children)
        profile = tuple(calls)
        self.memo[key] = profile
        return profile

    def _sample_service(
        self, provider: str, service_name: str, payloads: Tuple
    ) -> Tuple[Optional[int], Optional[Tuple[int, ...]], Optional[Tuple]]:
        """One deterministic invocation sample: work, item bytes, items.

        Declarative services are visible queries over Σ's stored
        documents — side-effect free and deterministic — so invoking one
        *once* per call site (memoized like a catalog statistic) prices
        its exact compute work and response forest without simulating any
        candidate plan.  Opaque native implementations are never sampled
        (their bodies may have effects): work units are still exact (the
        evaluator charges the same :meth:`Service.work_units`), but the
        response sizes fall back to the statistics table.
        """
        digest = tuple(p.content_fingerprint() for p in payloads)
        key = ("service", provider, service_name, digest) + self._service_epochs(
            provider, service_name
        )
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        work: Optional[int] = None
        result_sizes: Optional[Tuple[int, ...]] = None
        result_items: Optional[Tuple] = None
        try:
            peer = self.system.peer(provider)
            service = peer.service(service_name)
            work = service.work_units(list(payloads))
            if getattr(service, "is_declarative", False):
                invocations = getattr(service, "invocations", 0)
                try:
                    responses = service.invoke(list(payloads), peer)
                    result_sizes = tuple(
                        r.serialized_size() for r in responses
                    )
                    result_items = tuple(responses)
                finally:
                    service.invocations = invocations
        except ReproError:
            pass  # unknown provider/service, failing body: statistics fallback
        sample = (work, result_sizes, result_items)
        self.memo[key] = sample
        return sample

    def _service_epochs(self, provider: str, service_name: str) -> Tuple:
        """Epoch salt for the host documents a declarative service reads.

        A written host document must orphan the stale invocation sample,
        exactly like :meth:`_doc_key` keys by epoch.  While nothing has
        been written the salt is ``()`` and keys keep their read-only
        shape.
        """
        epochs = getattr(self.system, "doc_epochs", None)
        if not epochs:
            return ()
        try:
            service = self.system.peer(provider).service(service_name)
        except ReproError:
            return ()  # unknown provider/service: nothing to salt
        if not isinstance(service, DeclarativeService):
            return ()
        return tuple(
            epochs.get(ref, 0) for ref in _doc_references(service.query)
        )

    def _service_result_bytes(
        self, provider: str, service_name: str, param_bytes: int
    ) -> int:
        """Result-size estimate for one service invocation at ``provider``."""
        result_name = None
        peer = self.system.peer(provider)
        if peer.has_service(service_name):
            service = peer.service(service_name)
            if isinstance(service, DeclarativeService):
                result_name = service.query.name or service_name
        return self.statistics.query_output_bytes(
            result_name, max(param_bytes, 1024)
        )

    def _charge_call(
        self, caller: str, provider: str, service_name: str, param_bytes: int,
        payloads: Optional[Tuple], forward_peers,
    ) -> Tuple[int, ...]:
        """Price one service call (definition (6)) whose parameters are
        ready at ``caller`` now; returns the response items' sizes.

        One CALL message, the provider's compute, then every response item
        as its own message, pipelined on the provider->caller route — or on
        each provider->target route of an explicit forward list.
        ``payloads``: the parameter trees when statically known (the call
        is then sampled), else ``None`` (statistics fallback).
        """
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
        work = result_sizes = None
        if payloads is not None:
            work, result_sizes, _ = self._sample_service(
                provider, service_name, payloads
            )
        if work is not None:
            self._time += work / self.system.peer(provider).compute_speed
        else:
            self._charge_compute(provider, param_bytes)
        if result_sizes is None:
            result_sizes = (
                self._service_result_bytes(provider, service_name, param_bytes),
            )
        sent_at = self._time
        done = sent_at
        for target in forward_peers or (caller,):
            self._time = sent_at
            self._charge_batch(provider, target, result_sizes)
            done = max(done, self._time)
        self._time = done
        return result_sizes

    def _charge_activation(self, name: str, home: str, size: int) -> int:
        """Charge a document's embedded calls; returns the activated size.

        Calls fire in parallel from the same instant at the document's
        home (the evaluator's fixpoint evaluates sc children from one
        ready time, completion = max); each non-forwarding call's result
        replaces its sc node in the stored tree, so the size shipped
        onward is the *activated* size, not the inert one.
        """
        calls = self._doc_calls(name, home)
        if not calls:
            return size
        base = self._time
        finished = base
        for provider, service_name, payloads, param_bytes, \
                node_bytes, forwards in calls:
            self._time = base
            result_sizes = self._charge_call(
                home, provider, service_name, param_bytes, payloads, forwards
            )
            size -= node_bytes
            if not forwards:
                size += sum(result_sizes)
                if len(result_sizes) > 1:
                    # multi-item responses re-root under a <results> wrapper
                    size += len("<results></results>")
            finished = max(finished, self._time)
        self._time = finished
        return max(size, 1)

    def _doc_value(self, name: str, home: str):
        """``(activated value, memo token)`` of a stored doc, or ``None``.

        The value a plan actually feeds to a query is the *activated*
        document — embedded calls replaced by their responses.  Grafting
        the sampled responses onto a copy of the stored tree materializes
        that value once per (document, epoch, pick policy), giving
        :meth:`_apply_sample` exact inputs without evaluating any plan.
        """
        key = self._doc_key("doc_value", name, home)
        calls = self._doc_calls(name, home)
        if any(c[0] == ANY_PROVIDER for c in calls):
            # @any providers resolve through the pick policy: estimators
            # with different policies must not share a materialization
            tag = type(self.pick_policy).__name__ if self.pick_policy else ""
            key = key + (tag,)
        hit = self.memo.get(key)
        if hit is not None:
            return None if hit is False else (hit, key)
        peer = self.system.peer(home)
        if not peer.has_document(name):
            self.memo[key] = False
            return None
        stored = peer.document(name)
        if not calls:
            # inert tree: the stored document IS the value (read-only use)
            self.memo[key] = stored
            return stored, key
        try:
            value = self._graft_activation(stored.copy(), home)
        except (ReproError, _UnsampledCall):
            value = None
        if value is None:
            self.memo[key] = False
            return None
        self.memo[key] = value
        return value, key

    def _graft_activation(self, tree: Element, home: str) -> Optional[Element]:
        """Mirror of the evaluator's ``_activate_tree`` on sampled data.

        Replaces every embedded call with its sampled response forest (a
        single item in place, several under a ``<results>`` wrapper,
        nothing for explicit forward lists).  Returns ``None`` when any
        call cannot be sampled — callers then skip materialization.
        """
        if tree.is_service_call():
            if tree.get("activated") == "true":
                return None
            call = ServiceCall.parse(tree)
            provider, service_name = call.provider, call.service
            if provider == ANY_PROVIDER:
                member = self.system.registry.pick_service(
                    service_name, home, self.system, self.pick_policy
                )
                provider, service_name = member.peer, member.name
            _, _, items = self._sample_service(
                provider, service_name, tuple(call.param_payloads())
            )
            if items is None:
                raise _UnsampledCall(service_name)
            if call.forwards:
                return None
            if len(items) == 1:
                return items[0].copy()
            wrapper = Element("results")
            for item in items:
                wrapper.append(item.copy())
            return wrapper
        replacements = []
        for child in list(tree.children):
            if isinstance(child, Element):
                evaluated = self._graft_activation(child, home)
                if evaluated is not child:
                    replacements.append((child, evaluated))
        for old, new in replacements:
            if new is None:
                tree.remove(old)
            else:
                tree.replace_child(old, new)
        return tree

    def _materialize(self, expr: Expression, site: str):
        """Static ``(value tree, memo token)`` of an argument, or ``None``."""
        if isinstance(expr, TreeExpr):
            for node in iter_elements(expr.tree):
                if node.is_service_call() and node.get("activated") != "true":
                    return None  # activation would fire on evaluation
            return expr.tree, expression_fingerprint(expr)
        if isinstance(expr, DocExpr):
            return self._doc_value(expr.name, expr.home)
        if isinstance(expr, GenericDoc):
            member = self.system.registry.pick_document(
                expr.name, site, self.system, self.pick_policy
            )
            return self._doc_value(member.name, member.peer)
        return None

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
            value, token = materialized
            forests.append([value])
            tokens.append(token)
        key = ("apply", query.source, tuple(tokens))
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        try:
            result = query.run(*forests)
        except ReproError:
            return None
        out_bytes = sum(item.serialized_size() for item in _as_forest(result))
        work = 1 + sum(tree_size(value) for forest in forests for value in forest)
        sample = (out_bytes, work)
        self.memo[key] = sample
        return sample

    def _plan_estimate(self, head: QueryRef, input_bytes: int) -> Optional[int]:
        """Selectivity from the compiled logical plan, when it compiles.

        Covers the single-``for`` pipeline shape without needing a
        registered statistic; anything the compiler rejects falls back to
        the statistics table's default.
        """
        from ..errors import XQueryError
        from ..xquery.algebra import SourceStats, compile_query

        key = ("compiled", head.query.source)
        if key not in self.memo:
            try:
                self.memo[key] = compile_query(head.query.module)
            except XQueryError:
                self.memo[key] = None
        plan = self.memo[key]
        if plan is None:
            return None
        item_bytes = 100
        stats = SourceStats(
            cardinality=max(1, input_bytes // item_bytes),
            item_bytes=item_bytes,
        )
        return max(1, int(plan.estimate(stats).total_bytes))

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

    def _visit_node(self, expr: Expression, site: str) -> int:
        """Returns estimated size (bytes) of the value at ``site``."""
        if isinstance(expr, TreeExpr):
            size = expr.tree.serialized_size()
            self._charge_transfer(expr.home, site, size)
            return size
        if isinstance(expr, DocExpr):
            size = self._doc_bytes(expr.name, expr.home)
            # first read activates embedded calls at the home (def. (6));
            # what ships onward is the activated document
            size = self._charge_activation(expr.name, expr.home, size)
            self._charge_transfer(expr.home, site, size)
            return size
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
            # ready instant, so estimated completion is the max over
            # fragments while traffic stays the sum; replicated fragments
            # resolve through the generic registry like _eval_fragment
            total = 0
            base = self._time
            finished = base
            for fragment in catalog.fragments(expr.name):
                live = [
                    pid
                    for pid in fragment.peers
                    if pid in self.system.peers
                    and self.system.peers[pid].alive
                    and self.system.peers[pid].has_document(fragment.name)
                ]
                if not live:
                    raise FragmentUnavailableError(
                        fragment.name, fragment.peers
                    )
                self._time = base
                if fragment.generic is not None:
                    total += self._visit(GenericDoc(fragment.generic), site)
                else:
                    total += self._visit(DocExpr(fragment.name, live[0]), site)
                finished = max(finished, self._time)
            self._time = finished
            return total
        if isinstance(expr, Gather):
            # order-preserving union: parts evaluate in parallel from the
            # same instant — completion is the slowest part, bytes the sum
            total = 0
            base = self._time
            finished = base
            for part in expr.parts:
                self._time = base
                total += self._visit(part, site)
                finished = max(finished, self._time)
            self._time = finished
            return total
        if isinstance(expr, QueryRef):
            size = expr.query.source_bytes
            self._charge_transfer(expr.home, site, size)
            return size
        if isinstance(expr, QueryApply):
            # the query head resolves concurrently with the args: the
            # evaluator ships the query text first, evaluates every arg
            # from the same instant, and applies at max(query, args)
            input_bytes = 0
            base = self._time
            finished = base
            name = None
            if isinstance(expr.query, QueryRef):
                name = expr.query.query.name
                self._charge_transfer(
                    expr.query.home, site, expr.query.query.source_bytes
                )
                finished = max(finished, self._time)
            for arg in expr.args:
                self._time = base
                input_bytes += self._visit(arg, site)
                finished = max(finished, self._time)
            self._time = finished
            known = (
                name in self.statistics.selectivity
                or name in self.statistics.result_bytes
            )
            if not known and isinstance(expr.query, QueryRef):
                # one application sample beats any selectivity guess:
                # exact output bytes and exact work units, reused by every
                # candidate plan that moves this apply between sites
                sampled = self._apply_sample(expr.query.query, expr.args, site)
                if sampled is not None:
                    out_bytes, work = sampled
                    self._time += work / self.system.peer(site).compute_speed
                    return out_bytes
            self._charge_compute(site, input_bytes)
            if not known and isinstance(expr.query, QueryRef):
                plan_bytes = self._plan_estimate(expr.query, input_bytes)
                if plan_bytes is not None:
                    return plan_bytes
            return self.statistics.query_output_bytes(name, input_bytes)
        if isinstance(expr, ServiceCallExpr):
            # params evaluate in parallel, then ship together as one call
            param_bytes = 0
            base = self._time
            finished = base
            for p in expr.params:
                self._time = base
                param_bytes += self._visit(p, site)
                finished = max(finished, self._time)
            self._time = finished
            result_sizes = self._charge_call(
                site,
                expr.provider,
                expr.service,
                param_bytes,
                _static_payloads(expr.params),
                tuple(target.peer for target in expr.forwards),
            )
            return 0 if expr.forwards else sum(result_sizes)
        if isinstance(expr, Send):
            payload_bytes = self._visit(expr.payload, site)
            hops = [site] + list(expr.via)
            final = _dest_peer_of(expr.dest, site)
            for src, dst in zip(hops, hops[1:] + [final]):
                self._charge_transfer(src, dst, payload_bytes)
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


def _dest_peer_of(dest, default: str) -> str:
    if isinstance(dest, PeerDest):
        return dest.peer
    if isinstance(dest, DocDest):
        return dest.peer
    if isinstance(dest, NodesDest) and dest.nodes:
        return dest.nodes[0].peer
    return default
