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

from ..errors import NoRouteError, ReproError, UnknownPeerError
from ..net.message import wire_size
from ..peers.service import QueryMemo, _doc_references
from ..peers.system import AXMLSystem
from ..xmlcore.model import Element, tree_size
from .evaluator import EvalOutcome, ExpressionEvaluator, _as_forest
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
    QueryApply,
    QueryRef,
    Send,
    Seq,
    ServiceCallExpr,
    TreeExpr,
)
from .rules import Plan
from .serialize import expression_fingerprint, expression_size

__all__ = ["Cost", "measure", "Simulation", "Simulations", "CostEstimator"]

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
