"""The high-level façade: one object owning the paper's full loop.

A :class:`Session` wraps an :class:`~repro.peers.system.AXMLSystem` and
runs the complete pipeline the paper describes — parse the query,
build the naive plan, rewrite it with equivalence rules (10)–(16)
through a pluggable :class:`~repro.core.strategies.OptimizerStrategy`,
optionally machine-verify the chosen rewrite, evaluate the winner —
and hands back a single structured :class:`ExecutionReport`: answer
forest, chosen plan, original/best cost, rewrite trace, and per-peer
transfer/compute statistics pulled from the network simulator.

>>> from repro import connect
>>> from repro.peers import AXMLSystem
>>> from repro.xmlcore import parse
>>> system = AXMLSystem.with_peers(["laptop", "server"], bandwidth=50_000.0)
>>> _ = system.peer("server").install_document("cat", parse(
...     "<c>" + "".join(f"<i><p>{n}</p></i>" for n in range(200)) + "</c>"))
>>> report = connect(system).query(
...     "for $i in $d//i where $i/p > 197 return $i/p", at="laptop",
...     bind={"d": "cat@server"})
>>> len(report.items)
2
>>> report.best_cost.bytes < report.original_cost.bytes
True

Entry points, one per operation: :meth:`Session.query` (XQuery text
in, report out), :meth:`Session.run` (pre-built
:class:`~repro.core.rules.Plan` in), :meth:`Session.explain` (optimize
only, execute nothing), :meth:`Session.write` (one update op on the live
system), and — for *concurrent* workloads — :meth:`Session.serve`, which
hands a list of :class:`~repro.engine.jobs.JobRequest` (or a closed-loop
feed) to the :mod:`repro.engine` scheduler and returns a fleet-level
:class:`~repro.engine.metrics.ServingReport`.  :func:`connect` is the
one-line constructor re-exported as ``repro.connect``.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, replace
from typing import (
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .core.cost import Cost, Simulation
from .core.costmodel import CostModel
from .core.evaluator import EvalOutcome
from .core.expressions import (
    DocExpr,
    Expression,
    FragmentedDoc,
    GenericDoc,
    QueryApply,
    QueryRef,
    TreeExpr,
)
from .core.optimizer import Optimizer
from .core.planspace import (
    CacheStats,
    PlanCache,
    doc_epoch_signature,
    plan_fingerprint,
    relabel,
)
from .core.rules import DEFAULT_RULES, Plan, RewriteRule
from .core.strategies import OptimizerStrategy, improvement_ratio, make_strategy
from .core.verify import VerificationResult, check_equivalence
from .errors import (
    DeadlineExceededError,
    DecompositionError,
    SessionError,
    XQueryError,
)
from .faults import FaultState, RecoveringEvaluator
from .obs.tracer import NO_TRACER
from .peers.system import AXMLSystem
from .xmlcore.model import Element
from .xmlcore.serializer import serialize
from .xquery import Query
from .xquery.decompose import Decomposition, free_variables, push_selection

__all__ = ["ExecutionReport", "Session", "connect"]


class _SharedTexts:
    """A bounded content-addressed table of strings.

    :meth:`share` hands back one object per distinct text, so answers
    that callers keep from many runs of the same query cost one copy.
    Bounded by total characters, oldest entries evicted first; an
    evicted text is merely no longer shared.
    """

    def __init__(self, max_chars: int) -> None:
        self.max_chars = max_chars
        self._texts: Dict[str, str] = {}  # insertion-ordered: oldest first
        self._chars = 0

    def share(self, text: str) -> str:
        kept = self._texts.get(text)
        if kept is not None:
            return kept
        self._texts[text] = text
        self._chars += len(text)
        while self._chars > self.max_chars:
            oldest = next(iter(self._texts))
            del self._texts[oldest]
            self._chars -= len(oldest)
        return text


#: The answer texts :attr:`ExecutionReport.answers` hands out: one table
#: per process, not per session, because answers outlive the session
#: that computed them — and a shared ``str`` is visible only to ``is``.
_ANSWER_TEXTS = _SharedTexts(max_chars=1 << 20)

#: Value types accepted on the right-hand side of a parameter binding.
Binding = Union[str, Tuple[str, str], Expression, Element]


@dataclass
class ExecutionReport:
    """Everything one pipeline run produced, in one structured object.

    ``describe()`` is the pretty-printer the examples and benchmarks
    share — the one place turning costs, verdicts and per-peer stats
    into text.
    """

    #: The chosen (cheapest admissible) plan.
    plan: Plan
    #: The naive plan the pipeline started from.
    original: Plan
    best_cost: Cost
    original_cost: Cost
    #: Plans scored during the search.
    explored: int
    #: Name of the strategy that searched ("none" when optimization was off).
    strategy: str
    #: XQuery source text, when the run entered through :meth:`Session.query`.
    source: Optional[str] = None
    #: Query name, when known.
    name: Optional[str] = None
    #: (plan, cost, producing rule) search trace, best first (empty unless
    #: the session was created with ``trace=True``).
    trace: List[Tuple[Plan, Cost, str]] = field(default_factory=list)
    #: (plan, lower bound, producing rule) for every candidate the search
    #: pruned unscored, lowest bound first (empty unless ``trace=True``).
    pruned: List[Tuple[Plan, Cost, str]] = field(default_factory=list)
    #: Machine-checked equivalence of original vs chosen plan (``verify=True``).
    verification: Optional[VerificationResult] = None
    #: Rule-(11) split of the query, when it is decomposable.
    decomposition: Optional[Decomposition] = None
    #: The answer forest (empty for :meth:`Session.explain` / pure sends).
    #: Items are read-only values: they may be frozen and shared — with
    #: stored documents, with other answers, and, when the job was
    #: executed by the search's simulation, with what the oracle's memo
    #: kept — so editing one raises
    #: :class:`~repro.errors.FrozenTreeError`.  Take ``item.copy()``
    #: before editing.
    items: List[Element] = field(default_factory=list)
    #: Whether the chosen plan was actually evaluated.
    executed: bool = False
    #: Virtual time at which value and side effects settled.
    completed_at: float = 0.0
    #: Whole-network totals for the execution (bytes, messages, by kind).
    network: Dict[str, object] = field(default_factory=dict)
    #: Per-peer stats: traffic attribution plus compute counters.
    peers: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: What planning this run did: plans scored (actual cost-model
    #: invocations), expanded and deduped, estimator-memo traffic,
    #: prepared-table traffic.  A run served from the prepared-plan
    #: table scored nothing: ``prepared_hits`` is 1 and everything else
    #: 0.  Set on every report a :class:`Session` hands out.
    plan_cache: Optional[CacheStats] = None
    #: Provenance of a degraded answer (:class:`repro.faults.PartialAnswer`)
    #: when the run executed with ``partial=True`` under faults and lost
    #: parts (or blew its deadline); ``None`` means complete and exact.
    partial: Optional[object] = None
    #: Virtual-clock span tree (:class:`repro.obs.Trace`) recorded when
    #: the session has a :class:`repro.obs.Tracer` installed; ``None``
    #: otherwise.  (The rewrite-*search* trace lives on :attr:`trace`;
    #: this is the *execution* trace.)
    spans: Optional[object] = None

    @property
    def improvement(self) -> float:
        """Scalar cost ratio original/best (>1 means the optimizer won)."""
        return improvement_ratio(self.original_cost, self.best_cost)

    @property
    def answers(self) -> List[str]:
        """The answer forest, serialized; equal texts are one shared object."""
        return [_ANSWER_TEXTS.share(serialize(item)) for item in self.items]

    def describe(self, include_trace: Optional[bool] = None) -> str:
        """Human-readable report; the library's single cost pretty-printer.

        ``include_trace`` defaults to whether a trace was recorded.
        """
        label = self.name or "(anonymous)"
        lines = []
        if self.source is not None:
            lines.append(f"query:       {label} @{self.original.site}")
        lines.append(f"original:    {self.original.describe()}")
        lines.append(f"             {self.original_cost.describe()}")
        lines.append(f"plan:        {self.plan.describe()}")
        lines.append(f"             {self.best_cost.describe()}")
        lines.append(
            f"improvement: x{self.improvement:.2f}  "
            f"({self.explored} plans explored, {self.strategy} strategy)"
        )
        if self.plan_cache is not None and self.plan_cache.prepared_hits:
            lines.append(f"{'':13s}prepared plan (search skipped)")
        if self.decomposition is not None:
            lines.append(
                "decompose:   rule (11) applies "
                f"(inner {self.decomposition.inner.name!r})"
            )
        if self.verification is not None:
            lines.append(
                f"equivalent?  {self.verification.equivalent} "
                f"({self.verification.reason})"
            )
        if self.executed:
            lines.append(
                f"answers:     {len(self.items)} items in "
                f"{self.completed_at * 1000:.2f}ms virtual time"
            )
            if self.plan_cache is not None and self.plan_cache.executions_reused:
                lines.append(f"{'':13s}executed by the search's simulation")
            for peer_id, stats in sorted(self.peers.items()):
                traffic = stats.get("traffic")
                if traffic is None:
                    continue
                lines.append(
                    f"  peer {peer_id:12s} {traffic.describe()}, "
                    f"work {stats.get('work_done', 0)}"
                )
        if self.plan_cache is not None and self.plan_cache.plans_deduped:
            lines.append(f"{'':13s}{self.plan_cache.describe()}")
        if include_trace is None:
            include_trace = bool(self.trace)
        if include_trace and self.trace:
            lines.append("trace:")
            for plan, cost, rule in self.trace:
                lines.append(f"  {rule:32s} {cost.describe():>34s}")
            if self.pruned:
                lines.append("pruned (not simulated; cost at least):")
                for plan, bound, rule in self.pruned:
                    lines.append(f"  {rule:32s} {'≥ ' + bound.describe():>34s}")
        return "\n".join(lines)


class Session:
    """The documented entry point: a system plus a configured pipeline.

    One method per operation: :meth:`compile` and :meth:`plan` build,
    :meth:`query` / :meth:`run` plan and execute one job,
    :meth:`explain` only plans, :meth:`write` applies one update op,
    :meth:`serve` runs a stream of jobs concurrently, and
    :meth:`plan_job` is the scheduler's planning half.

    Parameters
    ----------
    system:
        The :class:`AXMLSystem` to query.
    strategy:
        A registered strategy name (``"beam"``, ``"greedy"``,
        ``"exhaustive"``, or anything added via
        :func:`~repro.core.strategies.register_strategy`) or an
        :class:`~repro.core.strategies.OptimizerStrategy` instance,
        which is how a strategy is configured (e.g.
        ``strategy=BeamSearchStrategy(depth=2, beam=4)``).
    verify:
        Machine-check every rewrite kept during the search *and* the
        finally chosen plan against the original (slow, sound).
    trace:
        Keep the full search trace on each report (a bool).
    tracer:
        A :class:`repro.obs.Tracer` instance turning on virtual-clock
        span recording for executions and serving runs.
    cost_model:
        How candidate plans are priced during the search: one of the
        names of :data:`~repro.core.costmodel.COST_MODELS`
        (``"oracle"`` — clone-and-simulate every candidate, the
        historical default; ``"analytic"`` — static estimation from
        the catalog and one run of each call site and query
        application, no plan simulation; ``"hybrid"`` — analytic
        frontier, oracle-checked final plan) or an object with a
        ``name`` and a ``score(plan) -> Cost``
        (:class:`~repro.core.costmodel.CostModel`).
    rules / pick_policy:
        Forwarded to the optimizer and evaluator.
    plan_cache:
        The planner's stores (:class:`~repro.core.planspace.PlanCache`):
        the prepared-plan table and the estimator memo.  By default the
        session creates its own, and, because runs never mutate Σ, it
        pays off across runs: a job repeating an
        already-planned query (same text, site, bindings and name
        width, same document epochs) skips the search altogether and
        runs the *prepared plan*, relabelled with its own query names.
        Pass an existing cache to share it between sessions over the
        *same* system state (prepared plans are keyed by the session's
        search configuration, so differently configured sessions never
        serve each other's), or ``plan_cache=None`` for no prepared
        table: every job is searched (same best plans, at a search
        each; the estimator then keeps a private memo).  Sessions with
        ``verify=True`` or ``trace=True`` always search, because they
        report what only a search produces.

    Every read — :meth:`query`, :meth:`run`, :meth:`serve` — executes on
    a clone of Σ, so the session's system is never mutated by a run,
    matching the measurement semantics of :func:`repro.core.cost.measure`.
    When the oracle already simulated the chosen plan on such a clone
    during the search, that simulation *is* the execution (see
    :meth:`_pipeline` for when; ``executions_reused`` counts it).
    :meth:`write` is the one operation that changes the live Σ.
    """

    def __init__(
        self,
        system: AXMLSystem,
        *,
        strategy: Union[str, OptimizerStrategy] = "beam",
        verify: bool = False,
        trace: bool = False,
        tracer=None,
        rules: Sequence[RewriteRule] = DEFAULT_RULES,
        cost_model: Union[str, CostModel, None] = None,
        pick_policy=None,
        plan_cache: Union[PlanCache, None, str] = "auto",
        retry=None,
        fault_plan=None,
    ) -> None:
        self.system = system
        self.strategy = make_strategy(strategy)
        self.verify = verify
        if not isinstance(trace, bool):
            raise SessionError(
                f"trace= is the bool search-trace flag, got {trace!r}; "
                "pass a Tracer through tracer="
            )
        #: Record the rewrite-search trace on every report.
        self.trace = trace
        #: Installed :class:`repro.obs.Tracer` (``None``:
        #: :data:`~repro.obs.NO_TRACER`); executions and drains reset and
        #: fill it, surfacing the result on :attr:`ExecutionReport.spans`
        #: / ``ServingReport.trace``.
        self.tracer = tracer or NO_TRACER
        self.pick_policy = pick_policy
        #: Recovery policy (:class:`repro.faults.RetryPolicy`) wired into
        #: every evaluator this session creates; ``None`` (default) means
        #: faults propagate typed on first occurrence.
        self.retry = retry
        #: Fault plan (:class:`repro.faults.FaultPlan`) installed on the
        #: serving/execution system before evaluation; ``None`` or an
        #: empty plan leaves behavior byte-identical to fault-free runs.
        self.fault_plan = fault_plan
        if isinstance(plan_cache, str):
            if plan_cache != "auto":
                raise SessionError(
                    f"plan_cache must be a PlanCache, None, or 'auto'; "
                    f"got {plan_cache!r}"
                )
            plan_cache = PlanCache()
        self.plan_cache = plan_cache
        #: Equivalence verdicts of the job being planned, keyed by the
        #: pair of plan fingerprints, so the finally chosen plan is not
        #: re-verified after the search already checked it
        #: (check_equivalence is the slow, evaluate-both-sides path).
        self._verify_cache: Dict[Tuple[str, str], VerificationResult] = {}
        #: The first :class:`Query` compiled from each source text; later
        #: :meth:`compile` calls copy it instead of parsing again.
        self._compiled: Dict[str, Query] = {}
        self.optimizer = Optimizer(
            system,
            rules=rules,
            cost_model=cost_model,
            # a VerificationResult is truthy exactly when equivalent
            verifier=self._check_equivalence if verify else None,
            cache=self.plan_cache,
            pick_policy=pick_policy,
        )
        #: The resolved :class:`~repro.core.costmodel.CostModel` pricing
        #: this session's searches (``session.cost_model.name`` names it).
        self.cost_model = self.optimizer.cost_model

    def _check_equivalence(self, left: Plan, right: Plan) -> VerificationResult:
        key = (plan_fingerprint(left), plan_fingerprint(right))
        result = self._verify_cache.get(key)
        if result is None:
            result = check_equivalence(left, right, self.system, self.pick_policy)
            self._verify_cache[key] = result
        return result

    # -- plan construction ---------------------------------------------------------
    def compile(
        self,
        source: Union[str, Query],
        params: Sequence[str] = (),
        name: Optional[str] = None,
    ) -> Query:
        """Parse XQuery text into a :class:`Query` (idempotent on queries).

        A source text is parsed once per session: compiling it again
        returns a copy sharing the parsed module
        (:meth:`Query.copy <repro.xquery.Query.copy>`).
        """
        if isinstance(source, Query):
            return source
        known = self._compiled.get(source)
        if known is not None:
            return known.copy(name, params)
        query = self._compiled[source] = Query(source, params=params, name=name)
        return query

    def plan(
        self,
        source: Union[str, Query],
        at: str,
        bind: Optional[Mapping[str, Binding]] = None,
        name: Optional[str] = None,
    ) -> Plan:
        """The *naive* plan: apply the query at ``at`` to its bound arguments.

        ``bind`` maps each query parameter to the data it ranges over:
        ``"doc@peer"`` (a concrete document), ``"doc@any"`` (a generic
        document resolved through the registry), ``"doc@dist"`` (the
        fragmented view of a document registered in the system's
        :attr:`~repro.peers.system.AXMLSystem.fragments` catalog,
        evaluated scatter-gather), a ``(doc, peer)`` tuple,
        an :class:`Element` (a literal tree, homed at ``at``), or any
        algebra :class:`Expression`.
        """
        self.system.peer(at)  # fail fast on unknown sites
        bind = dict(bind or {})
        query = self.compile(source, params=tuple(bind), name=name)
        # parameters may be declared (external variables) or implicit (free
        # variables of the body); both need a binding before evaluation
        declared = {v.name for v in query.module.variables}
        implicit = free_variables(query.module.body) - declared
        missing = sorted(
            set(p for p in query.params if p not in bind)
            | (implicit - set(bind))
        )
        if missing:
            raise SessionError(
                f"no binding for query parameter(s) {missing}; "
                "pass bind={'param': 'doc@peer', ...}"
            )
        # a pre-built Query may not list its implicit free variables as
        # params; widen it so their bindings become arguments, not no-ops
        extra = sorted((implicit & set(bind)) - set(query.params))
        if extra:
            query = query.copy(query.name, tuple(query.params) + tuple(extra))
        args = tuple(self._resolve_binding(bind[p], at) for p in query.params)
        return Plan(QueryApply(QueryRef(query, at), args), at)

    def _resolve_binding(self, value: Binding, at: str) -> Expression:
        if isinstance(value, Expression):
            return value
        if isinstance(value, Element):
            return TreeExpr(value, at)
        if isinstance(value, tuple) and len(value) == 2:
            name, peer = value
            return self._doc_expression(name, peer)
        if isinstance(value, str) and "@" in value:
            name, _, peer = value.rpartition("@")
            return self._doc_expression(name, peer)
        raise SessionError(
            f"cannot bind {value!r}: expected 'doc@peer', 'doc@any', a "
            "(doc, peer) tuple, an Element, or an algebra Expression"
        )

    def _doc_expression(self, name: str, peer: str) -> Expression:
        if peer == "any":
            return GenericDoc(name)
        if peer == "dist":
            if not self.system.fragments.is_fragmented(name):
                raise SessionError(
                    f"document {name!r} is not fragmented; register it "
                    "through repro.dist.Fragmenter or bind 'doc@peer'"
                )
            return FragmentedDoc(name)
        self.system.peer(peer)
        return DocExpr(name, peer)

    # -- the pipeline --------------------------------------------------------------
    def query(
        self,
        source: Union[str, Query],
        at: str,
        bind: Optional[Mapping[str, Binding]] = None,
        name: Optional[str] = None,
        optimize: bool = True,
        deadline: Optional[float] = None,
        partial: bool = False,
    ) -> ExecutionReport:
        """Parse → decompose → optimize → verify → evaluate, in one call.

        ``deadline`` bounds the answer's virtual settle time (typed
        :class:`~repro.errors.DeadlineExceededError` past it);
        ``partial=True`` degrades gracefully under injected faults
        instead of failing — see :mod:`repro.faults`.
        """
        query = self.compile(source, params=tuple(bind or {}), name=name)
        plan = self.plan(query, at, bind=bind, name=name)
        return self._pipeline(
            plan,
            execute=True,
            optimize=optimize,
            source=query.source,
            name=query.name,
            decomposition=self._try_decompose(query),
            deadline=deadline,
            partial=partial,
        )

    def run(self, plan: Plan, optimize: bool = True) -> ExecutionReport:
        """Optimize (unless disabled) and evaluate a pre-built plan."""
        return self._pipeline(plan, execute=True, optimize=optimize)

    def explain(
        self,
        plan_or_source: Union[Plan, str, Query],
        at: Optional[str] = None,
        bind: Optional[Mapping[str, Binding]] = None,
        name: Optional[str] = None,
    ) -> ExecutionReport:
        """Optimize and report — evaluate nothing, mutate nothing."""
        if isinstance(plan_or_source, Plan):
            return self._pipeline(plan_or_source, execute=False, optimize=True)
        if at is None:
            raise SessionError("explain(source, ...) needs the evaluation site 'at'")
        query = self.compile(plan_or_source, params=tuple(bind or {}), name=name)
        plan = self.plan(query, at, bind=bind, name=name)
        return self._pipeline(
            plan,
            execute=False,
            optimize=True,
            source=query.source,
            name=query.name,
            decomposition=self._try_decompose(query),
        )

    # -- writes --------------------------------------------------------------------
    def write(self, op, now: float = 0.0):
        """Apply one node-targeted mutation to the live Σ; returns a
        :class:`~repro.writes.WriteResult`.

        The op (:class:`~repro.writes.InsertOp` /
        :class:`~repro.writes.UpdateOp` / :class:`~repro.writes.DeleteOp`)
        is routed to the owning fragment via the catalog's ordinal
        ranges, lands on the primary copy, and propagates to replicas
        and mirrors as charged ships on the virtual clock.  It is the one
        operation that mutates ``self.system``: every read runs on a
        clone, so a later read sees the write.

        The plan cache is deliberately *not* cleared: the write bumps
        the touched documents' epochs, and epoch-salted keys
        (:func:`repro.core.planspace.doc_epoch_signature`) orphan
        exactly the stale prepared plans and estimates while every
        other document's keep serving hits.
        """
        from .writes import DocumentWriter

        return DocumentWriter(self.system).apply(op, now=now)

    # -- concurrent serving --------------------------------------------------------
    def serve(
        self,
        requests=(),
        feed=None,
        seed: int = 0,
        admission="queue-depth",
    ):
        """Run a stream of jobs to quiescence; returns the fleet report.

        ``requests`` is an iterable of
        :class:`~repro.engine.jobs.JobRequest` (e.g. from
        :meth:`LoadGenerator.open_loop
        <repro.engine.loadgen.LoadGenerator.open_loop>`), ``feed`` an optional
        closed-loop source (see :class:`~repro.engine.loadgen.ClosedLoopFeed`)
        consulted at every completion for follow-on requests.  Unlike
        :meth:`query`, jobs interleave as discrete events on one shared
        virtual clock — each starting at its ``arrival`` — so transfers
        and compute of *different* queries contend for the same FIFO
        links and serial CPUs.  Each call drains a fresh
        :class:`~repro.engine.scheduler.Scheduler` (``seed`` breaks
        same-instant ties, ``admission`` picks generic replicas).  The
        session's fault plan applies its crashes and rejoins at their
        instants (their action trace lands on :attr:`ServingReport.actions
        <repro.engine.metrics.ServingReport.actions>`).  Returns a
        :class:`~repro.engine.metrics.ServingReport`: per-job
        :class:`ExecutionReport`\\ s plus fleet metrics (makespan,
        latency percentiles, queries/sec, per-peer utilization).
        """
        from .engine.scheduler import Scheduler

        scheduler = Scheduler(self, seed=seed, admission=admission)
        scheduler.submit_all(requests)
        return scheduler.drain(feed)

    def plan_job(self, request) -> ExecutionReport:
        """Plan (and optimize) one serving job without executing it.

        The scheduler's planning half: builds the naive plan for a
        :class:`~repro.engine.jobs.JobRequest`, searches it through the
        session's strategy with the shared plan cache (warm-cache
        serving: a repeated query skips the search), optionally
        verifies the winner, and returns the
        not-yet-executed report for the engine to run.
        """
        query = self.compile(
            request.source, params=tuple(request.bind or {}), name=request.name
        )
        plan = self.plan(query, request.at, bind=request.bind, name=request.name)
        # a served job runs on the serving clone at its admission instant: the
        # search's run on a clone of Σ at time zero is not its execution
        return self._plan_report(
            plan, request.optimize, source=query.source, name=query.name
        )[0]

    # -- internals ----------------------------------------------------------------
    def _try_decompose(self, query: Query) -> Optional[Decomposition]:
        try:
            return push_selection(query)
        except (DecompositionError, XQueryError):
            return None

    def _prepared_key(self, plan: Plan, optimize: bool) -> Tuple:
        """Everything the outcome of searching ``plan`` depends on.

        The naive plan itself — with query names reduced to their
        serialized widths when the cost model sees no more of them
        (``name_blind``), exact otherwise — the epochs of the documents
        it reads, and what shapes this session's searches: strategy type
        and options, cost model name, rule set, pick policy, and which Σ.
        """
        model = self.cost_model
        strategy = self.strategy
        options = getattr(strategy, "__dict__", None)
        return (
            plan_fingerprint(plan, getattr(model, "name_blind", False)),
            doc_epoch_signature(self.system, plan.expr),
            optimize,
            type(strategy),
            strategy if options is None else repr(sorted(options.items())),
            model.name,
            tuple(self.optimizer.rules),
            self.pick_policy,
            self.system,
        )

    def _plan_report(
        self,
        plan: Plan,
        optimize: bool,
        source: Optional[str] = None,
        name: Optional[str] = None,
        decomposition: Optional[Decomposition] = None,
    ) -> Tuple[ExecutionReport, Optional[Simulation]]:
        """Search → verify → the not-yet-executed report: the one planning path.

        The search is skipped when the session's plan cache holds its
        outcome already (see :meth:`_prepared_key`); the stored plan is
        relabelled with this job's query names, so everything downstream
        — wire bytes, deployed-service names, event traces — is what a
        search would have produced.  Returned beside the report: the
        oracle's run of the chosen plan, when this call's search made one
        (never for a prepared hit) — for :meth:`_pipeline`, and nobody
        else, to execute the job by.
        """
        self._verify_cache.clear()  # verdicts are per job: Σ may have changed
        # this job's planning is whatever the counters move by from here
        stats = self.optimizer.cache.stats
        before = stats.copy()
        # verify and trace ask for a search's by-products; no table keeps those
        table = None if self.verify or self.trace else self.plan_cache
        key = prepared = None
        if table is not None:
            key = self._prepared_key(plan, optimize)
            prepared = table.lookup_prepared(key)
        if prepared is not None:
            planned, found = prepared
            result = replace(found, best=relabel(found.best, planned, plan))
        else:
            result = self.optimizer.optimize_with(
                self.strategy if optimize else None, plan
            )
        if table is not None and prepared is None:
            # without the trace and the pruned list (they pin every plan
            # priced), the counters (they are this job's) and the
            # simulation (it is this job's execution, and pins a clone of Σ)
            table.store_prepared(
                key,
                (plan, replace(result, trace=[], pruned=[], cache=None, simulation=None)),
            )
        verification: Optional[VerificationResult] = None
        if self.verify:
            if result.best is plan:
                verification = VerificationResult(True, "plan unchanged")
            else:
                verification = self._check_equivalence(plan, result.best)
        return ExecutionReport(
            plan=result.best,
            original=plan,
            best_cost=result.best_cost,
            original_cost=result.original_cost,
            explored=result.explored,
            strategy=result.strategy or getattr(self.strategy, "name", "?"),
            source=source,
            name=name,
            trace=list(result.trace) if self.trace else [],
            pruned=list(result.pruned) if self.trace else [],
            verification=verification,
            decomposition=decomposition,
            plan_cache=stats.delta_since(before),
        ), result.simulation

    def _pipeline(
        self,
        plan: Plan,
        execute: bool,
        optimize: bool,
        source: Optional[str] = None,
        name: Optional[str] = None,
        decomposition: Optional[Decomposition] = None,
        deadline: Optional[float] = None,
        partial: bool = False,
    ) -> ExecutionReport:
        """Plan, then execute one lone job (:meth:`query` / :meth:`run`).

        A job the bare evaluator would run — no fault plan, no retry
        policy, no tracer, no deadline, not
        ``partial`` — is executed by the search's own simulation of its
        plan when there is one (an oracle search that scored the pick):
        the report's answers, completion time, network and per-peer
        statistics are that run's, which is what evaluating the plan again
        on a fresh clone of Σ would give (``executions_reused`` counts
        it; a stateful pick policy such as ``RandomPolicy`` keeps the
        draws the simulation made).  Every other job goes through
        :meth:`_evaluator` and :meth:`_run_report`.
        """
        report, simulation = self._plan_report(
            plan, optimize, source, name, decomposition
        )
        if not execute:
            return report
        if (
            simulation is not None
            and not self.fault_plan
            and self.retry is None
            and self.tracer is NO_TRACER
            and deadline is None
            and not partial
        ):
            outcome, target = simulation
            report.items = list(outcome.items)
            report.executed = True
            report.completed_at = outcome.completed_at
            for stats in (self.optimizer.cache.stats, report.plan_cache):
                stats.executions_reused += 1
        else:
            evaluator = self._evaluator(self.pick_policy)
            target = evaluator.system
            job_name = report.name or "query"
            target.network.tracer.begin_job(
                job_name,
                0.0,
                site=report.plan.site,
                strategy=report.strategy,
                explored=report.explored,
            )
            self._run_report(
                report, evaluator, job_name, deadline=deadline, partial=partial
            )
            report.spans = target.network.tracer.trace()
        report.network = target.network.stats.snapshot()
        report.peers = target.stats_snapshot()
        return report

    def _evaluator(self, pick_policy) -> RecoveringEvaluator:
        """The evaluator every job of one run goes through.

        Its ``system`` is the run's target Σ, a fresh clone, whose network
        starts with no fault state, the no-op tracer and an empty registry
        (:meth:`~repro.net.network.Network.clone`).  Here, and only here,
        this session's fault plan (a fresh :class:`FaultState` for a
        non-empty plan) and tracer, reset, are installed on it.  That
        ``network.tracer`` is the run's one tracer and ``network.metrics``
        its one registry: the network, the evaluator and the scheduler
        record through them.
        """
        target = self.system.clone()
        network = target.network
        if self.fault_plan:
            network.faults = FaultState(self.fault_plan)
        network.tracer = self.tracer
        self.tracer.reset()
        return RecoveringEvaluator(target, pick_policy, policy=self.retry)

    def _run_report(
        self,
        report: ExecutionReport,
        evaluator: RecoveringEvaluator,
        name: str,
        *,
        ready_at: float = 0.0,
        deadline: Optional[float] = None,
        partial: bool = False,
    ) -> None:
        """Run a planned job through ``evaluator``: the one execution path.

        Evaluates ``report.plan`` from ``ready_at`` (zero for a lone
        :meth:`query`, the admission instant for a served job), resolves
        ``deadline`` (virtual seconds past ``ready_at``) and ``partial``,
        and fills in the report's execution half.  The job's span root is
        already open on the run's tracer (whoever admitted the job opened
        it); this adds the ``eval`` subtree and closes the root however
        the job ends.

        Raises the evaluator's typed errors unchanged, and
        :class:`~repro.errors.DeadlineExceededError` (``at`` = the
        deadline) for an answer that settled too late without ``partial``;
        only then is the report already marked executed.
        """
        tracer = evaluator.system.network.tracer
        deadline_at = ready_at + deadline if deadline is not None else math.inf
        evaluator.begin_job(deadline_at=deadline_at, partial=partial)
        tracer.push("eval", "eval", ready_at)
        try:
            outcome: EvalOutcome = evaluator.eval(
                report.plan.expr, report.plan.site, ready_at=ready_at
            )
        except BaseException as exc:
            tracer.pop(ready_at)
            tracer.end_job(ready_at, status="failed", error=type(exc).__name__)
            raise
        report.items = list(outcome.items)
        report.executed = True
        report.completed_at = outcome.completed_at
        late = outcome.completed_at > deadline_at
        report.partial = evaluator.end_job(outcome.completed_at)
        tracer.pop(outcome.completed_at)
        if late and not partial:
            # the answer exists but nobody is waiting for it any more:
            # the client's budget ran out at deadline_at
            tracer.end_job(
                deadline_at, status="failed", error="DeadlineExceededError"
            )
            raise DeadlineExceededError(
                f"job {name!r} settled at {outcome.completed_at:.6f}, "
                f"past its deadline {deadline_at:.6f}",
                at=deadline_at,
            )
        tracer.mark("settle", "mark", outcome.completed_at)
        tracer.end_job(
            outcome.completed_at, status="done", partial=report.partial is not None
        )


#: The keywords :class:`Session` takes, the only ones :func:`connect` passes on.
_SESSION_KEYWORDS = list(inspect.signature(Session).parameters)[1:]


def connect(
    system: Optional[AXMLSystem] = None,
    *,
    peers: Optional[Sequence[str]] = None,
    topology: str = "full_mesh",
    **session_kwargs,
) -> Session:
    """Open a :class:`Session` — the documented top-level entry point.

    Either hand over an existing :class:`AXMLSystem`, or name the peers
    and let ``connect`` build one on a standard topology::

        session = repro.connect(system, strategy="greedy", verify=True)
        session = repro.connect(peers=["laptop", "server"])
    """
    unknown = sorted(set(session_kwargs) - set(_SESSION_KEYWORDS))
    if unknown:
        raise SessionError(
            f"connect() takes no {', '.join(unknown)}; "
            f"Session accepts {', '.join(_SESSION_KEYWORDS)}"
        )
    if system is None:
        if not peers:
            raise SessionError("connect() needs an AXMLSystem or peers=[...]")
        system = AXMLSystem.with_peers(list(peers), topology=topology)
    elif peers:
        raise SessionError("pass either a system or peers=[...], not both")
    return Session(system, **session_kwargs)
